package server

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"socialrec/internal/core"
)

// Hot is an atomically swappable Engine for hot-reload serving. Requests
// read the current engine through one atomic pointer load; Swap installs a
// new release without blocking in-flight requests, which finish against
// the engine they started with. A failed reload calls Fail instead, which
// keeps the last-good engine serving and marks the slot degraded — the
// readiness endpoint surfaces that state so operators see "stale but
// serving" rather than an outage.
//
// Hot itself implements Engine by delegation, so it can be wired into
// Config.Engine unchanged. The zero Hot holds no engine: Swap must install
// one before any request can reach it.
type Hot struct {
	slot atomic.Pointer[hotSlot]
}

// hotSlot is the immutable state one atomic load observes. Degradation
// replaces the whole slot (copying the engine pointer) rather than
// mutating it, so a reader never sees a half-updated status.
//
// Beside the serving engine, the slot retains the engine of the last FULL
// release generation. Delta releases (internal/release deltas produced by
// the streaming updater) swap in engines derived from that generation plus
// a chain of deltas; if a later delta proves invalid — base mismatch, a
// corrupt artifact discovered on reload — Rollback restores the retained
// full engine from memory without touching disk, so serving degrades to
// the last full generation instead of going dark.
type hotSlot struct {
	engine      Engine
	version     uint64
	loadedAt    time.Time
	degraded    bool
	reason      string
	fullEngine  Engine
	fullVersion uint64
	deltas      []uint64
}

// HotStatus is a point-in-time view of the serving slot.
type HotStatus struct {
	// Version identifies the release generation being served: the release
	// store's version number, or 1 for a release built in-process without
	// a store.
	Version uint64
	// LoadedAt is when the serving engine was installed.
	LoadedAt time.Time
	// Degraded reports that a reload failed after this engine was
	// installed: serving continues from the last-good (stale) release.
	Degraded bool
	// Reason is the failure description for a degraded slot.
	Reason string
	// FullVersion is the last full generation behind the serving engine;
	// equal to Version when no deltas are applied.
	FullVersion uint64
	// Deltas lists the delta versions applied on top of FullVersion, in
	// application order — the serving lineage.
	Deltas []uint64
}

// NewHot returns a Hot serving engine at the given release version.
func NewHot(engine Engine, version uint64) *Hot {
	h := &Hot{}
	h.slot.Store(&hotSlot{
		engine: engine, version: version, loadedAt: time.Now(),
		fullEngine: engine, fullVersion: version,
	})
	return h
}

// Engine returns the currently serving engine.
func (h *Hot) Engine() Engine { return h.slot.Load().engine }

// Swap atomically installs a new engine as a full release generation,
// clearing any degraded state and any delta lineage. In-flight requests
// keep the engine they already loaded.
func (h *Hot) Swap(engine Engine, version uint64) {
	h.slot.Store(&hotSlot{
		engine: engine, version: version, loadedAt: time.Now(),
		fullEngine: engine, fullVersion: version,
	})
}

// ApplyDelta installs an engine embodying the current full generation plus
// the delta chain. base must equal the version currently served and chain
// must extend the lineage already applied — a mismatch means the caller
// resolved a chain this slot is not serving, and nothing is installed. The
// full generation's engine stays retained for Rollback.
func (h *Hot) ApplyDelta(engine Engine, base uint64, chain []uint64) error {
	cur := h.slot.Load()
	if base != cur.version {
		return fmt.Errorf("server: delta chain expects base version %d but %d is serving", base, cur.version)
	}
	if len(chain) <= len(cur.deltas) {
		return fmt.Errorf("server: delta chain of %d adds nothing to the %d applied", len(chain), len(cur.deltas))
	}
	prev := cur.fullVersion
	for i, v := range chain {
		if i < len(cur.deltas) && cur.deltas[i] != v {
			return fmt.Errorf("server: delta chain diverges from applied lineage at version %d", v)
		}
		if v <= prev {
			return fmt.Errorf("server: delta chain version %d out of order", v)
		}
		prev = v
	}
	h.slot.Store(&hotSlot{
		engine: engine, version: chain[len(chain)-1], loadedAt: time.Now(),
		fullEngine: cur.fullEngine, fullVersion: cur.fullVersion,
		deltas: append([]uint64(nil), chain...),
	})
	return nil
}

// Rollback discards the applied delta chain and restores the retained full
// generation's engine, marking the slot degraded with the given reason —
// "stale but serving" after a delta proved invalid. It reports the version
// now serving. A slot with no deltas applied only becomes degraded (the
// full engine is already serving).
func (h *Hot) Rollback(reason string) uint64 {
	cur := h.slot.Load()
	h.slot.Store(&hotSlot{
		engine: cur.fullEngine, version: cur.fullVersion, loadedAt: time.Now(),
		degraded: true, reason: reason,
		fullEngine: cur.fullEngine, fullVersion: cur.fullVersion,
	})
	return cur.fullVersion
}

// Fail records a failed reload: the current engine keeps serving, the slot
// becomes degraded with the given reason.
func (h *Hot) Fail(reason string) {
	cur := h.slot.Load()
	h.slot.Store(&hotSlot{
		engine:   cur.engine,
		version:  cur.version,
		loadedAt: cur.loadedAt,
		degraded: true,
		reason:   reason,

		fullEngine:  cur.fullEngine,
		fullVersion: cur.fullVersion,
		deltas:      cur.deltas,
	})
}

// Status reports the serving slot's provenance and degradation state.
func (h *Hot) Status() HotStatus {
	s := h.slot.Load()
	return HotStatus{
		Version: s.version, LoadedAt: s.loadedAt, Degraded: s.degraded, Reason: s.reason,
		FullVersion: s.fullVersion, Deltas: append([]uint64(nil), s.deltas...),
	}
}

// RecommendContext implements Engine. The in-flight request keeps the
// engine it loaded even if a reload swaps the slot mid-call.
//
//sociolint:hotpath
func (h *Hot) RecommendContext(ctx context.Context, user, n int) ([]core.Recommendation, error) {
	return h.slot.Load().engine.RecommendContext(ctx, user, n)
}

// Recommend is RecommendContext on a background context, kept for callers
// outside a request (warmup loops, tests).
func (h *Hot) Recommend(user, n int) ([]core.Recommendation, error) {
	return h.slot.Load().engine.RecommendContext(context.Background(), user, n)
}

// ClusterOf implements Engine.
func (h *Hot) ClusterOf(user int) int { return h.slot.Load().engine.ClusterOf(user) }

// Epsilon implements Engine.
func (h *Hot) Epsilon() float64 { return h.slot.Load().engine.Epsilon() }

// NumClusters implements Engine.
func (h *Hot) NumClusters() int { return h.slot.Load().engine.NumClusters() }

// Modularity implements Engine.
func (h *Hot) Modularity() float64 { return h.slot.Load().engine.Modularity() }

// Owns forwards the ownership check to the serving engine: a hot slot
// holding a shard engine keeps refusing misrouted users across reloads,
// while a whole-population engine owns everyone.
func (h *Hot) Owns(user int) bool {
	if o, ok := h.slot.Load().engine.(owner); ok {
		return o.Owns(user)
	}
	return true
}

// statuser is the optional interface the readiness endpoint uses to report
// release provenance; *Hot implements it.
type statuser interface{ Status() HotStatus }

var _ Engine = (*Hot)(nil)
var _ statuser = (*Hot)(nil)
