package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"socialrec"
	"socialrec/internal/dynamic"
	"socialrec/internal/graph"
	"socialrec/internal/release"
	"socialrec/internal/server"
	"socialrec/internal/simcache"
	"socialrec/internal/telemetry"
	"socialrec/internal/wal"
)

// mutationsPerBatch is how many preference mutations one WAL sync carries.
const mutationsPerBatch = 4

// installed is one release version the Hot slot served.
type installed struct {
	version uint64
	lineage release.Lineage
}

// decisions counts the updater's decisions by kind.
type decisions struct{ full, delta, held int }

// updateState is the update workload's write side: a WAL writer, the
// streaming updater, and the reload that installs every publish into the
// serving Hot slot.
type updateState struct {
	upd    *dynamic.Updater
	log    *wal.Log
	store  *release.Store
	social *graph.Social
	hot    *server.Hot
	ver    *versions
	reg    *telemetry.Registry // the registry the WAL and the updater report to

	mu      sync.Mutex // guards history and cacheBase against the generator
	history []installed
	// cacheBase accumulates the similarity-cache counters of engines the
	// reloads replaced.
	cacheBase simcache.Stats

	// Written by the writer goroutine only; read after it returns.
	appendSyncMS, advanceMS, reloadMS, deltaLoadMS []float64
	freshS                                         []float64
	tally                                          decisions // as Advance returned them
}

// counted is the updater's own count of its decisions, from its registry.
func (u *updateState) counted() decisions {
	pubs := int(counter(u.reg, "updater_publishes_total"))
	delta := int(counter(u.reg, "updater_delta_publishes_total"))
	return decisions{full: pubs - delta, delta: delta, held: int(counter(u.reg, "updater_drift_skips_total"))}
}

// loadLineage is cmd/recserve's loadLineageStore: an engine over the
// store's newest lineage and, when that lineage carries deltas, a second
// engine over its bare full generation, retained for rollback.
func (u *updateState) loadLineage(ctx context.Context) (engine, full *socialrec.Engine, ln release.Lineage, err error) {
	rel, ln, _, err := u.store.LoadLatestContext(ctx)
	if err != nil {
		return nil, nil, ln, err
	}
	if engine, err = socialrec.EngineFromRelease(rel, u.social); err != nil {
		return nil, nil, ln, err
	}
	full = engine
	if len(ln.Deltas) > 0 {
		fullRel, err := u.store.LoadVersionContext(ctx, ln.Full)
		if err != nil {
			return nil, nil, ln, err
		}
		if full, err = socialrec.EngineFromRelease(fullRel, u.social); err != nil {
			return nil, nil, ln, err
		}
	}
	return engine, full, ln, nil
}

// reload is cmd/recserve's reloadFromStore, step by step: a longer delta
// chain on the serving full generation installs through ApplyDelta, a new
// full generation through Swap (then ApplyDelta for deltas already on top
// of it), and a refused or unresolvable chain rolls back to the retained
// full generation. Every reload here follows a publish, so one that leaves
// the serving lineage unchanged or rolls back fails the run.
func (u *updateState) reload(ctx context.Context) error {
	t0 := time.Now()
	engine, full, ln, err := u.loadLineage(ctx)
	st := u.hot.Status()
	if err != nil {
		u.hot.Fail(err.Error())
		return err
	}
	if len(ln.Deltas) > 0 {
		u.deltaLoadMS = append(u.deltaLoadMS, ms(time.Since(t0)))
	}
	newV := ln.Version()
	if ln.Full == st.FullVersion && newV == st.Version {
		return fmt.Errorf("perfbench: a publish left the store at the serving version %d", newV)
	}
	if ln.Full == st.FullVersion && newV < st.Version {
		v := u.hot.Rollback(fmt.Sprintf("delta chain resolvable only to version %d (served %d)", newV, st.Version))
		return fmt.Errorf("perfbench: delta chain resolvable only to version %d (was serving %d); rolled back to %d",
			newV, st.Version, v)
	}
	retired := []server.Engine{u.hot.Engine()}
	engine.EnableSimilarityCache(cacheCap)
	u.ver.next.Store(newV)
	installs := []installed{{version: newV, lineage: ln}}
	if ln.Full == st.FullVersion {
		if err := u.hot.ApplyDelta(engine, st.Version, ln.Deltas); err != nil {
			v := u.hot.Rollback(err.Error())
			return fmt.Errorf("perfbench: delta apply refused (%v); rolled back to full generation %d", err, v)
		}
	} else {
		if len(ln.Deltas) > 0 {
			// recserve enables this cache just after the Swap, while the
			// engine already serves; here it comes first, so as not to race
			// with the generator's requests.
			full.EnableSimilarityCache(cacheCap)
			retired = append(retired, full)
			installs = append([]installed{{version: ln.Full, lineage: release.Lineage{Full: ln.Full}}}, installs...)
		}
		u.hot.Swap(full, ln.Full)
		if len(ln.Deltas) > 0 {
			if err := u.hot.ApplyDelta(engine, ln.Full, ln.Deltas); err != nil {
				v := u.hot.Rollback(err.Error())
				return fmt.Errorf("perfbench: delta apply refused (%v); serving full generation %d", err, v)
			}
		}
	}
	u.mu.Lock()
	for _, e := range retired {
		if cs, ok := e.(cacheStatser); ok {
			if s, ok := cs.CacheStats(); ok {
				u.cacheBase.Hits += s.Hits
				u.cacheBase.Misses += s.Misses
				u.cacheBase.Evictions += s.Evictions
			}
		}
	}
	u.history = append(u.history, installs...)
	u.mu.Unlock()
	u.ver.cur.Store(newV)
	u.reloadMS = append(u.reloadMS, ms(time.Since(t0)))
	return nil
}

// cacheStats is the served similarity caches' counters so far, across
// every engine the slot has held.
func (u *updateState) cacheStats() simcache.Stats {
	u.mu.Lock()
	s := u.cacheBase
	u.mu.Unlock()
	if e, ok := u.hot.Engine().(cacheStatser); ok {
		if cs, ok := e.CacheStats(); ok {
			s.Hits += cs.Hits
			s.Misses += cs.Misses
			s.Evictions += cs.Evictions
		}
	}
	return s
}

func (u *updateState) historyCopy() []installed {
	u.mu.Lock()
	defer u.mu.Unlock()
	return append([]installed(nil), u.history...)
}

// mutator draws user-local preference mutations: users from a Zipf law, so
// each WAL batch touches a few communities rather than the whole graph.
type mutator struct {
	rng   *rand.Rand
	pick  *picker
	items int
	prefs *graph.Preference
	owned map[int][]int32 // current items of users mutated so far
}

func newMutator(seed int64, prefs *graph.Preference) *mutator {
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	return &mutator{rng: rng, pick: newPicker(rng, prefs.NumUsers()), items: prefs.NumItems(),
		prefs: prefs, owned: map[int][]int32{}}
}

func (m *mutator) next() (wal.Op, int64, int64) {
	u := m.pick.next()
	its, ok := m.owned[u]
	if !ok {
		its = append([]int32(nil), m.prefs.Items(u)...)
	}
	if len(its) > 0 && m.rng.Intn(3) == 0 {
		k := m.rng.Intn(len(its))
		it := its[k]
		its[k] = its[len(its)-1]
		m.owned[u] = its[:len(its)-1]
		return wal.OpDelPref, int64(u), int64(it)
	}
	it := int32(m.rng.Intn(m.items))
	m.owned[u] = append(its, it)
	return wal.OpAddPref, int64(u), int64(it)
}

// write appends batches WAL batches, paced evenly over window: each batch
// is synced, then the updater decides, and every publish is reloaded into
// the serving slot. The batch count is fixed, so the decisions repeat
// exactly for a seed; when a batch overruns its slot the next one starts at
// once.
func (u *updateState) write(ctx context.Context, m *mutator, batches int, window time.Duration) error {
	start := time.Now()
	for b := 0; b < batches; b++ {
		if d := time.Duration(b)*window/time.Duration(batches) - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		t0 := time.Now()
		for i := 0; i < mutationsPerBatch; i++ {
			op, a, c := m.next()
			if _, err := u.log.Append(op, a, c); err != nil {
				return err
			}
		}
		if err := u.log.Sync(); err != nil {
			return err
		}
		synced := time.Now()
		u.appendSyncMS = append(u.appendSyncMS, ms(synced.Sub(t0)))
		d, err := u.upd.Advance()
		if err != nil {
			return err
		}
		u.advanceMS = append(u.advanceMS, ms(time.Since(synced)))
		if !d.Published {
			u.tally.held++
			continue
		}
		if d.Kind == "full" {
			u.tally.full++
		} else {
			u.tally.delta++
		}
		if err := u.reload(ctx); err != nil {
			return err
		}
		u.freshS = append(u.freshS, time.Since(synced).Seconds())
	}
	return nil
}

// releaseAt reconstructs the release an installed version served: its full
// generation plus its delta chain, read back from the store.
func (u *updateState) releaseAt(ctx context.Context, in installed) (*release.Release, error) {
	rel, err := u.store.LoadVersionContext(ctx, in.lineage.Full)
	if err != nil {
		return nil, err
	}
	for _, v := range in.lineage.Deltas {
		d, err := u.store.LoadDeltaContext(ctx, v)
		if err != nil {
			return nil, err
		}
		if rel, err = d.Apply(rel); err != nil {
			return nil, err
		}
	}
	return rel, nil
}
