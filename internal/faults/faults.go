// Package faults is a deterministic fault-injection substrate for testing
// the serving tier's failure paths: disk corruption, partial writes, slow
// or failing I/O, and handler crashes.
//
// The paper's production pattern — release once, serve anywhere, never
// re-touch the raw preference data — only holds if the serving process
// survives those failures without falling back to the raw preference
// graph. The failure paths that protect that invariant (crash-safe release
// persistence, recovery from torn files, panic containment, load shedding)
// are exactly the paths that ordinary tests never execute. This package
// makes them executable on demand and, crucially, deterministically: every
// fault decision derives from an explicit seed and a per-point counter, so
// a failing schedule replays bit-for-bit and a CI failure reproduces
// locally with the same seed.
//
// The package has three layers:
//
//   - A Registry of named injection Points. Production code consults a
//     (possibly nil) *Registry at its fault points; tests and the
//     -chaos flag of cmd/recserve arm Plans on those points. A nil or
//     unarmed registry costs one nil check / one mutex acquisition and
//     injects nothing.
//   - An fs-like file abstraction (fs.go): the tiny slice of the os
//     package the release store needs, with a real implementation (OS)
//     and a fault-injecting wrapper (NewFS) that can fail opens, writes,
//     syncs and renames on schedule — simulating crashes mid-persist
//     without crashing the test process.
//   - The crash-safe write discipline over that abstraction (atomic.go):
//     WriteAtomicFunc and the SweepTmp debris sweeper, shared by every
//     store that persists whole files.
//
// faults never touches math/rand: each point's deterministic stream is a
// SplitMix64 (internal/splitmix), so arming a fault schedule can never
// perturb an engine's seeded noise or clustering randomness.
package faults

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"socialrec/internal/splitmix"
)

// ErrInjected is the sentinel all injected failures wrap; test code and
// callers distinguish injected faults from real ones with errors.Is.
var ErrInjected = errors.New("faults: injected failure")

// Point names one injection site (e.g. "fs.sync", "http.handler").
// Production code chooses stable, documented names; tests arm them.
type Point string

// Standard points consulted by this repository's serving stack. Arbitrary
// additional points are legal; these constants exist so tests and the
// -chaos flag spell them consistently.
const (
	// PointFSOpen .. PointFSSyncDir are consulted by the fault-injecting
	// filesystem (NewFS) before each corresponding operation.
	PointFSOpen    Point = "fs.open"
	PointFSCreate  Point = "fs.create"
	PointFSRead    Point = "fs.read"
	PointFSWrite   Point = "fs.write"
	PointFSSync    Point = "fs.sync"
	PointFSClose   Point = "fs.close"
	PointFSRename  Point = "fs.rename"
	PointFSRemove  Point = "fs.remove"
	PointFSReadDir Point = "fs.readdir"
	PointFSSyncDir Point = "fs.syncdir"
	// PointHandler is consulted by internal/server's chaos middleware once
	// per hardened request.
	PointHandler Point = "http.handler"
	// PointShardCall is consulted by internal/router before each proxied
	// attempt to a shard replica, so chaos tests can fail or delay the
	// router→shard hop without touching the shard processes themselves.
	PointShardCall Point = "router.shard_call"
)

// Plan describes when an armed point fires and what happens when it does.
// The zero Plan fires on every check with ErrInjected — the simplest
// always-fail schedule.
type Plan struct {
	// After skips the first After checks before the plan may fire. An
	// After of 3 with Prob 0 fires first on the 4th check — "the write
	// succeeds three times, then the disk dies".
	After uint64
	// Prob fires the plan on each eligible check with this probability,
	// drawn from the point's seeded deterministic stream. 0 means fire on
	// every eligible check (deterministic schedules); use a tiny Prob for
	// background chaos.
	Prob float64
	// Times caps how often the plan fires; 0 is unlimited. A Times of 1
	// models a transient fault that a retry survives.
	Times uint64
	// Err is the error injected when the plan fires; nil selects
	// ErrInjected. The injected error always wraps ErrInjected either way.
	Err error
	// Delay, when non-zero, sleeps this long on every firing before
	// returning (latency injection). A Delay may accompany an Err.
	Delay time.Duration
	// DelayOnly fires the Delay without returning an error — pure latency
	// injection for overload and timeout testing.
	DelayOnly bool
	// Panic makes the firing panic with an InjectedPanic instead of
	// returning an error, for exercising recovery middleware.
	Panic bool
}

// InjectedPanic is the value a panicking plan panics with, so recovery
// middleware and tests can recognize deliberate crashes.
type InjectedPanic struct{ Point Point }

func (p InjectedPanic) String() string {
	return fmt.Sprintf("faults: injected panic at %s", p.Point)
}

// armed is one point's armed plan plus its deterministic decision state.
type armed struct {
	plan   Plan
	rng    uint64 // SplitMix64 state
	checks uint64
	fired  uint64
}

// Registry maps points to armed plans. The zero value is not usable; New
// constructs one. All methods are safe for concurrent use, and all methods
// on a nil *Registry are no-ops that inject nothing — production code can
// plumb a nil registry through unconditionally.
type Registry struct {
	seed int64
	mu   sync.Mutex
	pts  map[Point]*armed
}

// New returns an empty registry whose fault schedules derive from seed.
// The same seed, arming sequence and check sequence reproduce the same
// faults.
func New(seed int64) *Registry {
	return &Registry{seed: seed, pts: make(map[Point]*armed)}
}

// Arm installs (or replaces) the plan for a point, resetting its counters.
func (r *Registry) Arm(p Point, plan Plan) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pts[p] = &armed{plan: plan, rng: pointStream(r.seed, string(p))}
}

// Disarm removes the plan for a point.
func (r *Registry) Disarm(p Point) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.pts, p)
}

// DisarmAll removes every armed plan.
func (r *Registry) DisarmAll() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pts = make(map[Point]*armed)
}

// Points returns the currently armed points, sorted.
func (r *Registry) Points() []Point {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Point, 0, len(r.pts))
	for p := range r.pts {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Checks reports how many times a point has been consulted.
func (r *Registry) Checks(p Point) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if a, ok := r.pts[p]; ok {
		return a.checks
	}
	return 0
}

// Fired reports how many times a point's plan has fired.
func (r *Registry) Fired(p Point) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if a, ok := r.pts[p]; ok {
		return a.fired
	}
	return 0
}

// Check consults the point: it returns nil when the point is unarmed or
// its plan does not fire, sleeps when the firing plan carries a Delay, and
// otherwise returns the plan's injected error (wrapping ErrInjected). A
// firing plan with Panic set panics with an InjectedPanic instead.
func (r *Registry) Check(p Point) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	a, ok := r.pts[p]
	if !ok {
		r.mu.Unlock()
		return nil
	}
	a.checks++
	fire := a.checks > a.plan.After &&
		(a.plan.Times == 0 || a.fired < a.plan.Times) &&
		(a.plan.Prob <= 0 || splitmix.Float64(&a.rng) < a.plan.Prob)
	if fire {
		a.fired++
	}
	plan := a.plan
	r.mu.Unlock()
	if !fire {
		return nil
	}
	if plan.Delay > 0 {
		time.Sleep(plan.Delay)
	}
	if plan.DelayOnly {
		return nil
	}
	if plan.Panic {
		panic(InjectedPanic{Point: p})
	}
	if plan.Err != nil {
		return fmt.Errorf("%w: %s: %w", ErrInjected, p, plan.Err)
	}
	return fmt.Errorf("%w: %s", ErrInjected, p)
}

// pointStream derives an independent SplitMix64 state per (seed, point)
// pair via an FNV-1a hash of the point name folded into the seed.
func pointStream(seed int64, point string) uint64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	for i := 0; i < len(point); i++ {
		h ^= uint64(point[i])
		h *= fnvPrime
	}
	return h ^ uint64(seed)
}
