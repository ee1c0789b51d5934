// Package telemetry is the repository's stdlib-only observability layer:
// a metrics registry of atomic counters, gauges and fixed-bucket latency
// histograms (lock-free hot path, snapshot-on-read), the stage table that
// finished trace spans fold into, and a privacy-budget ledger that records
// every differentially private release the process performs.
//
// # The no-sensitive-labels invariant
//
// Everything this package exports — metric values, stage timings, budget
// events — is served over HTTP by cmd/recserve and written to logs. For the
// privacy proof to survive, that exported state must remain pure
// post-processing of public or sanitized data: no user id, item id or
// preference value may ever become a metric name, label or stage name. The
// package enforces this by construction:
//
//   - Metric and label names must match [a-z][a-z0-9_]* and are fixed at
//     registration time.
//   - Labeled instruments (CounterVec, HistogramVec) enumerate every legal
//     label value at registration; With rejects any value outside that set,
//     so a request parameter can never mint a new time series.
//   - Instruments carry only aggregate numbers (counts, sums, bucket
//     tallies), never per-request payloads.
//
// sociolint's telemetryimports analyzer additionally forbids this package
// from importing any module-internal package (so no preference or graph
// type can even be named here) or math/rand.
//
// The hot path (Counter.Add, Gauge.Set, Histogram.Observe, StageTable.Observe) is
// lock-free: instruments are immutable after registration and mutate only
// sync/atomic values. Registration and snapshotting take a registry lock
// and are expected to be rare.
package telemetry

import (
	"fmt"
	"sort"
	"sync"
)

// ValidName reports whether s is a legal metric, label, stage, span or
// attribute name: non-empty, starting with a lower-case letter, continuing
// with lower-case letters, digits or underscores. The restriction is
// deliberate — names this shape cannot smuggle user tokens, item ids or
// float values into the exported state. It is the repository's one
// static-identifier rule: internal/trace, internal/pipeline and the fleet
// collector (which re-validates names scraped off the wire before
// re-exporting them) all apply it.
func ValidName(s string) bool {
	if len(s) == 0 {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z':
		case r == '_' && i > 0:
		case r >= '0' && r <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}

// Registry holds a process's registered instruments. Registration is
// idempotent: re-registering a name with an identical specification returns
// the existing instrument (so independent subsystems may wire the same
// metric), while re-registering with a conflicting specification panics —
// silently serving two meanings under one name would corrupt dashboards.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	gaugeFuncs map[string]*gaugeFunc
	histograms map[string]*Histogram
	names      map[string]string // name → instrument kind, for cross-kind collisions
	order      []string          // registration order, for stable snapshots
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		gaugeFuncs: map[string]*gaugeFunc{},
		histograms: map[string]*Histogram{},
		names:      map[string]string{},
	}
}

// register claims name for the given instrument kind, panicking on invalid
// names and cross-kind collisions. Returns false if the name is already
// registered for the same kind (the caller then checks spec compatibility).
func (r *Registry) register(name, kind string) bool {
	if !ValidName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q (want [a-z][a-z0-9_]*)", name))
	}
	if have, ok := r.names[name]; ok {
		if have != kind {
			panic(fmt.Sprintf("telemetry: %s %q already registered as a %s", kind, name, have))
		}
		return false
	}
	r.names[name] = kind
	r.order = append(r.order, name)
	return true
}

var (
	defaultRegistry = NewRegistry()
	defaultLedger   = NewLedger()
	defaultStages   = NewStageTable()
)

// Default returns the process-wide registry, the one cmd/recserve serves at
// /metrics. Libraries register their instruments here unless handed an
// explicit registry.
func Default() *Registry { return defaultRegistry }

// Budget returns the process-wide privacy-budget ledger. internal/mechanism
// and internal/release record every release event here.
func Budget() *Ledger { return defaultLedger }

// Stages returns the process-wide stage table: every finished
// internal/trace span — offline roots such as engine_build and
// laplace_release, request roots and the serving path's per-batch phases —
// folds its duration in here.
func Stages() *StageTable { return defaultStages }

// sortedKeys returns m's keys ordered for deterministic snapshots.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
