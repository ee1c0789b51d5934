package telemetry

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The hot path is a single
// atomic add.
type Counter struct {
	name       string
	help       string
	labelKey   string // "" for unlabeled counters
	labelValue string
	v          atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Name returns the counter's registered name.
func (c *Counter) Name() string { return c.name }

// NewCounter registers (or returns the existing) unlabeled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.register(name, "counter") {
		c := r.counters[name]
		if c.labelKey != "" {
			panic(fmt.Sprintf("telemetry: counter %q already registered with label %q", name, c.labelKey))
		}
		return c
	}
	c := &Counter{name: name, help: help}
	r.counters[name] = c
	return c
}

// CounterVec is a family of counters distinguished by one label whose legal
// values are enumerated at registration. There is deliberately no way to
// add a value later: a label value observed at request time (a user token,
// an item id) cannot become a counter, which is what keeps the exported
// metric state free of sensitive data.
type CounterVec struct {
	name     string
	labelKey string
	children map[string]*Counter // immutable after construction
}

// NewCounterVec registers a counter family with the given label key and the
// complete set of legal label values. Registration with an identical
// specification is idempotent; a conflicting one panics.
func (r *Registry) NewCounterVec(name, help, labelKey string, values ...string) *CounterVec {
	if !ValidName(labelKey) {
		panic(fmt.Sprintf("telemetry: invalid label key %q", labelKey))
	}
	if len(values) == 0 {
		panic(fmt.Sprintf("telemetry: counter vec %q declares no label values", name))
	}
	for _, v := range values {
		if !ValidName(v) {
			panic(fmt.Sprintf("telemetry: invalid label value %q for %q (label values are static identifiers, never request data)", v, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	key := func(v string) string { return name + "{" + labelKey + "=" + v + "}" }
	if !r.register(name, "counter") {
		// Existing registration: verify the spec matches exactly.
		vec := &CounterVec{name: name, labelKey: labelKey, children: map[string]*Counter{}}
		for _, v := range values {
			c, ok := r.counters[key(v)]
			if !ok || c.labelKey != labelKey {
				panic(fmt.Sprintf("telemetry: counter %q re-registered with a different label set", name))
			}
			vec.children[v] = c
		}
		return vec
	}
	vec := &CounterVec{name: name, labelKey: labelKey, children: make(map[string]*Counter, len(values))}
	for _, v := range values {
		c := &Counter{name: name, help: help, labelKey: labelKey, labelValue: v}
		vec.children[v] = c
		r.counters[key(v)] = c
	}
	return vec
}

// With returns the child counter for a declared label value, or an error
// for any other value. The error path is how the registry rejects dynamic
// labels: there is no way to create a counter for a value that was not
// spelled out as a static string at registration.
func (v *CounterVec) With(value string) (*Counter, error) {
	c, ok := v.children[value]
	if !ok {
		// The rejected value is deliberately not echoed: a dynamic label
		// is rejected exactly because it may carry per-user data, and this
		// error ends up in logs (or a MustWith panic).
		return nil, fmt.Errorf("telemetry: undeclared label value for counter %q (dynamic label values are forbidden)", v.name)
	}
	return c, nil
}

// MustWith is With for wiring code with compile-time-constant values; it
// panics on an undeclared value.
func (v *CounterVec) MustWith(value string) *Counter {
	c, err := v.With(value)
	if err != nil {
		panic(err)
	}
	return c
}

// Gauge is a metric that can go up and down (in-flight requests, cache
// size). Stored as an int64; exported as a float64.
type Gauge struct {
	name       string
	help       string
	labelKey   string
	labelValue string
	v          atomic.Int64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds delta (negative to decrement).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// NewGauge registers (or returns the existing) gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.register(name, "gauge") {
		return r.gauges[name]
	}
	g := &Gauge{name: name, help: help}
	r.gauges[name] = g
	return g
}

// gaugeFunc is a gauge whose value is polled at snapshot time — the bridge
// for subsystems that keep their own counters (e.g. simcache) without
// importing telemetry.
type gaugeFunc struct {
	name string
	help string
	fn   func() float64
}

// NewGaugeFunc registers a polled gauge. fn is called under no locks at
// snapshot time and must be safe for concurrent use. Re-registering a name
// replaces the function (a new engine replaces a torn-down one).
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	if fn == nil {
		panic(fmt.Sprintf("telemetry: nil func for gauge %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.register(name, "gaugefunc") {
		r.gaugeFuncs[name] = &gaugeFunc{name: name, help: help, fn: fn}
		return
	}
	r.gaugeFuncs[name].fn = fn
}

// DefLatencyBuckets are the default histogram bounds for request latencies,
// in seconds: 100µs to 10s, roughly logarithmic.
var DefLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 10,
}

// Exemplar links one histogram bucket to a retained trace: the last
// observed value that landed in the bucket and the trace that produced it.
// The trace id is the only non-numeric field and is validated to be exactly
// 32 lowercase hex digits — an opaque correlation token, never request data.
type Exemplar struct {
	Value   float64 `json:"value"`
	TraceID string  `json:"trace_id"`
}

// isTraceHex reports whether s is a W3C trace id: 32 lowercase hex digits.
func isTraceHex(s string) bool {
	if len(s) != 32 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// exemplarSlot stores one bucket's exemplar in preallocated atomic words —
// the value as float bits, the 32-hex-digit trace id packed into four
// uint64s — so stamping an exemplar on the request path boxes nothing and
// allocates nothing. Consistency uses a seqlock: a writer CASes seq from
// even to odd, stores the fields, then publishes seq+2; a concurrent
// writer that loses the CAS simply skips (exemplars are best-effort
// last-writer state, so dropping one under contention is the right loss).
// Readers retry while seq is odd or changed mid-read. Every access is an
// atomic operation, so the race detector sees a data-race-free protocol.
type exemplarSlot struct {
	seq   atomic.Uint64 // 0 = never written; odd = write in flight
	bits  atomic.Uint64 // math.Float64bits of the value
	trace [4]atomic.Uint64
}

// store stamps (v, traceID) into the slot without allocating. traceID must
// already be validated as exactly 32 bytes of lowercase hex.
//
//sociolint:hotpath
func (s *exemplarSlot) store(v float64, traceID string) {
	seq := s.seq.Load()
	if seq&1 == 1 || !s.seq.CompareAndSwap(seq, seq+1) {
		return // another writer is mid-flight; skip, keep the hot path wait-free
	}
	s.bits.Store(math.Float64bits(v))
	var b [32]byte
	copy(b[:], traceID)
	for i := range s.trace {
		s.trace[i].Store(binary.LittleEndian.Uint64(b[i*8:]))
	}
	s.seq.Store(seq + 2)
}

// load materializes the slot's exemplar, or nil when none was ever stored
// (or a writer kept winning during every retry). Called on the snapshot
// path, where allocation is fine.
func (s *exemplarSlot) load() *Exemplar {
	for tries := 0; tries < 8; tries++ {
		seq := s.seq.Load()
		if seq == 0 {
			return nil
		}
		if seq&1 == 1 {
			continue
		}
		bits := s.bits.Load()
		var b [32]byte
		for i := range s.trace {
			binary.LittleEndian.PutUint64(b[i*8:], s.trace[i].Load())
		}
		if s.seq.Load() == seq {
			return &Exemplar{Value: math.Float64frombits(bits), TraceID: string(b[:])}
		}
	}
	return nil
}

// Histogram counts observations into fixed buckets chosen at registration.
// Observe is lock-free: one atomic add on the bucket, one on the count, and
// a CAS loop on the float sum.
type Histogram struct {
	name       string
	help       string
	labelKey   string
	labelValue string
	bounds     []float64 // sorted upper bounds; an implicit +Inf bucket follows
	buckets    []atomic.Uint64
	exemplars  []exemplarSlot // one preallocated slot per bucket, incl. +Inf
	count      atomic.Uint64
	sumBits    atomic.Uint64 // math.Float64bits of the running sum
}

func newHistogram(name, help, labelKey, labelValue string, bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefLatencyBuckets
	}
	if !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("telemetry: histogram %q bounds are not sorted", name))
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{
		name: name, help: help, labelKey: labelKey, labelValue: labelValue,
		bounds:    b,
		buckets:   make([]atomic.Uint64, len(b)+1),
		exemplars: make([]exemplarSlot, len(b)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		want := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, want) {
			return
		}
	}
}

// ObserveExemplar records one value and, when traceID is a well-formed
// trace id (32 lowercase hex digits), attaches it as the bucket's exemplar
// so a bad latency bucket links to a retained trace at /debug/traces. An
// ill-formed traceID degrades to a plain Observe — the validation is what
// keeps arbitrary request strings out of the exported state. The exemplar
// lands in a preallocated atomic slot, so the call is allocation-free.
//
//sociolint:hotpath
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	h.Observe(v)
	if !isTraceHex(traceID) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.exemplars[i].store(v, traceID)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// NewHistogram registers (or returns the existing) unlabeled histogram.
// nil bounds select DefLatencyBuckets.
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.register(name, "histogram") {
		return r.histograms[name]
	}
	h := newHistogram(name, help, "", "", bounds)
	r.histograms[name] = h
	return h
}

// HistogramVec is a family of histograms with one enumerated label, under
// the same closed-world rule as CounterVec.
type HistogramVec struct {
	name     string
	labelKey string
	children map[string]*Histogram
}

// NewHistogramVec registers a histogram family over the declared label
// values. nil bounds select DefLatencyBuckets.
func (r *Registry) NewHistogramVec(name, help, labelKey string, bounds []float64, values ...string) *HistogramVec {
	if !ValidName(labelKey) {
		panic(fmt.Sprintf("telemetry: invalid label key %q", labelKey))
	}
	if len(values) == 0 {
		panic(fmt.Sprintf("telemetry: histogram vec %q declares no label values", name))
	}
	for _, v := range values {
		if !ValidName(v) {
			panic(fmt.Sprintf("telemetry: invalid label value %q for %q (label values are static identifiers, never request data)", v, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	key := func(v string) string { return name + "{" + labelKey + "=" + v + "}" }
	if !r.register(name, "histogram") {
		vec := &HistogramVec{name: name, labelKey: labelKey, children: map[string]*Histogram{}}
		for _, v := range values {
			h, ok := r.histograms[key(v)]
			if !ok || h.labelKey != labelKey {
				panic(fmt.Sprintf("telemetry: histogram %q re-registered with a different label set", name))
			}
			vec.children[v] = h
		}
		return vec
	}
	vec := &HistogramVec{name: name, labelKey: labelKey, children: make(map[string]*Histogram, len(values))}
	for _, v := range values {
		h := newHistogram(name, help, labelKey, v, bounds)
		vec.children[v] = h
		r.histograms[key(v)] = h
	}
	return vec
}

// With returns the child histogram for a declared label value, or an error
// for any other value.
func (v *HistogramVec) With(value string) (*Histogram, error) {
	h, ok := v.children[value]
	if !ok {
		// As with CounterVec.With: never echo the rejected dynamic value.
		return nil, fmt.Errorf("telemetry: undeclared label value for histogram %q (dynamic label values are forbidden)", v.name)
	}
	return h, nil
}

// MustWith is With panicking on an undeclared value.
func (v *HistogramVec) MustWith(value string) *Histogram {
	h, err := v.With(value)
	if err != nil {
		panic(err)
	}
	return h
}
