// Package trace is the repository's stdlib-only request-scoped tracer: it
// records causal trees of timed spans for individual recommendation
// requests and offline pipeline runs, complementing internal/telemetry's
// aggregates (which answer "how slow on average?") with per-request
// causality ("which child operation made THIS request slow, and which
// release did it observe?").
//
// # The no-preference-edges invariant
//
// Every retained trace is served over HTTP at /debug/traces, so the same
// discipline that guards telemetry labels guards span state, enforced by
// construction rather than by review:
//
//   - Span names must be static identifiers (telemetry.ValidName:
//     [a-z][a-z0-9_]*); anything else is recorded as "invalid_span".
//   - Attribute keys are declared up front through NewKey, which validates
//     the name and registers it in a closed world; a Key cannot be forged
//     (its field is unexported) and a zero Key is dropped on Set.
//   - Attribute values are int64, bool, or static-identifier strings.
//     There is deliberately no float constructor — an item score or a
//     noisy utility cannot become an attribute — and a string value that
//     is not a static identifier is replaced by "invalid_value", so a user
//     token or preference edge cannot ride along either.
//   - Error state is a status bit, never a message: error details belong
//     in logs, correlated back to the trace by trace_id (see NewSlogHandler).
//
// # Sampling
//
// Finished traces pass a two-tier sampler. Head sampling is deterministic
// on the trace ID (every process keeps the same subset, and an inbound
// traceparent keeps its fate from the caller's ID); tail retention then
// ALWAYS keeps traces whose root or any child errored, and traces whose
// root latency reaches a rolling quantile estimate of the recent latency
// distribution — the slow tail survives even a 1% head rate. Retained
// traces live in a fixed-size ring of reusable slots; old traces are
// overwritten in place, never reallocated.
//
// # Pooling and allocation
//
// Span and per-trace accumulation objects are pooled (sync.Pool) with
// fixed-capacity attribute slots, so the span hot path — StartLeaf, Set,
// End on a child of a live trace — performs zero heap allocations in
// steady state. Safety under recycling comes from generation counters: the
// public Span is a small value handle {object, generation}; every method
// re-checks the generation under the object's own mutex and becomes a
// no-op once the object has been released, so End stays idempotent and a
// child that outlives its root is counted late instead of corrupting an
// unrelated trace. Retention copies-on-retain: the ring stores compact
// span records copied out of the pooled accumulator at the moment a trace
// is kept, into slot storage the ring reuses across overwrites (JSON-shaped
// export is deferred to Snapshot time), so pooled objects recycle
// immediately regardless of sampling fate and retention itself allocates
// nothing in steady state.
package trace

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"

	"socialrec/internal/splitmix"
	"socialrec/internal/telemetry"
)

// TraceID identifies one causal tree of spans, 16 bytes as in W3C Trace
// Context.
type TraceID [16]byte

// IsZero reports whether the ID is the invalid all-zero ID.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String returns the 32-char lowercase hex form.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// SpanID identifies one span within a trace, 8 bytes as in W3C Trace
// Context.
type SpanID [8]byte

// IsZero reports whether the ID is the invalid all-zero ID.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String returns the 16-char lowercase hex form.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// Status is a span's terminal disposition. There is deliberately no error
// message: messages are dynamic strings and belong in logs, which carry
// the trace id for correlation.
type Status uint8

const (
	// StatusOK is the default: the operation completed normally.
	StatusOK Status = iota
	// StatusError marks the operation failed; an errored span forces its
	// whole trace through tail retention.
	StatusError
)

func (s Status) String() string {
	if s == StatusError {
		return "error"
	}
	return "ok"
}

// Config assembles a Tracer. The zero value selects production defaults.
type Config struct {
	// Capacity is how many retained traces the ring holds before the
	// oldest are overwritten; rounded up to a power of two. 0 selects 1024.
	Capacity int
	// HeadRate is the deterministic head-sampling probability in [0, 1],
	// keyed on the trace ID. 0 selects 1.0 (keep everything); use
	// HeadRateZero for a true 0 (tail-only retention).
	HeadRate float64
	// HeadRateZero forces a 0 head rate (HeadRate 0 otherwise means 1.0).
	HeadRateZero bool
	// SlowQuantile is the rolling latency quantile at and above which a
	// root span is retained regardless of head sampling; 0 selects 0.99.
	SlowQuantile float64
	// MaxChildren caps how many finished child spans one trace
	// accumulates; further children are counted as dropped. 0 selects 256.
	MaxChildren int
	// Seed, when non-zero, makes span/trace IDs a deterministic sequence
	// (tests). 0 seeds the generator from crypto/rand at construction.
	Seed int64
	// Process is the static process identity ("recrouter", "shard_0")
	// stamped on every exported trace, so a fleet collector stitching
	// spans from several /debug/traces exports can attribute each span to
	// the process that recorded it. Must be a static identifier under the
	// same closed-world rule as span names; anything else exports as
	// "invalid_process". Empty omits the field.
	Process string
}

// Tracer creates spans and retains sampled traces in a ring buffer.
type Tracer struct {
	ring        *ring
	quant       *quantile
	headBar     uint64 // keep when top 8 ID bytes <= headBar
	maxChildren int
	process     string // static process identity stamped on exports

	ids atomic.Uint64 // SplitMix64 state; IDs need uniqueness, not secrecy

	started   atomic.Uint64 // spans started
	roots     atomic.Uint64 // root spans started
	kept      atomic.Uint64
	keptHead  atomic.Uint64
	keptError atomic.Uint64
	keptSlow  atomic.Uint64
	discarded atomic.Uint64 // finished roots not retained
	lateSpans atomic.Uint64 // children finished after their root ended
}

// New builds a tracer. See Config for defaults.
func New(cfg Config) *Tracer {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 1024
	}
	if cfg.SlowQuantile <= 0 || cfg.SlowQuantile >= 1 {
		cfg.SlowQuantile = 0.99
	}
	if cfg.MaxChildren <= 0 {
		cfg.MaxChildren = 256
	}
	rate := cfg.HeadRate
	if cfg.HeadRateZero {
		rate = 0
	} else if rate <= 0 || rate > 1 {
		rate = 1
	}
	var bar uint64
	switch {
	case rate >= 1:
		bar = ^uint64(0)
	case rate <= 0:
		bar = 0
	default:
		bar = uint64(rate * float64(^uint64(0)))
	}
	proc := cfg.Process
	if proc != "" && !telemetry.ValidName(proc) {
		proc = "invalid_process"
	}
	t := &Tracer{
		ring:        newRing(cfg.Capacity),
		quant:       newQuantile(cfg.SlowQuantile),
		headBar:     bar,
		maxChildren: cfg.MaxChildren,
		process:     proc,
	}
	seed := cfg.Seed
	if seed == 0 {
		var b [8]byte
		if _, err := crand.Read(b[:]); err != nil {
			// Entropy exhaustion is effectively impossible; fall back to a
			// fixed seed rather than failing tracer construction. IDs stay
			// unique within the process either way.
			b = [8]byte{0x9e, 0x37, 0x79, 0xb9, 0x7f, 0x4a, 0x7c, 0x15}
		}
		seed = int64(binary.LittleEndian.Uint64(b[:]))
	}
	t.ids.Store(uint64(seed))
	return t
}

var defaultTracer atomic.Pointer[Tracer]

func init() {
	defaultTracer.Store(New(Config{}))
	telemetry.RegisterPoolStats("trace_span", func() telemetry.PoolStats {
		return telemetry.PoolStats{Gets: spanPoolGets.Load(), Misses: spanPoolNews.Load()}
	})
	telemetry.RegisterPoolStats("trace_root", func() telemetry.PoolStats {
		return telemetry.PoolStats{Gets: rootPoolGets.Load(), Misses: rootPoolNews.Load()}
	})
	// Telemetry's half of the trace-correlation handshake (it cannot import
	// this package): ε-spend attribution resolves the active span's trace id
	// on demand instead of every root span paying to stamp it eagerly.
	telemetry.SetTraceIDResolver(func(ctx context.Context) string {
		traceID, _ := FromContext(ctx).IDs()
		return traceID
	})
}

// Default returns the process-wide tracer, the one cmd/recserve serves at
// /debug/traces. Root spans started through the package-level Start use it.
func Default() *Tracer { return defaultTracer.Load() }

// SetDefault replaces the process-wide tracer (cmd/recserve configures
// sampling from flags before serving). nil is ignored.
func SetDefault(t *Tracer) {
	if t != nil {
		defaultTracer.Store(t)
	}
}

// nextID draws the next 64 pseudo-random bits (SplitMix64 over an atomic
// state; the stream is for uniqueness, not secrecy or privacy noise —
// privacy noise must flow through dp.NoiseSource, which sociolint
// enforces).
func (t *Tracer) nextID() uint64 {
	for {
		if z := splitmix.Mix(t.ids.Add(splitmix.Gamma)); z != 0 {
			return z
		}
	}
}

func (t *Tracer) newTraceID() TraceID {
	var id TraceID
	binary.BigEndian.PutUint64(id[:8], t.nextID())
	binary.BigEndian.PutUint64(id[8:], t.nextID())
	return id
}

func (t *Tracer) newSpanID() SpanID {
	var id SpanID
	binary.BigEndian.PutUint64(id[:], t.nextID())
	return id
}

// headSampled is the deterministic head decision: a pure function of the
// trace ID, so every hop of a distributed trace keeps or drops the same
// traces without coordination.
func (t *Tracer) headSampled(id TraceID) bool {
	return binary.BigEndian.Uint64(id[:8]) <= t.headBar
}

// root is the pooled per-trace accumulator shared by every span of one
// trace. Finished children fold compact records into children and their
// attributes into the arena; both slices keep their capacity across
// recycles, so steady-state folding never allocates. gen is bumped under
// mu when the root is released: a late child holding a stale generation
// sees the mismatch and is counted instead of folded. gen is atomic so a
// fresh owner (startRoot, sole holder right after rootPool.Get) can read
// it without taking mu; folds still check it under mu, which is what makes
// the late-child bail race-free.
type root struct {
	mu       sync.Mutex
	gen      atomic.Uint64
	children []spanRecord
	arena    []Attr
	dropped  int
	errored  bool
}

// span is the pooled object behind Span handles. All fields are guarded by
// mu; gen is bumped at release so stale handles become inert before the
// object is reused.
type span struct {
	mu  sync.Mutex
	gen uint64

	tracer   *Tracer
	rt       *root
	rtGen    uint64
	traceID  TraceID
	traceHex string // lazily cached by IDs; never eagerly rendered
	spanHex  string // lazily cached
	head     bool
	isRoot   bool
	name     string
	spanID   SpanID
	parentID SpanID
	// Timing is anchored at the root: rootStart is the root span's wall+
	// mono reading (copied to every child) and startOff this span's start
	// as a monotonic offset from it. Children therefore pay one
	// time.Since per start instead of a full time.Now — roughly half the
	// clock cost — and the exported start (rootStartNano+startOff) stays
	// correct even across wall-clock steps.
	rootStart     time.Time
	rootStartNano int64
	startOff      time.Duration
	status        Status
	ended         bool
	nattrs        int
	attrs         [maxAttrsPerSpan]Attr
}

// Pools for span and root objects. Gets/news counters feed the pool
// self-metrics exported by telemetry's runtime collector; a "miss" is a
// Get that had to allocate (pool empty, typically after a GC cycle).
var (
	spanPool     = sync.Pool{New: func() any { spanPoolNews.Add(1); return new(span) }}
	rootPool     = sync.Pool{New: func() any { rootPoolNews.Add(1); return new(root) }}
	spanPoolGets atomic.Uint64
	spanPoolNews atomic.Uint64
	rootPoolGets atomic.Uint64
	rootPoolNews atomic.Uint64
)

// Span is a handle to one in-flight timed operation: a pooled object plus
// the generation it was valid for. The zero Span is inert — every method
// is a no-op — and so is any handle whose object has since been released
// back to the pool (End recycles it), which is what makes pooling safe:
// double End, Set-after-End and children outliving their root all degrade
// to no-ops or a late-span count, never to writes into a recycled object.
type Span struct {
	sp  *span
	gen uint64
}

type ctxKey struct{}

// spanCtx is the dedicated context carrier for the active span. A plain
// context.WithValue stamp costs two allocations (the valueCtx plus the
// 16-byte Span boxed into its any field); boxing this struct into the
// context.Context return is one. FromContext unwraps it with a concrete
// type assertion — no interface round-trip — when the caller's context IS
// the stamp, which is the hot-path shape (a handler or engine receives the
// context StartRoot returned).
type spanCtx struct {
	context.Context
	sp Span
}

// Value serves the active span under the package's private key and
// delegates everything else, so spans derived through WithCancel & friends
// still find their parent.
func (c spanCtx) Value(key any) any {
	if _, ok := key.(ctxKey); ok {
		return c.sp
	}
	return c.Context.Value(key)
}

// FromContext returns the active span; the zero (inert) Span when ctx
// carries none.
func FromContext(ctx context.Context) Span {
	if c, ok := ctx.(spanCtx); ok {
		return c.sp
	}
	sp, _ := ctx.Value(ctxKey{}).(Span)
	return sp
}

// ContextWithSpan returns ctx carrying sp as the active span.
func ContextWithSpan(ctx context.Context, sp Span) context.Context {
	return spanCtx{Context: ctx, sp: sp}
}

// IDs returns the span's trace and span IDs as lowercase hex ("" for an
// inert span) — the correlation tokens logs and exemplars carry. The hex
// forms are computed once per span and cached.
func (sp Span) IDs() (traceID, spanID string) {
	s := sp.sp
	if s == nil {
		return "", ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gen != sp.gen {
		return "", ""
	}
	if s.traceHex == "" {
		s.traceHex = s.traceID.String()
	}
	if s.spanHex == "" {
		s.spanHex = s.spanID.String()
	}
	return s.traceHex, s.spanHex
}

// TraceID returns the span's trace ID (zero for an inert span).
func (sp Span) TraceID() TraceID {
	s := sp.sp
	if s == nil {
		return TraceID{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gen != sp.gen {
		return TraceID{}
	}
	return s.traceID
}

// Traceparent renders the span as a W3C traceparent header value — its
// trace ID, itself as the parent and its head-sampling fate — under one
// lock; "" for an inert span. It is what an HTTP root echoes on its
// response and what a proxy hop sends downstream.
func (sp Span) Traceparent() string {
	s := sp.sp
	if s == nil {
		return ""
	}
	s.mu.Lock()
	if s.gen != sp.gen {
		s.mu.Unlock()
		return ""
	}
	tp := Traceparent{TraceID: s.traceID, ParentID: s.spanID, Sampled: s.head}
	s.mu.Unlock()
	return tp.String()
}

// Start opens a span named name. If ctx carries an active span the new
// span joins its trace as a child; otherwise a new root trace begins on
// the Default tracer. The returned context carries the new span; callers
// MUST End the span on every path (sociolint's spanend analyzer enforces
// this for non-test code).
//
//sociolint:hotpath
func Start(ctx context.Context, name string) (context.Context, Span) {
	if parent := FromContext(ctx); parent.sp != nil {
		sp := parent.newChild(name, nil)
		if sp.sp == nil {
			// The parent was already recycled (its request finished);
			// starting a fresh root here would fabricate causality, so the
			// caller gets an inert span instead.
			return ctx, sp
		}
		return ContextWithSpan(ctx, sp), sp
	}
	return Default().StartRoot(ctx, name)
}

// StartChild opens a child span only when ctx already carries an active
// span; otherwise it returns ctx unchanged and an inert span, whose every
// method is a no-op. Library code on shared paths (engine internals,
// stores) uses it so an untraced call cannot mint root traces of its own.
//
//sociolint:hotpath
func StartChild(ctx context.Context, name string) (context.Context, Span) {
	parent := FromContext(ctx)
	if parent.sp == nil {
		return ctx, Span{}
	}
	sp := parent.newChild(name, nil)
	if sp.sp == nil {
		return ctx, sp
	}
	return ContextWithSpan(ctx, sp), sp
}

// StartLeaf opens a child of ctx's active span WITHOUT deriving a new
// context: the allocation-free variant of StartChild for leaf operations
// that never start children of their own (the engine's per-batch phases).
// Initial attributes may be attached in the same call — cheaper than a
// following Set, which pays a second lock round-trip. When ctx carries no
// active span — or the span was already recycled — the returned Span is
// inert. Callers MUST End the span on every path (spanend enforces this
// like every other Start variant).
//
//sociolint:hotpath
func StartLeaf(ctx context.Context, name string, attrs ...Attr) Span {
	parent := FromContext(ctx)
	if parent.sp == nil {
		return Span{}
	}
	return parent.newChild(name, attrs)
}

// StartRoot opens a new root span (a new trace) on t, ignoring any span
// already in ctx.
func (t *Tracer) StartRoot(ctx context.Context, name string) (context.Context, Span) {
	return t.startRoot(ctx, name, t.newTraceID(), SpanID{})
}

// StartRemote opens a root span that continues the remote trace described
// by tp (an inbound W3C traceparent): the trace ID is inherited — so the
// deterministic head decision matches the caller's — and the remote span
// becomes the parent.
func (t *Tracer) StartRemote(ctx context.Context, name string, tp Traceparent) (context.Context, Span) {
	if tp.TraceID.IsZero() {
		return t.StartRoot(ctx, name)
	}
	return t.startRoot(ctx, name, tp.TraceID, tp.ParentID)
}

func (t *Tracer) startRoot(ctx context.Context, name string, traceID TraceID, parent SpanID) (context.Context, Span) {
	if !telemetry.ValidName(name) {
		name = "invalid_span"
	}
	t.started.Add(1)
	t.roots.Add(1)

	rootPoolGets.Add(1)
	rt := rootPool.Get().(*root)
	// This goroutine is the accumulator's sole owner right after Get —
	// late children from its previous life only ever compare gen under
	// rt.mu — so an atomic read suffices here; no lock round-trip.
	rtGen := rt.gen.Load()

	spanPoolGets.Add(1)
	s := spanPool.Get().(*span)
	// Initialization runs WITHOUT s.mu. A stale handle from the object's
	// previous life may still call methods concurrently, but those lock
	// s.mu and read only s.gen before bailing — and gen was bumped under
	// s.mu at release, before the Put whose matching Get handed us the
	// object — so the bail is race-free and init never touches the one
	// field it reads. Methods on the handle returned below re-lock s.mu,
	// and reach these fields through whatever synchronization delivered
	// them the handle.
	s.tracer = t
	s.rt = rt
	s.rtGen = rtGen
	s.traceID = traceID
	s.head = t.headSampled(traceID)
	s.isRoot = true
	s.name = name
	s.spanID = t.newSpanID()
	s.parentID = parent
	s.rootStart = time.Now()
	s.rootStartNano = s.rootStart.UnixNano()
	s.startOff = 0
	gen := s.gen

	// Telemetry finds the trace id through the resolver registered in this
	// package's init (telemetryimports bars telemetry from importing this
	// package), so no second context value is stamped here: root start stays
	// at its alloc floor and the hex id is only rendered when something —
	// an ε-spend attribution, a log line, an exemplar — actually asks.
	sp := Span{sp: s, gen: gen}
	return ContextWithSpan(ctx, sp), sp
}

// newChild allocates nothing in steady state: a pooled span object is
// initialized from the parent's fields, read under the parent's lock so a
// recycled parent yields an inert child instead of joining a stranger's
// trace. attrs, when non-empty, are attached during init — same validation
// as Set, minus Set's extra lock round-trip (a non-escaping variadic slice
// lives on the caller's stack).
//
//sociolint:hotpath
func (parent Span) newChild(name string, attrs []Attr) Span {
	if !telemetry.ValidName(name) {
		name = "invalid_span"
	}
	ps := parent.sp
	ps.mu.Lock()
	if ps.gen != parent.gen {
		ps.mu.Unlock()
		return Span{}
	}
	t := ps.tracer
	rt, rtGen := ps.rt, ps.rtGen
	traceID, head := ps.traceID, ps.head
	parentID := ps.spanID
	rootStart, rootStartNano := ps.rootStart, ps.rootStartNano
	ps.mu.Unlock()

	t.started.Add(1)
	spanPoolGets.Add(1)
	s := spanPool.Get().(*span)
	// Lock-free init; see the twin comment in startRoot for why a stale
	// handle racing these writes is safe (it only reads s.gen, under mu).
	s.tracer = t
	s.rt = rt
	s.rtGen = rtGen
	s.traceID = traceID
	s.head = head
	s.isRoot = false
	s.name = name
	s.spanID = t.newSpanID()
	s.parentID = parentID
	s.rootStart = rootStart
	s.rootStartNano = rootStartNano
	n := 0
	for _, a := range attrs {
		if a.key.name == "" || n >= maxAttrsPerSpan {
			continue
		}
		s.attrs[n] = a
		n++
	}
	s.nattrs = n
	s.startOff = time.Since(rootStart)
	return Span{sp: s, gen: s.gen}
}

// Set attaches declared attributes to the span. Attributes from undeclared
// (zero) keys are dropped; see NewKey. At most maxAttrsPerSpan stick — the
// backing storage is a fixed-capacity array inside the pooled span object,
// so Set never allocates.
//
//sociolint:hotpath
func (sp Span) Set(attrs ...Attr) {
	s := sp.sp
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gen != sp.gen || s.ended {
		return
	}
	for _, a := range attrs {
		if a.key.name == "" || s.nattrs >= maxAttrsPerSpan {
			continue
		}
		s.attrs[s.nattrs] = a
		s.nattrs++
	}
}

// SetStatus sets the span's terminal status. StatusError marks the whole
// trace for tail retention.
//
//sociolint:hotpath
func (sp Span) SetStatus(st Status) {
	s := sp.sp
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gen != sp.gen || s.ended {
		return
	}
	s.status = st
}

// End finishes the span and returns its duration. Ending a child folds its
// compact record into its trace's pooled accumulator; ending the root runs
// the sampling decision and, when retained, copies the accumulated records
// into the ring (copy-on-retain) before both objects recycle. Every live
// span — root, child or leaf, kept or discarded by the sampler, past
// MaxChildren or late — then adds its duration to its name's row of
// telemetry.Stages(), the stage table /metrics and the exit tables print.
// End is idempotent — second and later calls are no-ops returning 0 that
// add nothing, enforced by the generation check even after the underlying
// object is reused.
//
//sociolint:hotpath
func (sp Span) End() time.Duration {
	s := sp.sp
	if s == nil {
		return 0
	}
	s.mu.Lock()
	if s.gen != sp.gen || s.ended {
		s.mu.Unlock()
		return 0
	}
	s.ended = true
	d := time.Since(s.rootStart) - s.startOff
	rec := spanRecord{
		spanID:   s.spanID,
		parentID: s.parentID,
		name:     s.name,
		start:    s.rootStartNano + int64(s.startOff),
		dur:      d,
		status:   s.status,
	}
	t := s.tracer
	if s.isRoot {
		t.endRoot(s, rec, d)
	} else {
		t.endChild(s, rec)
	}
	// Release: bump the generation (stale handles go inert) and return the
	// span to the pool. Lock order is always span.mu → root.mu, never the
	// reverse, so holding s.mu through the fold above cannot deadlock.
	//
	// s.tracer, s.rt and s.name are deliberately NOT cleared: the next Get
	// overwrites them, and everything they can pin — the tracer, a pooled
	// root, a static span-name literal — is long-lived anyway, so the only
	// thing the clears bought was three pointer write barriers on the hot
	// path. The lazily-rendered hex strings are the exception (per-span
	// garbage), dropped only when they were actually materialized.
	s.gen++
	if s.traceHex != "" {
		s.traceHex = ""
	}
	if s.spanHex != "" {
		s.spanHex = ""
	}
	s.head = false
	s.isRoot = false
	s.ended = false
	s.status = StatusOK
	s.nattrs = 0
	s.mu.Unlock()
	spanPool.Put(s)
	telemetry.Stages().Observe(rec.name, d)
	return d
}

// endChild folds a finished child into its trace's accumulator. Called
// with s.mu held.
//
//sociolint:hotpath
func (t *Tracer) endChild(s *span, rec spanRecord) {
	rt := s.rt
	rt.mu.Lock()
	if rt.gen.Load() != s.rtGen {
		// The root ended (and recycled the accumulator) first.
		rt.mu.Unlock()
		t.lateSpans.Add(1)
		return
	}
	if s.status == StatusError {
		rt.errored = true
	}
	if len(rt.children) >= t.maxChildren {
		rt.dropped++
	} else {
		rec.attrOff = len(rt.arena)
		rec.attrN = s.nattrs
		rt.arena = append(rt.arena, s.attrs[:s.nattrs]...)
		rt.children = append(rt.children, rec)
	}
	rt.mu.Unlock()
}

// endRoot closes the trace: it decides retention, copies the accumulated
// records out when kept, and recycles the accumulator. Called with s.mu
// held.
func (t *Tracer) endRoot(s *span, rec spanRecord, d time.Duration) {
	t.quant.Observe(d)
	slow := d >= t.quant.Threshold()

	rt := s.rt
	rt.mu.Lock()
	if rt.gen.Load() != s.rtGen {
		// Unreachable in practice (the root span's own gen/ended gate
		// already serializes End), kept as defense in depth.
		rt.mu.Unlock()
		t.lateSpans.Add(1)
		return
	}
	errored := s.status == StatusError || rt.errored

	keep, why := false, ""
	switch {
	case errored:
		keep, why = true, "error"
		t.keptError.Add(1)
	case slow:
		keep, why = true, "slow"
		t.keptSlow.Add(1)
	case s.head:
		keep, why = true, "head"
		t.keptHead.Add(1)
	}

	if keep {
		// Copy-on-retain: the ring slot copies the records and the
		// attribute arena into storage it owns (reused across overwrites,
		// so this allocates nothing in steady state). The accumulator's
		// slices are only borrowed for the duration of the push, which is
		// why it happens here, still under rt.mu.
		t.ring.push(s.traceID, why, rec, rt.children, rt.arena,
			s.attrs[:s.nattrs], rt.dropped, rec.start+int64(d))
	}

	// Recycle the accumulator: bump the generation so late children count
	// as late instead of folding into the next trace, keep slice capacity.
	rt.gen.Add(1)
	rt.children = rt.children[:0]
	rt.arena = rt.arena[:0]
	rt.dropped = 0
	rt.errored = false
	rt.mu.Unlock()
	rootPool.Put(rt)

	if !keep {
		t.discarded.Add(1)
		return
	}
	t.kept.Add(1)
}

// Stats is a point-in-time summary of a tracer's sampling behaviour.
type Stats struct {
	// Started counts all spans started (roots + children).
	Started uint64 `json:"spans_started"`
	// Roots counts root spans (one per trace).
	Roots uint64 `json:"roots_started"`
	// Kept counts retained traces, split by retention reason.
	Kept      uint64 `json:"traces_kept"`
	KeptHead  uint64 `json:"kept_head"`
	KeptError uint64 `json:"kept_error"`
	KeptSlow  uint64 `json:"kept_slow"`
	// Discarded counts finished traces the sampler dropped.
	Discarded uint64 `json:"traces_discarded"`
	// LateSpans counts children that finished after their root ended.
	LateSpans uint64 `json:"late_spans"`
	// SlowThresholdNS is the current tail-retention latency threshold
	// (math.MaxInt64 until enough observations accumulate).
	SlowThresholdNS int64 `json:"slow_threshold_ns"`
}

// Stats snapshots the tracer's counters.
func (t *Tracer) Stats() Stats {
	return Stats{
		Started:         t.started.Load(),
		Roots:           t.roots.Load(),
		Kept:            t.kept.Load(),
		KeptHead:        t.keptHead.Load(),
		KeptError:       t.keptError.Load(),
		KeptSlow:        t.keptSlow.Load(),
		Discarded:       t.discarded.Load(),
		LateSpans:       t.lateSpans.Load(),
		SlowThresholdNS: int64(t.quant.Threshold()),
	}
}

// Snapshot returns the retained traces, newest first, exported to their
// JSON shape (the ring itself stores compact records). Every trace is
// stamped with the tracer's configured process identity.
func (t *Tracer) Snapshot() []*TraceData {
	out := t.ring.snapshot()
	if t.process != "" {
		for _, td := range out {
			td.Process = t.process
		}
	}
	return out
}

// Lookup returns the retained trace with the given id, or nil if the ring
// no longer (or never) holds one. If the ring retained the id more than
// once, the most recently finished copy wins.
func (t *Tracer) Lookup(id TraceID) *TraceData {
	td := t.ring.lookup(id)
	if td != nil && t.process != "" {
		td.Process = t.process
	}
	return td
}

// ParseTraceID parses the 32-lowercase-hex form produced by
// TraceID.String (the W3C canonical alphabet; uppercase is rejected, as
// nothing in this system emits it). ok is false for anything else,
// including the forbidden all-zero id.
func ParseTraceID(s string) (TraceID, bool) {
	var id TraceID
	if len(s) != 32 || !isHexLower(s) {
		return TraceID{}, false
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return TraceID{}, false
	}
	if id.IsZero() {
		return TraceID{}, false
	}
	return id, true
}
