package trace

import (
	"context"
	"strings"
	"testing"
	"time"

	"socialrec/internal/telemetry"
)

var (
	testKeyN      = NewKey("n")
	testKeyCached = NewKey("cached")
	testKeyStage  = NewKey("stage")
)

func TestRootWithChildrenRetained(t *testing.T) {
	tr := New(Config{Seed: 1, Capacity: 8})
	ctx, root := tr.StartRoot(context.Background(), "recommend")
	root.Set(testKeyN.Int(10))

	_, c1 := Start(ctx, "similarity_batch")
	c1.End()
	cctx, c2 := Start(ctx, "cluster_average")
	c2.Set(testKeyCached.Bool(true))
	_, g := Start(cctx, "top_n")
	g.End()
	c2.End()
	root.End()

	traces := tr.Snapshot()
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	td := traces[0]
	if td.Retained != "head" {
		t.Errorf("retained = %q, want head (default rate 1.0)", td.Retained)
	}
	if td.Root.Name != "recommend" {
		t.Errorf("root name = %q", td.Root.Name)
	}
	if len(td.Spans) != 3 {
		t.Fatalf("got %d child spans, want 3", len(td.Spans))
	}
	if td.Root.Attrs["n"] != int64(10) {
		t.Errorf("root attrs = %v, want n=10", td.Root.Attrs)
	}
	// Child parentage: c1 and c2 parent to root, g parents to c2.
	byName := map[string]SpanData{}
	for _, s := range td.Spans {
		byName[s.Name] = s
	}
	if byName["similarity_batch"].ParentID != td.Root.SpanID {
		t.Errorf("similarity_batch parent = %q, want root %q", byName["similarity_batch"].ParentID, td.Root.SpanID)
	}
	if byName["top_n"].ParentID != byName["cluster_average"].SpanID {
		t.Errorf("top_n parent = %q, want cluster_average %q", byName["top_n"].ParentID, byName["cluster_average"].SpanID)
	}
	if byName["cluster_average"].Attrs["cached"] != true {
		t.Errorf("cluster_average attrs = %v", byName["cluster_average"].Attrs)
	}
}

func TestHeadSamplingDeterministic(t *testing.T) {
	// The head decision is a pure function of the trace ID: two processes
	// with the same rate agree on every trace, so a distributed trace is
	// kept or dropped consistently at every hop.
	a := New(Config{Seed: 7, HeadRate: 0.25})
	b := New(Config{Seed: 7, HeadRate: 0.25})
	c := New(Config{Seed: 99, HeadRate: 0.25})
	kept := 0
	for i := 0; i < 4000; i++ {
		id := a.newTraceID()
		if got := b.newTraceID(); got != id {
			t.Fatalf("same seed produced different IDs at %d", i)
		}
		if a.headSampled(id) != c.headSampled(id) {
			t.Fatalf("head decision depends on tracer state, not just the ID")
		}
		if a.headSampled(id) {
			kept++
		}
	}
	// 4000 draws at p=0.25: expect ~1000, allow wide slack.
	if kept < 700 || kept > 1300 {
		t.Errorf("head rate 0.25 kept %d/4000", kept)
	}
}

func TestErrorRetainedAtZeroHeadRate(t *testing.T) {
	tr := New(Config{Seed: 3, HeadRateZero: true, Capacity: 8})
	// A plain trace is discarded...
	_, ok := tr.StartRoot(context.Background(), "fine")
	ok.End()
	if n := len(tr.Snapshot()); n != 0 {
		t.Fatalf("tail-only tracer kept %d ok traces", n)
	}
	// ...an errored child forces retention of the whole trace.
	ctx, root := tr.StartRoot(context.Background(), "failing")
	_, child := Start(ctx, "similarity_batch")
	child.SetStatus(StatusError)
	child.End()
	root.End()
	traces := tr.Snapshot()
	if len(traces) != 1 || traces[0].Retained != "error" {
		t.Fatalf("errored trace not retained: %+v", traces)
	}
	if !traces[0].Err() {
		t.Error("Err() = false for errored trace")
	}
}

func TestSlowTailRetainedAtZeroHeadRate(t *testing.T) {
	tr := New(Config{Seed: 5, HeadRateZero: true, SlowQuantile: 0.9, Capacity: 64})
	// Warm the quantile with fast spans.
	for i := 0; i < 200; i++ {
		_, sp := tr.StartRoot(context.Background(), "fast")
		sp.End()
	}
	// One slow outlier must be kept even though the head rate is zero.
	// (Scheduler jitter may legitimately retain the odd "fast" span too, so
	// assert presence of the outlier, not emptiness.)
	_, slow := tr.StartRoot(context.Background(), "slow")
	time.Sleep(20 * time.Millisecond)
	slow.End()
	found := false
	for _, td := range tr.Snapshot() {
		if td.Root.Name == "slow" {
			found = td.Retained == "slow"
		}
	}
	if !found {
		t.Fatalf("slow outlier not retained as slow: %+v", tr.Snapshot())
	}
}

func TestClosedWorldAttributes(t *testing.T) {
	tr := New(Config{Seed: 9, Capacity: 8})
	_, sp := tr.StartRoot(context.Background(), "op")

	// A zero (undeclared) key is dropped.
	var undeclared Key
	sp.Set(undeclared.Int(42))
	// A non-identifier string value is scrubbed.
	sp.Set(testKeyStage.Ident("user:alice→item:b"))
	sp.End()

	td := tr.Snapshot()[0]
	if len(td.Root.Attrs) != 1 {
		t.Fatalf("attrs = %v, want only the declared key", td.Root.Attrs)
	}
	if td.Root.Attrs["stage"] != "invalid_value" {
		t.Errorf("dynamic string survived: %v", td.Root.Attrs)
	}
	for k := range td.Root.Attrs {
		if !KeyDeclared(k) {
			t.Errorf("exported attr key %q was never declared", k)
		}
	}
}

func TestNewKeyPanicsOnDynamicName(t *testing.T) {
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("NewKey accepted a non-identifier name")
		}
		// A dynamic key name is suspected request data; the panic message
		// (which lands in crash logs) must not reproduce it.
		if msg, ok := p.(string); ok && strings.Contains(msg, "User ID") {
			t.Errorf("NewKey panic echoes the rejected name: %q", msg)
		}
	}()
	NewKey("User ID")
}

func TestInvalidSpanNameScrubbed(t *testing.T) {
	tr := New(Config{Seed: 11, Capacity: 8})
	_, sp := tr.StartRoot(context.Background(), "GET /recommend?user=alice")
	sp.End()
	if got := tr.Snapshot()[0].Root.Name; got != "invalid_span" {
		t.Errorf("span name = %q, want invalid_span", got)
	}
}

func TestEndIdempotentAndLateChildren(t *testing.T) {
	tr := New(Config{Seed: 13, Capacity: 8})
	ctx, root := tr.StartRoot(context.Background(), "op")
	_, late := Start(ctx, "straggler")
	if d := root.End(); d < 0 {
		t.Fatal("negative duration")
	}
	if d := root.End(); d != 0 {
		t.Errorf("second End returned %v, want 0", d)
	}
	late.End() // after root ended
	st := tr.Stats()
	if st.LateSpans != 1 {
		t.Errorf("late spans = %d, want 1", st.LateSpans)
	}
	if len(tr.Snapshot()) != 1 {
		t.Errorf("trace not retained")
	}
	if got := tr.Snapshot()[0].Spans; len(got) != 0 {
		t.Errorf("late child folded in: %v", got)
	}
}

func TestNilSpanSafe(t *testing.T) {
	var sp Span
	sp.Set(testKeyN.Int(1))
	sp.SetStatus(StatusError)
	if sp.End() != 0 {
		t.Error("zero End != 0")
	}
	if id, _ := sp.IDs(); id != "" {
		t.Error("zero IDs non-empty")
	}
	if got := FromContext(context.Background()); got.sp != nil {
		t.Error("empty ctx carries a span")
	}
}

func TestStaleHandleInertAfterRecycle(t *testing.T) {
	// A handle kept after End must stay a no-op even when the pooled span
	// object underneath it has been recycled into a different span: the
	// generation check is what makes sync.Pool reuse safe.
	tr := New(Config{Seed: 31, Capacity: 8})
	ctx, root := tr.StartRoot(context.Background(), "op")
	stale := StartLeaf(ctx, "first")
	stale.End()
	// Very likely reuses the object stale's handle points to.
	fresh := StartLeaf(ctx, "second")
	stale.SetStatus(StatusError) // must not mark fresh (or anything) errored
	stale.Set(testKeyN.Int(99))  // must not attach to fresh
	if d := stale.End(); d != 0 {
		t.Errorf("stale End = %v, want 0", d)
	}
	if id, _ := stale.IDs(); id != "" {
		t.Errorf("stale IDs = %q, want empty", id)
	}
	fresh.End()
	root.End()
	td := tr.Snapshot()[0]
	if td.Retained != "head" {
		t.Fatalf("retained = %q (stale SetStatus leaked an error)", td.Retained)
	}
	if len(td.Spans) != 2 {
		t.Fatalf("children = %d, want 2", len(td.Spans))
	}
	for _, s := range td.Spans {
		if s.Status != "ok" {
			t.Errorf("child %s status = %q, want ok", s.Name, s.Status)
		}
		if len(s.Attrs) != 0 {
			t.Errorf("child %s attrs = %v, want none", s.Name, s.Attrs)
		}
	}
}

func TestStartLeafFoldsAsChild(t *testing.T) {
	tr := New(Config{Seed: 37, Capacity: 8})
	ctx, root := tr.StartRoot(context.Background(), "op")
	leaf := StartLeaf(ctx, "leaf_phase")
	leaf.Set(testKeyN.Int(7))
	leaf.End()
	root.End()
	td := tr.Snapshot()[0]
	if len(td.Spans) != 1 || td.Spans[0].Name != "leaf_phase" {
		t.Fatalf("spans = %+v, want one leaf_phase child", td.Spans)
	}
	if td.Spans[0].ParentID != td.Root.SpanID {
		t.Errorf("leaf parent = %q, want root %q", td.Spans[0].ParentID, td.Root.SpanID)
	}
	if td.Spans[0].Attrs["n"] != int64(7) {
		t.Errorf("leaf attrs = %v", td.Spans[0].Attrs)
	}
	// Without an active span in ctx, StartLeaf is inert.
	inert := StartLeaf(context.Background(), "leaf_phase")
	if inert.sp != nil {
		t.Error("StartLeaf minted a span from an untraced ctx")
	}
	inert.End()
}

func TestMaxChildrenCap(t *testing.T) {
	tr := New(Config{Seed: 17, MaxChildren: 4, Capacity: 8})
	ctx, root := tr.StartRoot(context.Background(), "op")
	for i := 0; i < 10; i++ {
		_, c := Start(ctx, "child")
		c.End()
	}
	root.End()
	td := tr.Snapshot()[0]
	if len(td.Spans) != 4 || td.DroppedSpans != 6 {
		t.Errorf("children = %d dropped = %d, want 4/6", len(td.Spans), td.DroppedSpans)
	}
}

func TestStartRemoteInheritsTrace(t *testing.T) {
	tr := New(Config{Seed: 19, Capacity: 8})
	tp, err := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if err != nil {
		t.Fatal(err)
	}
	_, sp := tr.StartRemote(context.Background(), "op", tp)
	if sp.TraceID() != tp.TraceID {
		t.Errorf("trace id not inherited")
	}
	sp.End()
	td := tr.Snapshot()[0]
	if td.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("trace id = %q", td.TraceID)
	}
	if td.Root.ParentID != "00f067aa0ba902b7" {
		t.Errorf("remote parent = %q", td.Root.ParentID)
	}
}

func TestStatsAndThreshold(t *testing.T) {
	tr := New(Config{Seed: 23, Capacity: 8})
	st := tr.Stats()
	if st.SlowThresholdNS <= 0 {
		t.Errorf("cold threshold = %d, want max-ish", st.SlowThresholdNS)
	}
	ctx, root := tr.StartRoot(context.Background(), "op")
	_, c := Start(ctx, "child")
	c.End()
	root.End()
	st = tr.Stats()
	if st.Started != 2 || st.Roots != 1 || st.Kept != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestQuantileEstimator(t *testing.T) {
	q := newQuantile(0.99)
	if q.Threshold() != time.Duration(1<<63-1) {
		t.Fatal("cold quantile should deactivate tail sampling")
	}
	for i := 0; i < 1000; i++ {
		q.Observe(time.Millisecond)
	}
	th := q.Threshold()
	if th < 512*time.Microsecond || th > 2*time.Millisecond {
		t.Errorf("threshold %v outside one log2 bucket of 1ms", th)
	}
	// Decay follows a workload shift downward.
	for i := 0; i < 20000; i++ {
		q.Observe(10 * time.Microsecond)
	}
	if th = q.Threshold(); th > 100*time.Microsecond {
		t.Errorf("threshold %v did not decay toward new workload", th)
	}
}

// TestValidNameRule pins the static-identifier rule span names, attribute
// keys and identifier values share with telemetry's metric and stage names.
func TestValidNameRule(t *testing.T) {
	for _, good := range []string{"a", "top_n", "http_recommend", "x9"} {
		if !telemetry.ValidName(good) {
			t.Errorf("ValidName(%q) = false", good)
		}
	}
	for _, bad := range []string{"", "_x", "9x", "Top", "a-b", "a b", "héllo"} {
		if telemetry.ValidName(bad) {
			t.Errorf("ValidName(%q) = true", bad)
		}
	}
}

func TestIDStrings(t *testing.T) {
	tr := New(Config{Seed: 29, Capacity: 8})
	_, sp := tr.StartRoot(context.Background(), "op")
	traceID, spanID := sp.IDs()
	sp.End()
	if len(traceID) != 32 || strings.ToLower(traceID) != traceID {
		t.Errorf("trace id %q not 32 lowercase hex", traceID)
	}
	if len(spanID) != 16 {
		t.Errorf("span id %q not 16 hex", spanID)
	}
}
