package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"socialrec"
	"socialrec/internal/core"
	"socialrec/internal/dataset"
	"socialrec/internal/telemetry"
	"socialrec/internal/trace"
)

// tracedServer builds a test server over its own tracer so span assertions
// are isolated from other tests.
func tracedServer(t *testing.T, tracer *trace.Tracer, engine Engine) *httptest.Server {
	t.Helper()
	if engine == nil {
		engine = &fakeEngine{users: 5, failOn: 4}
	}
	s, err := New(Config{
		Engine:     engine,
		UserIDs:    map[string]int{"alice": 0, "bob": 1, "carol": 2, "dave": 3, "evil": 4},
		ItemTokens: []string{"i0", "i1", "i2", "i3", "i4", "i5"},
		Stats:      dataset.Stats{Users: 5, Items: 6},
		MaxN:       10,
		Logger:     testLogger(t),
		Metrics:    telemetry.NewRegistry(),
		Tracer:     tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts
}

func doGet(t *testing.T, url, traceparent string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if traceparent != "" {
		req.Header.Set(trace.TraceparentHeader, traceparent)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	return resp
}

// TestTraceparentMatrix is the middleware behaviour matrix: a valid inbound
// traceparent is continued (same trace ID echoed back), a malformed one and
// an absent one each start a fresh root whose traceparent is still emitted.
func TestTraceparentMatrix(t *testing.T) {
	tracer := trace.New(trace.Config{Seed: 7})
	ts := tracedServer(t, tracer, nil)

	const inbound = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	resp := doGet(t, ts.URL+"/recommend?user=alice&n=2", inbound)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	tp, err := trace.ParseTraceparent(resp.Header.Get(trace.TraceparentHeader))
	if err != nil {
		t.Fatalf("response traceparent unparsable: %v", err)
	}
	if got := tp.TraceID.String(); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("valid inbound: response trace id = %s, want the inbound one", got)
	}
	if tp.ParentID.String() == "00f067aa0ba902b7" {
		t.Error("response parent id should be the server's own span, not the caller's")
	}

	// The continued trace is retained (head rate 1) with the inbound trace
	// id, a root named after the endpoint, and the engine's phase children.
	var td *trace.TraceData
	for _, cand := range tracer.Snapshot() {
		if cand.TraceID == "4bf92f3577b34da6a3ce929d0e0e4736" {
			td = cand
			break
		}
	}
	if td == nil {
		t.Fatal("continued trace not retained")
	}
	if td.Root.Name != "http_recommend" {
		t.Errorf("root span = %q, want http_recommend", td.Root.Name)
	}
	if td.Root.ParentID != "00f067aa0ba902b7" {
		t.Errorf("root parent = %q, want the remote caller's span", td.Root.ParentID)
	}
	if len(td.Spans) < 3 {
		t.Fatalf("retained trace has %d child spans, want >= 3: %+v", len(td.Spans), td.Spans)
	}
	names := map[string]bool{}
	for _, sp := range td.Spans {
		names[sp.Name] = true
		if sp.ParentID != td.Root.SpanID {
			t.Errorf("child %s parent = %q, want root %q", sp.Name, sp.ParentID, td.Root.SpanID)
		}
	}
	for _, want := range []string{"similarity_batch", "cluster_average", "top_n"} {
		if !names[want] {
			t.Errorf("missing child span %q (have %v)", want, names)
		}
	}

	for _, tc := range []struct {
		name, header string
	}{
		{"malformed", "00-zzzz-bad-01"},
		{"wrong_length", "00-4bf92f35-00f067aa0ba902b7-01"},
		{"absent", ""},
	} {
		resp := doGet(t, ts.URL+"/recommend?user=bob&n=1", tc.header)
		tp, err := trace.ParseTraceparent(resp.Header.Get(trace.TraceparentHeader))
		if err != nil {
			t.Fatalf("%s: response traceparent unparsable: %v", tc.name, err)
		}
		if tp.TraceID.String() == "4bf92f3577b34da6a3ce929d0e0e4736" {
			t.Errorf("%s: server must mint a fresh root, not continue the stale id", tc.name)
		}
		if tp.TraceID.IsZero() || tp.ParentID.IsZero() {
			t.Errorf("%s: zero ids in response traceparent", tc.name)
		}
	}
}

// moodyEngine is a fakeEngine that is slow for one user — the tool for
// tail-retention tests.
type moodyEngine struct {
	fakeEngine
	slowUser int
	delay    time.Duration
}

func (m *moodyEngine) RecommendContext(ctx context.Context, user, n int) ([]core.Recommendation, error) {
	if user == m.slowUser {
		time.Sleep(m.delay)
	}
	return m.fakeEngine.RecommendContext(ctx, user, n)
}

// TestTailRetentionAtZeroHeadRate is the acceptance scenario: with head
// sampling fully off, an injected error request and an injected slow
// request are still retained, attributable at /debug/traces.
func TestTailRetentionAtZeroHeadRate(t *testing.T) {
	tracer := trace.New(trace.Config{Seed: 11, HeadRateZero: true, SlowQuantile: 0.95})
	engine := &moodyEngine{
		fakeEngine: fakeEngine{users: 5, failOn: 4},
		slowUser:   3, // "dave"
		delay:      40 * time.Millisecond,
	}
	ts := tracedServer(t, tracer, engine)

	// Warm the latency quantile with ordinary fast traffic.
	for i := 0; i < 100; i++ {
		if resp := doGet(t, ts.URL+"/recommend?user=alice&n=2", ""); resp.StatusCode != http.StatusOK {
			t.Fatalf("warmup request failed: %d", resp.StatusCode)
		}
	}
	// One engine failure (500) and one slow outlier.
	if resp := doGet(t, ts.URL+"/recommend?user=evil&n=2", ""); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("error request status = %d, want 500", resp.StatusCode)
	}
	if resp := doGet(t, ts.URL+"/recommend?user=dave&n=2", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("slow request status = %d", resp.StatusCode)
	}

	var gotError, gotSlow bool
	for _, td := range tracer.Snapshot() {
		switch td.Retained {
		case "error":
			gotError = true
			if td.Root.Status != "error" {
				t.Errorf("error-retained root status = %q", td.Root.Status)
			}
		case "slow":
			if td.Root.Duration >= 40*time.Millisecond {
				gotSlow = true
			}
		case "head":
			t.Errorf("head-retained trace at zero head rate: %+v", td.Root)
		}
	}
	if !gotError {
		t.Error("error trace not retained at zero head rate")
	}
	if !gotSlow {
		t.Errorf("slow trace not retained at zero head rate (stats %+v)", tracer.Stats())
	}
}

// TestHeadRateZeroDropsOrdinaryTraffic complements the retention test: the
// fast, successful warmup requests themselves must be overwhelmingly
// discarded, or "sampling" isn't.
func TestHeadRateZeroDropsOrdinaryTraffic(t *testing.T) {
	tracer := trace.New(trace.Config{Seed: 13, HeadRateZero: true})
	ts := tracedServer(t, tracer, nil)
	for i := 0; i < 50; i++ {
		doGet(t, ts.URL+"/healthz", "")
	}
	st := tracer.Stats()
	if st.KeptHead != 0 {
		t.Errorf("kept_head = %d at zero head rate", st.KeptHead)
	}
	if st.Roots != 50 {
		t.Errorf("roots = %d, want 50", st.Roots)
	}
}

// TestExemplarLinksLatencyToTrace verifies the latency histogram carries
// the request's trace id as an exemplar.
func TestExemplarLinksLatencyToTrace(t *testing.T) {
	reg := telemetry.NewRegistry()
	tracer := trace.New(trace.Config{Seed: 17})
	s, err := New(Config{
		Engine:  &fakeEngine{users: 5, failOn: -1},
		UserIDs: map[string]int{"alice": 0},
		Stats:   dataset.Stats{Users: 5},
		MaxN:    10,
		Logger:  testLogger(t),
		Metrics: reg,
		Tracer:  tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	resp := doGet(t, ts.URL+"/recommend?user=alice&n=2", "")
	tp, err := trace.ParseTraceparent(resp.Header.Get(trace.TraceparentHeader))
	if err != nil {
		t.Fatal(err)
	}

	var found bool
	for _, h := range reg.Snapshot().Histograms {
		if h.Name != "http_request_seconds" || h.LabelValue != "recommend" {
			continue
		}
		for _, b := range h.Buckets {
			if b.Exemplar != nil && b.Exemplar.TraceID == tp.TraceID.String() {
				found = true
			}
		}
		if h.InfExemplar != nil && h.InfExemplar.TraceID == tp.TraceID.String() {
			found = true
		}
	}
	if !found {
		t.Errorf("no latency exemplar carries trace id %s", tp.TraceID)
	}
}

// TestServedRequestFeedsStageTable: the stage table /metrics serves is fed
// by finished trace spans, so one traced /recommend on a real engine adds
// exactly one entry each to the HTTP root's row and to the rows of the
// engine's three per-batch phases.
func TestServedRequestFeedsStageTable(t *testing.T) {
	b := socialrec.NewGraphBuilder(6, 4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}, {2, 3}} {
		b.AddFriendship(e[0], e[1])
	}
	for u := 0; u < 6; u++ {
		b.AddPreference(u, u%4)
	}
	eng, err := socialrec.NewEngine(b, socialrec.Config{Epsilon: 1, LouvainRuns: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := tracedServer(t, trace.New(trace.Config{Seed: 13}), eng)

	rows := []string{"http_recommend", "similarity_batch", "cluster_average", "top_n"}
	counts := func() map[string]int64 {
		out := map[string]int64{}
		for _, s := range telemetry.Stages().Snapshot() {
			out[s.Stage] = s.Count
		}
		return out
	}
	before := counts()
	if resp := doGet(t, ts.URL+"/recommend?user=alice&n=2", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	after := counts()
	for _, row := range rows {
		if got := after[row] - before[row]; got != 1 {
			t.Errorf("%s row grew by %d, want 1", row, got)
		}
	}
}
