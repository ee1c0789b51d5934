package httpedge

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"socialrec/internal/telemetry"
	"socialrec/internal/trace"
)

// testEdge serves routes behind an edge with its own registry and tracer,
// logging JSON records into logs.
func testEdge(routes ...Route) (*http.ServeMux, *telemetry.Registry, *trace.Tracer, *bytes.Buffer) {
	reg := telemetry.NewRegistry()
	tr := trace.New(trace.Config{Seed: 3, Capacity: 16})
	logs := &bytes.Buffer{}
	mux := New(Config{
		SpanPrefix:   "test",
		MetricPrefix: "test",
		Routes:       routes,
		Metrics:      reg,
		Tracer:       tr,
		Logger:       slog.New(trace.NewSlogHandler(slog.NewJSONHandler(logs, nil))),
	})
	return mux, reg, tr, logs
}

func serve(h http.Handler, path string, header http.Header) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	for k, v := range header {
		req.Header[k] = v
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// counter reads a counter from reg: the child of family name whose label
// value is label, or the unlabeled counter when label is "".
func counter(t *testing.T, reg *telemetry.Registry, name, label string) float64 {
	t.Helper()
	for _, m := range reg.Snapshot().Counters {
		if m.Name == name && m.LabelValue == label {
			return m.Value
		}
	}
	t.Fatalf("no counter %s{%s}", name, label)
	return 0
}

// TestPanicRecovery: a panic before anything was written becomes a JSON
// 500 logged under the request's errored trace; a panic after the
// response committed keeps the committed status. Either way the edge is
// still serving, and each panic is counted once.
func TestPanicRecovery(t *testing.T) {
	mux, reg, tr, logs := testEdge(
		Route{Pattern: "/early", Endpoint: "early", Handler: func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Length", "999")
			panic("boom")
		}},
		Route{Pattern: "/late", Endpoint: "late", Handler: func(w http.ResponseWriter, _ *http.Request) {
			w.WriteHeader(http.StatusAccepted)
			panic("boom")
		}},
		Route{Pattern: "/ok", Endpoint: "ok", Handler: func(http.ResponseWriter, *http.Request) {}},
	)

	rec := serve(mux, "/early", nil)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("early panic status = %d, want 500", rec.Code)
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body["error"] != "internal error" {
		t.Errorf("early panic body %q (%v), want the JSON internal error", rec.Body, err)
	}
	if got, want := rec.Header().Get("Content-Length"), strconv.Itoa(rec.Body.Len()); got != want {
		t.Errorf("Content-Length = %s, want %s", got, want)
	}
	tp, err := trace.ParseTraceparent(rec.Header().Get(trace.TraceparentHeader))
	if err != nil {
		t.Fatal(err)
	}
	var record struct {
		Msg     string `json:"msg"`
		TraceID string `json:"trace_id"`
		Stack   string `json:"stack"`
	}
	if err := json.Unmarshal(logs.Bytes(), &record); err != nil {
		t.Fatalf("log record %q: %v", logs, err)
	}
	if record.Msg != "httpedge: panic recovered" || record.TraceID != tp.TraceID.String() || record.Stack == "" {
		t.Errorf("log record %+v, want the panic and its stack under trace %s", record, tp.TraceID)
	}
	if td := tr.Lookup(tp.TraceID); td == nil || !td.Err() || td.Root.Name != "test_early" {
		t.Errorf("errored test_early trace not retained: %+v", td)
	}

	if rec := serve(mux, "/late", nil); rec.Code != http.StatusAccepted {
		t.Errorf("late panic status = %d, want the committed 202", rec.Code)
	}
	if rec := serve(mux, "/ok", nil); rec.Code != http.StatusOK {
		t.Errorf("request after panics = %d, want 200", rec.Code)
	}
	if got := counter(t, reg, "test_panics_recovered_total", ""); got != 2 {
		t.Errorf("test_panics_recovered_total = %v, want 2", got)
	}
}

// TestDeadlineBudget: a route's timeout is the request's deadline, and an
// inbound Request-Budget-Ms can only tighten it. Budgets at or above the
// timeout — up to MaxInt64 ms, which overflows a Duration — and anything
// that is not a positive integer leave the timeout in force; a route with
// no timeout ignores the header.
func TestDeadlineBudget(t *testing.T) {
	const timeout = 10 * time.Second
	var remaining time.Duration
	var bounded bool
	record := func(_ http.ResponseWriter, r *http.Request) {
		var d time.Time
		d, bounded = r.Context().Deadline()
		remaining = time.Until(d)
	}
	mux, _, _, _ := testEdge(
		Route{Pattern: "/timed", Endpoint: "timed", Timeout: timeout, Handler: record},
		Route{Pattern: "/open", Endpoint: "open", Handler: record},
	)
	for _, tc := range []struct {
		budget string
		want   time.Duration
	}{
		{"1", time.Millisecond},
		{strconv.FormatInt(timeout.Milliseconds()-1, 10), timeout - time.Millisecond},
		{strconv.FormatInt(timeout.Milliseconds(), 10), timeout},
		{strconv.FormatInt(math.MaxInt64, 10), timeout},
		{"0", timeout},
		{"-5", timeout},
		{"soon", timeout},
	} {
		t.Run(tc.budget, func(t *testing.T) {
			rec := serve(mux, "/timed", http.Header{BudgetHeader: {tc.budget}})
			if rec.Code != http.StatusOK || !bounded {
				t.Fatalf("status %d, deadline set %v", rec.Code, bounded)
			}
			if remaining > tc.want || remaining < tc.want-time.Second {
				t.Errorf("deadline %v away, want %v", remaining, tc.want)
			}
		})
	}
	if serve(mux, "/open", http.Header{BudgetHeader: {"5"}}); bounded {
		t.Error("a route without a timeout took a deadline from the budget header")
	}
}

// TestStatusCapture: the first status a handler commits — 200 for a body
// or for nothing at all — is what the per-endpoint and status-class
// counters see, and every request lands in the latency histogram.
func TestStatusCapture(t *testing.T) {
	mux, reg, _, _ := testEdge(
		Route{Pattern: "/nothing", Endpoint: "nothing", Handler: func(http.ResponseWriter, *http.Request) {}},
		Route{Pattern: "/body", Endpoint: "body", Handler: func(w http.ResponseWriter, _ *http.Request) {
			_, _ = w.Write([]byte("x"))
			w.WriteHeader(http.StatusBadGateway)
		}},
		Route{Pattern: "/first", Endpoint: "first", Handler: func(w http.ResponseWriter, _ *http.Request) {
			w.WriteHeader(http.StatusNotFound)
			w.WriteHeader(http.StatusInternalServerError)
		}},
		Route{Pattern: "/fail", Endpoint: "fail", Handler: func(w http.ResponseWriter, _ *http.Request) {
			http.Error(w, "down", http.StatusServiceUnavailable)
		}},
	)
	for path, want := range map[string]int{"/nothing": 200, "/body": 200, "/first": 404, "/fail": 503} {
		if rec := serve(mux, path, nil); rec.Code != want {
			t.Errorf("%s: status %d, want %d", path, rec.Code, want)
		}
	}
	for class, want := range map[string]float64{"status_2xx": 2, "status_3xx": 0, "status_4xx": 1, "status_5xx": 1} {
		if got := counter(t, reg, "test_responses_total", class); got != want {
			t.Errorf("%s = %v, want %v", class, got, want)
		}
	}
	for ep, want := range map[string]float64{"nothing": 0, "body": 0, "first": 1, "fail": 1} {
		if got := counter(t, reg, "test_requests_total", ep); got != 1 {
			t.Errorf("requests{%s} = %v, want 1", ep, got)
		}
		if got := counter(t, reg, "test_errors_total", ep); got != want {
			t.Errorf("errors{%s} = %v, want %v", ep, got, want)
		}
	}
	for _, h := range reg.Snapshot().Histograms {
		if h.Name == "test_request_seconds" && h.Count != 1 {
			t.Errorf("latency{%s} count = %d, want 1", h.LabelValue, h.Count)
		}
	}
	for _, g := range reg.Snapshot().Gauges {
		if g.Name == "test_in_flight" && g.Value != 0 {
			t.Errorf("in flight after the requests = %v, want 0", g.Value)
		}
	}
}

// TestServe: a listener that cannot bind returns its error at once; a
// canceled context runs the drain and shuts down cleanly.
func TestServe(t *testing.T) {
	if err := Serve(context.Background(), "127.0.0.1:-1", http.NotFoundHandler(), nil); err == nil {
		t.Error("Serve on an invalid address returned nil")
	}
	ctx, cancel := context.WithCancel(context.Background())
	errDrain := errors.New("drained")
	drained := make(chan error, 1)
	go func() {
		drained <- Serve(ctx, "127.0.0.1:0", http.NotFoundHandler(), func(context.Context) error { return errDrain })
	}()
	cancel()
	if err := <-drained; !errors.Is(err, errDrain) {
		t.Errorf("Serve after cancel = %v, want the drain's error", err)
	}
}
