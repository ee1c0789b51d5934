package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"socialrec/internal/dataset"
	"socialrec/internal/telemetry"
)

// newMeteredServer builds a server over a private registry so counter
// assertions are not perturbed by other tests sharing telemetry.Default().
func newMeteredServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Config{
		Engine:  &fakeEngine{users: 5, failOn: 4},
		UserIDs: map[string]int{"alice": 0, "bob": 1, "evil": 4},
		Stats:   dataset.Stats{Users: 5},
		MaxN:    4,
		Logger:  testLogger(t),
		Metrics: telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func get(t *testing.T, url string, wantStatus int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
}

func TestErrorPathsIncrementCounters(t *testing.T) {
	s, ts := newMeteredServer(t)

	// Unknown user: 404, one recommend error.
	get(t, ts.URL+"/recommend?user=nobody", http.StatusNotFound)
	if got := counter(t, s, "http_errors_total", "recommend"); got != 1 {
		t.Errorf("after unknown user: recommend errors = %d, want 1", got)
	}

	// n > MaxN: 400, second recommend error.
	get(t, ts.URL+"/recommend?user=alice&n=50", http.StatusBadRequest)
	if got := counter(t, s, "http_errors_total", "recommend"); got != 2 {
		t.Errorf("after n > MaxN: recommend errors = %d, want 2", got)
	}

	// Malformed batch JSON: 400, one batch error.
	resp, err := http.Post(ts.URL+"/recommend/batch", "application/json",
		strings.NewReader(`{"users": [`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed batch: status %d, want 400", resp.StatusCode)
	}
	if got := counter(t, s, "http_errors_total", "batch"); got != 1 {
		t.Errorf("after malformed batch: batch errors = %d, want 1", got)
	}

	// Engine failure: 500, third recommend error and a 5xx response.
	get(t, ts.URL+"/recommend?user=evil", http.StatusInternalServerError)
	if got := counter(t, s, "http_errors_total", "recommend"); got != 3 {
		t.Errorf("after engine failure: recommend errors = %d, want 3", got)
	}

	// Status classes: three 4xx (404 + two 400s) and one 5xx.
	if got := counter(t, s, "http_responses_total", "status_4xx"); got != 3 {
		t.Errorf("status_4xx = %d, want 3", got)
	}
	if got := counter(t, s, "http_responses_total", "status_5xx"); got != 1 {
		t.Errorf("status_5xx = %d, want 1", got)
	}

	// A success increments requests and the 2xx class but not errors.
	get(t, ts.URL+"/recommend?user=alice&n=2", http.StatusOK)
	if got := counter(t, s, "http_errors_total", "recommend"); got != 3 {
		t.Errorf("success incremented errors: %d", got)
	}
	if got := counter(t, s, "http_responses_total", "status_2xx"); got != 1 {
		t.Errorf("status_2xx = %d, want 1", got)
	}
	if got := counter(t, s, "http_requests_total", "recommend"); got != 4 {
		t.Errorf("recommend requests = %d, want 4", got)
	}
}

func TestLatencyHistogramObserved(t *testing.T) {
	s, ts := newMeteredServer(t)
	get(t, ts.URL+"/healthz", http.StatusOK)
	get(t, ts.URL+"/healthz", http.StatusOK)
	var h *telemetry.HistogramSnapshot
	for _, hs := range s.cfg.Metrics.Snapshot().Histograms {
		if hs.Name == "http_request_seconds" && hs.LabelValue == "healthz" {
			h = &hs
		}
	}
	if h == nil {
		t.Fatal("no http_request_seconds{endpoint=healthz} histogram")
	}
	if h.Count != 2 {
		t.Errorf("healthz latency count = %d, want 2", h.Count)
	}
	if h.Sum <= 0 {
		t.Errorf("healthz latency sum = %v, want > 0", h.Sum)
	}
}

func TestInFlightGaugeReturnsToZero(t *testing.T) {
	s, ts := newMeteredServer(t)
	get(t, ts.URL+"/stats", http.StatusOK)
	var seen bool
	for _, g := range s.cfg.Metrics.Snapshot().Gauges {
		if g.Name == "http_in_flight" {
			seen = true
			if g.Value != 0 {
				t.Errorf("in-flight after request = %v, want 0", g.Value)
			}
		}
	}
	if !seen {
		t.Error("no http_in_flight gauge")
	}
}

// counter reads a counter from s's registry: the child of family name
// whose label value is label, or the unlabeled counter when label is "".
func counter(t *testing.T, s *Server, name, label string) uint64 {
	t.Helper()
	for _, m := range s.cfg.Metrics.Snapshot().Counters {
		if m.Name == name && m.LabelValue == label {
			return uint64(m.Value)
		}
	}
	t.Fatalf("no counter %s{%s}", name, label)
	return 0
}

// TestEncodeFailureCounted exercises satellite 6: an unencodable body must
// yield a 500 (not a committed 200 with a truncated body) and bump the
// encode-failure counter.
func TestEncodeFailureCounted(t *testing.T) {
	s, _ := newMeteredServer(t)
	rec := httptest.NewRecorder()
	s.writeJSON(context.Background(), rec, http.StatusOK, map[string]any{"bad": func() {}})
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("encode failure status = %d, want 500", rec.Code)
	}
	if got := s.metrics.encodeFailures.Value(); got != 1 {
		t.Errorf("encode failures = %d, want 1", got)
	}
}

// TestContentLengthSet verifies the buffered writer declares the body size
// up front.
func TestContentLengthSet(t *testing.T) {
	s, _ := newMeteredServer(t)
	rec := httptest.NewRecorder()
	s.writeJSON(context.Background(), rec, http.StatusOK, map[string]string{"k": "v"})
	if cl := rec.Header().Get("Content-Length"); cl == "" || cl == "0" {
		t.Errorf("Content-Length = %q, want body size", cl)
	}
	if rec.Body.Len() == 0 {
		t.Error("empty body")
	}
}
