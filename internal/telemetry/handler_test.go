package telemetry

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func reportFixtures() (*Registry, *StageTable, *Ledger) {
	r := NewRegistry()
	vec := r.NewCounterVec("http_requests_total", "requests", "endpoint", "recommend", "stats")
	vec.MustWith("recommend").Add(7)
	r.NewGauge("http_in_flight", "in flight").Set(2)
	h := r.NewHistogram("http_request_seconds", "latency", []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.5)
	tr := NewStageTable()
	tr.Observe("laplace_release", time.Millisecond)
	l := NewLedger()
	l.Record(ReleaseEvent{Mechanism: "cluster", Epsilon: 0.5, Sensitivity: 1, Values: 100})
	return r, tr, l
}

func TestHandlerJSON(t *testing.T) {
	r, tr, l := reportFixtures()
	rec := httptest.NewRecorder()
	Handler(r, tr, l).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var doc struct {
		Metrics       Snapshot        `json:"metrics"`
		Stages        []StageTiming   `json:"stages"`
		PrivacyBudget json.RawMessage `json:"privacy_budget"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, rec.Body.String())
	}
	if len(doc.Metrics.Counters) != 2 {
		t.Errorf("counters = %+v", doc.Metrics.Counters)
	}
	if len(doc.Stages) != 1 || doc.Stages[0].Stage != "laplace_release" {
		t.Errorf("stages = %+v", doc.Stages)
	}
	if !strings.Contains(string(doc.PrivacyBudget), `"epsilon": "0.5"`) {
		t.Errorf("budget section missing epsilon: %s", doc.PrivacyBudget)
	}
}

func TestHandlerPrometheus(t *testing.T) {
	r, tr, l := reportFixtures()
	rec := httptest.NewRecorder()
	Handler(r, tr, l).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=prometheus", nil))
	body := rec.Body.String()
	for _, want := range []string{
		`http_requests_total{endpoint="recommend"} 7`,
		`http_requests_total{endpoint="stats"} 0`,
		`http_in_flight 2`,
		`http_request_seconds_bucket{le="0.001"} 1`,
		`http_request_seconds_bucket{le="+Inf"} 2`,
		`http_request_seconds_count 2`,
		`pipeline_stage_count{stage="laplace_release"} 1`,
		`privacy_epsilon_spent_total 0.5`,
		`privacy_releases_total{mechanism="cluster"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, body)
		}
	}
	if strings.Count(body, "# TYPE http_requests_total counter") != 1 {
		t.Error("TYPE line not emitted exactly once per family")
	}
}

func TestHandlerAcceptNegotiation(t *testing.T) {
	r, tr, l := reportFixtures()
	req := httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	rec := httptest.NewRecorder()
	Handler(r, tr, l).ServeHTTP(rec, req)
	if !strings.Contains(rec.Body.String(), "# TYPE") {
		t.Error("Accept: text/plain did not yield Prometheus text")
	}
}

func TestHandlerNilSources(t *testing.T) {
	rec := httptest.NewRecorder()
	Handler(nil, nil, nil).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Errorf("status = %d", rec.Code)
	}
	var doc map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON with nil sources: %v", err)
	}
}
