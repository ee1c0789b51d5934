package obsagg

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"socialrec/internal/telemetry"
	"socialrec/internal/trace"
)

// The collector's own HTTP surface carries the standard middleware
// stack — trace.Middleware → instrument → recover — with the same shape as
// internal/server: every request runs under a root span (an inbound
// traceparent is continued, the response carries one back), per-endpoint
// request/error counters and a latency histogram land on the collector's
// registry, and a panic becomes a 500, not a dead collector. There is no
// load shedding: the fleet view must answer precisely when the fleet is
// on fire.

// Endpoint label values for the collector's own instruments.
const (
	epFleetMetrics = "fleet_metrics"
	epFleetTraces  = "fleet_traces"
	epFleetTrace   = "fleet_trace"
	epFleetBudget  = "fleet_budget"
	epFleetAlerts  = "fleet_alerts"
	epHealthz      = "healthz"
	epReadyz       = "readyz"
	epMetrics      = "metrics"
)

var selfEndpoints = []string{
	epFleetMetrics, epFleetTraces, epFleetTrace, epFleetBudget,
	epFleetAlerts, epHealthz, epReadyz, epMetrics,
}

// httpMetrics are the per-endpoint serving instruments, named like the
// serving tier's so a future collector-of-collectors merges them too.
type httpMetrics struct {
	requests map[string]*telemetry.Counter
	errors   map[string]*telemetry.Counter
	latency  map[string]*telemetry.Histogram
	panics   *telemetry.Counter
}

func newHTTPMetrics(reg *telemetry.Registry) *httpMetrics {
	m := &httpMetrics{
		requests: map[string]*telemetry.Counter{},
		errors:   map[string]*telemetry.Counter{},
		latency:  map[string]*telemetry.Histogram{},
		panics: reg.NewCounter("http_panics_recovered_total",
			"handler panics converted to 500s"),
	}
	reqVec := reg.NewCounterVec("http_requests_total",
		"requests handled, by endpoint", "endpoint", selfEndpoints...)
	errVec := reg.NewCounterVec("http_errors_total",
		"4xx/5xx responses, by endpoint", "endpoint", selfEndpoints...)
	latVec := reg.NewHistogramVec("http_request_seconds",
		"request latency, by endpoint", "endpoint", nil, selfEndpoints...)
	for _, ep := range selfEndpoints {
		m.requests[ep] = reqVec.MustWith(ep)
		m.errors[ep] = errVec.MustWith(ep)
		m.latency[ep] = latVec.MustWith(ep)
	}
	return m
}

// wrap applies the middleware stack to one endpoint handler.
func (c *Collector) wrap(endpoint string, h http.HandlerFunc) http.Handler {
	m := c.http
	return c.tracer.Middleware("fleet_"+endpoint, func(w http.ResponseWriter, r *http.Request) {
		sw := w.(*trace.StatusWriter)
		start := time.Now()
		func() {
			defer func() {
				v := recover()
				if v == nil {
					return
				}
				m.panics.Inc()
				c.logger.ErrorContext(r.Context(), "obsagg: panic recovered",
					"panic", fmt.Sprint(v), "stack", string(debug.Stack()))
				if !sw.Wrote {
					http.Error(sw, "internal error", http.StatusInternalServerError)
				}
			}()
			h(sw, r)
		}()
		tid, _ := trace.FromContext(r.Context()).IDs()
		m.latency[endpoint].ObserveExemplar(time.Since(start).Seconds(), tid)
		m.requests[endpoint].Inc()
		if sw.Status >= 400 {
			m.errors[endpoint].Inc()
		}
	})
}

// Handler returns the collector's full HTTP surface.
func (c *Collector) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /fleet/metrics", c.wrap(epFleetMetrics, c.handleFleetMetrics))
	mux.Handle("GET /fleet/traces", c.wrap(epFleetTraces, c.handleFleetTraces))
	mux.Handle("GET /fleet/traces/{trace_id}", c.wrap(epFleetTrace, c.handleFleetTrace))
	mux.Handle("GET /fleet/budget", c.wrap(epFleetBudget, c.handleFleetBudget))
	mux.Handle("GET /fleet/alerts", c.wrap(epFleetAlerts, c.handleFleetAlerts))
	mux.Handle("GET /healthz", c.wrap(epHealthz, c.handleHealthz))
	mux.Handle("GET /readyz", c.wrap(epReadyz, c.handleReadyz))
	mux.Handle("GET /metrics", c.wrap(epMetrics, func(w http.ResponseWriter, r *http.Request) {
		telemetry.Handler(c.registry, nil, nil).ServeHTTP(w, r)
	}))
	return mux
}

func (c *Collector) handleFleetMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, c.FleetMetrics())
}

// fleetTracesDoc is the /fleet/traces list body.
type fleetTracesDoc struct {
	Traces []FleetTraceEntry `json:"traces"`
}

func (c *Collector) handleFleetTraces(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	status := q.Get("status")
	switch status {
	case "", "all", "error", "slow":
	default:
		http.Error(w, "status must be one of all, error, slow", http.StatusBadRequest)
		return
	}
	limit := 100
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			http.Error(w, "limit must be a positive integer", http.StatusBadRequest)
			return
		}
		limit = n
	}
	writeJSON(w, fleetTracesDoc{Traces: c.FleetTraces(status, limit)})
}

func (c *Collector) handleFleetTrace(w http.ResponseWriter, r *http.Request) {
	id, ok := trace.ParseTraceID(r.PathValue("trace_id"))
	if !ok {
		http.Error(w, "trace_id must be 32 lowercase hex digits", http.StatusBadRequest)
		return
	}
	st := c.LookupTrace(id)
	if st == nil {
		// The id is deliberately not echoed; it came off the wire.
		http.Error(w, "trace not retained by any target", http.StatusNotFound)
		return
	}
	writeJSON(w, st)
}

func (c *Collector) handleFleetBudget(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, c.FleetBudget())
}

func (c *Collector) handleFleetAlerts(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, c.FleetAlerts())
}

func (c *Collector) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]bool{"ok": true})
}

// readyBody is the collector's own readiness document.
type readyBody struct {
	Ready bool `json:"ready"`
	// Rounds counts completed scrape rounds; the fleet view is
	// meaningful after the first.
	Rounds  uint64         `json:"rounds"`
	Targets []TargetStatus `json:"targets"`
}

// handleReadyz answers 200 once a scrape round has completed — even a
// fully degraded fleet view is a working collector (partial failure is
// data, not collector unreadiness) — and 503 only before the first round.
func (c *Collector) handleReadyz(w http.ResponseWriter, r *http.Request) {
	body := readyBody{
		Rounds:  c.Rounds(),
		Targets: c.targetStatuses(),
	}
	body.Ready = body.Rounds > 0
	status := http.StatusOK
	if !body.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSONStatus(w, status, body)
}

// writeJSON writes v as one indented JSON document, encoding fully
// before the first byte so a failure can still become a clean 500.
func writeJSON(w http.ResponseWriter, v any) {
	writeJSONStatus(w, http.StatusOK, v)
}

func writeJSONStatus(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, "encoding error", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}
