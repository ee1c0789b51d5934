package obsagg

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"

	"socialrec/internal/httpedge"
	"socialrec/internal/telemetry"
	"socialrec/internal/trace"
)

// Handler returns the collector's full HTTP surface.
func (c *Collector) Handler() http.Handler {
	return c.edge(
		httpedge.Route{Pattern: "GET /fleet/metrics", Endpoint: "fleet_metrics", Handler: c.handleFleetMetrics},
		httpedge.Route{Pattern: "GET /fleet/traces", Endpoint: "fleet_traces", Handler: c.handleFleetTraces},
		httpedge.Route{Pattern: "GET /fleet/traces/{trace_id}", Endpoint: "fleet_trace", Handler: c.handleFleetTrace},
		httpedge.Route{Pattern: "GET /fleet/budget", Endpoint: "fleet_budget", Handler: c.handleFleetBudget},
		httpedge.Route{Pattern: "GET /fleet/alerts", Endpoint: "fleet_alerts", Handler: c.handleFleetAlerts},
		httpedge.Route{Pattern: "GET /healthz", Endpoint: "healthz", Handler: c.handleHealthz},
		httpedge.Route{Pattern: "GET /readyz", Endpoint: "readyz", Handler: c.handleReadyz},
		httpedge.Route{Pattern: "GET /metrics", Endpoint: "metrics", Handler: telemetry.Handler(c.registry, nil, nil).ServeHTTP},
	)
}

// edge serves routes behind the same edge as the serving tier: fleet_*
// root spans and the tier's http_* families on the collector's registry,
// so a future collector-of-collectors merges them too. There is no load
// shedding and no deadline: the fleet view must answer precisely when the
// fleet is on fire.
func (c *Collector) edge(routes ...httpedge.Route) *http.ServeMux {
	return httpedge.New(httpedge.Config{
		SpanPrefix:   "fleet",
		MetricPrefix: "http",
		Routes:       routes,
		Metrics:      c.registry,
		Tracer:       c.tracer,
		Logger:       c.logger,
	})
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
