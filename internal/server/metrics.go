package server

import (
	"net/http"
	"time"

	"socialrec/internal/telemetry"
	"socialrec/internal/trace"
)

// Endpoint label values, one per route. These are the only strings the
// server ever feeds telemetry as label values — request paths, user tokens
// and payloads never reach the registry (and the registry would reject
// them; see internal/telemetry's no-sensitive-labels invariant).
const (
	epHealthz   = "healthz"
	epReadyz    = "readyz"
	epStats     = "stats"
	epUsers     = "users"
	epRecommend = "recommend"
	epBatch     = "batch"
	epReload    = "reload"
)

var endpoints = []string{epHealthz, epReadyz, epStats, epUsers, epRecommend, epBatch, epReload}

// Status classes for response accounting.
var statusClasses = []string{"status_2xx", "status_3xx", "status_4xx", "status_5xx"}

// metrics holds the server's pre-resolved instruments. Everything is wired
// at New time with static label values, so request handling never performs
// a label lookup that could fail.
type metrics struct {
	inFlight       *telemetry.Gauge
	requests       map[string]*telemetry.Counter   // by endpoint
	errors         map[string]*telemetry.Counter   // 4xx+5xx responses, by endpoint
	latency        map[string]*telemetry.Histogram // by endpoint
	responses      map[string]*telemetry.Counter   // by status class
	encodeFailures *telemetry.Counter
	panics         *telemetry.Counter
	shed           *telemetry.Counter
	timeouts       *telemetry.Counter
	chaosInjected  *telemetry.Counter
	reloadSuccess  *telemetry.Counter
	reloadFailure  *telemetry.Counter
}

func newMetrics(reg *telemetry.Registry) *metrics {
	if reg == nil {
		reg = telemetry.Default()
	}
	m := &metrics{
		inFlight: reg.NewGauge("http_in_flight",
			"requests currently being handled"),
		requests:  map[string]*telemetry.Counter{},
		errors:    map[string]*telemetry.Counter{},
		latency:   map[string]*telemetry.Histogram{},
		responses: map[string]*telemetry.Counter{},
		encodeFailures: reg.NewCounter("http_encode_failures_total",
			"responses whose JSON encoding failed before any bytes were written"),
		panics: reg.NewCounter("http_panics_recovered_total",
			"handler panics converted to 500s by the recovery middleware"),
		shed: reg.NewCounter("http_shed_total",
			"requests rejected with 503 by the concurrency limiter"),
		timeouts: reg.NewCounter("http_request_timeouts_total",
			"requests whose per-request deadline expired"),
		chaosInjected: reg.NewCounter("http_chaos_injected_total",
			"requests failed deliberately by -chaos fault injection"),
		reloadSuccess: reg.NewCounter("reload_success_total",
			"hot reloads that swapped in a new release"),
		reloadFailure: reg.NewCounter("reload_failure_total",
			"hot reloads that failed, leaving the last-good release serving"),
	}
	reqVec := reg.NewCounterVec("http_requests_total",
		"requests handled, by endpoint", "endpoint", endpoints...)
	errVec := reg.NewCounterVec("http_errors_total",
		"4xx/5xx responses, by endpoint", "endpoint", endpoints...)
	latVec := reg.NewHistogramVec("http_request_seconds",
		"request latency, by endpoint", "endpoint", nil, endpoints...)
	for _, ep := range endpoints {
		m.requests[ep] = reqVec.MustWith(ep)
		m.errors[ep] = errVec.MustWith(ep)
		m.latency[ep] = latVec.MustWith(ep)
	}
	respVec := reg.NewCounterVec("http_responses_total",
		"responses sent, by status class", "class", statusClasses...)
	for _, cl := range statusClasses {
		m.responses[cl] = respVec.MustWith(cl)
	}
	return m
}

func statusClass(status int) string {
	switch {
	case status < 300:
		return "status_2xx"
	case status < 400:
		return "status_3xx"
	case status < 500:
		return "status_4xx"
	default:
		return "status_5xx"
	}
}

// instrument wraps a handler with the serving middleware: request and
// status-class counters, the in-flight gauge and the per-endpoint latency
// histogram. endpoint must be one of the static endpoint constants. Each
// latency observation carries the request's trace id as an exemplar, so a
// latency-bucket spike on a dashboard links to a concrete retained trace.
// The tracer's middleware outside hands every route a *trace.StatusWriter;
// reading it means both layers observe the same committed status.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	requests := s.metrics.requests[endpoint]
	errors := s.metrics.errors[endpoint]
	latency := s.metrics.latency[endpoint]
	return func(w http.ResponseWriter, r *http.Request) {
		s.metrics.inFlight.Add(1)
		start := time.Now()
		sw := w.(*trace.StatusWriter)
		h(sw, r)
		tid, _ := trace.FromContext(r.Context()).IDs()
		elapsed := time.Since(start)
		latency.ObserveExemplar(elapsed.Seconds(), tid)
		s.observeLatency(elapsed)
		s.metrics.inFlight.Add(-1)
		requests.Inc()
		s.metrics.responses[statusClass(sw.Status)].Inc()
		if sw.Status >= 400 {
			errors.Inc()
		}
	}
}
