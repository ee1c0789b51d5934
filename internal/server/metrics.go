package server

import (
	"socialrec/internal/telemetry"
)

// metrics holds the server's own instruments; the per-endpoint request,
// error, latency, status-class, in-flight, panic and timeout families are
// internal/httpedge's. Everything is wired at New time, so request
// handling never performs a label lookup that could fail.
type metrics struct {
	encodeFailures *telemetry.Counter
	shed           *telemetry.Counter
	chaosInjected  *telemetry.Counter
	reloadSuccess  *telemetry.Counter
	reloadFailure  *telemetry.Counter
}

func newMetrics(reg *telemetry.Registry) *metrics {
	return &metrics{
		encodeFailures: reg.NewCounter("http_encode_failures_total",
			"responses whose JSON encoding failed before any bytes were written"),
		shed: reg.NewCounter("http_shed_total",
			"requests rejected with 503 by the concurrency limiter"),
		chaosInjected: reg.NewCounter("http_chaos_injected_total",
			"requests failed deliberately by -chaos fault injection"),
		reloadSuccess: reg.NewCounter("reload_success_total",
			"hot reloads that swapped in a new release"),
		reloadFailure: reg.NewCounter("reload_failure_total",
			"hot reloads that failed, leaving the last-good release serving"),
	}
}
