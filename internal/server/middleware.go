package server

import (
	"net/http"
	"strconv"
	"time"

	"socialrec/internal/faults"
)

// The serving endpoints run behind the server's own part of the request
// path; internal/httpedge wraps every route in the rest (root span,
// status, per-endpoint metrics, panic recovery, deadline):
//
//	httpedge → limit → chaos → handler
//
// limit sheds before any work is spent; chaos (active only when
// Config.Faults is armed) injects deterministic faults at the innermost
// point, so every injected failure, panics included, exercises the whole
// edge above it.

// limit sheds load once maxInFlight requests are already in the serving
// path: excess requests get an immediate 503 with Retry-After instead of
// queueing into memory exhaustion or timeout cascades. The hint is
// adaptive — derived from the current in-flight depth and the recent
// latency EWMA (see retryafter.go) — so a lightly loaded spike says
// "retry in 1s" while a deep stall under slow requests pushes clients
// further out instead of inviting a synchronized retry storm. Only
// admitted requests feed the EWMA: a shed answer takes microseconds, and
// timing it would talk the hint down exactly while the server saturates.
func (s *Server) limit(h http.HandlerFunc) http.HandlerFunc {
	if s.sem == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
			start := time.Now()
			h(w, r)
			s.observeLatency(time.Since(start))
		default:
			s.metrics.shed.Inc()
			hint := retryAfterSeconds(len(s.sem), cap(s.sem), s.recentLatency(), s.cfg.RetryAfter)
			w.Header().Set("Retry-After", strconv.Itoa(hint))
			s.writeError(r.Context(), w, http.StatusServiceUnavailable, "server saturated, retry later")
		}
	}
}

// chaos consults the fault-injection registry once per request. Unarmed
// (the production default, Config.Faults nil) it is free; under -chaos the
// armed plan injects deterministic delays, errors, or panics — the panics
// deliberately crash into the edge's recovery to prove containment.
func (s *Server) chaos(h http.HandlerFunc) http.HandlerFunc {
	if s.cfg.Faults == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		if err := s.cfg.Faults.Check(faults.PointHandler); err != nil {
			s.metrics.chaosInjected.Inc()
			s.writeError(r.Context(), w, http.StatusInternalServerError, "injected fault")
			return
		}
		h(w, r)
	}
}
