package server

import (
	"context"
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"socialrec/internal/faults"
	"socialrec/internal/trace"
)

// Hardening middleware for the request path. The serving endpoints run the
// full stack, assembled outermost-first by trace.Middleware(harden()):
//
//	trace.Middleware → instrument → limit → recover → deadline → chaos → handler
//
// The tracer's middleware is outermost so the root span covers the entire
// request (shed and panicked requests still produce spans) and every inner
// layer sees the span through the request context and writes through the
// *trace.StatusWriter it hands down; instrument counts per endpoint; limit
// sheds before any work is spent; recover contains everything below it,
// including injected chaos panics; deadline bounds the handler's context;
// chaos (active only when Config.Faults is armed) injects deterministic
// faults at the innermost point so every injected failure exercises the
// entire recovery stack above it.
//
// The health endpoints deliberately run only trace+instrument+recover:
// liveness and readiness probes must keep answering while the serving path
// is saturated, or an overloaded-but-healthy process gets restarted into a
// thundering herd.

// harden wraps a serving handler with the full middleware stack.
func (s *Server) harden(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	h = s.chaos(h)
	h = s.deadline(h)
	h = s.recovery(h)
	h = s.limit(h)
	return s.instrument(endpoint, h)
}

// recovery converts a handler panic into a 500 response and a counter
// increment, keeping the process serving. The panic value and stack are
// logged; neither reaches the response body (stacks can name internal
// state; clients get a generic error).
func (s *Server) recovery(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			s.metrics.panics.Inc()
			s.logger.ErrorContext(r.Context(), "server: panic recovered",
				"panic", fmt.Sprint(v), "stack", string(debug.Stack()))
			if sw, ok := w.(*trace.StatusWriter); ok && sw.Wrote {
				// The handler already committed a response; nothing more
				// can be sent, but the connection and process survive.
				return
			}
			s.writeError(r.Context(), w, http.StatusInternalServerError, "internal error")
		}()
		h(w, r)
	}
}

// limit sheds load once maxInFlight requests are already in the serving
// path: excess requests get an immediate 503 with Retry-After instead of
// queueing into memory exhaustion or timeout cascades. The hint is
// adaptive — derived from the current in-flight depth and the recent
// latency EWMA (see retryafter.go) — so a lightly loaded spike says
// "retry in 1s" while a deep stall under slow requests pushes clients
// further out instead of inviting a synchronized retry storm.
func (s *Server) limit(h http.HandlerFunc) http.HandlerFunc {
	if s.sem == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
			h(w, r)
		default:
			s.metrics.shed.Inc()
			hint := retryAfterSeconds(len(s.sem), cap(s.sem), s.recentLatency(), s.cfg.RetryAfter)
			w.Header().Set("Retry-After", strconv.Itoa(hint))
			s.writeError(r.Context(), w, http.StatusServiceUnavailable, "server saturated, retry later")
		}
	}
}

// BudgetHeader carries a caller's remaining deadline budget in whole
// milliseconds across a proxy hop. internal/router sets it to strictly
// less than its own remaining budget on every proxied attempt; the
// deadline middleware below caps the local timeout to it, so a shard's
// deadline always fires before the router's and a timeout is attributed
// at the layer that owns it.
const BudgetHeader = "Request-Budget-Ms"

// deadline attaches a per-request deadline to the request context, so
// handler work (batch loops, future engine calls) has a bound to observe.
// An inbound Request-Budget-Ms header tightens (never extends) the
// configured timeout. A handler that returns with the deadline expired is
// counted.
func (s *Server) deadline(h http.HandlerFunc) http.HandlerFunc {
	if s.cfg.RequestTimeout <= 0 {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		timeout := s.cfg.RequestTimeout
		if v := r.Header.Get(BudgetHeader); v != "" {
			if ms, err := strconv.ParseInt(v, 10, 64); err == nil && ms > 0 {
				if budget := time.Duration(ms) * time.Millisecond; budget < timeout {
					timeout = budget
				}
			}
		}
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		h(w, r.WithContext(ctx))
		if ctx.Err() != nil {
			s.metrics.timeouts.Inc()
		}
	}
}

// chaos consults the fault-injection registry once per request. Unarmed
// (the production default, Config.Faults nil) it is free; under -chaos the
// armed plan injects deterministic delays, errors, or panics — the panics
// deliberately crash into the recovery middleware to prove containment.
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
