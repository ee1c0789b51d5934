// Package httpedge is the one HTTP edge of recserve, recrouter and socmon
// ("edge" as in the network edge, not the paper's graph edges). Every
// request those processes serve runs through one wrapper that owns its
// root span, its committed status, the per-endpoint metrics, panic
// recovery and the deadline; Serve owns the listener's lifecycle. Only
// what differs stays with each process: the server's limiter and chaos
// injection, the router's drain.
//
// Nothing here touches privacy: every served request is post-processing
// of an ε-DP release, and the only strings this layer exports as span
// names or metric labels are the static endpoints of a route table.
package httpedge

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime/debug"
	"strconv"
	"syscall"
	"time"

	"socialrec/internal/telemetry"
	"socialrec/internal/trace"
)

// BudgetHeader carries a caller's remaining deadline budget in whole
// milliseconds across a proxy hop. internal/router sets it to strictly
// less than its own remaining budget on every proxied attempt, and a
// route's deadline honours it, so a shard's deadline always fires before
// the router's and a timeout is attributed at the layer that owns it.
const BudgetHeader = "Request-Budget-Ms"

// Route is one row of a process's route table.
type Route struct {
	// Pattern is the http.ServeMux pattern, e.g. "GET /recommend".
	Pattern string
	// Endpoint is the route's static identifier: the endpoint label of
	// its metrics and the suffix of its root span's name.
	Endpoint string
	// Timeout bounds the request's context; 0 leaves it unbounded. An
	// inbound BudgetHeader can tighten it, never extend it.
	Timeout time.Duration
	Handler http.HandlerFunc
}

// Config assembles an edge. Every field is required.
type Config struct {
	// SpanPrefix names each route's root span <SpanPrefix>_<Endpoint>.
	SpanPrefix string
	// MetricPrefix names the metric families <MetricPrefix>_requests_total,
	// _errors_total, _request_seconds (by endpoint), _responses_total (by
	// status class), _in_flight, _panics_recovered_total and
	// _request_timeouts_total.
	MetricPrefix string
	// Routes is the route table; its endpoints are the closed set of
	// endpoint label values.
	Routes  []Route
	Metrics *telemetry.Registry
	Tracer  *trace.Tracer
	// Logger receives recovered panics under the request's context; wrap
	// its handler with trace.NewSlogHandler so records carry the trace id.
	Logger *slog.Logger
}

// attrHTTPStatus carries the committed response status on every root
// span. Statuses are small static integers; no request content rides
// along.
var attrHTTPStatus = trace.NewKey("http_status")

var statusClasses = [...]string{"status_2xx", "status_3xx", "status_4xx", "status_5xx"}

// errDeadline is the cause of a route's own deadline, which is what tells
// an expired deadline apart from a client that went away.
var errDeadline = errors.New("httpedge: route deadline exceeded")

// internalError is the body of a recovered panic's 500.
const internalError = `{"error":"internal error"}` + "\n"

// edge is what every route of one process shares.
type edge struct {
	tracer    *trace.Tracer
	logger    *slog.Logger
	inFlight  *telemetry.Gauge
	responses [len(statusClasses)]*telemetry.Counter
	panics    *telemetry.Counter
	timeouts  *telemetry.Counter
}

// route is one Route bound to its pre-resolved instruments, so serving a
// request never performs a label lookup.
type route struct {
	*edge
	span     string
	timeout  time.Duration
	h        http.HandlerFunc
	requests *telemetry.Counter
	errors   *telemetry.Counter
	latency  *telemetry.Histogram
}

// New registers the edge's instruments on cfg.Metrics and returns a mux
// serving every route of cfg.Routes behind the edge.
func New(cfg Config) *http.ServeMux {
	reg, p := cfg.Metrics, cfg.MetricPrefix
	e := &edge{
		tracer:   cfg.Tracer,
		logger:   cfg.Logger,
		inFlight: reg.NewGauge(p+"_in_flight", "requests currently being handled"),
		panics:   reg.NewCounter(p+"_panics_recovered_total", "handler panics answered with a 500"),
		timeouts: reg.NewCounter(p+"_request_timeouts_total", "requests whose route deadline expired"),
	}
	classes := reg.NewCounterVec(p+"_responses_total", "responses sent, by status class", "class", statusClasses[:]...)
	for i, cl := range statusClasses {
		e.responses[i] = classes.MustWith(cl)
	}
	endpoints := make([]string, len(cfg.Routes))
	for i, r := range cfg.Routes {
		endpoints[i] = r.Endpoint
	}
	requests := reg.NewCounterVec(p+"_requests_total", "requests handled, by endpoint", "endpoint", endpoints...)
	errs := reg.NewCounterVec(p+"_errors_total", "4xx/5xx responses, by endpoint", "endpoint", endpoints...)
	latency := reg.NewHistogramVec(p+"_request_seconds", "request latency, by endpoint", "endpoint", nil, endpoints...)
	mux := http.NewServeMux()
	for _, r := range cfg.Routes {
		mux.Handle(r.Pattern, &route{
			edge:     e,
			span:     cfg.SpanPrefix + "_" + r.Endpoint,
			timeout:  r.Timeout,
			h:        r.Handler,
			requests: requests.MustWith(r.Endpoint),
			errors:   errs.MustWith(r.Endpoint),
			latency:  latency.MustWith(r.Endpoint),
		})
	}
	return mux
}

// ServeHTTP runs one request under its root span. A valid inbound W3C
// traceparent is continued (same trace id, so the deterministic head
// decision matches the caller's; the remote span becomes the parent);
// anything else starts a fresh root. The response always carries the
// root's traceparent, so a client can quote the id back. The status the
// handler commits lands on the span as http_status, and a 5xx marks the
// span errored, which forces the trace through tail retention. The
// latency histogram takes the root span's own duration, with the trace id
// as exemplar.
func (rt *route) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	if timeout := rt.deadline(r.Header.Get(BudgetHeader)); timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, timeout, errDeadline)
		defer cancel()
	}
	var remote trace.Traceparent
	if tp, err := trace.ParseTraceparent(r.Header.Get(trace.TraceparentHeader)); err == nil {
		remote = tp
	}
	ctx, sp := rt.tracer.StartRemote(ctx, rt.span, remote)
	w.Header().Set(trace.TraceparentHeader, sp.Traceparent())
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	rt.inFlight.Add(1)
	rt.serve(sw, r.WithContext(ctx))
	rt.inFlight.Add(-1)
	if errors.Is(context.Cause(ctx), errDeadline) {
		rt.timeouts.Inc()
	}
	sp.Set(attrHTTPStatus.Int(int64(sw.status)))
	if sw.status >= http.StatusInternalServerError {
		sp.SetStatus(trace.StatusError)
	}
	tid, _ := sp.IDs()
	rt.latency.ObserveExemplar(sp.End().Seconds(), tid)
	rt.requests.Inc()
	rt.responses[min(max(sw.status/100-2, 0), len(statusClasses)-1)].Inc()
	if sw.status >= http.StatusBadRequest {
		rt.errors.Inc()
	}
}

// serve runs the handler and contains its panic: the process keeps
// serving, the request gets a JSON 500 unless it already committed a
// response, and the panic value and stack go to the log under the
// request's trace, never to the client (stacks can name internal state).
func (rt *route) serve(sw *statusWriter, r *http.Request) {
	defer func() {
		v := recover()
		if v == nil {
			return
		}
		rt.panics.Inc()
		rt.logger.ErrorContext(r.Context(), "httpedge: panic recovered",
			"panic", fmt.Sprint(v), "stack", string(debug.Stack()))
		if !sw.wrote {
			sw.Header().Set("Content-Type", "application/json")
			sw.Header().Set("Content-Length", strconv.Itoa(len(internalError)))
			sw.WriteHeader(http.StatusInternalServerError)
			_, _ = io.WriteString(sw, internalError)
		}
	}()
	rt.h(sw, r)
}

// deadline returns the request's timeout: the route's, tightened by a
// positive inbound budget below it. The budget is compared in whole
// milliseconds before it becomes a Duration, so any budget at or above
// the timeout is ignored, even one that would overflow a Duration.
func (rt *route) deadline(budget string) time.Duration {
	if rt.timeout <= 0 || budget == "" {
		return rt.timeout
	}
	ms, err := strconv.ParseInt(budget, 10, 64)
	if err != nil || ms <= 0 || ms > int64((rt.timeout-1)/time.Millisecond) {
		return rt.timeout
	}
	return time.Duration(ms) * time.Millisecond
}

// statusWriter records the status a response committed. The first
// WriteHeader wins, as it does on the wire (net/http ignores later
// calls), and a handler that writes only a body, or nothing at all,
// committed 200. wrote tells panic recovery whether a 500 can still be
// sent.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(status int) {
	if !w.wrote {
		w.status = status
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(p)
}

// Serve listens on addr and serves h until ctx is done or the process
// receives SIGINT or SIGTERM, then shuts down within 5 s: drain, when
// non-nil, runs first, then the listener stops accepting and waits for
// open requests. The server's own timeouts bound slow-loris clients
// (header and body reads), stuck responses (write) and dead keep-alive
// connections (idle); per-request deadlines are the routes' Timeout.
// Serve returns the listener's error if listening fails, otherwise what
// drain and shutdown report; a grace period that expires with
// connections still open is not an error.
func Serve(ctx context.Context, addr string, h http.Handler, drain func(context.Context) error) error {
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv := &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	shutCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 5*time.Second)
	defer cancel()
	var err error
	if drain != nil {
		err = drain(shutCtx)
	}
	if serr := srv.Shutdown(shutCtx); !errors.Is(serr, context.DeadlineExceeded) {
		err = errors.Join(err, serr)
	}
	return err
}
