// Package server implements the HTTP API served by cmd/recserve: JSON
// endpoints for recommendations, dataset statistics, liveness/readiness
// and hot reload over a private recommendation engine.
//
// The engine performs its differentially private release once at
// construction; every request handled here is post-processing over that
// sanitized state, so request volume never erodes the privacy guarantee.
//
// The request path is hardened for production faults: internal/httpedge
// turns panics into 500s without killing the process and gives every
// serving request a deadline; a concurrency limiter sheds overload with
// 503 + Retry-After, and an optional fault-injection registry
// (Config.Faults) drives chaos testing (see middleware.go). Hot reload
// swaps releases through an atomic pointer (Hot) so a failed reload
// degrades to "stale but serving" instead of an outage.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"socialrec/internal/core"
	"socialrec/internal/dataset"
	"socialrec/internal/faults"
	"socialrec/internal/httpedge"
	"socialrec/internal/telemetry"
	"socialrec/internal/trace"
)

// maxPooledBuf caps the buffer capacity a jsonEnc may carry back into the
// pool. A one-off giant response (a 1000-user batch) would otherwise pin
// its megabytes in the pool forever; oversized buffers are dropped to GC
// and the pool refills with fresh small ones.
const maxPooledBuf = 1 << 20

// jsonEnc is a pooled response-encoding buffer with a json.Encoder bound to
// it once at construction, so the steady-state serving path allocates
// neither the buffer nor the encoder. The encoder never latches an error
// state across uses: encoding/json only remembers writer errors, and
// bytes.Buffer writes cannot fail — marshal errors (the only kind our
// closed response types could ever produce) are returned, not stored.
type jsonEnc struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var (
	encPool = sync.Pool{New: func() any {
		encPoolNews.Add(1)
		e := new(jsonEnc)
		e.enc = json.NewEncoder(&e.buf)
		return e
	}}
	encPoolGets atomic.Uint64
	encPoolNews atomic.Uint64

	respPool = sync.Pool{New: func() any {
		respPoolNews.Add(1)
		return new(recResponse)
	}}
	respPoolGets atomic.Uint64
	respPoolNews atomic.Uint64
)

func init() {
	telemetry.RegisterPoolStats("server_buffer", func() telemetry.PoolStats {
		return telemetry.PoolStats{Gets: encPoolGets.Load(), Misses: encPoolNews.Load()}
	})
	telemetry.RegisterPoolStats("server_response", func() telemetry.PoolStats {
		return telemetry.PoolStats{Gets: respPoolGets.Load(), Misses: respPoolNews.Load()}
	})
}

//sociolint:hotpath
func getEnc() *jsonEnc {
	encPoolGets.Add(1)
	e := encPool.Get().(*jsonEnc)
	e.buf.Reset()
	return e
}

//sociolint:hotpath
func putEnc(e *jsonEnc) {
	if e.buf.Cap() > maxPooledBuf {
		return
	}
	encPool.Put(e)
}

//sociolint:hotpath
func getRecResponse() *recResponse {
	respPoolGets.Add(1)
	return respPool.Get().(*recResponse)
}

//sociolint:hotpath
func putRecResponse(rr *recResponse) {
	// Keep the Recommendations capacity (that is the point of pooling);
	// item tokens referenced by stale entries are long-lived config
	// strings, so nothing transient is pinned.
	respPool.Put(rr)
}

// owner is the optional ownership check a sharded engine implements
// (socialrec.ShardEngine, forwarded through *Hot): a server fronting one
// shard answers only for the users that shard owns and refuses the rest
// with 421 Misdirected Request. Whole-population engines simply don't
// implement it.
type owner interface{ Owns(user int) bool }

// Engine is the slice of the recommendation engine the server needs;
// *socialrec.Engine satisfies it.
type Engine interface {
	// RecommendContext returns the top-n list for one user. The context is
	// the request's: it carries the deadline and the active trace span, so
	// engine phases can open child spans on it.
	RecommendContext(ctx context.Context, user, n int) ([]core.Recommendation, error)
	// ClusterOf reports the user's (public) community, or -1 if the
	// engine is not cluster-based.
	ClusterOf(user int) int
	// Epsilon reports the privacy budget of the engine's release.
	Epsilon() float64
	// NumClusters reports the community count.
	NumClusters() int
	// Modularity reports the clustering's modularity.
	Modularity() float64
}

// Config assembles a Server.
type Config struct {
	Engine Engine
	// UserIDs maps external user tokens to internal ids (as produced by
	// dataset.ReadSocialTSV).
	UserIDs map[string]int
	// ItemTokens maps internal item ids back to external tokens; nil
	// serves numeric ids.
	ItemTokens []string
	// Stats is the dataset summary served at /stats.
	Stats dataset.Stats
	// MaxN caps the list length a request may ask for; 0 selects 100.
	MaxN int
	// Logger receives request-handling errors; nil selects a text logger to
	// stderr. Whatever handler is supplied is wrapped with
	// trace.NewSlogHandler, so every record emitted with a request context
	// carries trace_id and span_id.
	Logger *slog.Logger
	// Metrics receives the server's instruments; nil selects
	// telemetry.Default(). Registration is idempotent, so several servers
	// (e.g. tests) may share one registry.
	Metrics *telemetry.Registry
	// RequestTimeout bounds each serving request's context; 0 selects
	// 10 s, negative disables the deadline.
	RequestTimeout time.Duration
	// MaxInFlight caps concurrently handled serving requests; excess
	// requests are shed with 503 + Retry-After. 0 selects 1024, negative
	// disables shedding. Health endpoints are never shed.
	MaxInFlight int
	// RetryAfter is the Retry-After hint on shed responses, rounded to
	// whole seconds; 0 selects 1 s.
	RetryAfter time.Duration
	// Reload, when non-nil, enables POST /admin/reload: it must attempt to
	// swap in a fresh release (typically via a *Hot engine) and return nil
	// on success. On failure the server answers 500 and keeps serving the
	// current engine. nil answers 501 Not Implemented. The context is the
	// triggering request's, so a store-backed reload's spans and budget
	// events attach to the request's trace.
	Reload func(ctx context.Context) error
	// Faults, when non-nil, arms chaos injection: every serving request
	// consults faults.PointHandler. Production servers leave it
	// nil; cmd/recserve -chaos and fault-injection tests set it.
	Faults *faults.Registry
	// Tracer retains request traces (see internal/trace); nil selects
	// trace.Default(). Every route opens a root span on it, continuing an
	// inbound W3C traceparent when the request carries one.
	Tracer *trace.Tracer
}

// Server routes HTTP requests to a private recommendation engine.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	metrics *metrics
	logger  *slog.Logger
	sem     chan struct{} // concurrency limiter; nil disables shedding

	// ewmaNanos is the recent-latency EWMA feeding the adaptive
	// Retry-After hint (see retryafter.go).
	ewmaNanos atomic.Int64
}

// New validates the configuration and builds the server.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("server: Engine is required")
	}
	if cfg.UserIDs == nil {
		return nil, fmt.Errorf("server: UserIDs is required")
	}
	if cfg.MaxN <= 0 {
		cfg.MaxN = 100
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 10 * time.Second
	}
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = 1024
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	// Re-wrapping an already-wrapped handler is harmless (the inner wrapper
	// sees a record that merely lacks the ids the outer one adds), so wrap
	// unconditionally: correlation must not depend on the caller remembering.
	logger = slog.New(trace.NewSlogHandler(logger.Handler()))
	tracer := cfg.Tracer
	if tracer == nil {
		tracer = trace.Default()
	}
	if cfg.Metrics == nil {
		cfg.Metrics = telemetry.Default()
	}
	s := &Server{cfg: cfg, metrics: newMetrics(cfg.Metrics), logger: logger}
	if cfg.MaxInFlight > 0 {
		s.sem = make(chan struct{}, cfg.MaxInFlight)
	}
	// Health and admin endpoints bypass the limiter, chaos and the
	// deadline: probes must answer while the serving path is saturated, or
	// an overloaded-but-healthy process gets restarted into a thundering
	// herd, and a reload is exactly what an operator reaches for under
	// duress. Every route is traced — root spans are cheap, and a reload
	// trace is the one an operator most wants to find afterwards.
	timeout := max(cfg.RequestTimeout, 0)
	serving := func(h http.HandlerFunc) http.HandlerFunc { return s.limit(s.chaos(h)) }
	s.mux = httpedge.New(httpedge.Config{
		SpanPrefix:   "http",
		MetricPrefix: "http",
		Routes: []httpedge.Route{
			{Pattern: "GET /healthz", Endpoint: "healthz", Handler: s.handleHealthz},
			{Pattern: "GET /readyz", Endpoint: "readyz", Handler: s.handleReadyz},
			{Pattern: "POST /admin/reload", Endpoint: "reload", Handler: s.handleReload},
			{Pattern: "GET /stats", Endpoint: "stats", Timeout: timeout, Handler: serving(s.handleStats)},
			{Pattern: "GET /recommend", Endpoint: "recommend", Timeout: timeout, Handler: serving(s.handleRecommend)},
			{Pattern: "POST /recommend/batch", Endpoint: "batch", Timeout: timeout, Handler: serving(s.handleBatch)},
			{Pattern: "GET /users", Endpoint: "users", Timeout: timeout, Handler: serving(s.handleUsers)},
		},
		Metrics: cfg.Metrics,
		Tracer:  tracer,
		Logger:  logger,
	})
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// handleHealthz is the liveness probe: the process is up and the router
// answers. It deliberately checks nothing else — a degraded or reloading
// server is still alive, and restarting it would only lose the last-good
// release it is serving.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	// Best-effort: a failed health-check write means the client is gone.
	_, _ = fmt.Fprintln(w, "ok")
}

// handleReadyz is the readiness probe: which release is being served, when
// it was loaded, and whether the server is degraded (a reload failed and
// the last-good, now stale, release is still serving). Degraded is 200 —
// the server IS serving — with degraded: true for dashboards and rollout
// gates to act on.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	body := map[string]any{
		"ready":   true,
		"epsilon": fmt.Sprintf("%g", s.cfg.Engine.Epsilon()),
	}
	if st, ok := s.cfg.Engine.(statuser); ok {
		status := st.Status()
		body["release_version"] = status.Version
		body["loaded_at"] = status.LoadedAt.UTC().Format(time.RFC3339)
		body["degraded"] = status.Degraded
		if status.Degraded {
			body["degraded_reason"] = status.Reason
		}
		// Delta lineage: the full generation behind the serving engine and
		// the delta versions applied on top (empty when serving a full
		// release directly).
		body["full_version"] = status.FullVersion
		deltas := status.Deltas
		if deltas == nil {
			deltas = []uint64{}
		}
		body["deltas_applied"] = deltas
	}
	s.writeJSON(r.Context(), w, http.StatusOK, body)
}

// handleReload triggers the configured reload hook. Success answers 200
// with the new release version; failure answers 500 while the last-good
// engine keeps serving (visible as degraded on /readyz when the engine is
// a *Hot).
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	if s.cfg.Reload == nil {
		s.writeError(ctx, w, http.StatusNotImplemented, "no reload source configured")
		return
	}
	if err := s.cfg.Reload(ctx); err != nil {
		s.metrics.reloadFailure.Inc()
		s.logger.ErrorContext(ctx, "server: reload failed", "err", err)
		s.writeError(ctx, w, http.StatusInternalServerError, "reload failed: "+err.Error())
		return
	}
	s.metrics.reloadSuccess.Inc()
	body := map[string]any{"status": "reloaded"}
	if st, ok := s.cfg.Engine.(statuser); ok {
		body["release_version"] = st.Status().Version
	}
	s.writeJSON(ctx, w, http.StatusOK, body)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(r.Context(), w, http.StatusOK, map[string]any{
		"users":            s.cfg.Stats.Users,
		"social_edges":     s.cfg.Stats.SocialEdges,
		"items":            s.cfg.Stats.Items,
		"preference_edges": s.cfg.Stats.PrefEdges,
		"sparsity":         s.cfg.Stats.PrefSparsity,
		"clusters":         s.cfg.Engine.NumClusters(),
		"modularity":       s.cfg.Engine.Modularity(),
		"epsilon":          fmt.Sprintf("%g", s.cfg.Engine.Epsilon()),
	})
}

// handleUsers lists known user tokens (paginated), primarily for
// exploration and debugging. User identity and the social graph are public
// in the paper's model, so this endpoint leaks nothing protected.
func (s *Server) handleUsers(w http.ResponseWriter, r *http.Request) {
	limit := 100
	if l := r.URL.Query().Get("limit"); l != "" {
		v, err := strconv.Atoi(l)
		if err != nil || v < 1 {
			s.writeError(r.Context(), w, http.StatusBadRequest, "bad limit parameter")
			return
		}
		limit = v
	}
	tokens := make([]string, 0, len(s.cfg.UserIDs))
	for tok := range s.cfg.UserIDs {
		tokens = append(tokens, tok)
	}
	sort.Strings(tokens)
	if len(tokens) > limit {
		tokens = tokens[:limit]
	}
	s.writeJSON(r.Context(), w, http.StatusOK, map[string]any{
		"users": tokens,
		"total": len(s.cfg.UserIDs),
	})
}

// recItem is one entry of a served recommendation list.
type recItem struct {
	Item    string  `json:"item"`
	Utility float64 `json:"utility"`
}

// recResponse is the GET /recommend body and one successful batch row. It
// is a typed struct (not an ad-hoc map) so the response surface is a
// closed, reviewable world and per-request map allocation stays off the
// hot path.
type recResponse struct {
	User            string    `json:"user"`
	Cluster         int       `json:"cluster"`
	Recommendations []recItem `json:"recommendations"`
}

// batchUserError is one failed batch row: the token the client sent plus a
// fixed error string, never engine internals.
type batchUserError struct {
	User  string `json:"user"`
	Error string `json:"error"`
}

// batchResponse documents the POST /recommend/batch body shape. The handler
// does not build one: rows (recResponse or batchUserError) are streamed
// into a pooled buffer one at a time, so a large batch never materializes a
// []any of boxed rows. The type remains the closed-world record of the
// response surface and the shape tests decode into.
type batchResponse struct {
	Results []any `json:"results"`
}

// recommendFor computes one user's recommendation list into the pooled
// *rr (reusing its Recommendations capacity) and returns the HTTP status.
// On error rr is unspecified and must not be encoded.
//
//sociolint:hotpath
func (s *Server) recommendFor(ctx context.Context, userTok string, n int, rr *recResponse) (int, error) {
	if err := ctx.Err(); err != nil {
		// The deadline expired (or the client left) before this user's
		// work started; don't spend engine time on an answer nobody reads.
		//sociolint:ignore hotalloc deadline-expiry path, the request already failed
		return http.StatusGatewayTimeout, fmt.Errorf("request deadline exceeded")
	}
	user, ok := s.cfg.UserIDs[userTok]
	if !ok {
		//sociolint:ignore hotalloc rejection path, not the per-request steady state
		return http.StatusNotFound, fmt.Errorf("unknown user %q", userTok)
	}
	if o, isOwner := s.cfg.Engine.(owner); isOwner && !o.Owns(user) {
		// A shard server refuses users another shard owns: its halo and
		// foreign rows would make an answer silently wrong, not
		// approximate. 421 tells a misrouting caller (a router with a
		// stale manifest) to fix its map, loudly.
		//sociolint:ignore hotalloc misdirected-request path, not the per-request steady state
		return http.StatusMisdirectedRequest, fmt.Errorf("user %q is not owned by this shard", userTok)
	}
	if n > s.cfg.MaxN {
		return http.StatusBadRequest,
			//sociolint:ignore hotalloc rejection path, not the per-request steady state
			fmt.Errorf("n %d exceeds maximum %d", n, s.cfg.MaxN)
	}
	if n < 1 {
		n = 10
		if n > s.cfg.MaxN {
			n = s.cfg.MaxN
		}
	}
	recs, err := s.cfg.Engine.RecommendContext(ctx, user, n)
	if err != nil {
		return http.StatusInternalServerError, err
	}
	out := rr.Recommendations[:0]
	if cap(out) < len(recs) {
		out = make([]recItem, 0, len(recs))
	}
	for _, rec := range recs {
		tok := strconv.Itoa(int(rec.Item))
		if s.cfg.ItemTokens != nil && int(rec.Item) < len(s.cfg.ItemTokens) {
			tok = s.cfg.ItemTokens[rec.Item]
		}
		out = append(out, recItem{Item: tok, Utility: rec.Utility})
	}
	rr.User = userTok
	rr.Cluster = s.cfg.Engine.ClusterOf(user)
	rr.Recommendations = out
	return http.StatusOK, nil
}

//sociolint:hotpath
func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	userTok := r.URL.Query().Get("user")
	if userTok == "" {
		s.writeError(ctx, w, http.StatusBadRequest, "missing user parameter")
		return
	}
	n := 0
	if nArg := r.URL.Query().Get("n"); nArg != "" {
		v, err := strconv.Atoi(nArg)
		if err != nil || v < 1 {
			s.writeError(ctx, w, http.StatusBadRequest, "bad n parameter")
			return
		}
		n = v
	}
	rr := getRecResponse()
	defer putRecResponse(rr)
	status, err := s.recommendFor(ctx, userTok, n, rr)
	if err != nil {
		s.writeError(ctx, w, status, err.Error())
		return
	}
	s.writeJSON(ctx, w, status, rr)
}

// batchRequest is the POST /recommend/batch payload. N is the list length
// for every user; zero (or omitted) means the default of 10, as an omitted
// GET n does, and a negative N is rejected.
type batchRequest struct {
	Users []string `json:"users"`
	N     int      `json:"n"`
}

//sociolint:hotpath
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	var req batchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		//sociolint:ignore hotalloc malformed-request path, the request already failed
		s.writeError(ctx, w, http.StatusBadRequest, "bad JSON body: "+err.Error())
		return
	}
	if len(req.Users) == 0 {
		s.writeError(ctx, w, http.StatusBadRequest, "users must be non-empty")
		return
	}
	if req.N < 0 {
		s.writeError(ctx, w, http.StatusBadRequest, "bad n parameter")
		return
	}
	const maxBatch = 1000
	if len(req.Users) > maxBatch {
		//sociolint:ignore hotalloc rejection path, not the per-request steady state
		s.writeError(ctx, w, http.StatusBadRequest, fmt.Sprintf("batch too large (max %d)", maxBatch))
		return
	}
	// Stream rows into one pooled buffer, reusing a single pooled
	// recResponse for every successful row (each is encoded before the
	// next overwrites it). Nothing touches the ResponseWriter until the
	// buffer holds the complete body, so the PR 2 semantics survive: an
	// encode failure or a mid-batch deadline expiry still becomes a clean
	// error status with Content-Length intact, never a truncated 200.
	e := getEnc()
	defer putEnc(e)
	rr := getRecResponse()
	defer putRecResponse(rr)
	e.buf.WriteString(`{"results":[`)
	for i, tok := range req.Users {
		var row any = rr
		status, err := s.recommendFor(ctx, tok, req.N, rr)
		if err != nil {
			switch status {
			case http.StatusNotFound:
				//sociolint:ignore hotalloc unknown-user row, not the per-request steady state
				row = batchUserError{User: tok, Error: "unknown user"}
			case http.StatusMisdirectedRequest:
				// A misrouted user costs their row, not the batch: the
				// correctly routed rows are still exact.
				//sociolint:ignore hotalloc misdirected row, not the per-request steady state
				row = batchUserError{User: tok, Error: "not owned by this shard"}
			default:
				// Deadline expiry mid-batch aborts the whole request: a batch
				// is one response, and a silently truncated one would be
				// indistinguishable from a complete one.
				s.writeError(ctx, w, status, err.Error())
				return
			}
		}
		if i > 0 {
			e.buf.WriteByte(',')
		}
		if err := e.enc.Encode(row); err != nil {
			s.encodeFailure(ctx, w, err)
			return
		}
		// Encode appends a newline after each value; drop it so the rows
		// read as one compact JSON array.
		e.buf.Truncate(e.buf.Len() - 1)
	}
	e.buf.WriteString("]}\n")
	writeBuf(w, http.StatusOK, &e.buf)
}

// writeJSON encodes v into a pooled buffer before touching the
// ResponseWriter, so an encoding failure can still become a clean 500
// instead of a truncated body behind an already-committed 200 header. ctx
// is the request's, for trace-correlated error logs.
//
//sociolint:hotpath
func (s *Server) writeJSON(ctx context.Context, w http.ResponseWriter, status int, v any) {
	e := getEnc()
	defer putEnc(e)
	if err := e.enc.Encode(v); err != nil {
		s.encodeFailure(ctx, w, err)
		return
	}
	writeBuf(w, status, &e.buf)
}

// writeBuf commits a fully-assembled body: headers (including the exact
// Content-Length) first, then the bytes.
//
//sociolint:hotpath
func writeBuf(w http.ResponseWriter, status int, buf *bytes.Buffer) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	// Best-effort: a failed write means the client is gone.
	_, _ = w.Write(buf.Bytes())
}

// encodeFailure answers a response whose JSON encoding failed. Nothing has
// been committed to w yet (encoding targets the pooled buffer), so the 500
// is clean.
func (s *Server) encodeFailure(ctx context.Context, w http.ResponseWriter, err error) {
	s.metrics.encodeFailures.Inc()
	s.logger.ErrorContext(ctx, "server: encoding response", "err", err)
	http.Error(w, `{"error":"internal encoding failure"}`, http.StatusInternalServerError)
}

func (s *Server) writeError(ctx context.Context, w http.ResponseWriter, status int, msg string) {
	s.writeJSON(ctx, w, status, map[string]string{"error": msg})
}
