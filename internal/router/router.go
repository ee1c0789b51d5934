package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"socialrec/internal/faults"
	"socialrec/internal/httpedge"
	"socialrec/internal/release"
	"socialrec/internal/telemetry"
	"socialrec/internal/trace"
)

// maxShardRespBytes caps how much of a shard response the router buffers;
// anything larger is treated as a protocol failure, not relayed.
const maxShardRespBytes = 8 << 20

// Config assembles a Router.
type Config struct {
	// Manifest is the sharded release manifest: it maps every user to the
	// shard that owns them. Required.
	Manifest *release.Manifest
	// UserIDs maps external user tokens to internal ids (same map the
	// shards were built from). Required.
	UserIDs map[string]int
	// Shards lists each shard's replica base URLs (e.g.
	// "http://10.0.0.1:8081"); Shards[i] serves shard i of the manifest.
	// Every shard needs at least one replica. Required.
	Shards [][]string
	// Client performs the proxied requests; nil selects a client with
	// keep-alives and no global timeout (per-attempt contexts bound every
	// call).
	Client *http.Client
	// MaxAttempts caps attempts (first try + retries + hedges) per
	// proxied call; 0 selects 3.
	MaxAttempts int
	// PerTryTimeout bounds each individual attempt; 0 selects 2 s. The
	// effective per-attempt deadline is always also capped by the
	// request's remaining budget.
	PerTryTimeout time.Duration
	// RequestTimeout bounds each routed request end to end; 0 selects
	// 10 s. An inbound Request-Budget-Ms can only tighten it.
	RequestTimeout time.Duration
	// RetryBackoff is the base backoff before a retry (doubled per
	// attempt, jittered, capped at 16x); 0 selects 10 ms.
	RetryBackoff time.Duration
	// HedgeDelay is how long a single-user read waits before launching a
	// hedged attempt on the next replica. 0 selects an adaptive delay
	// derived from the shard's recent p99 attempt latency; negative
	// disables hedging.
	HedgeDelay time.Duration
	// ProbeInterval is the /readyz poll interval per replica; 0 selects
	// 2 s, negative disables active probing (tests drive health directly).
	ProbeInterval time.Duration
	// Breaker tunes the per-replica circuit breakers.
	Breaker BreakerConfig
	// MaxBatch caps users per batch request; 0 selects 1000.
	MaxBatch int
	// Seed feeds the retry-jitter stream (SplitMix64, never math/rand).
	Seed int64
	// Logger receives proxy errors; nil selects a text logger to stderr.
	Logger *slog.Logger
	// Metrics receives the router's instruments; nil selects
	// telemetry.Default().
	Metrics *telemetry.Registry
	// Tracer retains request traces; nil selects trace.Default().
	Tracer *trace.Tracer
	// Faults, when non-nil, arms chaos at faults.PointShardCall: every
	// proxied attempt consults it before touching the network.
	Faults *faults.Registry
}

// replica is one shard replica's routing state.
type replica struct {
	shard   int
	idx     int
	base    string // URL base, no trailing slash
	breaker *Breaker
	healthy atomic.Bool // driven by the readyz poller; starts true
	// lineage is the release provenance the last successful readyz probe
	// reported: which full generation the replica serves and which delta
	// chain is applied on top. Nil until the first successful probe.
	lineage atomic.Pointer[replicaLineage]
}

// replicaLineage is the slice of a shard replica's /readyz body the
// router surfaces in its own readiness: release provenance for rollout
// gates ("has every replica picked up delta 7 yet?") and degradation
// after a delta rollback. All fields are store metadata, never user data.
type replicaLineage struct {
	Version     uint64   `json:"release_version"`
	FullVersion uint64   `json:"full_version"`
	Deltas      []uint64 `json:"deltas_applied"`
	Degraded    bool     `json:"degraded"`
}

// Router fans requests out over a sharded serving tier. It implements
// http.Handler; construct with New, start background health probes with
// Start, and drain with Shutdown.
type Router struct {
	cfg      Config
	mux      *http.ServeMux
	m        *metrics
	logger   *slog.Logger
	client   *http.Client
	replicas [][]*replica // by shard
	rings    []*Ring      // per-shard replica ring (affinity + failover order)
	lat      []*latencyTrack
	rng      lockedRand

	drainCtx    context.Context
	drainCancel context.CancelFunc
	pollWG      sync.WaitGroup

	mu       sync.RWMutex // guards draining against inflight.Add
	draining bool
	inflight sync.WaitGroup
}

// New validates the configuration and builds the router. Call Start to
// begin active health probing and Shutdown to drain.
func New(cfg Config) (*Router, error) {
	if cfg.Manifest == nil {
		return nil, fmt.Errorf("router: Manifest is required")
	}
	if err := cfg.Manifest.Validate(); err != nil {
		return nil, err
	}
	if cfg.UserIDs == nil {
		return nil, fmt.Errorf("router: UserIDs is required")
	}
	if len(cfg.Shards) != cfg.Manifest.NumShards {
		return nil, fmt.Errorf("router: manifest has %d shards, topology has %d",
			cfg.Manifest.NumShards, len(cfg.Shards))
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.PerTryTimeout <= 0 {
		cfg.PerTryTimeout = 2 * time.Second
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 10 * time.Second
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 10 * time.Millisecond
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 1000
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	logger = slog.New(trace.NewSlogHandler(logger.Handler()))
	if cfg.Tracer == nil {
		cfg.Tracer = trace.Default()
	}
	if cfg.Metrics == nil {
		cfg.Metrics = telemetry.Default()
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	replicasPerShard := make([]int, len(cfg.Shards))
	for i, urls := range cfg.Shards {
		if len(urls) == 0 {
			return nil, fmt.Errorf("router: shard %d has no replicas", i)
		}
		replicasPerShard[i] = len(urls)
	}
	rt := &Router{
		cfg:      cfg,
		m:        newMetrics(cfg.Metrics, replicasPerShard),
		logger:   logger,
		client:   client,
		replicas: make([][]*replica, len(cfg.Shards)),
		rings:    make([]*Ring, len(cfg.Shards)),
		lat:      make([]*latencyTrack, len(cfg.Shards)),
		rng:      lockedRand{state: uint64(cfg.Seed)*0x9e3779b97f4a7c15 + 0x6a09e667f3bcc909},
	}
	rt.drainCtx, rt.drainCancel = context.WithCancel(context.Background())
	for s, urls := range cfg.Shards {
		rt.lat[s] = newLatencyTrack()
		rt.replicas[s] = make([]*replica, len(urls))
		for i, base := range urls {
			rep := &replica{shard: s, idx: i, base: base}
			stateGauge := rt.m.breakerState[s][i]
			opens := rt.m.breakerOpens[s]
			rep.breaker = NewBreaker(cfg.Breaker, func(from, to BreakerState) {
				stateGauge.Set(int64(to))
				if to == BreakerOpen {
					opens.Inc()
				}
			})
			rep.healthy.Store(true)
			rt.replicas[s][i] = rep
		}
		ring, err := NewRing(urls, 0)
		if err != nil {
			return nil, fmt.Errorf("router: shard %d replica ring: %w", s, err)
		}
		rt.rings[s] = ring
	}

	// Serving endpoints carry the end-to-end request deadline; probes and
	// the reload fan-out (bounded per attempt instead) do not.
	timeout := cfg.RequestTimeout
	rt.mux = httpedge.New(httpedge.Config{
		SpanPrefix:   "router",
		MetricPrefix: "router",
		Routes: []httpedge.Route{
			{Pattern: "GET /healthz", Endpoint: "healthz", Handler: rt.handleHealthz},
			{Pattern: "GET /readyz", Endpoint: "readyz", Handler: rt.handleReadyz},
			{Pattern: "GET /stats", Endpoint: "stats", Timeout: timeout, Handler: rt.handleStats},
			{Pattern: "GET /users", Endpoint: "users", Timeout: timeout, Handler: rt.handleUsers},
			{Pattern: "GET /recommend", Endpoint: "recommend", Timeout: timeout, Handler: rt.handleRecommend},
			{Pattern: "POST /recommend/batch", Endpoint: "batch", Timeout: timeout, Handler: rt.handleBatch},
			{Pattern: "POST /admin/reload", Endpoint: "reload", Handler: rt.handleReload},
		},
		Metrics: cfg.Metrics,
		Tracer:  cfg.Tracer,
		Logger:  logger,
	})
	return rt, nil
}

// Start launches the active health probes (one goroutine per replica).
// It is a no-op when ProbeInterval is negative.
func (rt *Router) Start() {
	if rt.cfg.ProbeInterval < 0 {
		return
	}
	for _, reps := range rt.replicas {
		for _, rep := range reps {
			rt.pollWG.Add(1)
			go rt.poll(rep)
		}
	}
}

// Shutdown drains the router: new serving requests are rejected with 503,
// in-flight hedged attempts are canceled (their primaries finish
// normally), health probes stop, and the call blocks until every in-flight
// request completes or ctx expires.
func (rt *Router) Shutdown(ctx context.Context) error {
	rt.mu.Lock()
	already := rt.draining
	rt.draining = true
	rt.mu.Unlock()
	if !already {
		rt.m.draining.Set(1)
		// Canceling drainCtx stops the pollers and, through the
		// AfterFunc each hedged attempt registered, cancels in-flight
		// hedges without touching their primaries.
		rt.drainCancel()
	}
	done := make(chan struct{})
	go func() {
		rt.inflight.Wait()
		rt.pollWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("router: drain incomplete: %w", ctx.Err())
	}
}

// ServeHTTP implements http.Handler: a draining router rejects everything
// but the liveness probe so load balancers fail over promptly, while
// requests admitted before the drain run to completion.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.mu.RLock()
	if rt.draining && r.URL.Path != "/healthz" {
		rt.mu.RUnlock()
		rt.m.drainShed.Inc()
		w.Header().Set("Retry-After", "1")
		rt.writeJSON(r.Context(), w, http.StatusServiceUnavailable, map[string]string{"error": "router draining"})
		return
	}
	rt.inflight.Add(1)
	rt.mu.RUnlock()
	defer rt.inflight.Done()
	rt.mux.ServeHTTP(w, r)
}

var (
	attrShardCalled = trace.NewKey("shard_called")
	attrReplicaIdx  = trace.NewKey("replica_idx")
	attrAttempt     = trace.NewKey("attempt")
)

func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = fmt.Fprintln(w, "ok")
}

// shardHealth is one shard's row in the readyz body.
type shardHealth struct {
	Shard    int      `json:"shard"`
	Replicas int      `json:"replicas"`
	Healthy  int      `json:"healthy"`
	Breakers []string `json:"breakers"`
	// Serving lists each replica's release lineage as reported by its
	// last successful readyz probe; replicas never probed successfully
	// are omitted.
	Serving []replicaServing `json:"serving,omitempty"`
}

// replicaServing pairs a replica index with its probed release lineage.
type replicaServing struct {
	Replica int `json:"replica"`
	replicaLineage
}

// handleReadyz reports routability: the router is ready when every shard
// has at least one healthy replica whose breaker is not open. A router
// that can only answer for some shards reports ready:false with the
// per-shard detail, so rollout gates and dashboards see exactly which
// slice of the user base is dark.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	health := make([]shardHealth, len(rt.replicas))
	ready := true
	for s, reps := range rt.replicas {
		sh := shardHealth{Shard: s, Replicas: len(reps)}
		for i, rep := range reps {
			st := rep.breaker.State()
			sh.Breakers = append(sh.Breakers, st.String())
			if rep.healthy.Load() && st != BreakerOpen {
				sh.Healthy++
			}
			if ln := rep.lineage.Load(); ln != nil {
				sh.Serving = append(sh.Serving, replicaServing{Replica: i, replicaLineage: *ln})
			}
		}
		if sh.Healthy == 0 {
			ready = false
		}
		health[s] = sh
	}
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	rt.writeJSON(r.Context(), w, status, map[string]any{
		"ready":            ready,
		"manifest_version": rt.cfg.Manifest.Version,
		"shards":           health,
	})
}

// handleStats serves router-local topology and manifest metadata; dataset
// statistics live on the shards.
func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	rt.writeJSON(r.Context(), w, http.StatusOK, map[string]any{
		"shards":           rt.cfg.Manifest.NumShards,
		"users":            rt.cfg.Manifest.NumUsers(),
		"clusters":         rt.cfg.Manifest.NumClusters(),
		"manifest_version": rt.cfg.Manifest.Version,
		"measure":          rt.cfg.Manifest.Measure,
		"epsilon":          fmt.Sprintf("%g", rt.cfg.Manifest.Epsilon),
	})
}

// handleUsers answers from the router's own token map (mirroring the
// shard servers' endpoint), so exploration works without picking a shard.
func (rt *Router) handleUsers(w http.ResponseWriter, r *http.Request) {
	limit := 100
	if l := r.URL.Query().Get("limit"); l != "" {
		v, err := strconv.Atoi(l)
		if err != nil || v < 1 {
			rt.writeJSON(r.Context(), w, http.StatusBadRequest, map[string]string{"error": "bad limit parameter"})
			return
		}
		limit = v
	}
	tokens := make([]string, 0, len(rt.cfg.UserIDs))
	for tok := range rt.cfg.UserIDs {
		tokens = append(tokens, tok)
	}
	sort.Strings(tokens)
	if len(tokens) > limit {
		tokens = tokens[:limit]
	}
	rt.writeJSON(r.Context(), w, http.StatusOK, map[string]any{
		"users": tokens,
		"total": len(rt.cfg.UserIDs),
	})
}

// handleRecommend proxies a single-user read to the owning shard, with
// retries across replicas and (optionally) a hedged second attempt.
func (rt *Router) handleRecommend(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	tok := r.URL.Query().Get("user")
	if tok == "" {
		rt.writeJSON(ctx, w, http.StatusBadRequest, map[string]string{"error": "missing user parameter"})
		return
	}
	id, ok := rt.cfg.UserIDs[tok]
	if !ok {
		rt.writeJSON(ctx, w, http.StatusNotFound, map[string]string{"error": "unknown user"})
		return
	}
	shard := rt.cfg.Manifest.ShardOf(id)
	path := "/recommend?" + r.URL.RawQuery
	resp, err := rt.callShard(ctx, shard, tok, http.MethodGet, path, nil, true)
	if err != nil {
		rt.writeProxyError(ctx, w, shard, err)
		return
	}
	if resp.status == http.StatusMisdirectedRequest {
		// The shard refused ownership: this router's manifest is stale.
		// Relay the refusal — a silently re-routed answer could be wrong.
		rt.m.misrouted.Inc()
	}
	relay(w, resp)
}

// routedBatchRequest mirrors the shard servers' batch payload.
type routedBatchRequest struct {
	Users []string `json:"users"`
	N     int      `json:"n"`
}

// routedBatchResponse is the router's batch body: the shard rows it could
// gather, plus explicit degradation labels. Degraded is always present —
// a partial answer must never be distinguishable from a complete one only
// by counting rows.
type routedBatchResponse struct {
	Results       []json.RawMessage `json:"results"`
	Degraded      bool              `json:"degraded"`
	MissingShards []int             `json:"missing_shards,omitempty"`
	MissingUsers  int               `json:"missing_users,omitempty"`
}

// handleBatch scatters a batch over the owning shards and gathers the
// rows. Shards that stay unreachable after retries cost their rows, not
// the whole response: the reply is then marked degraded with the missing
// shard ids and user count.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	var req routedBatchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		rt.writeJSON(ctx, w, http.StatusBadRequest, map[string]string{"error": "bad JSON body: " + err.Error()})
		return
	}
	if len(req.Users) == 0 {
		rt.writeJSON(ctx, w, http.StatusBadRequest, map[string]string{"error": "users must be non-empty"})
		return
	}
	if len(req.Users) > rt.cfg.MaxBatch {
		rt.writeJSON(ctx, w, http.StatusBadRequest,
			map[string]string{"error": fmt.Sprintf("batch too large (max %d)", rt.cfg.MaxBatch)})
		return
	}
	// Group request rows by owning shard; unknown users answer locally
	// with the same row shape the shards use.
	rows := make([]json.RawMessage, len(req.Users))
	groups := make(map[int][]int) // shard -> indices into req.Users
	for i, tok := range req.Users {
		id, ok := rt.cfg.UserIDs[tok]
		if !ok {
			row, err := json.Marshal(map[string]string{"user": tok, "error": "unknown user"})
			if err == nil {
				rows[i] = row
			}
			continue
		}
		s := rt.cfg.Manifest.ShardOf(id)
		groups[s] = append(groups[s], i)
	}

	type gatherResult struct {
		shard int
		rows  []json.RawMessage // parallel to groups[shard]; nil on failure
	}
	results := make(chan gatherResult, len(groups))
	for s, idxs := range groups {
		go func(s int, idxs []int) {
			sub := routedBatchRequest{Users: make([]string, len(idxs)), N: req.N}
			for j, i := range idxs {
				sub.Users[j] = req.Users[i]
			}
			body, err := json.Marshal(sub)
			if err != nil {
				results <- gatherResult{shard: s}
				return
			}
			resp, err := rt.callShard(ctx, s, "shard:"+strconv.Itoa(s), http.MethodPost,
				"/recommend/batch", body, false)
			if err != nil || resp.status != http.StatusOK {
				if err == nil {
					//sociolint:ignore privflow status code and shard id are topology, not preference data
					rt.logger.WarnContext(ctx, "router: shard batch failed",
						"shard", s, "status", resp.status)
				}
				results <- gatherResult{shard: s}
				return
			}
			var parsed struct {
				Results []json.RawMessage `json:"results"`
			}
			if err := json.Unmarshal(resp.body, &parsed); err != nil || len(parsed.Results) != len(idxs) {
				rt.logger.WarnContext(ctx, "router: shard batch protocol mismatch", "shard", s)
				results <- gatherResult{shard: s}
				return
			}
			results <- gatherResult{shard: s, rows: parsed.Results}
		}(s, idxs)
	}

	out := routedBatchResponse{}
	for range groups {
		res := <-results
		if res.rows == nil {
			out.Degraded = true
			out.MissingShards = append(out.MissingShards, res.shard)
			out.MissingUsers += len(groups[res.shard])
			continue
		}
		for j, i := range groups[res.shard] {
			rows[i] = res.rows[j]
		}
	}
	sort.Ints(out.MissingShards)
	if out.Degraded {
		rt.m.degraded.Inc()
		if len(out.MissingShards) == len(groups) && len(groups) > 0 {
			// Nothing answered: that is an outage, not a degraded reply.
			rt.writeJSON(ctx, w, http.StatusBadGateway,
				map[string]string{"error": "all shards unavailable"})
			return
		}
	}
	out.Results = make([]json.RawMessage, 0, len(rows))
	for _, row := range rows {
		if row != nil {
			out.Results = append(out.Results, row)
		}
	}
	rt.writeJSON(ctx, w, http.StatusOK, &out)
}

// reloadOutcome is one replica's row in the admin fan-out response.
type reloadOutcome struct {
	Shard   int    `json:"shard"`
	Replica int    `json:"replica"`
	Status  int    `json:"status,omitempty"`
	Error   string `json:"error,omitempty"`
}

// handleReload fans POST /admin/reload out to every replica exactly once.
// Reload is not idempotent from the router's vantage point (each POST can
// advance the serving version), so there are no retries and no hedging:
// each replica gets one attempt and the response reports every outcome.
func (rt *Router) handleReload(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	var (
		mu       sync.Mutex
		outcomes []reloadOutcome
		failed   bool
		wg       sync.WaitGroup
	)
	for s, reps := range rt.replicas {
		for _, rep := range reps {
			wg.Add(1)
			go func(s int, rep *replica) {
				defer wg.Done()
				resp, err := rt.attempt(ctx, rep, http.MethodPost, "/admin/reload", nil, 1)
				o := reloadOutcome{Shard: s, Replica: rep.idx}
				if err != nil {
					o.Error = "unreachable"
				} else {
					o.Status = resp.status
				}
				mu.Lock()
				if err != nil || resp.status != http.StatusOK {
					failed = true
				}
				outcomes = append(outcomes, o)
				mu.Unlock()
			}(s, rep)
		}
	}
	wg.Wait()
	sort.Slice(outcomes, func(i, j int) bool {
		if outcomes[i].Shard != outcomes[j].Shard {
			return outcomes[i].Shard < outcomes[j].Shard
		}
		return outcomes[i].Replica < outcomes[j].Replica
	})
	status := http.StatusOK
	if failed {
		status = http.StatusBadGateway
	}
	rt.writeJSON(ctx, w, status, map[string]any{"replicas": outcomes})
}

// shardResp is a buffered upstream response.
type shardResp struct {
	status      int
	body        []byte
	contentType string
	// retryAfter preserves the shard's Retry-After header so back-pressure
	// hints (a draining or overloaded shard answering 503) reach the
	// client instead of dying at the proxy hop.
	retryAfter string
}

// errAllBreakersOpen fails a call fast when every replica of the owning
// shard has an open breaker — the breaker's whole point.
var errAllBreakersOpen = errors.New("router: all replica breakers open")

// replicaOrder returns the shard's replicas in preference order for key:
// ring order starting at the key's owner, healthy replicas first. An
// unhealthy replica is still listed (last) — when everything looks down,
// trying beats refusing.
func (rt *Router) replicaOrder(shard int, key string) []*replica {
	reps := rt.replicas[shard]
	if len(reps) == 1 {
		return reps
	}
	byBase := make(map[string]*replica, len(reps))
	for _, rep := range reps {
		byBase[rep.base] = rep
	}
	ordered := rt.rings[shard].Ordered(key)
	out := make([]*replica, 0, len(reps))
	for _, base := range ordered {
		if rep := byBase[base]; rep != nil && rep.healthy.Load() {
			out = append(out, rep)
		}
	}
	for _, base := range ordered {
		if rep := byBase[base]; rep != nil && !rep.healthy.Load() {
			out = append(out, rep)
		}
	}
	return out
}

// callShard performs one logical read against a shard: sequential retries
// with capped jittered backoff across the replica preference order, an
// optional hedged attempt for idempotent reads, breaker bookkeeping per
// attempt, all bounded by the request context's deadline.
func (rt *Router) callShard(parent context.Context, shard int, key, method, path string, body []byte, hedge bool) (*shardResp, error) {
	reps := rt.replicaOrder(shard, key)
	ctx, cancel := context.WithCancel(parent)
	defer cancel()

	type attemptOut struct {
		resp   *shardResp
		err    error
		hedged bool
	}
	// Buffered to the attempt cap so goroutines finishing after we return
	// never block.
	results := make(chan attemptOut, rt.cfg.MaxAttempts+1)
	attempts, pending, next := 0, 0, 0
	// pickAllowed consumes the next replica whose breaker admits a call.
	pickAllowed := func() *replica {
		for i := 0; i < len(reps); i++ {
			rep := reps[next%len(reps)]
			next++
			if rep.breaker.Allow() {
				return rep
			}
		}
		return nil
	}
	launch := func(rep *replica, hedged bool) {
		attempts++
		pending++
		attempt := attempts
		actx := ctx
		if hedged {
			// A hedge is pure speculation: the drain path cancels it
			// without touching the primary it duplicates.
			hctx, hcancel := context.WithCancel(ctx)
			stop := context.AfterFunc(rt.drainCtx, hcancel)
			actx = hctx
			go func() {
				resp, err := rt.attempt(actx, rep, method, path, body, attempt)
				stop()
				hcancel()
				results <- attemptOut{resp: resp, err: err, hedged: true}
			}()
			return
		}
		go func() {
			resp, err := rt.attempt(actx, rep, method, path, body, attempt)
			results <- attemptOut{resp: resp, err: err}
		}()
	}

	rep := pickAllowed()
	if rep == nil {
		rt.m.breakerReject[shard].Inc()
		return nil, errAllBreakersOpen
	}
	launch(rep, false)

	var hedgeC <-chan time.Time
	if hedge && rt.cfg.HedgeDelay >= 0 && len(reps) > 1 && rt.cfg.MaxAttempts > 1 {
		t := time.NewTimer(rt.hedgeDelay(shard))
		defer t.Stop()
		hedgeC = t.C
	}

	var lastErr error
	var lastResp *shardResp
	for pending > 0 {
		select {
		case out := <-results:
			pending--
			if out.err == nil && out.resp.status < http.StatusInternalServerError {
				if out.hedged {
					rt.m.hedgeWins[shard].Inc()
				}
				return out.resp, nil
			}
			if out.err != nil {
				lastErr = out.err
			} else {
				lastResp = out.resp
			}
			if ctx.Err() != nil {
				break // deadline gone; drain remaining pendings below
			}
			if attempts < rt.cfg.MaxAttempts {
				if rep := pickAllowed(); rep != nil {
					rt.backoff(ctx, attempts)
					if ctx.Err() == nil {
						rt.m.retries[shard].Inc()
						launch(rep, false)
					}
				}
			}
		case <-hedgeC:
			hedgeC = nil
			if attempts < rt.cfg.MaxAttempts && !rt.isDraining() {
				if rep := pickAllowed(); rep != nil {
					rt.m.hedges[shard].Inc()
					launch(rep, true)
				}
			}
		case <-ctx.Done():
			// The request deadline (or client) ended the call; outstanding
			// attempt goroutines finish into the buffered channel.
			return nil, ctx.Err()
		}
	}
	if lastResp != nil {
		// Every attempt answered 5xx; relay the last one rather than
		// synthesizing a vaguer error.
		return lastResp, nil
	}
	if lastErr == nil {
		lastErr = errAllBreakersOpen
	}
	return nil, lastErr
}

// attempt performs one proxied request to one replica, with per-attempt
// timeout, trace + deadline-budget propagation, breaker bookkeeping and
// latency tracking.
func (rt *Router) attempt(ctx context.Context, rep *replica, method, path string, body []byte, attempt int) (*shardResp, error) {
	rt.m.attempts[rep.shard].Inc()
	if err := rt.cfg.Faults.Check(faults.PointShardCall); err != nil {
		rt.m.chaosShard.Inc()
		rt.m.failures[rep.shard].Inc()
		rep.breaker.Failure()
		return nil, err
	}
	actx, cancel := context.WithTimeout(ctx, rt.cfg.PerTryTimeout)
	defer cancel()
	actx, sp := trace.StartChild(actx, "router_shard_call")
	defer sp.End()
	sp.Set(attrShardCalled.Int(int64(rep.shard)),
		attrReplicaIdx.Int(int64(rep.idx)),
		attrAttempt.Int(int64(attempt)))

	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, rep.base+path, rd)
	if err != nil {
		sp.SetStatus(trace.StatusError)
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// Propagate the trace across the hop: the shard continues this span's
	// trace, so one trace id covers both processes.
	if tp := sp.Traceparent(); tp != "" {
		req.Header.Set(trace.TraceparentHeader, tp)
	}
	// Propagate the deadline: hand the shard strictly less than our
	// remaining budget, so its route deadline always fires before ours
	// and the failure is attributed at the right layer.
	if d, ok := actx.Deadline(); ok {
		ms := time.Until(d).Milliseconds() * 9 / 10
		if ms < 1 {
			ms = 1
		}
		req.Header.Set(httpedge.BudgetHeader, strconv.FormatInt(ms, 10))
	}

	start := time.Now()
	resp, err := rt.client.Do(req)
	elapsed := time.Since(start)
	if err != nil {
		if ctx.Err() != nil {
			// Our own cancelation (request deadline, hedge lost, drain):
			// says nothing about the replica.
			rep.breaker.Cancel()
			sp.SetStatus(trace.StatusError)
			return nil, ctx.Err()
		}
		// Transport failure or per-try timeout: the replica's fault.
		rt.m.failures[rep.shard].Inc()
		rep.breaker.Failure()
		sp.SetStatus(trace.StatusError)
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	buf, err := io.ReadAll(io.LimitReader(resp.Body, maxShardRespBytes+1))
	if err != nil || len(buf) > maxShardRespBytes {
		rt.m.failures[rep.shard].Inc()
		rep.breaker.Failure()
		sp.SetStatus(trace.StatusError)
		if err == nil {
			err = fmt.Errorf("router: shard response exceeds %d bytes", maxShardRespBytes)
		}
		return nil, err
	}
	rt.lat[rep.shard].Observe(elapsed)
	rt.m.proxySeconds[rep.shard].Observe(elapsed.Seconds())
	if resp.StatusCode >= http.StatusInternalServerError {
		rt.m.failures[rep.shard].Inc()
		rep.breaker.Failure()
		sp.SetStatus(trace.StatusError)
	} else {
		rep.breaker.Success()
	}
	return &shardResp{
		status:      resp.StatusCode,
		body:        buf,
		contentType: resp.Header.Get("Content-Type"),
		retryAfter:  resp.Header.Get("Retry-After"),
	}, nil
}

// backoff sleeps the capped, jittered retry backoff for the given attempt
// number, returning early when ctx ends.
func (rt *Router) backoff(ctx context.Context, attempt int) {
	d := rt.cfg.RetryBackoff
	for i := 1; i < attempt && d < 16*rt.cfg.RetryBackoff; i++ {
		d *= 2
	}
	if d > 16*rt.cfg.RetryBackoff {
		d = 16 * rt.cfg.RetryBackoff
	}
	// Full jitter in [d/2, 3d/2): desynchronizes retry storms across
	// concurrent requests without ever sleeping shorter than d/2.
	d = d/2 + time.Duration(rt.rng.float64()*float64(d))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// hedgeDelay picks how long a single-user read waits before hedging: the
// configured fixed delay, or (when 0) the shard's recent p99 attempt
// latency clamped to [5ms, PerTryTimeout/2] — hedge when this request is
// already slower than 99% of recent ones, not on a guess.
func (rt *Router) hedgeDelay(shard int) time.Duration {
	if rt.cfg.HedgeDelay > 0 {
		return rt.cfg.HedgeDelay
	}
	d := rt.lat[shard].P99()
	if d <= 0 {
		d = 25 * time.Millisecond
	}
	if d < 5*time.Millisecond {
		d = 5 * time.Millisecond
	}
	if max := rt.cfg.PerTryTimeout / 2; d > max {
		d = max
	}
	return d
}

func (rt *Router) isDraining() bool {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.draining
}

// poll probes one replica's /readyz until the router drains. A probe
// failure only flips the healthy bit (steering new requests away); the
// breaker still owns fail-fast, so a replica that answers probes but
// fails requests is handled too.
func (rt *Router) poll(rep *replica) {
	defer rt.pollWG.Done()
	t := time.NewTicker(rt.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.drainCtx.Done():
			return
		case <-t.C:
			healthy := rt.probe(rep)
			was := rep.healthy.Swap(healthy)
			if healthy != was {
				up := int64(0)
				if healthy {
					up = 1
				}
				rt.m.replicaUp[rep.shard][rep.idx].Set(up)
				//sociolint:ignore privflow shard and replica indices are topology, not preference data
				rt.logger.Info("router: replica health changed",
					"shard", rep.shard, "replica", rep.idx, "healthy", healthy)
			}
		}
	}
}

// probe performs one readyz round trip; any 200 counts as healthy. A
// parseable body additionally refreshes the replica's release lineage
// (full generation + applied delta chain), which the router's own readyz
// re-exports; an unparseable body is only a health signal, never an
// error — older shard builds without lineage fields stay probeable.
func (rt *Router) probe(rep *replica) bool {
	ctx, cancel := context.WithTimeout(rt.drainCtx, rt.cfg.ProbeInterval)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.base+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return false
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	var ln replicaLineage
	if json.Unmarshal(body, &ln) == nil && ln.Version > 0 {
		rep.lineage.Store(&ln)
	}
	return true
}

// writeProxyError translates a callShard failure into the router's own
// response: deadline → 504, breakers open → 503 with Retry-After, any
// other exhaustion → 502. Upstream error text never reaches the client —
// it may name internal addresses.
func (rt *Router) writeProxyError(ctx context.Context, w http.ResponseWriter, shard int, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		rt.writeJSON(ctx, w, http.StatusGatewayTimeout, map[string]string{"error": "shard deadline exceeded"})
	case errors.Is(err, errAllBreakersOpen):
		w.Header().Set("Retry-After", "1")
		rt.writeJSON(ctx, w, http.StatusServiceUnavailable, map[string]string{"error": "shard unavailable (circuit open)"})
	default:
		//sociolint:ignore privflow shard id is topology; the error text stays in server-side logs
		rt.logger.WarnContext(ctx, "router: shard unavailable", "shard", shard, "err", err)
		rt.writeJSON(ctx, w, http.StatusBadGateway, map[string]string{"error": "shard unavailable"})
	}
}

// relay copies a buffered shard response to the client unchanged,
// including any Retry-After back-pressure hint the shard attached.
func relay(w http.ResponseWriter, resp *shardResp) {
	ct := resp.contentType
	if ct == "" {
		ct = "application/json"
	}
	if resp.retryAfter != "" {
		w.Header().Set("Retry-After", resp.retryAfter)
	}
	w.Header().Set("Content-Type", ct)
	w.Header().Set("Content-Length", strconv.Itoa(len(resp.body)))
	w.WriteHeader(resp.status)
	_, _ = w.Write(resp.body)
}

func (rt *Router) writeJSON(ctx context.Context, w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		rt.logger.ErrorContext(ctx, "router: encoding response", "err", err)
		http.Error(w, `{"error":"internal encoding failure"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}

// latencyTrack keeps a small ring of recent attempt latencies and a cached
// p99, recomputed every few observations — cheap enough for the proxy
// path, fresh enough to steer the hedge delay.
type latencyTrack struct {
	mu     sync.Mutex
	buf    []time.Duration
	n      int          // filled entries
	next   int          // ring cursor
	fresh  int          // observations since last recompute
	cached atomic.Int64 // nanoseconds; 0 = no data
}

const (
	latWindow  = 128
	latRecalc  = 16
	latPercent = 99
)

func newLatencyTrack() *latencyTrack {
	return &latencyTrack{buf: make([]time.Duration, latWindow)}
}

func (l *latencyTrack) Observe(d time.Duration) {
	l.mu.Lock()
	l.buf[l.next] = d
	l.next = (l.next + 1) % latWindow
	if l.n < latWindow {
		l.n++
	}
	l.fresh++
	if l.fresh >= latRecalc || l.cached.Load() == 0 {
		l.fresh = 0
		tmp := make([]time.Duration, l.n)
		copy(tmp, l.buf[:l.n])
		sort.Slice(tmp, func(i, j int) bool { return tmp[i] < tmp[j] })
		idx := (l.n*latPercent + 99) / 100
		if idx > 0 {
			idx--
		}
		l.cached.Store(int64(tmp[idx]))
	}
	l.mu.Unlock()
}

// P99 returns the cached p99, or 0 before any observation.
func (l *latencyTrack) P99() time.Duration {
	return time.Duration(l.cached.Load())
}

// lockedRand is a mutex-guarded SplitMix64 stream for retry jitter. It
// exists so the router never touches math/rand (confined to internal/dp).
type lockedRand struct {
	mu    sync.Mutex
	state uint64
}

func (r *lockedRand) float64() float64 {
	r.mu.Lock()
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	r.mu.Unlock()
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}
