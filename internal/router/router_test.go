package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"socialrec/internal/core"
	"socialrec/internal/faults"
	"socialrec/internal/release"
	"socialrec/internal/server"
	"socialrec/internal/telemetry"
	"socialrec/internal/trace"
)

func testLogger(tb testing.TB) *slog.Logger {
	return slog.New(slog.NewTextHandler(testWriter{tb}, nil))
}

type testWriter struct{ tb testing.TB }

func (w testWriter) Write(p []byte) (int, error) {
	w.tb.Logf("%s", p)
	return len(p), nil
}

// testManifest builds a numShards-shard manifest over numUsers users:
// cluster c lives on shard c, user u sits in cluster u%numShards. Token
// "u<i>" maps to user i.
func testManifest(numShards, numUsers int) (*release.Manifest, map[string]int) {
	m := &release.Manifest{
		Version:   1,
		NumShards: numShards,
		Epsilon:   0.5,
		Measure:   "cn",
		NumItems:  2,
		Horizon:   2,
	}
	m.ClusterShard = make([]int32, numShards)
	for c := range m.ClusterShard {
		m.ClusterShard[c] = int32(c)
	}
	m.Assign = make([]int32, numUsers)
	ids := make(map[string]int, numUsers)
	for u := 0; u < numUsers; u++ {
		m.Assign[u] = int32(u % numShards)
		ids["u"+strconv.Itoa(u)] = u
	}
	return m, ids
}

// ownedEngine is a shard-side engine for tier tests: it owns exactly the
// users the manifest assigns to its shard and records every request
// context's deadline so tests can assert budget propagation.
type ownedEngine struct {
	shard    int
	manifest *release.Manifest
	disown   atomic.Bool // own nothing (misroute tests flip this on)

	mu        sync.Mutex
	deadlines []time.Time
}

func (e *ownedEngine) RecommendContext(ctx context.Context, user, n int) ([]core.Recommendation, error) {
	if d, ok := ctx.Deadline(); ok {
		e.mu.Lock()
		e.deadlines = append(e.deadlines, d)
		e.mu.Unlock()
	}
	out := []core.Recommendation{{Item: 0, Utility: 3}, {Item: 1, Utility: 2}}
	if n < len(out) {
		out = out[:n]
	}
	return out, nil
}

func (e *ownedEngine) Owns(user int) bool {
	return !e.disown.Load() && e.manifest.ShardOf(user) == e.shard
}

func (e *ownedEngine) lastDeadline() (time.Time, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.deadlines) == 0 {
		return time.Time{}, false
	}
	return e.deadlines[len(e.deadlines)-1], true
}

func (e *ownedEngine) ClusterOf(user int) int { return int(e.manifest.Assign[user]) }
func (e *ownedEngine) Epsilon() float64       { return 0.5 }
func (e *ownedEngine) NumClusters() int       { return e.manifest.NumClusters() }
func (e *ownedEngine) Modularity() float64    { return 0.4 }

// tier is a full in-process serving tier: real shard servers (internal/
// server, each with its own tracer and registry, like separate processes)
// fronted by a Router under test.
type tier struct {
	manifest     *release.Manifest
	ids          map[string]int
	rt           *Router
	srv          *httptest.Server
	shardSrvs    []*httptest.Server
	shardTracers []*trace.Tracer
	engines      []*ownedEngine
	tracer       *trace.Tracer
}

func newTestTier(t *testing.T, numShards int, mutate func(cfg *Config)) *tier {
	t.Helper()
	manifest, ids := testManifest(numShards, numShards*2)
	tr := &tier{manifest: manifest, ids: ids}
	for s := 0; s < numShards; s++ {
		eng := &ownedEngine{shard: s, manifest: manifest}
		shardTracer := trace.New(trace.Config{Seed: int64(s + 1)})
		srv, err := server.New(server.Config{
			Engine:         eng,
			UserIDs:        ids,
			ItemTokens:     []string{"i0", "i1"},
			MaxN:           8,
			RequestTimeout: 10 * time.Second,
			Logger:         testLogger(t),
			Metrics:        telemetry.NewRegistry(),
			Tracer:         shardTracer,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		tr.engines = append(tr.engines, eng)
		tr.shardTracers = append(tr.shardTracers, shardTracer)
		tr.shardSrvs = append(tr.shardSrvs, ts)
	}
	shards := make([][]string, numShards)
	for s, ts := range tr.shardSrvs {
		shards[s] = []string{ts.URL}
	}
	tr.tracer = trace.New(trace.Config{Seed: 99})
	cfg := Config{
		Manifest:      manifest,
		UserIDs:       ids,
		Shards:        shards,
		MaxAttempts:   3,
		PerTryTimeout: 2 * time.Second,
		RetryBackoff:  time.Millisecond,
		HedgeDelay:    -1, // deterministic: no speculative attempts unless a test asks
		ProbeInterval: -1, // deterministic: no background probing
		Logger:        testLogger(t),
		Metrics:       telemetry.NewRegistry(),
		Tracer:        tr.tracer,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr.rt = rt
	tr.srv = httptest.NewServer(rt)
	t.Cleanup(tr.srv.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = rt.Shutdown(ctx)
	})
	return tr
}

// rawTier spins a router over plain http.Handler replicas (no real shard
// servers), for failure-shape tests where the replica behavior is the
// point.
func rawTier(t *testing.T, replicas [][]http.Handler, mutate func(cfg *Config)) (*Router, *httptest.Server) {
	t.Helper()
	manifest, ids := testManifest(len(replicas), len(replicas)*2)
	shards := make([][]string, len(replicas))
	for s, reps := range replicas {
		for _, h := range reps {
			ts := httptest.NewServer(h)
			t.Cleanup(ts.Close)
			shards[s] = append(shards[s], ts.URL)
		}
	}
	cfg := Config{
		Manifest:      manifest,
		UserIDs:       ids,
		Shards:        shards,
		MaxAttempts:   3,
		PerTryTimeout: 2 * time.Second,
		RetryBackoff:  time.Millisecond,
		HedgeDelay:    -1,
		ProbeInterval: -1,
		Logger:        testLogger(t),
		Metrics:       telemetry.NewRegistry(),
		Tracer:        trace.New(trace.Config{Seed: 7}),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt)
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = rt.Shutdown(ctx)
	})
	return rt, ts
}

func getJSON(t *testing.T, url string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != wantStatus {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: status %d, want %d (body %s)", url, resp.StatusCode, wantStatus, body)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return body
}

func postBatch(t *testing.T, url string, users []string, n int) (*http.Response, map[string]any) {
	t.Helper()
	body, err := json.Marshal(map[string]any{"users": users, "n": n})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/recommend/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var parsed map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&parsed); err != nil {
		t.Fatalf("decoding batch response: %v", err)
	}
	return resp, parsed
}

func TestRouterProxiesRecommend(t *testing.T) {
	tr := newTestTier(t, 3, nil)
	// User u4 lives in cluster 1 -> shard 1.
	body := getJSON(t, tr.srv.URL+"/recommend?user=u4&n=2", http.StatusOK)
	if body["user"] != "u4" {
		t.Errorf("proxied body user = %v, want u4", body["user"])
	}
	recs, ok := body["recommendations"].([]any)
	if !ok || len(recs) != 2 {
		t.Errorf("recommendations = %v, want 2 items", body["recommendations"])
	}
	if got := tr.rt.m.attempts[1].Value(); got != 1 {
		t.Errorf("shard 1 attempts = %d, want 1", got)
	}
}

func TestRouterUnknownUser(t *testing.T) {
	tr := newTestTier(t, 3, nil)
	getJSON(t, tr.srv.URL+"/recommend?user=nobody&n=2", http.StatusNotFound)
}

func TestRouterBatchScatterGather(t *testing.T) {
	tr := newTestTier(t, 3, nil)
	users := []string{"u0", "u1", "u2", "u3", "u4", "u5", "ghost"}
	resp, parsed := postBatch(t, tr.srv.URL, users, 2)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d", resp.StatusCode)
	}
	// The degraded field must be PRESENT and false — partial responses are
	// distinguishable by label, never only by row count.
	deg, present := parsed["degraded"]
	if !present {
		t.Fatal("batch response is missing the degraded field")
	}
	if deg != false {
		t.Errorf("degraded = %v on a fully healthy tier", deg)
	}
	results, ok := parsed["results"].([]any)
	if !ok || len(results) != len(users) {
		t.Fatalf("results length = %d, want %d", len(results), len(users))
	}
	// The unknown user's row is an error row, not an omission.
	found := false
	for _, row := range results {
		if m, ok := row.(map[string]any); ok && m["user"] == "ghost" {
			found = true
			if m["error"] != "unknown user" {
				t.Errorf("ghost row = %v", m)
			}
		}
	}
	if !found {
		t.Error("no row for the unknown user")
	}
}

func TestRouterBatchDegradedOnShardDown(t *testing.T) {
	tr := newTestTier(t, 3, func(cfg *Config) {
		cfg.MaxAttempts = 2
	})
	tr.shardSrvs[2].Close() // SIGKILL shard 2's only replica

	users := []string{"u0", "u1", "u2", "u3", "u4", "u5"}
	resp, parsed := postBatch(t, tr.srv.URL, users, 2)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded batch status = %d, want 200", resp.StatusCode)
	}
	if parsed["degraded"] != true {
		t.Error("batch with a dead shard must be labeled degraded")
	}
	missing, _ := parsed["missing_shards"].([]any)
	if len(missing) != 1 || missing[0] != float64(2) {
		t.Errorf("missing_shards = %v, want [2]", parsed["missing_shards"])
	}
	if parsed["missing_users"] != float64(2) {
		t.Errorf("missing_users = %v, want 2", parsed["missing_users"])
	}
	results, _ := parsed["results"].([]any)
	if len(results) != 4 {
		t.Errorf("results length = %d, want 4 (shards 0 and 1)", len(results))
	}
	if got := tr.rt.m.degraded.Value(); got != 1 {
		t.Errorf("degraded counter = %d, want 1", got)
	}

	// Single-user requests to the dead shard fail with a gateway error;
	// the healthy shards keep answering.
	getJSON(t, tr.srv.URL+"/recommend?user=u2&n=2", http.StatusBadGateway)
	getJSON(t, tr.srv.URL+"/recommend?user=u0&n=2", http.StatusOK)
}

func TestRouterBatchAllShardsDown(t *testing.T) {
	tr := newTestTier(t, 2, func(cfg *Config) { cfg.MaxAttempts = 1 })
	tr.shardSrvs[0].Close()
	tr.shardSrvs[1].Close()
	resp, parsed := postBatch(t, tr.srv.URL, []string{"u0", "u1"}, 2)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("all-shards-down batch status = %d, want 502 (%v)", resp.StatusCode, parsed)
	}
}

func TestRouterBatchRejectsBadRequests(t *testing.T) {
	tr := newTestTier(t, 2, func(cfg *Config) { cfg.MaxBatch = 3 })
	resp, _ := postBatch(t, tr.srv.URL, nil, 2)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch status = %d, want 400", resp.StatusCode)
	}
	resp, _ = postBatch(t, tr.srv.URL, []string{"u0", "u1", "u2", "u3"}, 2)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized batch status = %d, want 400", resp.StatusCode)
	}
	// Scattered, a negative n would come back as one 400 per shard, each
	// counted as a shard failure, and the client would get 502.
	resp, _ = postBatch(t, tr.srv.URL, []string{"u0", "u1"}, -3)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative n batch status = %d, want 400", resp.StatusCode)
	}
	for s, c := range tr.rt.m.attempts {
		if got := c.Value(); got != 0 {
			t.Errorf("shard %d saw %d attempts for bad batches, want 0", s, got)
		}
	}
}

// flakyHandler fails the first fails requests with 500, then answers 200.
type flakyHandler struct {
	fails int32
	seen  atomic.Int32
}

func (h *flakyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.seen.Add(1) <= h.fails {
		http.Error(w, `{"error":"transient"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write([]byte(`{"user":"u0","recommendations":[]}`))
}

func TestRouterRetriesTransientFailures(t *testing.T) {
	h := &flakyHandler{fails: 2}
	rt, ts := rawTier(t, [][]http.Handler{{h}}, nil)
	body := getJSON(t, ts.URL+"/recommend?user=u0&n=2", http.StatusOK)
	if body["user"] != "u0" {
		t.Errorf("body = %v", body)
	}
	if got := rt.m.retries[0].Value(); got != 2 {
		t.Errorf("retries = %d, want 2", got)
	}
	if got := rt.m.attempts[0].Value(); got != 3 {
		t.Errorf("attempts = %d, want 3", got)
	}
}

// handlerStackTransport answers every shard call with a canned row and
// records whether (*Router).handleRecommend is on the stack of the
// goroutine that calls RoundTrip, which http.Client.Do runs on its caller's.
type handlerStackTransport struct {
	calls, onHandler atomic.Int32
}

func (tr *handlerStackTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	tr.calls.Add(1)
	pc := make([]uintptr, 64)
	frames := runtime.CallersFrames(pc[:runtime.Callers(1, pc)])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, ".(*Router).handleRecommend") {
			tr.onHandler.Add(1)
			break
		}
		if !more {
			break
		}
	}
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": {"application/json"}},
		Body:       io.NopCloser(strings.NewReader(`{"user":"u0","recommendations":[]}`)),
		Request:    r,
	}, nil
}

// TestRouterAttemptsInlineWithoutHedge: with one replica no hedge can race
// the attempt, so the router makes it on the handler's own goroutine
// instead of starting one per attempt.
func TestRouterAttemptsInlineWithoutHedge(t *testing.T) {
	tr := &handlerStackTransport{}
	manifest, ids := testManifest(1, 2)
	rt, err := New(Config{
		Manifest:      manifest,
		UserIDs:       ids,
		Shards:        [][]string{{"http://shard.invalid"}},
		Client:        &http.Client{Transport: tr},
		HedgeDelay:    0, // adaptive hedging on: the single replica alone rules it out
		ProbeInterval: -1,
		Logger:        testLogger(t),
		Metrics:       telemetry.NewRegistry(),
		Tracer:        trace.New(trace.Config{Seed: 7}),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		w := httptest.NewRecorder()
		rt.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/recommend?user=u0&n=1", nil))
		if w.Code != http.StatusOK {
			t.Fatalf("status %d, body %s", w.Code, w.Body)
		}
	}
	if calls, inline := tr.calls.Load(), tr.onHandler.Load(); calls != 3 || inline != calls {
		t.Errorf("%d of %d shard calls ran on the handler's goroutine, want all 3", inline, calls)
	}
}

func TestRouterRelaysLast5xxWhenExhausted(t *testing.T) {
	always500 := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"shard-side failure"}`, http.StatusInternalServerError)
	})
	rt, ts := rawTier(t, [][]http.Handler{{always500}}, func(cfg *Config) {
		cfg.MaxAttempts = 2
	})
	resp, err := http.Get(ts.URL + "/recommend?user=u0&n=2")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want the shard's 500 relayed", resp.StatusCode)
	}
	if !strings.Contains(string(body), "shard-side failure") {
		t.Errorf("body = %s, want the shard's own error relayed", body)
	}
	if got := rt.m.attempts[0].Value(); got != 2 {
		t.Errorf("attempts = %d, want 2", got)
	}
}

// TestRouterTracePropagation is the cross-process trace contract: the
// router's root span, its router_shard_call child, and the shard server's
// own root span must all carry ONE trace id, visible in both processes'
// span exports.
func TestRouterTracePropagation(t *testing.T) {
	tr := newTestTier(t, 3, nil)
	resp, err := http.Get(tr.srv.URL + "/recommend?user=u1&n=2")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	// The response exposes the trace id to the client.
	tp, err := trace.ParseTraceparent(resp.Header.Get(trace.TraceparentHeader))
	if err != nil {
		t.Fatalf("response traceparent: %v", err)
	}
	traceID := tp.TraceID.String()

	var routerTrace *trace.TraceData
	for _, td := range tr.tracer.Snapshot() {
		if td.Root.Name == "router_recommend" {
			routerTrace = td
			break
		}
	}
	if routerTrace == nil {
		t.Fatal("router tracer retained no router_recommend trace")
	}
	if routerTrace.TraceID != traceID {
		t.Fatalf("router trace id %s != response traceparent %s", routerTrace.TraceID, traceID)
	}
	foundChild := false
	for _, sp := range routerTrace.Spans {
		if sp.Name == "router_shard_call" {
			foundChild = true
		}
	}
	if !foundChild {
		t.Error("router trace has no router_shard_call child span")
	}

	// u1 -> shard 1. The shard process's OWN tracer must have retained the
	// same trace id for its http_recommend root.
	var shardTrace *trace.TraceData
	for _, td := range tr.shardTracers[1].Snapshot() {
		if td.Root.Name == "http_recommend" {
			shardTrace = td
			break
		}
	}
	if shardTrace == nil {
		t.Fatal("shard tracer retained no http_recommend trace")
	}
	if shardTrace.TraceID != traceID {
		t.Fatalf("one request produced two trace ids: router %s, shard %s", traceID, shardTrace.TraceID)
	}
}

// TestRouterDeadlinePropagation asserts the Request-Budget-Ms contract:
// the shard-side request deadline exists and fires strictly before the
// router's own per-attempt deadline would.
func TestRouterDeadlinePropagation(t *testing.T) {
	perTry := 2 * time.Second
	tr := newTestTier(t, 3, func(cfg *Config) {
		cfg.PerTryTimeout = perTry
		cfg.RequestTimeout = 5 * time.Second
	})
	start := time.Now()
	getJSON(t, tr.srv.URL+"/recommend?user=u0&n=2", http.StatusOK)
	d, ok := tr.engines[0].lastDeadline()
	if !ok {
		t.Fatal("shard engine saw no deadline: Request-Budget-Ms was not applied")
	}
	if !d.After(start) {
		t.Fatalf("shard deadline %v is not in the future of the request start", d)
	}
	if !d.Before(start.Add(perTry)) {
		t.Fatalf("shard deadline %v is not strictly before the router's per-attempt deadline (start+%v)", d, perTry)
	}
}

// TestRouterBreakerMatrix drives one replica's breaker through
// closed → open → half-open → closed deterministically, using the fault
// registry at router.shard_call to fail attempts and an injected clock to
// elapse the open interval, asserting each step through the telemetry the
// chaos harness also reads.
func TestRouterBreakerMatrix(t *testing.T) {
	ok := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"user":"u0","recommendations":[]}`))
	})
	clk := newFakeClock()
	freg := faults.New(1)
	// Prob 0 fires on every check: every attempt fails until disarmed.
	freg.Arm(faults.PointShardCall, faults.Plan{})
	rt, ts := rawTier(t, [][]http.Handler{{ok}}, func(cfg *Config) {
		cfg.MaxAttempts = 1
		cfg.Faults = freg
		cfg.Breaker = BreakerConfig{
			FailureThreshold: 2,
			OpenFor:          time.Second,
			Now:              clk.Now,
		}
	})
	stateGauge := rt.m.breakerState[0][0]

	// Two failed requests close -> open.
	getJSON(t, ts.URL+"/recommend?user=u0&n=2", http.StatusBadGateway)
	if got := stateGauge.Value(); got != int64(BreakerClosed) {
		t.Fatalf("after 1 failure breaker state gauge = %d, want closed", got)
	}
	getJSON(t, ts.URL+"/recommend?user=u0&n=2", http.StatusBadGateway)
	if got := stateGauge.Value(); got != int64(BreakerOpen) {
		t.Fatalf("after threshold breaker state gauge = %d, want open", got)
	}
	if got := rt.m.breakerOpens[0].Value(); got != 1 {
		t.Errorf("breaker opens counter = %d, want 1", got)
	}

	// While open, calls fail fast with 503 + Retry-After — no attempts.
	resp, err := http.Get(ts.URL + "/recommend?user=u0&n=2")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open-breaker status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("open-breaker 503 carries no Retry-After hint")
	}
	if got := rt.m.breakerReject[0].Value(); got != 1 {
		t.Errorf("breaker rejects counter = %d, want 1", got)
	}
	if got := rt.m.attempts[0].Value(); got != 2 {
		t.Errorf("attempts = %d, want 2 (fast-fail must not touch the replica)", got)
	}
	if got := rt.m.chaosShard.Value(); got != 2 {
		t.Errorf("chaos injections = %d, want 2", got)
	}

	// Fault cleared and the open interval elapsed: the next request is the
	// half-open probe; it succeeds and the breaker closes.
	freg.Disarm(faults.PointShardCall)
	clk.Advance(2 * time.Second)
	getJSON(t, ts.URL+"/recommend?user=u0&n=2", http.StatusOK)
	if got := stateGauge.Value(); got != int64(BreakerClosed) {
		t.Fatalf("after successful probe breaker state gauge = %d, want closed", got)
	}
	// A failed probe would have re-opened: counter still 1.
	if got := rt.m.breakerOpens[0].Value(); got != 1 {
		t.Errorf("breaker opens counter = %d after recovery, want 1", got)
	}
}

// TestRouterMisroutedRelays421: a shard that refuses ownership (stale
// router manifest) must have its 421 relayed, not masked, and counted.
func TestRouterMisroutedRelays421(t *testing.T) {
	tr := newTestTier(t, 1, nil)
	// Rewire the shard's engine to own nothing, simulating a router whose
	// manifest is ahead of the shard's.
	tr.engines[0].disown.Store(true)
	resp, err := http.Get(tr.srv.URL + "/recommend?user=u0&n=2")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("status = %d, want 421 relayed", resp.StatusCode)
	}
	if got := tr.rt.m.misrouted.Value(); got != 1 {
		t.Errorf("misrouted counter = %d, want 1", got)
	}
}

// TestRouterHedgedRead: the primary replica stalls, the hedge fires after
// the configured delay against the other replica and wins.
func TestRouterHedgedRead(t *testing.T) {
	unblock := make(chan struct{})
	var first atomic.Int32
	handler := func(w http.ResponseWriter, r *http.Request) {
		if first.Add(1) == 1 {
			<-unblock // primary stalls until the test ends
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"user":"u0","recommendations":[]}`))
	}
	defer close(unblock)
	rt, ts := rawTier(t, [][]http.Handler{{
		http.HandlerFunc(handler), http.HandlerFunc(handler),
	}}, func(cfg *Config) {
		cfg.HedgeDelay = 10 * time.Millisecond
		cfg.PerTryTimeout = 10 * time.Second
		cfg.RequestTimeout = 10 * time.Second
	})
	start := time.Now()
	getJSON(t, ts.URL+"/recommend?user=u0&n=2", http.StatusOK)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("hedged read took %v; the hedge did not win", elapsed)
	}
	if got := rt.m.hedges[0].Value(); got != 1 {
		t.Errorf("hedges = %d, want 1", got)
	}
	if got := rt.m.hedgeWins[0].Value(); got != 1 {
		t.Errorf("hedge wins = %d, want 1", got)
	}
}

// TestRouterReloadExactlyOncePerReplica: the admin fan-out is not
// idempotent, so every replica gets exactly one attempt — no retries even
// when a replica fails.
func TestRouterReloadExactlyOncePerReplica(t *testing.T) {
	var hits [3]atomic.Int32
	mk := func(i int, fail bool) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits[i].Add(1)
			if fail {
				http.Error(w, `{"error":"reload failed"}`, http.StatusInternalServerError)
				return
			}
			_, _ = w.Write([]byte(`{"status":"ok"}`))
		})
	}
	_, ts := rawTier(t, [][]http.Handler{
		{mk(0, false), mk(1, true)},
		{mk(2, false)},
	}, nil)

	resp, err := http.Post(ts.URL+"/admin/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Replicas []struct {
			Shard   int    `json:"shard"`
			Replica int    `json:"replica"`
			Status  int    `json:"status"`
			Error   string `json:"error"`
		} `json:"replicas"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&parsed); err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("status = %d, want 502 when any replica failed", resp.StatusCode)
	}
	if len(parsed.Replicas) != 3 {
		t.Fatalf("outcomes = %d, want 3", len(parsed.Replicas))
	}
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Errorf("replica %d hit %d times, want exactly 1 (reload must never retry)", i, got)
		}
	}
}

func TestRouterReadyz(t *testing.T) {
	tr := newTestTier(t, 2, nil)
	body := getJSON(t, tr.srv.URL+"/readyz", http.StatusOK)
	if body["ready"] != true {
		t.Errorf("ready = %v on a healthy tier", body["ready"])
	}
	// Open shard 0's only breaker: the router must report not-ready with
	// the per-shard detail.
	b := tr.rt.replicas[0][0].breaker
	for i := 0; i < 5; i++ {
		b.Allow()
		b.Failure()
	}
	body = getJSON(t, tr.srv.URL+"/readyz", http.StatusServiceUnavailable)
	if body["ready"] != false {
		t.Errorf("ready = %v with a dark shard", body["ready"])
	}
}

// TestRouterDrain: Shutdown stops admitting serving requests (503 with
// Retry-After, liveness stays up), waits for in-flight requests, and
// returns cleanly once they finish.
func TestRouterDrain(t *testing.T) {
	entered := make(chan struct{})
	unblock := make(chan struct{})
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-unblock
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"user":"u0","recommendations":[]}`))
	})
	rt, ts := rawTier(t, [][]http.Handler{{slow}}, func(cfg *Config) {
		cfg.PerTryTimeout = 10 * time.Second
		cfg.RequestTimeout = 10 * time.Second
	})

	inflightDone := make(chan error, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/recommend?user=u0&n=2")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("in-flight request finished %d, want 200", resp.StatusCode)
			}
		}
		inflightDone <- err
	}()
	<-entered

	shutDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutDone <- rt.Shutdown(ctx)
	}()

	// Wait for the drain flag, then verify admission behavior.
	for i := 0; ; i++ {
		if rt.isDraining() {
			break
		}
		if i > 1000 {
			t.Fatal("router never started draining")
		}
		time.Sleep(time.Millisecond)
	}
	resp, err := http.Get(ts.URL + "/recommend?user=u1&n=2")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining router answered %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("drain 503 carries no Retry-After")
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, hresp.Body)
	_ = hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("liveness during drain = %d, want 200", hresp.StatusCode)
	}
	select {
	case err := <-shutDone:
		t.Fatalf("Shutdown returned (%v) while a request was still in flight", err)
	default:
	}

	close(unblock)
	if err := <-inflightDone; err != nil {
		t.Errorf("in-flight request: %v", err)
	}
	if err := <-shutDone; err != nil {
		t.Errorf("Shutdown = %v, want nil after the in-flight request finished", err)
	}
	if got := rt.m.drainShed.Value(); got < 1 {
		t.Errorf("drain shed counter = %d, want >= 1", got)
	}
}

func TestRouterUsersAndStats(t *testing.T) {
	tr := newTestTier(t, 3, nil)
	body := getJSON(t, tr.srv.URL+"/users?limit=4", http.StatusOK)
	users, _ := body["users"].([]any)
	if len(users) != 4 {
		t.Errorf("users = %v, want 4 tokens", body["users"])
	}
	if body["total"] != float64(6) {
		t.Errorf("total = %v, want 6", body["total"])
	}
	stats := getJSON(t, tr.srv.URL+"/stats", http.StatusOK)
	if stats["shards"] != float64(3) {
		t.Errorf("stats shards = %v, want 3", stats["shards"])
	}
}

// TestRouterRelaysRetryAfterOn503: a shard answering 503 with a
// Retry-After back-pressure hint (a draining replica, an overloaded
// shard) must see that hint relayed to the client, not swallowed at the
// proxy hop — clients pace their retries off it.
func TestRouterRelaysRetryAfterOn503(t *testing.T) {
	overloaded := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		http.Error(w, `{"error":"shard draining"}`, http.StatusServiceUnavailable)
	})
	_, ts := rawTier(t, [][]http.Handler{{overloaded}}, func(cfg *Config) {
		cfg.MaxAttempts = 2
	})
	resp, err := http.Get(ts.URL + "/recommend?user=u0&n=2")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want the shard's 503 relayed", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Errorf("Retry-After = %q, want the shard's hint %q relayed", got, "7")
	}

	// A healthy answer carries no Retry-After: the hint is relayed, not
	// invented.
	ok := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"user":"u0"}`))
	})
	_, ts2 := rawTier(t, [][]http.Handler{{ok}}, nil)
	resp2, err := http.Get(ts2.URL + "/recommend?user=u0&n=2")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp2.Body)
	_ = resp2.Body.Close()
	if got := resp2.Header.Get("Retry-After"); got != "" {
		t.Errorf("Retry-After = %q on a 200, want none", got)
	}
}

// TestRouterReadyzReportsShardLineage: the router's readiness re-exports
// each replica's probed release lineage (full generation + applied delta
// chain + degraded flag), so rollout gates can answer "has every replica
// picked up the new delta?" from one endpoint.
func TestRouterReadyzReportsShardLineage(t *testing.T) {
	shard := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write([]byte(`{"ready":true,"release_version":5,"full_version":3,"deltas_applied":[4,5],"degraded":true,"degraded_reason":"rolled back"}`))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"user":"u0"}`))
	})
	rt, ts := rawTier(t, [][]http.Handler{{shard}}, func(cfg *Config) {
		cfg.ProbeInterval = time.Second // probes run manually below, not via Start
	})

	// Before any successful probe, the readyz row carries no lineage.
	body := getJSON(t, ts.URL+"/readyz", http.StatusOK)
	rows := body["shards"].([]any)
	if _, present := rows[0].(map[string]any)["serving"]; present {
		t.Fatalf("unprobed replica reported lineage: %v", rows[0])
	}

	if !rt.probe(rt.replicas[0][0]) {
		t.Fatal("probe against a healthy replica failed")
	}
	body = getJSON(t, ts.URL+"/readyz", http.StatusOK)
	row := body["shards"].([]any)[0].(map[string]any)
	serving, ok := row["serving"].([]any)
	if !ok || len(serving) != 1 {
		t.Fatalf("serving = %v, want one probed replica", row["serving"])
	}
	got := serving[0].(map[string]any)
	if got["replica"] != float64(0) || got["release_version"] != float64(5) ||
		got["full_version"] != float64(3) || got["degraded"] != true {
		t.Errorf("lineage row = %v", got)
	}
	deltas, ok := got["deltas_applied"].([]any)
	if !ok || len(deltas) != 2 || deltas[0] != float64(4) || deltas[1] != float64(5) {
		t.Errorf("deltas_applied = %v", got["deltas_applied"])
	}
}

// TestRouterDefaultClientKeepsShardConnections: with no Config.Client the
// router keeps a pool of idle connections per shard, so a second burst of
// concurrent calls reuses the first burst's connections instead of
// re-dialing (http.DefaultTransport keeps 2 per host).
func TestRouterDefaultClientKeepsShardConnections(t *testing.T) {
	const wave = 8
	var (
		conns   atomic.Int32
		mu      sync.Mutex
		waiting int
		gate    = make(chan struct{})
	)
	// The shard holds each call until the whole wave has arrived, so a
	// wave needs wave connections at once.
	shard := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		waiting++
		g := gate
		if waiting == wave {
			close(gate)
			waiting, gate = 0, make(chan struct{})
		}
		mu.Unlock()
		select {
		case <-g:
		case <-time.After(5 * time.Second):
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = io.WriteString(w, `{"recommendations":[]}`)
	}))
	shard.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	shard.Start()
	t.Cleanup(shard.Close)

	manifest, ids := testManifest(1, 2)
	rt, err := New(Config{
		Manifest:      manifest,
		UserIDs:       ids,
		Shards:        [][]string{{shard.URL}},
		HedgeDelay:    -1,
		ProbeInterval: -1,
		Logger:        testLogger(t),
		Metrics:       telemetry.NewRegistry(),
		Tracer:        trace.New(trace.Config{Seed: 7}),
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)
	for w := 0; w < 2; w++ {
		var wg sync.WaitGroup
		for i := 0; i < wave; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := http.Get(front.URL + "/recommend?user=u0&n=1")
				if err != nil {
					t.Error(err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				_ = resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("status %d", resp.StatusCode)
				}
			}()
		}
		wg.Wait()
	}
	if n := conns.Load(); n > wave {
		t.Errorf("two waves of %d concurrent calls opened %d shard connections, want at most %d", wave, n, wave)
	}
}
