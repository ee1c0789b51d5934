package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"socialrec/internal/core"
	"socialrec/internal/dataset"
	"socialrec/internal/faults"
	"socialrec/internal/telemetry"
)

// blockingEngine parks every recommend call until release is closed,
// signalling entered first — the tool for saturating the limiter.
type blockingEngine struct {
	fakeEngine
	entered chan struct{}
	release chan struct{}
}

func (b *blockingEngine) RecommendContext(ctx context.Context, user, n int) ([]core.Recommendation, error) {
	b.entered <- struct{}{}
	<-b.release
	return b.fakeEngine.RecommendContext(ctx, user, n)
}

// slowEngine delays every recommend call, for deadline tests.
type slowEngine struct {
	fakeEngine
	delay time.Duration
}

func (s *slowEngine) RecommendContext(ctx context.Context, user, n int) ([]core.Recommendation, error) {
	time.Sleep(s.delay)
	return s.fakeEngine.RecommendContext(ctx, user, n)
}

// hardenedServer builds a test server with an isolated telemetry registry
// so counter assertions don't see other tests' traffic.
func hardenedServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Engine:  &fakeEngine{users: 5, failOn: -1},
		UserIDs: map[string]int{"alice": 0, "bob": 1},
		Stats:   dataset.Stats{Users: 5},
		MaxN:    10,
		Logger:  testLogger(t),
		Metrics: telemetry.NewRegistry(),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// TestPanicRecovery is acceptance criterion (c): an injected handler panic
// yields a 500 and an incremented counter, and the process keeps serving.
func TestPanicRecovery(t *testing.T) {
	reg := faults.New(1)
	reg.Arm(faults.PointHandler, faults.Plan{Times: 1, Panic: true})
	s, ts := hardenedServer(t, func(cfg *Config) { cfg.Faults = reg })

	body := getJSON(t, ts.URL+"/recommend?user=alice&n=2", http.StatusInternalServerError)
	if body["error"] != "internal error" {
		t.Errorf("panic response = %v", body)
	}
	if got := counter(t, s, "http_panics_recovered_total", ""); got != 1 {
		t.Errorf("http_panics_recovered_total = %d, want 1", got)
	}
	// The process survived: the very next request serves normally.
	body = getJSON(t, ts.URL+"/recommend?user=alice&n=2", http.StatusOK)
	if body["user"] != "alice" {
		t.Errorf("post-panic request = %v", body)
	}
	if got := counter(t, s, "http_panics_recovered_total", ""); got != 1 {
		t.Errorf("panics counter moved without a panic: %d", got)
	}
}

func TestChaosInjectedError(t *testing.T) {
	reg := faults.New(1)
	reg.Arm(faults.PointHandler, faults.Plan{Times: 1})
	s, ts := hardenedServer(t, func(cfg *Config) { cfg.Faults = reg })

	body := getJSON(t, ts.URL+"/recommend?user=alice&n=2", http.StatusInternalServerError)
	if body["error"] != "injected fault" {
		t.Errorf("chaos response = %v", body)
	}
	if got := s.metrics.chaosInjected.Value(); got != 1 {
		t.Errorf("http_chaos_injected_total = %d, want 1", got)
	}
	getJSON(t, ts.URL+"/recommend?user=alice&n=2", http.StatusOK)
}

// TestLimiterSheds is acceptance criterion (d): saturating the concurrency
// limiter yields 503 + Retry-After, counted in telemetry.
func TestLimiterSheds(t *testing.T) {
	eng := &blockingEngine{
		fakeEngine: fakeEngine{users: 5, failOn: -1},
		entered:    make(chan struct{}, 1),
		release:    make(chan struct{}),
	}
	s, ts := hardenedServer(t, func(cfg *Config) {
		cfg.Engine = eng
		cfg.MaxInFlight = 1
		cfg.RetryAfter = 3 * time.Second
	})

	// Request 1 occupies the single serving slot inside the engine.
	done := make(chan map[string]any, 1)
	go func() {
		done <- getJSON(t, ts.URL+"/recommend?user=alice&n=2", http.StatusOK)
	}()
	<-eng.entered

	// Request 2 finds the limiter full and is shed immediately.
	resp, err := http.Get(ts.URL + "/recommend?user=bob&n=2")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated status = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Errorf("Retry-After = %q, want %q", got, "3")
	}
	shedBody := decodeBody(t, resp)
	if msg, _ := shedBody["error"].(string); !strings.Contains(msg, "saturated") {
		t.Errorf("shed body = %v", shedBody)
	}
	if got := s.metrics.shed.Value(); got != 1 {
		t.Errorf("http_shed_total = %d, want 1", got)
	}

	// Health and readiness probes are never shed, even while saturated.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz under saturation = %d, want 200", resp.StatusCode)
	}
	getJSON(t, ts.URL+"/readyz", http.StatusOK)

	// Releasing the first request frees the slot for new traffic.
	close(eng.release)
	if body := <-done; body["user"] != "alice" {
		t.Errorf("occupying request = %v", body)
	}
	getJSON(t, ts.URL+"/recommend?user=bob&n=2", http.StatusOK)
	if got := s.metrics.shed.Value(); got != 1 {
		t.Errorf("shed counter moved after slot freed: %d", got)
	}
}

func TestDeadlineExpiryMidBatch(t *testing.T) {
	s, ts := hardenedServer(t, func(cfg *Config) {
		cfg.Engine = &slowEngine{
			fakeEngine: fakeEngine{users: 5, failOn: -1},
			delay:      60 * time.Millisecond,
		}
		cfg.RequestTimeout = 30 * time.Millisecond
	})

	// The first user's slow Recommend outlives the request deadline; the
	// second iteration sees the expired context and aborts the whole batch
	// rather than returning a silently truncated response.
	payload := `{"users": ["alice", "bob"], "n": 1}`
	resp, err := http.Post(ts.URL+"/recommend/batch", "application/json", strings.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired batch status = %d, want 504", resp.StatusCode)
	}
	body := decodeBody(t, resp)
	if msg, _ := body["error"].(string); !strings.Contains(msg, "deadline") {
		t.Errorf("expired batch body = %v", body)
	}
	if got := counter(t, s, "http_request_timeouts_total", ""); got != 1 {
		t.Errorf("http_request_timeouts_total = %d, want 1", got)
	}
}

// ctxEngine parks every recommend call until its context ends, then
// closes returned.
type ctxEngine struct {
	fakeEngine
	returned chan struct{}
}

func (e *ctxEngine) RecommendContext(ctx context.Context, _, _ int) ([]core.Recommendation, error) {
	<-ctx.Done()
	close(e.returned)
	return nil, ctx.Err()
}

// TestDeadlineIgnoresClientCancel: a client that gives up long before the
// request deadline cancels the request's context, but that is not the
// server's deadline expiring, so http_request_timeouts_total stays 0.
func TestDeadlineIgnoresClientCancel(t *testing.T) {
	eng := &ctxEngine{fakeEngine: fakeEngine{users: 5, failOn: -1}, returned: make(chan struct{})}
	s, ts := hardenedServer(t, func(cfg *Config) {
		cfg.Engine = eng
		cfg.RequestTimeout = 10 * time.Second
	})
	client := &http.Client{Timeout: 50 * time.Millisecond}
	if resp, err := client.Get(ts.URL + "/recommend?user=alice&n=2"); err == nil {
		resp.Body.Close()
		t.Fatalf("the engine blocks until canceled, yet the client got %d", resp.StatusCode)
	}
	<-eng.returned
	ts.Close() // waits for the handler, and the edge's accounting, to finish
	if got := counter(t, s, "http_requests_total", "recommend"); got != 1 {
		t.Fatalf("http_requests_total{recommend} = %d, want 1", got)
	}
	if got := counter(t, s, "http_request_timeouts_total", ""); got != 0 {
		t.Errorf("http_request_timeouts_total = %d after a client cancel, want 0", got)
	}
}

func TestDeadlineDisabled(t *testing.T) {
	_, ts := hardenedServer(t, func(cfg *Config) {
		cfg.Engine = &slowEngine{
			fakeEngine: fakeEngine{users: 5, failOn: -1},
			delay:      5 * time.Millisecond,
		}
		cfg.RequestTimeout = -1
	})
	getJSON(t, ts.URL+"/recommend?user=alice&n=2", http.StatusOK)
}

func TestChaosDelayOnly(t *testing.T) {
	// DelayOnly plans slow the handler without failing it — latency chaos
	// must not corrupt responses.
	reg := faults.New(7)
	reg.Arm(faults.PointHandler, faults.Plan{DelayOnly: true, Delay: time.Millisecond})
	_, ts := hardenedServer(t, func(cfg *Config) { cfg.Faults = reg })
	for i := 0; i < 3; i++ {
		body := getJSON(t, ts.URL+"/recommend?user=alice&n=2", http.StatusOK)
		if body["user"] != "alice" {
			t.Fatalf("delayed response = %v", body)
		}
	}
}
