package server

import (
	"net/http"
	"testing"
	"time"
)

func TestRetryAfterSeconds(t *testing.T) {
	tests := []struct {
		name     string
		depth    int
		capacity int
		recent   time.Duration
		fallback time.Duration
		want     int
	}{
		{"cold start uses fallback", 10, 10, 0, 3 * time.Second, 3},
		{"cold start fallback rounds up", 10, 10, 0, 1500 * time.Millisecond, 2},
		{"cold start fallback clamped low", 10, 10, 0, 0, 1},
		{"cold start fallback clamped high", 10, 10, 0, 5 * time.Minute, 30},
		{"one generation of fast requests", 10, 10, 200 * time.Millisecond, time.Second, 1},
		{"one generation of slow requests", 10, 10, 4 * time.Second, time.Second, 4},
		{"deep queue multiplies generations", 30, 10, 2 * time.Second, time.Second, 6},
		{"partial generation rounds up", 25, 10, 2 * time.Second, time.Second, 6},
		{"depth below capacity still waits one generation", 3, 10, 5 * time.Second, time.Second, 5},
		{"clamped to the ceiling", 100, 1, 10 * time.Second, time.Second, 30},
		{"never below one second", 10, 10, time.Millisecond, time.Second, 1},
		{"zero capacity treated as one", 5, 0, 2 * time.Second, time.Second, 10},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := retryAfterSeconds(tt.depth, tt.capacity, tt.recent, tt.fallback); got != tt.want {
				t.Errorf("retryAfterSeconds(%d, %d, %v, %v) = %d, want %d",
					tt.depth, tt.capacity, tt.recent, tt.fallback, got, tt.want)
			}
		})
	}
}

func TestObserveLatencyEWMA(t *testing.T) {
	s := &Server{}
	if got := s.recentLatency(); got != 0 {
		t.Fatalf("recentLatency before any observation = %v, want 0", got)
	}
	// The first observation seeds the EWMA directly.
	s.observeLatency(800 * time.Millisecond)
	if got := s.recentLatency(); got != 800*time.Millisecond {
		t.Fatalf("after first observation = %v, want 800ms", got)
	}
	// Subsequent observations move 1/8 of the gap: one fast request
	// cannot collapse the hint.
	s.observeLatency(0)
	if got := s.recentLatency(); got != 700*time.Millisecond {
		t.Fatalf("after one zero observation = %v, want 700ms", got)
	}
	// Sustained slow requests converge upward.
	for i := 0; i < 100; i++ {
		s.observeLatency(2 * time.Second)
	}
	if got := s.recentLatency(); got < 1900*time.Millisecond || got > 2*time.Second {
		t.Fatalf("after sustained 2s observations = %v, want near 2s", got)
	}
}

// TestShedKeepsAdaptiveHint: only requests the limiter admitted feed the
// latency EWMA. Shed answers and health probes take microseconds; timing
// them would talk a 4 s hint down to 1 s exactly while the server is
// saturated.
func TestShedKeepsAdaptiveHint(t *testing.T) {
	eng := &blockingEngine{
		fakeEngine: fakeEngine{users: 5, failOn: -1},
		entered:    make(chan struct{}, 1),
		release:    make(chan struct{}),
	}
	s, ts := hardenedServer(t, func(cfg *Config) {
		cfg.Engine = eng
		cfg.MaxInFlight = 1
	})
	s.observeLatency(4 * time.Second)
	done := make(chan error, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/recommend?user=alice&n=2")
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	<-eng.entered
	for i := 0; i < 20; i++ {
		get(t, ts.URL+"/healthz", http.StatusOK)
		resp, err := http.Get(ts.URL + "/recommend?user=bob&n=2")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("shed %d: status %d, want 503", i, resp.StatusCode)
		}
		if got := resp.Header.Get("Retry-After"); got != "4" {
			t.Fatalf("shed %d: Retry-After = %q, want %q", i, got, "4")
		}
	}
	close(eng.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestShedUsesAdaptiveHint wires the pieces: a saturated server whose
// recent requests were slow must push shed clients further out than the
// static fallback would.
func TestShedUsesAdaptiveHint(t *testing.T) {
	s := &Server{}
	s.observeLatency(4 * time.Second)
	got := retryAfterSeconds(1, 1, s.recentLatency(), time.Second)
	if got != 4 {
		t.Fatalf("adaptive hint = %d, want 4 (one 4s generation)", got)
	}
}
