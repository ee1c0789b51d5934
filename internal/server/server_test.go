package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"socialrec/internal/core"
	"socialrec/internal/dataset"
	"socialrec/internal/trace"
)

// testLogger routes slog records to the test log.
func testLogger(tb testing.TB) *slog.Logger {
	return slog.New(slog.NewTextHandler(testWriter{tb}, nil))
}

type testWriter struct{ tb testing.TB }

func (w testWriter) Write(p []byte) (int, error) {
	w.tb.Logf("%s", p)
	return len(p), nil
}

// discardLogger drops every record (benchmarks where panic stacks would
// swamp the output).
func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// fakeEngine serves deterministic lists: item k has utility 10-k. Like the
// real engine, it opens the recommend-phase child spans on the request
// context, so handler tests can assert trace propagation end to end.
type fakeEngine struct {
	users  int
	failOn int // user id that triggers an internal error; -1 disables
}

func (f *fakeEngine) RecommendContext(ctx context.Context, user, n int) ([]core.Recommendation, error) {
	// Mirror the real engine's phase spans (internal/core uses StartLeaf).
	for _, phase := range [...]string{"similarity_batch", "cluster_average", "top_n"} {
		sp := trace.StartLeaf(ctx, phase)
		sp.End()
	}
	if user == f.failOn {
		return nil, fmt.Errorf("boom")
	}
	out := make([]core.Recommendation, n)
	for i := range out {
		out[i] = core.Recommendation{Item: int32(i), Utility: float64(10 - i)}
	}
	return out, nil
}

func (f *fakeEngine) ClusterOf(user int) int { return user % 3 }
func (f *fakeEngine) Epsilon() float64       { return 0.5 }
func (f *fakeEngine) NumClusters() int       { return 3 }
func (f *fakeEngine) Modularity() float64    { return 0.42 }

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	s, err := New(Config{
		Engine:     &fakeEngine{users: 5, failOn: 4},
		UserIDs:    map[string]int{"alice": 0, "bob": 1, "carol": 2, "dave": 3, "evil": 4},
		ItemTokens: []string{"i0", "i1", "i2", "i3", "i4", "i5"},
		Stats:      dataset.Stats{Users: 5, Items: 6, PrefEdges: 9},
		MaxN:       4,
		Logger:     testLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts
}

func getJSON(t *testing.T, url string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return body
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("missing engine should fail")
	}
	if _, err := New(Config{Engine: &fakeEngine{}}); err == nil {
		t.Error("missing user ids should fail")
	}
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestStats(t *testing.T) {
	ts := newTestServer(t)
	body := getJSON(t, ts.URL+"/stats", http.StatusOK)
	if body["users"].(float64) != 5 || body["clusters"].(float64) != 3 {
		t.Errorf("stats = %v", body)
	}
	if body["epsilon"] != "0.5" {
		t.Errorf("epsilon = %v", body["epsilon"])
	}
}

func TestRecommend(t *testing.T) {
	ts := newTestServer(t)
	body := getJSON(t, ts.URL+"/recommend?user=alice&n=2", http.StatusOK)
	if body["user"] != "alice" {
		t.Errorf("user = %v", body["user"])
	}
	recs := body["recommendations"].([]any)
	if len(recs) != 2 {
		t.Fatalf("recs = %v", recs)
	}
	first := recs[0].(map[string]any)
	if first["item"] != "i0" || first["utility"].(float64) != 10 {
		t.Errorf("first rec = %v", first)
	}
	if body["cluster"].(float64) != 0 {
		t.Errorf("cluster = %v", body["cluster"])
	}
}

func TestRecommendCapsN(t *testing.T) {
	ts := newTestServer(t)
	body := getJSON(t, ts.URL+"/recommend?user=bob&n=50", http.StatusBadRequest)
	if msg, _ := body["error"].(string); !strings.Contains(msg, "exceeds maximum") {
		t.Errorf("n > MaxN error = %v, want explicit rejection", body["error"])
	}
	// The maximum itself is still served.
	body = getJSON(t, ts.URL+"/recommend?user=bob&n=4", http.StatusOK)
	if recs := body["recommendations"].([]any); len(recs) != 4 {
		t.Errorf("n = MaxN served %d recs, want 4", len(recs))
	}
}

func TestRecommendDefaultN(t *testing.T) {
	ts := newTestServer(t)
	body := getJSON(t, ts.URL+"/recommend?user=bob", http.StatusOK)
	recs := body["recommendations"].([]any)
	if len(recs) != 4 { // default 10 capped to MaxN 4
		t.Errorf("default n recs = %d, want 4", len(recs))
	}
}

func TestRecommendErrors(t *testing.T) {
	ts := newTestServer(t)
	getJSON(t, ts.URL+"/recommend", http.StatusBadRequest)
	getJSON(t, ts.URL+"/recommend?user=nobody", http.StatusNotFound)
	getJSON(t, ts.URL+"/recommend?user=alice&n=zero", http.StatusBadRequest)
	getJSON(t, ts.URL+"/recommend?user=evil", http.StatusInternalServerError)
}

func TestUsers(t *testing.T) {
	ts := newTestServer(t)
	body := getJSON(t, ts.URL+"/users?limit=2", http.StatusOK)
	if body["total"].(float64) != 5 {
		t.Errorf("total = %v", body["total"])
	}
	users := body["users"].([]any)
	if len(users) != 2 || users[0] != "alice" {
		t.Errorf("users = %v", users)
	}
}

func TestBatch(t *testing.T) {
	ts := newTestServer(t)
	payload := `{"users": ["alice", "nobody", "bob"], "n": 1}`
	resp, err := http.Post(ts.URL+"/recommend/batch", "application/json", strings.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	results := body["results"].([]any)
	if len(results) != 3 {
		t.Fatalf("results = %v", results)
	}
	if results[1].(map[string]any)["error"] != "unknown user" {
		t.Errorf("unknown user not reported per-row: %v", results[1])
	}
	if results[0].(map[string]any)["user"] != "alice" {
		t.Errorf("row 0 = %v", results[0])
	}
}

func TestBatchValidation(t *testing.T) {
	ts := newTestServer(t)
	for _, payload := range []string{`not json`, `{"users": []}`, `{"users": ["alice"], "n": -3}`} {
		resp, err := http.Post(ts.URL+"/recommend/batch", "application/json", strings.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("payload %q: status = %d, want 400", payload, resp.StatusCode)
		}
	}
}

// TestBatchDefaultN: a zero or omitted batch n serves the default list
// (10, capped at MaxN), as an omitted GET n does.
func TestBatchDefaultN(t *testing.T) {
	ts := newTestServer(t)
	post := func(payload string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/recommend/batch", "application/json", strings.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	_, want := post(`{"users": ["alice"], "n": 4}`)
	for _, payload := range []string{`{"users": ["alice"], "n": 0}`, `{"users": ["alice"]}`} {
		if status, body := post(payload); status != http.StatusOK || body != want {
			t.Errorf("%s: status %d, body %s; want 200 and the n = MaxN body %s", payload, status, body, want)
		}
	}
}

func TestMethodRouting(t *testing.T) {
	ts := newTestServer(t)
	// POST to a GET-only route must 405.
	resp, err := http.Post(ts.URL+"/recommend?user=alice", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("status = %d, want 405", resp.StatusCode)
	}
}
