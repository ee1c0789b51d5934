package obsagg

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"socialrec/internal/httpedge"
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

// splitmix64 is the repo-standard deterministic test stream.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fakeTarget is one scrapable fake process: a real registry and ledger
// served through the real telemetry.Handler, so the collector parses the
// exact document production targets emit. The down flag simulates a dead
// replica (everything answers 503 with a non-JSON body).
type fakeTarget struct {
	name     string
	reg      *telemetry.Registry
	ledger   *telemetry.Ledger
	srv      *httptest.Server
	down     atomic.Bool
	requests *telemetry.Counter
	errors   *telemetry.Counter
	latency  *telemetry.Histogram

	generation uint64
	degraded   atomic.Bool
	traces     atomic.Pointer[tracesDoc]
}

func newFakeTarget(t *testing.T, name string, generation uint64) *fakeTarget {
	t.Helper()
	ft := &fakeTarget{
		name:       name,
		reg:        telemetry.NewRegistry(),
		ledger:     telemetry.NewLedger(),
		generation: generation,
	}
	ft.requests = ft.reg.NewCounter("http_requests_total", "requests")
	ft.errors = ft.reg.NewCounter("http_errors_total", "errors")
	ft.latency = ft.reg.NewHistogram("http_request_seconds", "latency", nil)
	ft.traces.Store(&tracesDoc{Traces: []*trace.TraceData{}})

	metricsH := telemetry.Handler(ft.reg, nil, ft.ledger)
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", metricsH)
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if ft.degraded.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		_ = json.NewEncoder(w).Encode(map[string]any{
			"ready":           !ft.degraded.Load(),
			"release_version": ft.generation,
			"degraded":        ft.degraded.Load(),
		})
	})
	mux.HandleFunc("GET /debug/traces", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(ft.traces.Load())
	})
	mux.HandleFunc("GET /debug/traces/{trace_id}", func(w http.ResponseWriter, r *http.Request) {
		// The exact-id lookup always misses so tests exercise the
		// collector's cache fallback.
		http.Error(w, "trace not retained", http.StatusNotFound)
	})
	ft.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if ft.down.Load() {
			http.Error(w, "replica down", http.StatusServiceUnavailable)
			return
		}
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(ft.srv.Close)
	return ft
}

func (ft *fakeTarget) target(role string) Target {
	return Target{Name: ft.name, Role: role, URL: ft.srv.URL}
}

// fakeClock is the injectable clock for hysteresis and window tests.
type fakeClock struct{ at time.Time }

func (fc *fakeClock) now() time.Time          { return fc.at }
func (fc *fakeClock) advance(d time.Duration) { fc.at = fc.at.Add(d) }

func newTestCollector(t *testing.T, cfg Config) *Collector {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = testLogger(t)
	}
	if cfg.Metrics == nil {
		cfg.Metrics = telemetry.NewRegistry()
	}
	if cfg.Tracer == nil {
		cfg.Tracer = trace.New(trace.Config{Seed: 1, Process: "socmon"})
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidatesTargets(t *testing.T) {
	cases := []struct {
		name    string
		targets []Target
	}{
		{"none", nil},
		{"dynamic name", []Target{{Name: "Shard-1", Role: "shard", URL: "http://x"}}},
		{"duplicate name", []Target{
			{Name: "shard_0", Role: "shard", URL: "http://x"},
			{Name: "shard_0", Role: "shard", URL: "http://y"},
		}},
		{"bad role", []Target{{Name: "shard_0", Role: "frontend", URL: "http://x"}}},
		{"no url", []Target{{Name: "shard_0", Role: "shard"}}},
	}
	for _, tc := range cases {
		if _, err := New(Config{Targets: tc.targets, Metrics: telemetry.NewRegistry()}); err == nil {
			t.Errorf("%s: New accepted invalid targets", tc.name)
		}
	}
}

func statusByName(sts []TargetStatus) map[string]TargetStatus {
	m := map[string]TargetStatus{}
	for _, st := range sts {
		m[st.Target] = st
	}
	return m
}

// TestPartialScrapeDegradation is the degradation contract: a dead target
// keeps contributing its last-good data labeled stale, a never-seen
// target shows up missing, and no fleet endpoint errors because of either.
func TestPartialScrapeDegradation(t *testing.T) {
	a := newFakeTarget(t, "shard_0", 7)
	b := newFakeTarget(t, "shard_1", 7)
	ghost := newFakeTarget(t, "shard_2", 7)
	ghost.down.Store(true) // never answers successfully

	for i := 0; i < 10; i++ {
		a.requests.Inc()
		a.latency.Observe(0.05)
		b.requests.Inc()
		b.latency.Observe(0.2)
	}
	b.errors.Inc()

	fc := &fakeClock{at: time.Unix(1000, 0)}
	c := newTestCollector(t, Config{
		Targets: []Target{a.target("shard"), b.target("shard"), ghost.target("shard")},
		Now:     fc.now,
	})
	c.ScrapeOnce()

	sts := statusByName(c.targetStatuses())
	if sts["shard_0"].Health != healthOK || sts["shard_1"].Health != healthOK {
		t.Fatalf("healthy targets not ok: %+v", sts)
	}
	if sts["shard_2"].Health != healthMissing {
		t.Fatalf("never-scraped target not missing: %+v", sts["shard_2"])
	}
	if g := sts["shard_0"].Generation; g != 7 {
		t.Fatalf("generation not picked up from readyz: %d", g)
	}

	doc := c.FleetMetrics()
	var reqs *FleetCounter
	for i := range doc.Counters {
		if doc.Counters[i].Name == "http_requests_total" {
			reqs = &doc.Counters[i]
		}
	}
	if reqs == nil || reqs.Value != 20 {
		t.Fatalf("fleet request sum: %+v", reqs)
	}
	if reqs.ByTarget["shard_0"] != 10 || reqs.ByTarget["shard_1"] != 10 {
		t.Fatalf("per-target breakdown: %+v", reqs.ByTarget)
	}
	if doc.Latency == nil || doc.Latency.Count != 20 {
		t.Fatalf("fleet latency: %+v", doc.Latency)
	}

	// Kill b; a keeps serving. The fleet view degrades, not errors.
	b.down.Store(true)
	a.requests.Inc()
	a.latency.Observe(0.05)
	fc.advance(2 * time.Second)
	c.ScrapeOnce()

	sts = statusByName(c.targetStatuses())
	if sts["shard_1"].Health != healthStale {
		t.Fatalf("dead target not stale: %+v", sts["shard_1"])
	}
	if sts["shard_1"].AgeMS <= 0 {
		t.Fatalf("stale target carries no age: %+v", sts["shard_1"])
	}
	doc = c.FleetMetrics()
	for i := range doc.Counters {
		fc := doc.Counters[i]
		if fc.Name == "http_requests_total" {
			// 11 fresh from a + 10 last-good from b; ghost contributes nothing.
			if fc.Value != 21 || fc.ByTarget["shard_1"] != 10 {
				t.Fatalf("stale contribution dropped: %+v", fc)
			}
		}
	}
	if doc.Latency == nil || doc.Latency.Count != 21 {
		t.Fatalf("stale latency contribution dropped: %+v", doc.Latency)
	}

	// The HTTP surface stays 200 throughout.
	h := httptest.NewServer(c.Handler())
	defer h.Close()
	for _, path := range []string{"/fleet/metrics", "/fleet/traces", "/fleet/budget", "/fleet/alerts", "/readyz", "/metrics"} {
		resp, err := http.Get(h.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s returned %d with a degraded fleet", path, resp.StatusCode)
		}
	}
}

// TestFleetQuantilesMatchConcatenatedStream is the fleet-level version of
// the telemetry merge property: observations scattered across target
// processes yield exactly the quantiles of the same stream observed in
// one process.
func TestFleetQuantilesMatchConcatenatedStream(t *testing.T) {
	targets := []*fakeTarget{
		newFakeTarget(t, "shard_0", 1),
		newFakeTarget(t, "shard_1", 1),
		newFakeTarget(t, "router", 1),
	}
	refReg := telemetry.NewRegistry()
	ref := refReg.NewHistogram("http_request_seconds", "ref", nil)
	state := uint64(42)
	for i := 0; i < 5000; i++ {
		v := float64(splitmix64(&state)%10_000_000) / 1e6 // [0, 10) s
		targets[int(splitmix64(&state)%uint64(len(targets)))].latency.Observe(v)
		ref.Observe(v)
	}
	c := newTestCollector(t, Config{
		Targets: []Target{targets[0].target("shard"), targets[1].target("shard"), targets[2].target("router")},
	})
	c.ScrapeOnce()
	doc := c.FleetMetrics()
	if doc.Latency == nil || doc.Latency.Count != 5000 {
		t.Fatalf("fleet latency: %+v", doc.Latency)
	}
	var refSnap telemetry.HistogramSnapshot
	for _, h := range refReg.Snapshot().Histograms {
		if h.Name == "http_request_seconds" {
			refSnap = h
		}
	}
	for _, q := range []struct {
		q    float64
		got  float64
		want float64
	}{
		{0.5, doc.Latency.P50, refSnap.Quantile(0.5)},
		{0.99, doc.Latency.P99, refSnap.Quantile(0.99)},
		{0.999, doc.Latency.P999, refSnap.Quantile(0.999)},
	} {
		if q.got != q.want { // bit-identical, not approximately equal
			t.Errorf("fleet q%v = %v, concatenated stream = %v", q.q, q.got, q.want)
		}
	}
}

// TestFleetBudgetExactSum is the hard invariant: fleet Σε equals the sum
// of the per-process ledgers exactly (binary fractions make float
// addition exact, so any discrepancy is a logic bug, not rounding).
func TestFleetBudgetExactSum(t *testing.T) {
	a := newFakeTarget(t, "shard_0", 7)
	b := newFakeTarget(t, "shard_1", 9)
	for i := 0; i < 3; i++ {
		a.ledger.Record(telemetry.ReleaseEvent{Mechanism: "gs", Epsilon: 0.125, Values: 10})
	}
	b.ledger.Record(telemetry.ReleaseEvent{Mechanism: "gs", Epsilon: 0.25, Values: 10})
	b.ledger.Record(telemetry.ReleaseEvent{Mechanism: "lrm", Epsilon: 0.375, Values: 5})
	b.ledger.Record(telemetry.ReleaseEvent{Mechanism: "persist", Epsilon: math.Inf(1)})

	fc := &fakeClock{at: time.Unix(1000, 0)}
	c := newTestCollector(t, Config{
		Targets:       []Target{a.target("shard"), b.target("shard")},
		EpsilonBudget: 10,
		Window:        time.Hour,
		Now:           fc.now,
	})
	c.ScrapeOnce()

	want := 0.125*3 + 0.25 + 0.375
	sum := a.ledger.Snapshot().TotalEpsilon + b.ledger.Snapshot().TotalEpsilon
	if sum != want {
		t.Fatalf("test premise: per-ledger sum %v != %v", sum, want)
	}
	doc := c.FleetBudget()
	if doc.Fleet.TotalEpsilon != sum {
		t.Fatalf("fleet Σε = %v, per-process ledgers sum to %v", doc.Fleet.TotalEpsilon, sum)
	}
	if doc.Fleet.InfReleases != 1 {
		t.Fatalf("inf releases: %d", doc.Fleet.InfReleases)
	}
	byMech := map[string]float64{}
	for _, m := range doc.Fleet.ByMechanism {
		byMech[m.Mechanism] = m.Epsilon
	}
	if byMech["gs"] != 0.125*3+0.25 || byMech["lrm"] != 0.375 {
		t.Fatalf("per-mechanism sums: %+v", byMech)
	}
	if doc.RemainingEpsilon != 10-sum {
		t.Fatalf("remaining ε: %v", doc.RemainingEpsilon)
	}
	if len(doc.Generations) != 2 {
		t.Fatalf("generation groups: %+v", doc.Generations)
	}
	genEps := map[uint64]float64{}
	for _, g := range doc.Generations {
		genEps[g.Generation] = g.TotalEpsilon
	}
	if genEps[7] != 0.375 || genEps[9] != 0.625 {
		t.Fatalf("per-generation Σε: %+v", genEps)
	}

	// A second round with fresh spend establishes a burn rate and a
	// finite exhaustion horizon.
	a.ledger.Record(telemetry.ReleaseEvent{Mechanism: "gs", Epsilon: 0.5, Values: 10})
	fc.advance(30 * time.Minute)
	c.ScrapeOnce()
	doc = c.FleetBudget()
	if doc.BurnRatePerHour != 1.0 { // 0.5 ε in 0.5 h
		t.Fatalf("burn rate: %v", doc.BurnRatePerHour)
	}
	remaining := 10 - (sum + 0.5)
	wantHorizon := int64(remaining / 1.0 * 3600 * 1000)
	if doc.ExhaustionHorizonMS != wantHorizon {
		t.Fatalf("exhaustion horizon: %d, want %d", doc.ExhaustionHorizonMS, wantHorizon)
	}
	if doc.Exhausted {
		t.Fatal("fleet marked exhausted under budget")
	}
}

func alertByName(doc FleetAlerts, name string) Alert {
	for _, a := range doc.Alerts {
		if a.Name == name {
			return a
		}
	}
	return Alert{}
}

// TestAlertHysteresis walks the error-rate rule ok → pending → firing →
// (held through one clean round) → ok, and the replica-down rule through
// a kill-and-restart, with a fake clock driving deterministic rounds.
func TestAlertHysteresis(t *testing.T) {
	ft := newFakeTarget(t, "shard_0", 1)
	fc := &fakeClock{at: time.Unix(1000, 0)}
	c := newTestCollector(t, Config{
		Targets: []Target{ft.target("shard")},
		Window:  time.Second, // keep exactly the last two samples
		Rules: RuleConfig{
			FleetErrorRate:   0.1,
			FireAfter:        2,
			ClearAfter:       2,
			ReplicaDownAfter: 2,
		},
		Now: fc.now,
	})
	round := func(requests, errors int) FleetAlerts {
		for i := 0; i < requests; i++ {
			ft.requests.Inc()
		}
		for i := 0; i < errors; i++ {
			ft.errors.Inc()
		}
		fc.advance(10 * time.Second)
		c.ScrapeOnce()
		return c.FleetAlerts()
	}

	if a := round(100, 0); alertByName(a, "fleet_error_rate").State != stateOK {
		t.Fatalf("clean round: %+v", a)
	}
	round(100, 0) // second clean sample so the window has a baseline
	if a := round(100, 50); alertByName(a, "fleet_error_rate").State != statePending {
		t.Fatalf("first breach should be pending (FireAfter=2): %+v", a)
	}
	a := round(100, 50)
	if got := alertByName(a, "fleet_error_rate"); got.State != stateFiring {
		t.Fatalf("second breach should fire: %+v", a)
	} else if got.Value != 0.5 {
		t.Fatalf("alert value should carry the windowed rate: %+v", got)
	}
	if a.Firing != 1 {
		t.Fatalf("firing count: %d", a.Firing)
	}
	// One clean round must NOT clear a firing rule (ClearAfter=2)...
	if a := round(100, 0); alertByName(a, "fleet_error_rate").State != stateFiring {
		t.Fatalf("single clean round cleared the alert: %+v", a)
	}
	// ...the second does.
	if a := round(100, 0); alertByName(a, "fleet_error_rate").State != stateOK {
		t.Fatalf("alert failed to clear after ClearAfter rounds: %+v", a)
	}

	// Replica down: one failed scrape is not an alert, two are.
	ft.down.Store(true)
	fc.advance(10 * time.Second)
	c.ScrapeOnce()
	if a := c.FleetAlerts(); alertByName(a, "replica_down_shard_0").State == stateFiring {
		t.Fatalf("one failed scrape should not page: %+v", a)
	}
	fc.advance(10 * time.Second)
	c.ScrapeOnce()
	if a := c.FleetAlerts(); alertByName(a, "replica_down_shard_0").State != stateFiring {
		t.Fatalf("replica down for ReplicaDownAfter rounds should fire: %+v", a)
	}
	// Restart: the clear side still needs ClearAfter clean rounds.
	ft.down.Store(false)
	fc.advance(10 * time.Second)
	c.ScrapeOnce()
	if a := c.FleetAlerts(); alertByName(a, "replica_down_shard_0").State != stateFiring {
		t.Fatalf("replica-down cleared after a single good scrape: %+v", a)
	}
	fc.advance(10 * time.Second)
	c.ScrapeOnce()
	if a := c.FleetAlerts(); alertByName(a, "replica_down_shard_0").State != stateOK {
		t.Fatalf("replica-down failed to clear: %+v", a)
	}
}

// TestFleetTracesAndCacheFallback: the fleet trace list groups one trace
// id across processes, ranks retention reasons, and the exact-id lookup
// falls back to the scrape cache when the live fetch misses.
func TestFleetTracesAndCacheFallback(t *testing.T) {
	a := newFakeTarget(t, "router", 1)
	b := newFakeTarget(t, "shard_0", 1)
	tid := "0123456789abcdef0123456789abcdef"
	a.traces.Store(&tracesDoc{Traces: []*trace.TraceData{{
		TraceID: tid, Process: "recrouter", Retained: "slow",
		Root: trace.SpanData{SpanID: "aaaaaaaaaaaaaaaa", Name: "recommend", Start: 100, Duration: 50, Status: "ok"},
		Spans: []trace.SpanData{{
			SpanID: "bbbbbbbbbbbbbbbb", ParentID: "aaaaaaaaaaaaaaaa",
			Name: "shard_attempt", Start: 110, Duration: 30, Status: "ok",
		}},
	}}})
	b.traces.Store(&tracesDoc{Traces: []*trace.TraceData{{
		TraceID: tid, Process: "shard_0", Retained: "error",
		Root: trace.SpanData{
			SpanID: "cccccccccccccccc", ParentID: "bbbbbbbbbbbbbbbb",
			Name: "recommend", Start: 115, Duration: 20, Status: "error",
		},
	}}})

	c := newTestCollector(t, Config{
		Targets: []Target{a.target("router"), b.target("shard")},
	})
	c.ScrapeOnce()

	list := c.FleetTraces("", 10)
	if len(list) != 1 {
		t.Fatalf("one trace id should yield one row: %+v", list)
	}
	e := list[0]
	if e.Retained != "error" { // strongest reason across processes
		t.Fatalf("retention rank: %+v", e)
	}
	if e.SpanCount != 3 || len(e.Processes) != 2 {
		t.Fatalf("grouping: %+v", e)
	}
	if e.RootName != "recommend" || e.RootDurationNS != 50 {
		t.Fatalf("root should be the earliest-start span: %+v", e)
	}
	if got := c.FleetTraces("error", 10); len(got) != 1 {
		t.Fatalf("error filter: %+v", got)
	}
	if got := c.FleetTraces("slow", 10); len(got) != 0 {
		t.Fatalf("slow filter should exclude error-ranked traces: %+v", got)
	}

	// The fakes 404 the live exact-id fetch, so this exercises the cache
	// fallback path end to end.
	id, ok := trace.ParseTraceID(tid)
	if !ok {
		t.Fatal("bad test trace id")
	}
	st := c.LookupTrace(id)
	if st == nil {
		t.Fatal("lookup missed despite cached traces")
	}
	if st.SpanCount != 3 || len(st.Roots) != 1 || st.Orphans != 0 {
		t.Fatalf("stitched shape: %+v", st)
	}

	miss, _ := trace.ParseTraceID("ffffffffffffffffffffffffffffffff")
	if got := c.LookupTrace(miss); got != nil {
		t.Fatalf("unknown id should return nil, got %+v", got)
	}
}

// TestClosedWorldSurvivesAggregation: series whose names or label values
// fail re-validation are skipped and counted, never re-exported.
func TestClosedWorldSurvivesAggregation(t *testing.T) {
	ft := newFakeTarget(t, "shard_0", 1)
	ft.requests.Inc()
	c := newTestCollector(t, Config{Targets: []Target{ft.target("shard")}})

	// Bypass the fake's real registry: hand-craft a report carrying a
	// hostile series name, as a compromised or buggy target might.
	c.ScrapeOnce()
	c.targets[0].mu.Lock()
	c.targets[0].report.Metrics.Counters = append(c.targets[0].report.Metrics.Counters,
		telemetry.Metric{Name: `evil" } DROP`, Value: 9},
		telemetry.Metric{Name: "ok_name", LabelKey: "user", LabelValue: "alice@example.com", Value: 9},
	)
	c.targets[0].mu.Unlock()

	doc := c.FleetMetrics()
	if doc.SkippedSeries != 2 {
		t.Fatalf("skipped series: %d", doc.SkippedSeries)
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, needle := range []string{"DROP", "alice"} {
		if bstr := string(raw); containsStr(bstr, needle) {
			t.Fatalf("rejected series value %q leaked into the fleet view", needle)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestReadyzBeforeFirstRound: the collector itself is unready only until
// the first scrape round completes.
func TestReadyzBeforeFirstRound(t *testing.T) {
	ft := newFakeTarget(t, "shard_0", 1)
	c := newTestCollector(t, Config{Targets: []Target{ft.target("shard")}})
	h := httptest.NewServer(c.Handler())
	defer h.Close()

	resp, err := http.Get(h.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz before any round: %d", resp.StatusCode)
	}
	c.ScrapeOnce()
	resp, err = http.Get(h.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var body readyBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !body.Ready || body.Rounds != 1 {
		t.Fatalf("readyz after first round: %d %+v", resp.StatusCode, body)
	}
	if len(body.Targets) != 1 || body.Targets[0].Health != healthOK {
		t.Fatalf("readyz target rows: %+v", body.Targets)
	}
}

// TestFleetTraceEndpointValidation: the trace_id path parameter is
// validated and never echoed.
func TestFleetTraceEndpointValidation(t *testing.T) {
	ft := newFakeTarget(t, "shard_0", 1)
	c := newTestCollector(t, Config{Targets: []Target{ft.target("shard")}})
	c.ScrapeOnce()
	h := httptest.NewServer(c.Handler())
	defer h.Close()

	resp, err := http.Get(h.URL + "/fleet/traces/NOT-A-TRACE-ID-AT-ALL-1234567890")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	n, _ := resp.Body.Read(buf)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid id status: %d", resp.StatusCode)
	}
	if containsStr(string(buf[:n]), "NOT-A-TRACE") {
		t.Fatal("invalid trace id echoed in response")
	}

	resp, err = http.Get(h.URL + "/fleet/traces/" + "eeeeeeeeeeeeeeeeeeeeeeeeeeeeeeee")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id status: %d", resp.StatusCode)
	}

	resp, err = http.Get(h.URL + "/fleet/traces?limit=" + strconv.Itoa(0))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("limit=0 status: %d", resp.StatusCode)
	}
}

// TestPanicLogCarriesTraceID: a panic recovered behind the collector's
// edge is logged with the request's context, so the record carries the
// trace_id of the errored fleet_* trace the response's traceparent names —
// the log line and the trace join on it.
func TestPanicLogCarriesTraceID(t *testing.T) {
	var logs bytes.Buffer
	c := newTestCollector(t, Config{
		Targets: []Target{{Name: "shard_0", Role: "shard", URL: "http://127.0.0.1:1"}},
		Logger:  slog.New(slog.NewJSONHandler(&logs, nil)),
	})
	rec := httptest.NewRecorder()
	panicking := func(http.ResponseWriter, *http.Request) { panic("boom") }
	c.edge(httpedge.Route{Pattern: "GET /healthz", Endpoint: "healthz", Handler: panicking}).
		ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	tp, err := trace.ParseTraceparent(rec.Header().Get(trace.TraceparentHeader))
	if err != nil {
		t.Fatalf("response traceparent: %v", err)
	}
	var record struct {
		Msg     string `json:"msg"`
		TraceID string `json:"trace_id"`
	}
	if err := json.Unmarshal(logs.Bytes(), &record); err != nil {
		t.Fatalf("log record %q: %v", logs.String(), err)
	}
	if record.Msg != "httpedge: panic recovered" || record.TraceID != tp.TraceID.String() {
		t.Errorf("log record %+v, want the panic logged under trace %s", record, tp.TraceID)
	}
	if td := c.tracer.Lookup(tp.TraceID); td == nil || !td.Err() || td.Root.Name != "fleet_healthz" {
		t.Errorf("errored fleet_healthz trace not retained: %+v", td)
	}
}
