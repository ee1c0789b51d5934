// Package obsagg is the fleet observability aggregator behind cmd/socmon:
// a stdlib-only collector that periodically scrapes the per-process
// observability surfaces every serving binary already exposes — /metrics
// (JSON), /debug/traces and /readyz — from a configured set of router,
// shard and updater endpoints, and serves one unified fleet view:
//
//	GET /fleet/metrics             merged counters/gauges/histograms with
//	                               fleet p50/p99/p999 and per-target health
//	GET /fleet/traces              tail-sampled fleet slow/error trace list
//	GET /fleet/traces/{trace_id}   one trace stitched across processes
//	GET /fleet/budget              ε burn-down: Σε per mechanism and shard
//	                               generation, burn rate, exhaustion horizon
//	GET /fleet/alerts              rule engine state (hysteresis)
//
// # Aggregation discipline
//
// The merge is exact where exactness is possible: counters sum, and the
// fixed-bucket latency histograms share one layout by construction, so
// their cumulative bucket counts add and fleet quantiles recomputed from
// the merged buckets are exactly the quantiles of the concatenated
// observation stream (see internal/telemetry's merge primitives and their
// property test). Where layouts disagree the series is skipped and
// counted, never merged approximately.
//
// The closed-world label rule survives aggregation. Replica identity is a
// declared label: target names are validated as static identifiers at
// construction and are the only per-replica strings the fleet view emits.
// Every metric name and label value arriving over the wire is re-validated
// with telemetry.ValidName before re-export — a scraped document claims
// its names were validated at the source, but the collector does not
// trust the claim — and rejected series are counted, never echoed.
//
// # Partial failure
//
// Scrapes run concurrently with a per-target deadline. A target that
// stops answering degrades the fleet view instead of erroring it: its
// last-good data keeps contributing, labeled "stale" (or "missing" if it
// never answered), and the failed-scrape streak feeds the replica-down
// alert rule. No fleet endpoint ever turns into an error page because a
// replica died — that is precisely the moment an operator needs it.
package obsagg

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"socialrec/internal/telemetry"
	"socialrec/internal/trace"
)

// Target health states, the explicit degradation labels of the fleet view.
const (
	healthOK      = "ok"      // last scrape succeeded
	healthStale   = "stale"   // scraped before, currently failing
	healthMissing = "missing" // never scraped successfully
)

// Roles a target may declare. The closed set keeps role a safe label.
var validRoles = map[string]bool{"router": true, "shard": true, "updater": true}

// Target is one scraped process.
type Target struct {
	// Name is the target's identity in the fleet view — a static
	// identifier ("router", "shard_0"), validated at New; it becomes a
	// declared label value on the collector's own metrics.
	Name string
	// Role is "router", "shard" or "updater".
	Role string
	// URL is the target's base URL ("http://10.0.0.1:8080"), no trailing
	// slash required.
	URL string
}

// RuleConfig tunes the alert rules; see alerts.go. Zero thresholds
// disable the corresponding rule.
type RuleConfig struct {
	// ReplicaDownAfter is how many consecutive failed scrapes mark a
	// target down. 0 selects 2.
	ReplicaDownAfter int
	// FleetP99Ms fires when the windowed fleet p99 request latency
	// exceeds this many milliseconds. 0 disables.
	FleetP99Ms float64
	// FleetErrorRate fires when the windowed fleet error-response
	// fraction exceeds this value in (0, 1]. 0 disables.
	FleetErrorRate float64
	// BudgetBurnPerHour fires when the fleet spends finite ε faster than
	// this per hour over the sliding window. 0 disables.
	BudgetBurnPerHour float64
	// FireAfter is how many consecutive breached evaluations promote a
	// rule to firing; ClearAfter how many clean ones clear it
	// (hysteresis). 0 selects 1 and 2 respectively.
	FireAfter  int
	ClearAfter int
}

// Config assembles a Collector.
type Config struct {
	// Targets lists the processes to scrape. Required, names must be
	// unique static identifiers.
	Targets []Target
	// ScrapeInterval is Run's scrape period; 0 selects 2 s.
	ScrapeInterval time.Duration
	// ScrapeTimeout is the per-target deadline for one scrape (all three
	// endpoints together); 0 selects 1 s.
	ScrapeTimeout time.Duration
	// TraceLimit caps retained traces fetched per target per scrape; 0
	// selects 100.
	TraceLimit int
	// Window is the sliding window for burn rates (error rate, fleet
	// p99, ε burn); 0 selects 5 m.
	Window time.Duration
	// EpsilonBudget, when > 0, is the fleet's total finite-ε budget; the
	// burn-down forecasts when the current burn rate exhausts it.
	EpsilonBudget float64
	// Rules tunes alerting.
	Rules RuleConfig
	// Logger receives scrape failures and recovered panics; nil selects a
	// text logger. Whatever handler is supplied is wrapped with
	// trace.NewSlogHandler, so a record logged with a request context
	// carries trace_id and span_id.
	Logger *slog.Logger
	// Metrics is the collector's own registry (socmon's /metrics); nil
	// selects telemetry.Default().
	Metrics *telemetry.Registry
	// Tracer retains the collector's own request traces; nil selects
	// trace.Default().
	Tracer *trace.Tracer
	// Client performs the scrapes; nil selects a keep-alive client (the
	// per-target context carries the deadline).
	Client *http.Client
	// Now is the clock, injectable for alert-hysteresis tests; nil
	// selects time.Now.
	Now func() time.Time
}

// maxScrapeBody caps how much of any scraped response the collector
// buffers; a bigger body is a protocol failure, not a merge input.
const maxScrapeBody = 16 << 20

// readyDoc is the slice of a target's /readyz body the collector uses:
// the release generation (shards report release_version, the router
// manifest_version) and the degraded flag. All fields are store metadata.
type readyDoc struct {
	Ready           bool   `json:"ready"`
	ReleaseVersion  uint64 `json:"release_version"`
	ManifestVersion uint64 `json:"manifest_version"`
	Degraded        bool   `json:"degraded"`
}

// generation is the target's release generation under either name.
func (r readyDoc) generation() uint64 {
	if r.ReleaseVersion != 0 {
		return r.ReleaseVersion
	}
	return r.ManifestVersion
}

// targetState is one target's scrape state. The mutex guards everything
// below it; the counters are lock-free telemetry instruments.
type targetState struct {
	target   Target
	scrapes  *telemetry.Counter
	failures *telemetry.Counter

	mu         sync.Mutex
	report     *telemetry.Report  // last successfully parsed /metrics
	traces     []*trace.TraceData // last successfully parsed /debug/traces
	ready      readyDoc
	hasReady   bool
	lastOK     time.Time
	consecFail int
	everOK     bool
}

// health reports the target's degradation label. Callers hold ts.mu.
func (ts *targetState) healthLocked() string {
	switch {
	case !ts.everOK:
		return healthMissing
	case ts.consecFail > 0:
		return healthStale
	default:
		return healthOK
	}
}

// Collector scrapes the fleet and serves the unified view.
type Collector struct {
	cfg      Config
	logger   *slog.Logger
	client   *http.Client
	tracer   *trace.Tracer
	now      func() time.Time
	targets  []*targetState
	self     *selfMetrics
	registry *telemetry.Registry
	alerts   *alertEngine

	mu      sync.Mutex
	samples []fleetSample // sliding-window ring, oldest first
	rounds  uint64        // completed scrape rounds
}

// fleetSample is one scrape round's fleet aggregate, the unit the
// sliding-window burn rates are computed over. Requests/errors/epsilon
// are cumulative fleet totals; latency is the merged request-latency
// histogram (cumulative too), so a windowed view is newest minus oldest.
type fleetSample struct {
	at       time.Time
	requests uint64
	errors   uint64
	epsilon  float64
	latency  telemetry.HistogramSnapshot
	latOK    bool
}

// New builds a Collector. Target names are validated here — they become
// declared label values on the collector's registry, so a dynamic or
// duplicate name is a construction error, not a runtime surprise.
func New(cfg Config) (*Collector, error) {
	if len(cfg.Targets) == 0 {
		return nil, fmt.Errorf("obsagg: no targets configured")
	}
	seen := map[string]bool{}
	for _, t := range cfg.Targets {
		if !telemetry.ValidName(t.Name) {
			return nil, fmt.Errorf("obsagg: target names must be static identifiers ([a-z][a-z0-9_]*)")
		}
		if seen[t.Name] {
			return nil, fmt.Errorf("obsagg: duplicate target name %q", t.Name)
		}
		seen[t.Name] = true
		if !validRoles[t.Role] {
			return nil, fmt.Errorf("obsagg: target %q role must be one of router, shard, updater", t.Name)
		}
		if t.URL == "" {
			return nil, fmt.Errorf("obsagg: target %q has no URL", t.Name)
		}
	}
	if cfg.ScrapeInterval <= 0 {
		cfg.ScrapeInterval = 2 * time.Second
	}
	if cfg.ScrapeTimeout <= 0 {
		cfg.ScrapeTimeout = time.Second
	}
	if cfg.TraceLimit <= 0 {
		cfg.TraceLimit = 100
	}
	if cfg.Window <= 0 {
		cfg.Window = 5 * time.Minute
	}
	c := &Collector{
		cfg:    cfg,
		logger: cfg.Logger,
		client: cfg.Client,
		tracer: cfg.Tracer,
		now:    cfg.Now,
	}
	if c.logger == nil {
		c.logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	c.logger = slog.New(trace.NewSlogHandler(c.logger.Handler()))
	if c.client == nil {
		c.client = &http.Client{}
	}
	if c.tracer == nil {
		c.tracer = trace.Default()
	}
	if c.now == nil {
		c.now = time.Now
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.Default()
	}
	c.registry = reg
	names := make([]string, len(cfg.Targets))
	for i, t := range cfg.Targets {
		names[i] = t.Name
	}
	c.self = newSelfMetrics(reg, names, c)
	for _, t := range cfg.Targets {
		c.targets = append(c.targets, &targetState{
			target:   t,
			scrapes:  c.self.scrapes.MustWith(t.Name),
			failures: c.self.failures.MustWith(t.Name),
		})
	}
	c.alerts = newAlertEngine(reg, cfg.Rules, cfg.Targets)
	return c, nil
}

// Run scrapes on the configured interval until ctx is done. The first
// round runs immediately so the fleet view is populated at startup.
func (c *Collector) Run(ctx context.Context) {
	c.ScrapeOnce()
	tick := time.NewTicker(c.cfg.ScrapeInterval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			c.ScrapeOnce()
		}
	}
}

// ScrapeOnce scrapes every target concurrently (each under its own
// deadline), then re-evaluates the sliding window and the alert rules.
// Exported so tests and drills can drive rounds deterministically.
func (c *Collector) ScrapeOnce() {
	var wg sync.WaitGroup
	for _, ts := range c.targets {
		wg.Add(1)
		go func(ts *targetState) {
			defer wg.Done()
			c.scrapeTarget(ts)
		}(ts)
	}
	wg.Wait()
	c.evaluate()
}

// scrapeTarget fetches one target's three surfaces. The scrape succeeds
// iff /metrics parses — that is the document the merge needs; traces and
// readyz are best-effort extras that keep their last-good value on
// partial failure.
func (c *Collector) scrapeTarget(ts *targetState) {
	ts.scrapes.Inc()
	start := c.now()
	rep, err := c.fetchReport(ts.target.URL)
	c.self.scrapeSeconds.Observe(c.now().Sub(start).Seconds())
	if err != nil {
		ts.failures.Inc()
		ts.mu.Lock()
		ts.consecFail++
		n := ts.consecFail
		ts.mu.Unlock()
		if n == 1 { // log the edge, not every repeat
			c.logger.Warn("obsagg: scrape failed", "target", ts.target.Name, "err", err)
		}
		return
	}
	traces, terr := c.fetchTraces(ts.target.URL)
	ready, rerr := c.fetchReady(ts.target.URL)

	ts.mu.Lock()
	ts.report = rep
	if terr == nil {
		ts.traces = traces
	}
	if rerr == nil {
		ts.ready = ready
		ts.hasReady = true
	}
	wasDown := ts.consecFail > 0 || !ts.everOK
	ts.consecFail = 0
	ts.everOK = true
	ts.lastOK = c.now()
	ts.mu.Unlock()
	if wasDown {
		c.logger.Info("obsagg: target scraped", "target", ts.target.Name)
	}
}

// get performs one deadline-bounded GET and decodes the JSON body into v.
func (c *Collector) get(url string, v any, acceptStatus func(int) bool) error {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "application/json")
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ScrapeTimeout)
	defer cancel()
	resp, err := c.client.Do(req.WithContext(ctx))
	if err != nil {
		return err
	}
	defer func() { _, _ = io.Copy(io.Discard, resp.Body); _ = resp.Body.Close() }()
	if !acceptStatus(resp.StatusCode) {
		return fmt.Errorf("obsagg: scrape status %d", resp.StatusCode)
	}
	return json.NewDecoder(io.LimitReader(resp.Body, maxScrapeBody)).Decode(v)
}

func (c *Collector) fetchReport(base string) (*telemetry.Report, error) {
	var rep telemetry.Report
	err := c.get(base+"/metrics", &rep, func(s int) bool { return s == http.StatusOK })
	if err != nil {
		return nil, err
	}
	return &rep, nil
}

// tracesDoc mirrors the /debug/traces response shape.
type tracesDoc struct {
	Traces []*trace.TraceData `json:"traces"`
}

func (c *Collector) fetchTraces(base string) ([]*trace.TraceData, error) {
	var doc tracesDoc
	url := fmt.Sprintf("%s/debug/traces?limit=%d", base, c.cfg.TraceLimit)
	if err := c.get(url, &doc, func(s int) bool { return s == http.StatusOK }); err != nil {
		return nil, err
	}
	return doc.Traces, nil
}

// fetchReady accepts 503 as well as 200: a degraded replica answers 503
// with the same JSON body, and degraded is exactly what the fleet view
// needs to see.
func (c *Collector) fetchReady(base string) (readyDoc, error) {
	var doc readyDoc
	err := c.get(base+"/readyz", &doc, func(s int) bool {
		return s == http.StatusOK || s == http.StatusServiceUnavailable
	})
	return doc, err
}

// evaluate appends this round's fleet sample to the sliding window and
// runs the alert rules against the windowed numbers.
func (c *Collector) evaluate() {
	now := c.now()
	s := fleetSample{at: now}
	merged := c.mergeAll()
	for _, fc := range merged.Counters {
		switch fc.Name {
		case "http_requests_total":
			s.requests += fc.Value
		case "http_errors_total":
			s.errors += fc.Value
		}
	}
	s.epsilon = merged.budget.TotalEpsilon
	if lat, ok := merged.requestLatency(); ok {
		s.latency, s.latOK = lat, true
	}

	c.mu.Lock()
	c.samples = append(c.samples, s)
	// Prune to the window, always keeping at least two samples so a rate
	// is computable even when the window is shorter than one interval.
	cut := 0
	for cut < len(c.samples)-2 && now.Sub(c.samples[cut].at) > c.cfg.Window {
		cut++
	}
	c.samples = c.samples[cut:]
	win := c.windowLocked()
	c.rounds++
	c.mu.Unlock()

	c.alerts.evaluate(now, c.targetStatuses(), win, c.cfg.Rules)
}

// windowStats are the sliding-window fleet numbers the alert rules and
// the budget burn-down consume.
type windowStats struct {
	elapsed   time.Duration
	requests  uint64  // request delta over the window
	errorRate float64 // errors/requests over the window
	p99       float64 // seconds, from the windowed latency histogram
	p99OK     bool
	burnRate  float64 // finite ε per hour
}

// windowLocked computes the windowed stats. Callers hold c.mu.
func (c *Collector) windowLocked() windowStats {
	var w windowStats
	if len(c.samples) < 2 {
		return w
	}
	oldest, newest := c.samples[0], c.samples[len(c.samples)-1]
	w.elapsed = newest.at.Sub(oldest.at)
	if w.elapsed <= 0 {
		return w
	}
	w.requests = counterDelta(newest.requests, oldest.requests)
	errs := counterDelta(newest.errors, oldest.errors)
	if w.requests > 0 {
		w.errorRate = float64(errs) / float64(w.requests)
	}
	if newest.latOK {
		if diff, ok := windowedHistogram(newest, oldest); ok {
			w.p99 = diff.Quantile(0.99)
			w.p99OK = diff.Count > 0
		}
	}
	if deps := newest.epsilon - oldest.epsilon; deps > 0 {
		w.burnRate = deps / w.elapsed.Hours()
	}
	return w
}

// counterDelta subtracts cumulative counters across the window; a
// decrease means a process restarted mid-window, in which case the
// newest value alone is the honest lower bound on the window's activity.
func counterDelta(newV, oldV uint64) uint64 {
	if newV < oldV {
		return newV
	}
	return newV - oldV
}

// windowedHistogram is newest-minus-oldest over the cumulative merged
// latency histograms, yielding the distribution of just the window's
// observations. A restart mid-window (any count decreasing) falls back
// to the newest snapshot alone.
func windowedHistogram(newest, oldest fleetSample) (telemetry.HistogramSnapshot, bool) {
	if !oldest.latOK || !telemetry.SameBuckets(newest.latency, oldest.latency) ||
		newest.latency.Count < oldest.latency.Count {
		return newest.latency, newest.latOK
	}
	diff := telemetry.HistogramSnapshot{
		Name:    newest.latency.Name,
		Count:   newest.latency.Count - oldest.latency.Count,
		Sum:     newest.latency.Sum - oldest.latency.Sum,
		Buckets: make([]telemetry.Bucket, len(newest.latency.Buckets)),
	}
	for i, b := range newest.latency.Buckets {
		if b.Count < oldest.latency.Buckets[i].Count {
			return newest.latency, true
		}
		diff.Buckets[i] = telemetry.Bucket{Le: b.Le, Count: b.Count - oldest.latency.Buckets[i].Count}
	}
	return diff, true
}

// TargetStatus is one target's row in every fleet document: identity,
// role and the explicit degradation label.
type TargetStatus struct {
	Target string `json:"target"`
	Role   string `json:"role"`
	Health string `json:"health"` // ok | stale | missing
	// AgeMS is how old the target's contributing data is (0 when fresh
	// or missing).
	AgeMS int64 `json:"age_ms,omitempty"`
	// ConsecutiveFailures counts scrape failures since the last success.
	ConsecutiveFailures int `json:"consecutive_failures,omitempty"`
	// Generation is the release generation the target reported on
	// /readyz (release_version for shards, manifest_version for the
	// router); 0 until a readyz scrape succeeds.
	Generation uint64 `json:"generation,omitempty"`
	// Degraded mirrors the target's own /readyz degraded flag.
	Degraded bool `json:"degraded,omitempty"`
}

// targetStatuses snapshots every target's health row.
func (c *Collector) targetStatuses() []TargetStatus {
	now := c.now()
	out := make([]TargetStatus, 0, len(c.targets))
	for _, ts := range c.targets {
		ts.mu.Lock()
		st := TargetStatus{
			Target:              ts.target.Name,
			Role:                ts.target.Role,
			Health:              ts.healthLocked(),
			ConsecutiveFailures: ts.consecFail,
		}
		if st.Health == healthStale {
			st.AgeMS = now.Sub(ts.lastOK).Milliseconds()
		}
		if ts.hasReady {
			st.Generation = ts.ready.generation()
			st.Degraded = ts.ready.Degraded
		}
		ts.mu.Unlock()
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Target < out[j].Target })
	return out
}

// Rounds reports completed scrape rounds (readiness: the fleet view is
// meaningful after the first).
func (c *Collector) Rounds() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rounds
}
