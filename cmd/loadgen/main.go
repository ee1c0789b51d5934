// Command loadgen drives open-loop Zipf-distributed traffic at a
// recommendation serving endpoint (a recserve shard or a recrouter) and
// reports latency quantiles and error/degraded rates. It exists both as
// an interactive capacity probe and as the assertion harness behind the
// router chaos smoke in CI (scripts/router_chaos.sh).
//
// Usage:
//
//	loadgen -url http://localhost:8080 -rps 200 -duration 30s -zipf 1.1
//
// Open-loop means arrivals are scheduled by the clock, not by completions:
// a slow or failing server faces the same offered load a real fleet
// would, so overload behavior (shedding, breaker trips, degraded batches)
// is measured instead of hidden by coordinated omission.
//
// The user population is fetched from the target's /users endpoint and
// ranks are drawn from a Zipf distribution, so a few hot users dominate —
// the access pattern consistent-hash routing and hedging must handle.
//
// Assertions for CI (any failure exits non-zero):
//
//	-max-error-rate 0.05     fail if errors/completed exceeds 5%
//	-min-rate 0.5            fail if completions/offered drops below 50%
//
// A batch response that lost rows without being labeled degraded is a
// protocol violation (silent truncation) and always fails the run.
//
// loadgen draws from a SplitMix64 stream (internal/splitmix; math/rand is
// confined to internal/dp) seeded from -seed, never the clock, so a run
// is reproducible.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"socialrec/internal/splitmix"
)

var logger = slog.New(slog.NewTextHandler(os.Stderr, nil))

// fatal logs at error level and exits. Package main owns process-exit
// policy (sociolint's fatalscope bars libraries from it).
func fatal(msg string, args ...any) {
	logger.Error(msg, args...)
	os.Exit(2)
}

func main() {
	var (
		baseURL    = flag.String("url", "http://localhost:8080", "target base URL (recrouter or recserve)")
		rps        = flag.Float64("rps", 100, "offered request rate per second (open loop)")
		duration   = flag.Duration("duration", 10*time.Second, "how long to offer load")
		zipfS      = flag.Float64("zipf", 1.1, "Zipf exponent for user popularity (higher = more skew)")
		topN       = flag.Int("n", 10, "recommendation list length requested")
		batchFrac  = flag.Float64("batch", 0, "fraction of requests sent as batches in [0, 1]")
		batchSize  = flag.Int("batch-size", 16, "users per batch request")
		seed       = flag.Int64("seed", 1, "seed for the arrival and popularity streams")
		timeout    = flag.Duration("timeout", 5*time.Second, "per-request client timeout")
		maxUsers   = flag.Int("max-users", 100000, "cap on the user population fetched from /users")
		maxOut     = flag.Int("max-outstanding", 1024, "cap on concurrently outstanding requests; arrivals beyond it are dropped and reported")
		maxErrRate = flag.Float64("max-error-rate", -1, "assert errors/completed does not exceed this; negative disables")
		minRate    = flag.Float64("min-rate", -1, "assert completions/offered does not drop below this; negative disables")
		quiet      = flag.Bool("quiet", false, "suppress the human-readable summary; JSON only")
	)
	flag.Parse()
	if *rps <= 0 || *duration <= 0 {
		fatal("loadgen: -rps and -duration must be positive")
	}
	if *batchFrac < 0 || *batchFrac > 1 {
		fatal("loadgen: -batch must be in [0, 1]")
	}

	client := &http.Client{Timeout: *timeout}
	tokens, err := fetchUsers(client, *baseURL, *maxUsers)
	if err != nil {
		fatal("loadgen: fetching user population", "url", *baseURL, "err", err)
	}
	if len(tokens) == 0 {
		fatal("loadgen: target reports no users")
	}

	zipf := newZipf(len(tokens), *zipfS)
	rng := uint64(*seed)*splitmix.Gamma + 0x6a09e667f3bcc909

	var (
		st  stats
		wg  sync.WaitGroup
		sem = make(chan struct{}, *maxOut)
	)
	interval := time.Duration(float64(time.Second) / *rps)
	if interval <= 0 {
		interval = time.Microsecond
	}
	deadline := time.Now().Add(*duration)
	ticker := time.NewTicker(interval)
	for now := time.Now(); now.Before(deadline); now = time.Now() {
		<-ticker.C
		st.offered.Add(1)
		isBatch := *batchFrac > 0 && splitmix.Float64(&rng) < *batchFrac
		select {
		case sem <- struct{}{}:
		default:
			// Open loop: the arrival happened; the client simply cannot
			// carry it. Report the drop instead of silently thinning load.
			st.dropped.Add(1)
			continue
		}
		wg.Add(1)
		if isBatch {
			users := make([]string, *batchSize)
			for i := range users {
				users[i] = tokens[zipf.sample(splitmix.Float64(&rng))]
			}
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				doBatch(client, *baseURL, users, *topN, &st)
			}()
		} else {
			user := tokens[zipf.sample(splitmix.Float64(&rng))]
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				doSingle(client, *baseURL, user, *topN, &st)
			}()
		}
	}
	ticker.Stop()
	wg.Wait()

	rep := st.report(*duration)
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal("loadgen: encoding report", "err", err)
	}
	fmt.Println(string(out))
	if !*quiet {
		logger.Info("loadgen: summary",
			"offered", rep.Offered, "completed", rep.Completed, "errors", rep.Errors,
			"error_rate", fmt.Sprintf("%.4f", rep.ErrorRate),
			"p50_ms", fmt.Sprintf("%.2f", rep.P50Ms),
			"p99_ms", fmt.Sprintf("%.2f", rep.P99Ms),
			"p999_ms", fmt.Sprintf("%.2f", rep.P999Ms),
			"degraded", rep.DegradedResponses, "dropped", rep.Dropped)
	}

	failed := false
	if rep.SilentTruncations > 0 {
		logger.Error("loadgen: ASSERTION FAILED: batch responses lost rows without degraded label",
			"count", rep.SilentTruncations)
		failed = true
	}
	if *maxErrRate >= 0 && rep.ErrorRate > *maxErrRate {
		logger.Error("loadgen: ASSERTION FAILED: error rate above bound",
			"error_rate", fmt.Sprintf("%.4f", rep.ErrorRate), "bound", fmt.Sprintf("%.4f", *maxErrRate))
		failed = true
	}
	if *minRate >= 0 && rep.CompletionRate < *minRate {
		logger.Error("loadgen: ASSERTION FAILED: completion rate below bound",
			"completion_rate", fmt.Sprintf("%.4f", rep.CompletionRate), "bound", fmt.Sprintf("%.4f", *minRate))
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

// fetchUsers pulls the user token population from the target.
func fetchUsers(client *http.Client, base string, limit int) ([]string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/users?limit=%d", base, limit), nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /users: status %d", resp.StatusCode)
	}
	var body struct {
		Users []string `json:"users"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, err
	}
	return body.Users, nil
}

// stats accumulates outcomes across request goroutines.
type stats struct {
	offered   atomic.Uint64
	dropped   atomic.Uint64
	completed atomic.Uint64
	errors    atomic.Uint64 // transport errors + 5xx + 503
	shed      atomic.Uint64 // 503s (subset of errors)
	degraded  atomic.Uint64 // batch responses labeled degraded
	truncated atomic.Uint64 // batch responses that lost rows WITHOUT the label

	mu        sync.Mutex
	latencies []time.Duration // successful requests only
}

func (st *stats) observe(d time.Duration) {
	st.mu.Lock()
	st.latencies = append(st.latencies, d)
	st.mu.Unlock()
}

// report is the JSON summary loadgen prints.
type report struct {
	Offered           uint64  `json:"offered"`
	Completed         uint64  `json:"completed"`
	Dropped           uint64  `json:"dropped"`
	Errors            uint64  `json:"errors"`
	Shed              uint64  `json:"shed_503"`
	DegradedResponses uint64  `json:"degraded_responses"`
	SilentTruncations uint64  `json:"silent_truncations"`
	ErrorRate         float64 `json:"error_rate"`
	CompletionRate    float64 `json:"completion_rate"`
	AchievedRPS       float64 `json:"achieved_rps"`
	P50Ms             float64 `json:"p50_ms"`
	P99Ms             float64 `json:"p99_ms"`
	P999Ms            float64 `json:"p999_ms"`
}

func (st *stats) report(dur time.Duration) report {
	st.mu.Lock()
	lats := append([]time.Duration(nil), st.latencies...)
	st.mu.Unlock()
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	q := func(p float64) float64 {
		if len(lats) == 0 {
			return 0
		}
		idx := int(math.Ceil(p*float64(len(lats)))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(lats) {
			idx = len(lats) - 1
		}
		return float64(lats[idx]) / float64(time.Millisecond)
	}
	rep := report{
		Offered:           st.offered.Load(),
		Completed:         st.completed.Load(),
		Dropped:           st.dropped.Load(),
		Errors:            st.errors.Load(),
		Shed:              st.shed.Load(),
		DegradedResponses: st.degraded.Load(),
		SilentTruncations: st.truncated.Load(),
		P50Ms:             q(0.50),
		P99Ms:             q(0.99),
		P999Ms:            q(0.999),
	}
	if rep.Completed > 0 {
		rep.ErrorRate = float64(rep.Errors) / float64(rep.Completed)
	}
	if rep.Offered > 0 {
		rep.CompletionRate = float64(rep.Completed-rep.Errors) / float64(rep.Offered)
	}
	if secs := dur.Seconds(); secs > 0 {
		rep.AchievedRPS = float64(rep.Completed) / secs
	}
	return rep
}

// doSingle performs one GET /recommend round trip.
func doSingle(client *http.Client, base, user string, n int, st *stats) {
	start := time.Now()
	resp, err := client.Get(fmt.Sprintf("%s/recommend?user=%s&n=%d", base, user, n))
	if err != nil {
		st.completed.Add(1)
		st.errors.Add(1)
		return
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	st.completed.Add(1)
	switch {
	case resp.StatusCode == http.StatusOK:
		st.observe(time.Since(start))
	case resp.StatusCode == http.StatusServiceUnavailable:
		st.shed.Add(1)
		st.errors.Add(1)
	case resp.StatusCode >= http.StatusInternalServerError:
		st.errors.Add(1)
	default:
		// 4xx: the generator sent something the server refused; count as
		// an error so misconfigured runs are loud.
		st.errors.Add(1)
	}
}

// doBatch performs one POST /recommend/batch round trip and checks the
// degraded-labeling contract: a response carrying fewer rows than users
// requested MUST say so.
func doBatch(client *http.Client, base string, users []string, n int, st *stats) {
	body, err := json.Marshal(map[string]any{"users": users, "n": n})
	if err != nil {
		st.completed.Add(1)
		st.errors.Add(1)
		return
	}
	start := time.Now()
	resp, err := client.Post(base+"/recommend/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		st.completed.Add(1)
		st.errors.Add(1)
		return
	}
	buf, rerr := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	_ = resp.Body.Close()
	st.completed.Add(1)
	if resp.StatusCode == http.StatusServiceUnavailable {
		st.shed.Add(1)
		st.errors.Add(1)
		return
	}
	if resp.StatusCode != http.StatusOK || rerr != nil {
		st.errors.Add(1)
		return
	}
	st.observe(time.Since(start))
	var parsed struct {
		Results  []json.RawMessage `json:"results"`
		Degraded bool              `json:"degraded"`
	}
	if err := json.Unmarshal(buf, &parsed); err != nil {
		st.errors.Add(1)
		return
	}
	if parsed.Degraded {
		st.degraded.Add(1)
	} else if len(parsed.Results) < len(users) {
		// Rows are missing and nothing says so: silent truncation.
		st.truncated.Add(1)
	}
}

// zipf samples ranks from a Zipf distribution via its precomputed CDF.
// The population is at most -max-users, so the table is small; sampling
// is a binary search over it.
type zipf struct {
	cdf []float64
}

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

// sample maps a uniform draw in [0, 1) to a rank in [0, n).
func (z *zipf) sample(u float64) int {
	return sort.SearchFloat64s(z.cdf, u)
}
