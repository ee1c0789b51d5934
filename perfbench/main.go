// Command perfbench is the repository's paper-scale serving and update
// benchmark. It builds the serving tier in-process the way cmd/recserve
// (-shards 3, then -shard i) and cmd/recrouter build it with their flag
// defaults, drives it with a seeded open-loop generator, checks every served
// answer against the unsharded engine for the same release, and prints every
// metric by name and unit.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload serve-lastfm --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it turns
// on its own wrappers around the router, the servers and the engines, and
// reports the per-layer metrics and the latency decomposition. The last line
// of standard output is one JSON object with the keys correct, attempted,
// failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"socialrec/internal/generator"
)

// workload is one traffic mix over one generated dataset.
type workload struct {
	name       string
	preset     func(seed int64) generator.Preset
	rate       float64 // nominal arrivals per second
	batchShare float64 // fraction of arrivals that are batch requests
	batchSize  int     // users per batch request
	update     bool    // a WAL writer and the streaming updater run beside the reads
}

// workloads lists the benchmark's traffic mixes. BENCHMARK.json records why
// each exists.
var workloads = []workload{
	{name: "serve-lastfm", preset: generator.LastFMLike, rate: 600},
	{name: "serve-flixster", preset: generator.FlixsterLike, rate: 250, batchShare: 0.1, batchSize: 16},
	{name: "update-lastfm", preset: generator.LastFMLike, rate: 300, update: true},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config is one invocation.
type config struct {
	wl      workload
	seed    int64
	seconds float64
	trace   bool
	// smoke runs the workload's code paths on the TinyTest preset at a low
	// rate with short phases; only the package's own tests set it.
	smoke bool
	// workdir holds the run's release store and WAL; it is removed at exit.
	workdir string
	// corrupt flips one bit of one served utility before verification, to
	// prove that the correctness gate trips.
	corrupt bool
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "seed for inputs, schedules and mutations")
		seconds = flag.Float64("seconds", 20, "measured seconds per run")
		traceOn = flag.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics")
		workdir = flag.String("workdir", ".bench_build", "directory for the run's release store and WAL")
	)
	flag.Parse()
	wl, ok := findWorkload(*name)
	if !ok || (*traceOn != 0 && *traceOn != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --trace 0|1 and positive --seconds\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	cfg := config{wl: wl, seed: *seed, seconds: *seconds, trace: *traceOn == 1, workdir: *workdir}
	res, err := run(context.Background(), cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// run executes one invocation and returns its result. Human-readable report
// lines go to out.
func run(ctx context.Context, cfg config, out io.Writer) (*result, error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer func() { _ = os.RemoveAll(dir) }()

	meta := hostMeta(cfg)
	metaLine, _ := json.Marshal(meta)
	_, _ = fmt.Fprintf(out, "perfbench-meta %s\n", metaLine)

	in, err := makeInputs(cfg)
	if err != nil {
		return nil, err
	}
	steal0, total0 := cpuTicks()
	var rep *report
	if cfg.trace {
		rep, err = runTraced(ctx, cfg, in, dir)
	} else {
		rep, err = runUntraced(ctx, cfg, in, dir)
	}
	if err != nil {
		return nil, err
	}
	rep.linef("host: %.1f%% of CPU time stolen by other guests during the run", stealSince(steal0, total0))
	rep.print(out)
	res := &result{
		Correct:   rep.mismatches == 0 && rep.gateErr == nil,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	}
	if rep.gateErr != nil {
		_, _ = fmt.Fprintf(out, "GATE FAILED: %v\n", rep.gateErr)
	}
	return res, nil
}

// report collects a run's metrics and checks.
type report struct {
	wl         string
	metrics    map[string]metric
	attempted  int
	failed     int
	checked    int // distinct served answers verified
	mismatches int
	torn       int // answers whose cluster field came from a neighbouring version
	gateErr    error
	lines      []string // free-form report lines (decomposition, gates)
}

func newReport(wl string) *report {
	return &report{wl: wl, metrics: map[string]metric{}}
}

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

func (r *report) linef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// gate records the first failed run-level check.
func (r *report) gate(err error) {
	if err != nil && r.gateErr == nil {
		r.gateErr = err
	}
}

// print writes the human-readable report; the result line that follows it
// is what callers parse, so these writes are best effort.
func (r *report) print(out io.Writer) {
	for _, l := range r.lines {
		_, _ = fmt.Fprintln(out, l)
	}
	_, _ = fmt.Fprintf(out, "correctness: %d distinct served answers checked, %d mismatches, %d torn across a swap\n",
		r.checked, r.mismatches, r.torn)
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		_, _ = fmt.Fprintf(out, "metric %-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
}

func gatef(format string, args ...any) error {
	return fmt.Errorf("perfbench: gate failed: "+format, args...)
}
