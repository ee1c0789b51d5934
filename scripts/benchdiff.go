// Command benchdiff converts `go test -bench` text output into a stable
// JSON baseline and compares two such baselines as a two-axis budget gate:
//
//   - ns/op is a ratio threshold: regression beyond -threshold percent
//     fails. Wall-clock is noisy, so a tolerance band is the honest gate.
//   - allocs/op is a hard per-benchmark ceiling: ANY growth over the
//     baseline fails, regardless of ns/op. Allocation counts are
//     deterministic (no noise to tolerate), and the zero-allocation
//     serving path regresses one alloc at a time — a percentage gate
//     would wave every one of them through.
//
// A baseline benchmark missing from the new run fails too; one new in the
// run is only listed.
//
// It exists so `make bench` can record a checked-in baseline
// (BENCH_PR7.json) and CI or a reviewer can ask "did this change make
// serving slower or allocate more?" with one command, no external tooling.
//
// Usage:
//
//	go run ./scripts -parse bench.txt -out BENCH.json
//	go run ./scripts -old BENCH_PR7.json -new /tmp/bench_new.json [-threshold 10]
//
// Parsing keeps the MINIMUM of each metric independently across `-count`
// repetitions of a benchmark: minimum is the standard noise-robust
// statistic for wall-clock microbenchmarks (noise is strictly additive),
// and taking it per metric keeps a rep that was fast but happened to
// allocate (pool cold start) from polluting the alloc floor.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's recorded performance.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

// Baseline is the file format: benchmark results keyed by
// "<package>.<BenchmarkName>".
type Baseline struct {
	Benchmarks map[string]Result `json:"benchmarks"`
}

func main() {
	var (
		parsePath = flag.String("parse", "", "go test -bench output to convert to JSON")
		outPath   = flag.String("out", "", "with -parse: where to write the JSON baseline (default stdout)")
		oldPath   = flag.String("old", "", "baseline JSON to compare against")
		newPath   = flag.String("new", "", "candidate JSON to compare")
		threshold = flag.Float64("threshold", 10, "max allowed ns/op regression, percent")
	)
	flag.Parse()

	switch {
	case *parsePath != "":
		if err := runParse(*parsePath, *outPath); err != nil {
			fatalf("%v", err)
		}
	case *oldPath != "" && *newPath != "":
		regressed, err := runDiff(*oldPath, *newPath, *threshold)
		if err != nil {
			fatalf("%v", err)
		}
		if regressed {
			os.Exit(1)
		}
	default:
		fatalf("need either -parse FILE or -old FILE -new FILE")
	}
}

func runParse(path, outPath string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	b, err := parseBench(f)
	if err != nil {
		return err
	}
	if len(b.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines found in %s", path)
	}
	enc, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if outPath == "" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(outPath, enc, 0o644)
}

// parseBench reads `go test -bench` text output. Lines look like:
//
//	pkg: socialrec/internal/server
//	BenchmarkRecommendHandler   31236   36505 ns/op   13363 B/op   176 allocs/op
func parseBench(f *os.File) (*Baseline, error) {
	b := &Baseline{Benchmarks: map[string]Result{}}
	pkg := ""
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name, iterations, then unit pairs: <value> <unit> ...
		if len(fields) < 4 {
			continue
		}
		name := fields[0]
		// Strip the -<GOMAXPROCS> suffix go test appends (Benchmark-8).
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		r := Result{}
		seen := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				r.NsPerOp = v
				seen = true
			case "B/op":
				r.BytesPerOp = v
			case "allocs/op":
				r.AllocsPerOp = v
			}
		}
		if !seen {
			continue
		}
		key := name
		if pkg != "" {
			key = pkg + "." + name
		}
		if prev, ok := b.Benchmarks[key]; ok {
			// Per-metric minimum across repetitions (see package doc).
			r.NsPerOp = min(r.NsPerOp, prev.NsPerOp)
			r.BytesPerOp = min(r.BytesPerOp, prev.BytesPerOp)
			r.AllocsPerOp = min(r.AllocsPerOp, prev.AllocsPerOp)
		}
		b.Benchmarks[key] = r
	}
	return b, sc.Err()
}

func readBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	b := &Baseline{}
	if err := json.Unmarshal(data, b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(b.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks", path)
	}
	return b, nil
}

func runDiff(oldPath, newPath string, threshold float64) (regressed bool, err error) {
	oldB, err := readBaseline(oldPath)
	if err != nil {
		return false, err
	}
	newB, err := readBaseline(newPath)
	if err != nil {
		return false, err
	}
	names := make([]string, 0, len(oldB.Benchmarks))
	for name := range oldB.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	nsFail, allocFail, goneFail := false, false, false
	fmt.Printf("%-55s %11s %11s %8s %10s %10s\n",
		"benchmark", "old ns/op", "new ns/op", "delta", "old allocs", "new allocs")
	for _, name := range names {
		o := oldB.Benchmarks[name]
		n, ok := newB.Benchmarks[name]
		if !ok {
			// A moved or renamed benchmark would otherwise drop out of the
			// gate without anyone deciding so.
			fmt.Printf("%-55s %11.0f %11s %8s  MISSING\n", name, o.NsPerOp, "-", "gone")
			goneFail = true
			continue
		}
		if o.NsPerOp <= 0 {
			continue
		}
		pct := (n.NsPerOp - o.NsPerOp) / o.NsPerOp * 100
		mark := ""
		if pct > threshold {
			mark += "  REGRESSION(ns/op)"
			nsFail = true
		}
		// Hard ceiling: allocation counts are deterministic, so any growth
		// is a real regression — no tolerance band.
		if n.AllocsPerOp > o.AllocsPerOp {
			mark += "  REGRESSION(allocs/op)"
			allocFail = true
		}
		fmt.Printf("%-55s %11.0f %11.0f %+7.1f%% %10.0f %10.0f%s\n",
			name, o.NsPerOp, n.NsPerOp, pct, o.AllocsPerOp, n.AllocsPerOp, mark)
	}
	for name := range newB.Benchmarks {
		if _, ok := oldB.Benchmarks[name]; !ok {
			fmt.Printf("%-55s %11s %11.0f %8s\n", name, "-", newB.Benchmarks[name].NsPerOp, "new")
		}
	}
	if nsFail {
		fmt.Printf("FAIL: at least one benchmark regressed more than %.0f%% ns/op\n", threshold)
	}
	if allocFail {
		fmt.Printf("FAIL: at least one benchmark grew allocs/op over its baseline ceiling\n")
	}
	if goneFail {
		fmt.Printf("FAIL: at least one baseline benchmark is missing from the new run\n")
	}
	return nsFail || allocFail || goneFail, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchdiff: "+format+"\n", args...)
	os.Exit(1)
}
