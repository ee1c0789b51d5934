package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func writeBaseline(t *testing.T, b Baseline) string {
	t.Helper()
	data, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunDiff(t *testing.T) {
	base := map[string]Result{
		"pkg.BenchmarkA": {NsPerOp: 1000, AllocsPerOp: 10},
		"pkg.BenchmarkB": {NsPerOp: 500, AllocsPerOp: 2},
	}
	with := func(name string, r Result) map[string]Result {
		out := map[string]Result{}
		for k, v := range base {
			out[k] = v
		}
		out[name] = r
		return out
	}
	for _, tc := range []struct {
		name      string
		new       map[string]Result
		regressed bool
	}{
		{"unchanged", base, false},
		{"gone", map[string]Result{"pkg.BenchmarkA": base["pkg.BenchmarkA"]}, true},
		{"new is only listed", with("pkg.BenchmarkC", Result{NsPerOp: 1, AllocsPerOp: 1}), false},
		{"one more alloc", with("pkg.BenchmarkB", Result{NsPerOp: 400, AllocsPerOp: 3}), true},
		{"fewer allocs", with("pkg.BenchmarkB", Result{NsPerOp: 500, AllocsPerOp: 1}), false},
		{"ns per op within the threshold", with("pkg.BenchmarkA", Result{NsPerOp: 1090, AllocsPerOp: 10}), false},
		{"ns per op over the threshold", with("pkg.BenchmarkA", Result{NsPerOp: 1110, AllocsPerOp: 10}), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			regressed, err := runDiff(writeBaseline(t, Baseline{Benchmarks: base}),
				writeBaseline(t, Baseline{Benchmarks: tc.new}), 10)
			if err != nil {
				t.Fatal(err)
			}
			if regressed != tc.regressed {
				t.Errorf("regressed = %v, want %v", regressed, tc.regressed)
			}
		})
	}
}
