package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"
)

// benchmarkFile is the slice of BENCHMARK.json the tests compare against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func smokeRun(t *testing.T, wl workload, traced, corrupt bool) *result {
	t.Helper()
	cfg := config{wl: wl, seed: 3, seconds: 1, trace: traced, smoke: true, workdir: t.TempDir(), corrupt: corrupt}
	res, err := run(context.Background(), cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestBenchmarkFileMatches keeps BENCHMARK.json and the code's workload and
// metric lists in step.
func TestBenchmarkFileMatches(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, file []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, code []struct{ name, unit string }) {
		if len(file) != len(code) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(file), len(code))
		}
		for i := range file {
			if file[i].Name != code[i].name || file[i].Unit != code[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], code %s [%s]", kind, i,
					file[i].Name, file[i].Unit, code[i].name, code[i].unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
}

// TestSmoke runs every workload path end to end on the TinyTest preset, in
// both modes, and requires every named metric with its unit, a passing
// correctness gate and no failed request.
func TestSmoke(t *testing.T) {
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			wl, traced := wl, traced
			name := wl.name + map[bool]string{false: "/untraced", true: "/traced"}[traced]
			t.Run(name, func(t *testing.T) {
				res := smokeRun(t, wl, traced, false)
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Errorf("metric %s: emitted %v with unit %q, want unit %q", m.name, ok, got.Unit, m.unit)
					}
				}
			})
		}
	}
}

// TestCorruptedAnswerTripsGate flips one bit of one served utility and
// requires the correctness gate to fail the run.
func TestCorruptedAnswerTripsGate(t *testing.T) {
	for _, wl := range []workload{workloads[0], workloads[2]} {
		if res := smokeRun(t, wl, false, true); res.Correct {
			t.Errorf("%s: a corrupted served list passed the correctness gate", wl.name)
		}
	}
}

// TestUpdateDecisionsRepeat requires the updater's publish and hold counts
// to repeat exactly for a seed.
func TestUpdateDecisionsRepeat(t *testing.T) {
	counts := func() [3]float64 {
		m := smokeRun(t, workloads[2], true, false).Metrics
		return [3]float64{m["dynamic.published_full"].Value, m["dynamic.published_delta"].Value, m["dynamic.held"].Value}
	}
	a, b := counts(), counts()
	if a != b {
		t.Fatalf("decisions differ between runs of one seed: %v vs %v", a, b)
	}
	if a[0]+a[1]+a[2] == 0 {
		t.Fatal("the updater made no decisions")
	}
}

func TestUnion(t *testing.T) {
	ms := time.Millisecond
	within := span{0, 10 * ms}
	spans := []span{{1 * ms, 3 * ms}, {2 * ms, 4 * ms}, {6 * ms, 12 * ms}}
	if got := union(spans, within); got != 7*ms {
		t.Errorf("union = %v, want 7ms", got)
	}
}
