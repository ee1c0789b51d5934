package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTracerAggregates(t *testing.T) {
	tab := NewStageTable()
	for _, d := range []time.Duration{3 * time.Millisecond, time.Millisecond, 2 * time.Millisecond} {
		tab.Observe("louvain", d)
	}
	tab.Observe("merge_small", time.Millisecond)
	snap := tab.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("stages = %d, want 2", len(snap))
	}
	var louvain *StageTiming
	for i := range snap {
		if snap[i].Stage == "louvain" {
			louvain = &snap[i]
		}
	}
	if louvain == nil {
		t.Fatal("louvain stage missing from snapshot")
	}
	want := StageTiming{Stage: "louvain", Count: 3, Total: 6 * time.Millisecond,
		Min: time.Millisecond, Max: 3 * time.Millisecond}
	if *louvain != want {
		t.Errorf("louvain = %+v, want %+v", *louvain, want)
	}
	if avg := louvain.Avg(); avg != 2*time.Millisecond {
		t.Errorf("avg = %v, want 2ms", avg)
	}
}

func TestTracerSortsByTotalDescending(t *testing.T) {
	tab := NewStageTable()
	tab.Observe("fast", time.Microsecond)
	tab.Observe("slow", 5*time.Millisecond)
	snap := tab.Snapshot()
	if snap[0].Stage != "slow" {
		t.Errorf("snapshot order = %v, want slow first", []string{snap[0].Stage, snap[1].Stage})
	}
}

// TestTracerRejectsDynamicStageNames: stage names outside the static-
// identifier shape are folded into "invalid_stage" instead of being
// exported — a request-derived string cannot become a stage.
func TestTracerRejectsDynamicStageNames(t *testing.T) {
	tab := NewStageTable()
	tab.Observe("user 42's request", time.Millisecond)
	tab.Observe("Another-Bad-Name", time.Millisecond)
	snap := tab.Snapshot()
	if len(snap) != 1 || snap[0].Stage != "invalid_stage" {
		t.Fatalf("snapshot = %+v, want a single invalid_stage entry", snap)
	}
	if snap[0].Count != 2 {
		t.Errorf("invalid_stage count = %d, want 2", snap[0].Count)
	}
}

// TestZeroSpanIsInert: the zero StageTable holds no rows until a span is
// observed, and is usable as is. (Inert trace spans adding nothing on End
// is internal/trace's TestInertSpansAddNoStageRows.)
func TestZeroSpanIsInert(t *testing.T) {
	var tab StageTable
	if snap := tab.Snapshot(); len(snap) != 0 {
		t.Errorf("zero table snapshot = %+v, want empty", snap)
	}
	if got := tab.Table(); !strings.Contains(got, "no stages") {
		t.Errorf("zero table = %q", got)
	}
	tab.Observe("top_n", time.Microsecond)
	if snap := tab.Snapshot(); len(snap) != 1 || snap[0].Count != 1 {
		t.Errorf("after one Observe: %+v", snap)
	}
}

func TestTracerTable(t *testing.T) {
	tab := NewStageTable()
	if got := tab.Table(); !strings.Contains(got, "no stages") {
		t.Errorf("empty table = %q", got)
	}
	tab.Observe("laplace_release", 1203*time.Millisecond)
	table := tab.Table()
	for _, want := range []string{"stage", "count", "total", "laplace_release", "1.203s"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
}

func TestTracerConcurrent(t *testing.T) {
	tab := NewStageTable()
	var wg sync.WaitGroup
	const workers, rounds = 8, 400
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				tab.Observe("similarity_batch", time.Duration(i+1))
				if i%97 == 0 {
					tab.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	snap := tab.Snapshot()
	if len(snap) != 1 || snap[0].Count != workers*rounds {
		t.Fatalf("snapshot = %+v, want one stage with %d spans", snap, workers*rounds)
	}
	if s := snap[0]; s.Min != 1 || s.Max != rounds || s.Total != workers*rounds*(rounds+1)/2 {
		t.Errorf("min/max/total = %v/%v/%v under concurrent folds", s.Min, s.Max, s.Total)
	}
}
