package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// StageTable aggregates finished span durations by name. It is passive:
// internal/trace's Span.End folds every live span into the process-wide
// table (Stages), whatever the span's place in its tree and whatever the
// sampler decides about its trace, so one span model feeds both the
// retained traces and this table. Folding is lock-free after a name's
// first use, so the serving path's short spans can afford it. The zero
// StageTable is empty and ready to use.
//
// Stage names follow the same rule as metric names (static [a-z][a-z0-9_]*
// strings); anything else is aggregated under "invalid_stage" rather than
// exported, upholding the no-sensitive-labels invariant.
type StageTable struct {
	stages sync.Map // string → *stageStats
}

// NewStageTable returns an empty table.
func NewStageTable() *StageTable { return &StageTable{} }

type stageStats struct {
	count    atomic.Int64
	nanos    atomic.Int64
	minNanos atomic.Int64 // math.MaxInt64 until the first observation
	maxNanos atomic.Int64
}

func (t *StageTable) stats(stage string) *stageStats {
	if s, ok := t.stages.Load(stage); ok {
		return s.(*stageStats)
	}
	if !ValidName(stage) {
		return t.stats("invalid_stage")
	}
	s := &stageStats{}
	s.minNanos.Store(math.MaxInt64)
	actual, _ := t.stages.LoadOrStore(stage, s)
	return actual.(*stageStats)
}

// Observe folds one finished span of the named stage into the table.
func (t *StageTable) Observe(stage string, d time.Duration) {
	s := t.stats(stage)
	n := d.Nanoseconds()
	s.count.Add(1)
	s.nanos.Add(n)
	for {
		old := s.minNanos.Load()
		if n >= old || s.minNanos.CompareAndSwap(old, n) {
			break
		}
	}
	for {
		old := s.maxNanos.Load()
		if n <= old || s.maxNanos.CompareAndSwap(old, n) {
			break
		}
	}
}

// StageTiming is the aggregate for one stage at snapshot time.
type StageTiming struct {
	Stage string        `json:"stage"`
	Count int64         `json:"count"`
	Total time.Duration `json:"total_ns"`
	Min   time.Duration `json:"min_ns"`
	Max   time.Duration `json:"max_ns"`
}

// Avg returns the mean span duration.
func (s StageTiming) Avg() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Total / time.Duration(s.Count)
}

// Snapshot returns the per-stage aggregates, sorted by descending total
// time (the order a profiler reader wants).
func (t *StageTable) Snapshot() []StageTiming {
	var out []StageTiming
	t.stages.Range(func(k, v any) bool {
		s := v.(*stageStats)
		count := s.count.Load()
		if count == 0 {
			return true
		}
		out = append(out, StageTiming{
			Stage: k.(string),
			Count: count,
			Total: time.Duration(s.nanos.Load()),
			Min:   time.Duration(s.minNanos.Load()),
			Max:   time.Duration(s.maxNanos.Load()),
		})
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Stage < out[j].Stage
	})
	return out
}

// Table formats the snapshot as an aligned text table for CLI output:
//
//	stage                 count      total        avg        min        max
//	laplace_release           1     1.203s     1.203s     1.203s     1.203s
//
// An empty table yields "(no stages recorded)\n".
func (t *StageTable) Table() string {
	stages := t.Snapshot()
	if len(stages) == 0 {
		return "(no stages recorded)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %8s %10s %10s %10s %10s\n", "stage", "count", "total", "avg", "min", "max")
	for _, s := range stages {
		fmt.Fprintf(&b, "%-24s %8d %10s %10s %10s %10s\n",
			s.Stage, s.Count, fmtDur(s.Total), fmtDur(s.Avg()), fmtDur(s.Min), fmtDur(s.Max))
	}
	return b.String()
}

// fmtDur renders a duration with three significant decimals in a unit the
// magnitude suggests, shorter than time.Duration's default formatting.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.3fms", float64(d.Nanoseconds())/1e6)
	case d >= time.Microsecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	default:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	}
}
