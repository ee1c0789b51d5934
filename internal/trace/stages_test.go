package trace

import (
	"context"
	"testing"

	"socialrec/internal/telemetry"
)

// stageCounts reads the given rows of the process-wide stage table.
func stageCounts(names ...string) map[string]int64 {
	out := make(map[string]int64, len(names))
	for _, s := range telemetry.Stages().Snapshot() {
		for _, n := range names {
			if s.Stage == n {
				out[n] = s.Count
			}
		}
	}
	return out
}

// TestSpanEndFeedsStageTable: every live span adds exactly one row entry
// when it ends — roots, StartChild children and StartLeaf leaves, in a
// trace the sampler discards and past MaxChildren alike.
func TestSpanEndFeedsStageTable(t *testing.T) {
	names := []string{"fold_root", "fold_child", "fold_leaf", "fold_overflow"}
	before := stageCounts(names...)
	// Head rate 0 and a 1-child cap: the trace is not retained and the
	// overflow spans are dropped from it, yet all of them still count.
	tr := New(Config{Seed: 5, HeadRateZero: true, MaxChildren: 1, Capacity: 8})
	ctx, root := tr.StartRoot(context.Background(), "fold_root")
	cctx, child := StartChild(ctx, "fold_child")
	leaf := StartLeaf(cctx, "fold_leaf")
	leaf.End()
	child.End()
	for i := 0; i < 3; i++ {
		sp := StartLeaf(ctx, "fold_overflow")
		sp.End()
	}
	if d := root.End(); d <= 0 {
		t.Fatalf("root duration %v", d)
	}
	if st := tr.Stats(); st.Kept != 0 {
		t.Fatalf("trace kept (%+v); the test needs a discarded one", st)
	}
	after := stageCounts(names...)
	want := map[string]int64{"fold_root": 1, "fold_child": 1, "fold_leaf": 1, "fold_overflow": 3}
	for _, n := range names {
		if got := after[n] - before[n]; got != want[n] {
			t.Errorf("%s: +%d rows, want +%d", n, got, want[n])
		}
	}
}

// TestInertSpansAddNoStageRows: the zero Span, an untraced StartChild or
// StartLeaf, and a second End of an already-ended span add nothing.
func TestInertSpansAddNoStageRows(t *testing.T) {
	names := []string{"inert_child", "inert_leaf", "twice_ended"}
	before := stageCounts(names...)
	var zero Span
	zero.End()
	_, child := StartChild(context.Background(), "inert_child")
	child.End()
	leaf := StartLeaf(context.Background(), "inert_leaf")
	leaf.End()
	tr := New(Config{Seed: 6, Capacity: 8})
	_, sp := tr.StartRoot(context.Background(), "twice_ended")
	sp.End()
	if d := sp.End(); d != 0 {
		t.Errorf("second End = %v, want 0", d)
	}
	after := stageCounts(names...)
	for _, n := range names {
		want := int64(0)
		if n == "twice_ended" {
			want = 1
		}
		if got := after[n] - before[n]; got != want {
			t.Errorf("%s: +%d rows, want +%d", n, got, want)
		}
	}
}
