package mechanism

import (
	"context"
	"math"
	"testing"

	"socialrec/internal/community"
	"socialrec/internal/dp"
)

func TestDeltaRowsMatchesFullRelease(t *testing.T) {
	_, prefs := fixture(t)
	cl, err := community.FromAssignment([]int32{0, 0, 0, 0, 1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	// With ε = ∞ the delta rows must equal the full release's rows for the
	// selected clusters exactly.
	full, err := NewCluster(cl, prefs, dp.Inf, dp.SourceFor(dp.Inf, 1))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := DeltaRows(context.Background(), cl, prefs, []bool{false, true}, dp.Inf, dp.SourceFor(dp.Inf, 1))
	if err != nil {
		t.Fatal(err)
	}
	ni := prefs.NumItems()
	if len(rows) != ni {
		t.Fatalf("one fresh cluster should yield %d values, got %d", ni, len(rows))
	}
	avg := full.Averages()
	for i := 0; i < ni; i++ {
		if rows[i] != avg[1*ni+i] {
			t.Fatalf("fresh row differs from full release at item %d: %v vs %v", i, rows[i], avg[1*ni+i])
		}
	}

	// Both clusters fresh, finite ε, fixed seed: the delta draws the same
	// noise in the same order as the full release, so its rows are
	// NewCluster's averages bit for bit.
	eps := dp.Epsilon(0.5)
	full, err = NewCluster(cl, prefs, eps, dp.SourceFor(eps, 7))
	if err != nil {
		t.Fatal(err)
	}
	all, err := DeltaRows(context.Background(), cl, prefs, []bool{true, true}, eps, dp.SourceFor(eps, 7))
	if err != nil {
		t.Fatal(err)
	}
	avg = full.Averages()
	if len(all) != len(avg) {
		t.Fatalf("all-fresh delta has %d values, full release %d", len(all), len(avg))
	}
	for i := range avg {
		if math.Float64bits(all[i]) != math.Float64bits(avg[i]) {
			t.Fatalf("all-fresh delta differs from the full release at %d: %v vs %v", i, all[i], avg[i])
		}
	}
}

func TestDeltaRowsValidation(t *testing.T) {
	_, prefs := fixture(t)
	cl, err := community.FromAssignment([]int32{0, 0, 0, 0, 1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DeltaRows(context.Background(), cl, prefs, []bool{true}, dp.Inf, dp.SourceFor(dp.Inf, 1)); err == nil {
		t.Fatal("short fresh mask accepted")
	}
	if _, err := DeltaRows(context.Background(), cl, prefs, []bool{true, true}, dp.Epsilon(-1), dp.SourceFor(dp.Inf, 1)); err == nil {
		t.Fatal("negative epsilon accepted")
	}
	small, err := community.FromAssignment([]int32{0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DeltaRows(context.Background(), small, prefs, []bool{true, true}, dp.Inf, dp.SourceFor(dp.Inf, 1)); err == nil {
		t.Fatal("user-count mismatch accepted")
	}
	// No fresh clusters is a valid no-op.
	rows, err := DeltaRows(context.Background(), cl, prefs, []bool{false, false}, dp.Epsilon(0.5), dp.SourceFor(dp.Epsilon(0.5), 1))
	if err != nil || len(rows) != 0 {
		t.Fatalf("empty fresh mask: rows=%d err=%v", len(rows), err)
	}
}
