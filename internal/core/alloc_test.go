package core

import (
	"context"
	"testing"

	"socialrec/internal/raceflag"
	"socialrec/internal/similarity"
	"socialrec/internal/trace"
)

// TestRecommendContextAllocBudget pins the serving path's exact steady-state
// allocation counts, on the dense path, on the exact top-n path and on the
// exact path from cached folds. With the pooled scratch the only per-call
// allocations left are the result slices themselves: one outer slice plus
// one list per user. The traced variant additionally pays the fixed
// root-span cost (pooled spans make the three per-batch children free).
// Skipped under -race (detector shadow state allocates).
func TestRecommendContextAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts are only exact without the race detector")
	}
	const items = 32
	g := lineGraph(t, 64)
	for _, tc := range []struct {
		name string
		est  Estimator
		// sim is every user's similarity vector: a fixed source keeps the
		// measurement deterministic (the parallel ComputeAll path spawns
		// workers, which allocate). splitEstimator answers TopN for it.
		sim similarity.Scores
	}{
		{"dense", benchEstimator{items: items}, similarity.Scores{Users: []int32{1, 2}, Vals: []float64{0.5, 0.25}}},
		{"exact", splitEstimator{items: items}, similarity.Scores{Users: []int32{2, 1}, Vals: []float64{0.5, 0.25}}},
		{"fold", foldingEstimator{splitEstimator{items: items}}, similarity.Scores{Users: []int32{2, 1}, Vals: []float64{0.5, 0.25}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRecommender(g, items, similarity.CommonNeighbors{}, tc.est)
			if fe, ok := tc.est.(FoldEstimator); ok {
				f := fe.Fold(tc.sim)
				r.foldSource = func(int32) Fold { return f }
			} else {
				r.similaritySource = func(int32) similarity.Scores { return tc.sim }
			}
			users := []int32{5, 17, 29, 41}
			ctx := context.Background()

			// Warm the scratch pool to steady state.
			for i := 0; i < 4; i++ {
				if _, err := r.RecommendContext(ctx, users, 10); err != nil {
					t.Fatal(err)
				}
			}

			// 1 outer result slice + one list per user.
			want := float64(1 + len(users))
			if got := testing.AllocsPerRun(100, func() {
				if _, err := r.RecommendContext(ctx, users, 10); err != nil {
					t.Fatal(err)
				}
			}); got != want {
				t.Errorf("untraced RecommendContext allocs/run = %v, want %v", got, want)
			}

			// Traced: the same call under a root span pays only the fixed
			// root cost (1: the spanCtx carrier, which holds the Span
			// inline) — the three per-batch child spans are pooled and the
			// trace-id hex is lazy.
			tr := trace.New(trace.Config{Seed: 1, HeadRateZero: true, Capacity: 8})
			for i := 0; i < 4; i++ {
				tctx, sp := tr.StartRoot(ctx, "warm")
				if _, err := r.RecommendContext(tctx, users, 10); err != nil {
					t.Fatal(err)
				}
				sp.End()
			}
			wantTraced := want + 1
			if got := testing.AllocsPerRun(100, func() {
				tctx, sp := tr.StartRoot(ctx, "alloc_recommend")
				if _, err := r.RecommendContext(tctx, users, 10); err != nil {
					t.Fatal(err)
				}
				sp.End()
			}); got != wantTraced {
				t.Errorf("traced RecommendContext allocs/run = %v, want %v", got, wantTraced)
			}
		})
	}
}
