package mechanism

import (
	"math"
	"math/rand"
	"testing"

	"socialrec/internal/core"
	"socialrec/internal/raceflag"
	"socialrec/internal/similarity"
)

// Both released-table mechanisms fold, and a fold answers for its user.
var (
	_ core.FoldEstimator = (*Cluster)(nil)
	_ core.FoldEstimator = (*WeightedCluster)(nil)
	_ core.Fold          = (*Fold)(nil)
)

// sameList reports whether a and b hold the same items with bit-identical
// utilities, in order.
func sameList(a, b []core.Recommendation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Item != b[i].Item || math.Float64bits(a[i].Utility) != math.Float64bits(b[i].Utility) {
			return false
		}
	}
	return true
}

// TestFoldAnswersLikeVector is the fold's contract: over random releases
// and similarity vectors, a Fold holds at most |C| clusters in exact-size
// slices, and its TopN and Utilities answer bit-identically to the table
// answering from the vector, declines included.
func TestFoldAnswersLikeVector(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	simVals := [][]float64{{1}, {0.5, 1, 2}, {0.1, 0.37, 1.9, 3.3}}
	for trial := 0; trial < 40; trial++ {
		nc := 1 + rng.Intn(8)
		ni := []int{3, 40, prefixLen, 3 * prefixLen}[trial%4]
		c := randomRelease(t, nc, ni, func(int, int) float64 { return rng.NormFloat64() })
		for q := 0; q < 8; q++ {
			sim := randomSim(rng, 3*nc, 12, simVals[q%len(simVals)])
			f := c.Fold(sim).(*Fold)
			if len(f.clusters) > nc || len(f.clusters) != len(f.masses) ||
				cap(f.clusters) != len(f.clusters) || cap(f.masses) != len(f.masses) {
				t.Fatalf("fold of %d clusters: len/cap clusters %d/%d, masses %d/%d",
					nc, len(f.clusters), cap(f.clusters), len(f.masses), cap(f.masses))
			}
			want := make([]float64, ni)
			c.Utilities([]int32{0}, []similarity.Scores{sim}, [][]float64{want})
			got := make([]float64, ni)
			f.Utilities(got)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("item %d: fold utility %v, vector %v", i, got[i], want[i])
				}
			}
			for _, n := range []int{1, 10, maxExactN, maxExactN + 1, ni} {
				wl, wok := c.TopN(sim, n)
				gl, gok := f.TopN(n)
				if gok != wok || !sameList(gl, wl) {
					t.Fatalf("n=%d: fold TopN %v/%v, vector %v/%v", n, gl, gok, wl, wok)
				}
			}
		}
	}
}

// TestFoldTopNAllocatesOnlyTheList: a cached fold's exact path allocates
// the returned list and nothing else.
func TestFoldTopNAllocatesOnlyTheList(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts are only exact without the race detector")
	}
	rng := rand.New(rand.NewSource(3))
	c := randomRelease(t, 6, 2*prefixLen, func(int, int) float64 { return rng.NormFloat64() })
	f := c.Fold(similarity.Scores{Users: []int32{0, 4, 9, 13}, Vals: []float64{1, 0.5, 2, 1}})
	if _, ok := f.TopN(10); !ok {
		t.Fatal("TopN declined the query")
	}
	if got := testing.AllocsPerRun(100, func() { f.TopN(10) }); got != 1 {
		t.Errorf("Fold.TopN allocs/run = %v, want 1", got)
	}
}
