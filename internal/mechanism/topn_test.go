package mechanism

import (
	"math"
	"math/rand"
	"testing"

	"socialrec/internal/community"
	"socialrec/internal/core"
	"socialrec/internal/raceflag"
	"socialrec/internal/similarity"
)

// Both released-table mechanisms carry the exact top-n capability.
var (
	_ core.TopNEstimator = (*Cluster)(nil)
	_ core.TopNEstimator = (*WeightedCluster)(nil)
)

// denseTopN is the reference TopN must reproduce: Utilities into a zeroed
// row, then core.TopN with no floor.
func denseTopN(c *Cluster, sim similarity.Scores, n int) []core.Recommendation {
	row := make([]float64, c.numItems)
	c.Utilities([]int32{0}, []similarity.Scores{sim}, [][]float64{row})
	return core.TopN(row, n, math.Inf(-1))
}

// checkTopN asks c.TopN and, when it answers, requires the dense list
// bit for bit. It reports whether TopN answered.
func checkTopN(t *testing.T, c *Cluster, sim similarity.Scores, n int) bool {
	t.Helper()
	list, ok := c.TopN(sim, n)
	if !ok {
		return false
	}
	got, want := core.TopHeap(list).Sort(), denseTopN(c, sim, n)
	if len(got) != len(want) {
		t.Fatalf("n=%d sim=%v: TopN returned %d items, dense %d", n, sim, len(got), len(want))
	}
	for i := range got {
		if got[i].Item != want[i].Item || math.Float64bits(got[i].Utility) != math.Float64bits(want[i].Utility) {
			t.Fatalf("n=%d sim=%v rank %d: TopN %v, dense %v", n, sim, i, got[i], want[i])
		}
	}
	return true
}

// randomRelease builds a release over nc clusters of 3 users each and ni
// items, filling each average with draw(cluster, item).
func randomRelease(t testing.TB, nc, ni int, draw func(c, i int) float64) *Cluster {
	t.Helper()
	assign := make([]int32, 3*nc)
	for u := range assign {
		assign[u] = int32(u % nc)
	}
	clusters, err := community.FromAssignment(assign)
	if err != nil {
		t.Fatal(err)
	}
	avg := make([]float64, nc*ni)
	for c := 0; c < nc; c++ {
		for i := 0; i < ni; i++ {
			avg[c*ni+i] = draw(c, i)
		}
	}
	c, err := NewClusterFromRelease(clusters, ni, avg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// randomSim draws a similarity vector over up to k of the release's users
// with positive values from vals (a repeated user adds to its cluster's
// mass, as a real vector's members of one cluster do).
func randomSim(rng *rand.Rand, users, k int, vals []float64) similarity.Scores {
	var s similarity.Scores
	for j := rng.Intn(k + 1); j > 0; j-- {
		s.Users = append(s.Users, int32(rng.Intn(users)))
		s.Vals = append(s.Vals, vals[rng.Intn(len(vals))])
	}
	return s
}

// TestClusterTopNMatchesDense is the exactness contract of the threshold
// scan: over random releases, whenever TopN answers, its list is the dense
// Utilities + core.TopN list bit for bit, and it answers most queries the
// serving path sends it.
func TestClusterTopNMatchesDense(t *testing.T) {
	negZero := math.Copysign(0, -1)
	few := []float64{-1, -0.25, negZero, 0, 0.25, 1}
	draws := map[string]func(rng *rand.Rand) func(c, i int) float64{
		"gaussian": func(rng *rand.Rand) func(int, int) float64 {
			return func(int, int) float64 { return rng.NormFloat64() }
		},
		"few-values": func(rng *rand.Rand) func(int, int) float64 {
			return func(int, int) float64 { return few[rng.Intn(len(few))] }
		},
		"sparse": func(rng *rand.Rand) func(int, int) float64 {
			return func(int, int) float64 {
				if rng.Intn(10) == 0 {
					return float64(1+rng.Intn(3)) / 3
				}
				return 0
			}
		},
	}
	simVals := [][]float64{{1}, {0.5, 1, 2}, {0.1, 0.37, 1.9, 3.3}}
	for name, draw := range draws {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(name))))
			answered, asked := 0, 0
			for trial := 0; trial < 40; trial++ {
				nc := 1 + rng.Intn(8)
				ni := []int{3, 40, prefixLen, 3 * prefixLen}[trial%4]
				c := randomRelease(t, nc, ni, draw(rng))
				for q := 0; q < 8; q++ {
					sim := randomSim(rng, 3*nc, 6, simVals[q%len(simVals)])
					for _, n := range []int{1, 2, 10, maxExactN, maxExactN + 1, ni - 1, ni, ni + 1} {
						if n < 1 {
							continue
						}
						ok := checkTopN(t, c, sim, n)
						if ok && (n > maxExactN || n >= ni) {
							t.Fatalf("n=%d over %d items: TopN answered outside its range", n, ni)
						}
						if n <= 10 && n < ni {
							asked++
							if ok {
								answered++
							}
						}
					}
				}
			}
			// Ties and sparse rows legitimately exhaust prefixes, but the
			// scan must still settle the bulk of small-n queries.
			if answered*2 < asked {
				t.Errorf("TopN answered %d of %d queries with n ≤ 10", answered, asked)
			}
		})
	}

	t.Run("all-equal-rows", func(t *testing.T) {
		// Every item ties with the threshold, so the strict stop test never
		// passes: a short row is settled by reading all of it, a long one
		// exhausts its prefix and falls back.
		for _, ni := range []int{prefixLen, prefixLen + 1} {
			c := randomRelease(t, 3, ni, func(c, _ int) float64 { return float64(c) - 1 })
			sim := similarity.Scores{Users: []int32{0, 1, 5}, Vals: []float64{1, 2, 0.5}}
			if ok := checkTopN(t, c, sim, 10); ok != (ni <= prefixLen) {
				t.Errorf("%d items: TopN ok = %v", ni, ok)
			}
		}
	})

	t.Run("empty-similarity", func(t *testing.T) {
		c := randomRelease(t, 2, 3*prefixLen, func(int, int) float64 { return -1 })
		for _, n := range []int{1, 10, maxExactN} {
			if !checkTopN(t, c, similarity.Scores{}, n) {
				t.Errorf("n=%d: TopN declined an empty similarity set", n)
			}
		}
	})

	t.Run("non-finite-row", func(t *testing.T) {
		c := randomRelease(t, 2, 40, func(c, i int) float64 {
			if c == 1 && i == 7 {
				return math.NaN()
			}
			return float64(i % 5)
		})
		if !checkTopN(t, c, similarity.Scores{Users: []int32{0}, Vals: []float64{1}}, 3) {
			t.Error("TopN declined a query that touches only finite rows")
		}
		if _, ok := c.TopN(similarity.Scores{Users: []int32{1}, Vals: []float64{1}}, 3); ok {
			t.Error("TopN answered over a row holding NaN")
		}
	})
}

// TestClusterTopNAllocatesOnlyTheList pins the exact path's steady state:
// the pooled scan scratch and the built prefixes leave the returned list
// as the only allocation.
func TestClusterTopNAllocatesOnlyTheList(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts are only exact without the race detector")
	}
	rng := rand.New(rand.NewSource(3))
	c := randomRelease(t, 6, 2*prefixLen, func(int, int) float64 { return rng.NormFloat64() })
	sim := similarity.Scores{Users: []int32{0, 4, 9, 13}, Vals: []float64{1, 0.5, 2, 1}}
	if _, ok := c.TopN(sim, 10); !ok {
		t.Fatal("TopN declined the query")
	}
	if got := testing.AllocsPerRun(100, func() { c.TopN(sim, 10) }); got != 1 {
		t.Errorf("TopN allocs/run = %v, want 1", got)
	}
}

// FuzzClusterTopN runs the exactness contract on fuzzer-chosen releases
// and similarity vectors, non-finite averages and non-positive similarity
// values included: whatever TopN answers must equal the dense list.
func FuzzClusterTopN(f *testing.F) {
	f.Add(uint16(300), uint8(3), uint8(10), []byte{0, 1, 2, 3, 250, 9, 17, 40}, []byte{0, 9, 4, 3, 7, 16})
	f.Add(uint16(20), uint8(1), uint8(5), []byte{8, 8, 8, 8}, []byte{})
	f.Add(uint16(600), uint8(5), uint8(64), []byte{7, 6, 5, 4, 3, 2, 1}, []byte{1, 1, 2, 2, 3, 3, 9, 0})
	palette := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 1e300, -1e300, math.NaN(), math.Inf(1)}
	f.Fuzz(func(t *testing.T, items uint16, clusters, n uint8, avgs, sims []byte) {
		nc := 1 + int(clusters)%8
		ni := 1 + int(items)%(3*prefixLen)
		c := randomRelease(t, nc, ni, func(c, i int) float64 {
			if len(avgs) == 0 {
				return 0
			}
			b := avgs[(c*ni+i)%len(avgs)]
			return palette[int(b)%len(palette)] + float64(b/16)/4
		})
		var sim similarity.Scores
		for j := 0; j+1 < len(sims); j += 2 {
			sim.Users = append(sim.Users, int32(int(sims[j])%(3*nc)))
			sim.Vals = append(sim.Vals, float64(int(sims[j+1])%20-2)/8)
		}
		checkTopN(t, c, sim, 1+int(n)%80)
	})
}
