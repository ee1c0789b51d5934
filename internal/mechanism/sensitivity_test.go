package mechanism

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"socialrec/internal/community"
	"socialrec/internal/dp"
	"socialrec/internal/graph"
	"socialrec/internal/similarity"
)

// randomWorld builds a random social + preference graph pair.
func randomWorld(seed int64, n, items int) (*graph.Social, *graph.Preference) {
	rng := rand.New(rand.NewSource(seed))
	sb := graph.NewSocialBuilder(n)
	for k := 0; k < 3*n; k++ {
		_ = sb.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	pb := graph.NewPreferenceBuilder(n, items)
	for k := 0; k < 2*n; k++ {
		_ = pb.AddEdge(rng.Intn(n), rng.Intn(items))
	}
	return sb.Build(), pb.Build()
}

// TestClusterSensitivityBound verifies, deterministically, the inequality
// the privacy proof rests on (Theorem 4): removing any single preference
// edge changes exactly one noiseless cluster average, by exactly 1/|c|.
func TestClusterSensitivityBound(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		social, prefs := randomWorld(seed, 20, 8)
		_ = social
		rng := rand.New(rand.NewSource(seed + 100))
		assign := make([]int32, 20)
		for i := range assign {
			assign[i] = int32(rng.Intn(4))
		}
		clusters, err := community.FromAssignment(assign)
		if err != nil {
			t.Fatal(err)
		}
		base, err := NewCluster(clusters, prefs, dp.Inf, dp.ZeroSource{})
		if err != nil {
			t.Fatal(err)
		}
		// Remove each existing edge in turn.
		for u := 0; u < prefs.NumUsers(); u++ {
			for _, item := range prefs.Items(u) {
				neighbor := prefs.RemoveEdge(u, int(item))
				alt, err := NewCluster(clusters, neighbor, dp.Inf, dp.ZeroSource{})
				if err != nil {
					t.Fatal(err)
				}
				changed := 0
				for c := 0; c < clusters.NumClusters(); c++ {
					for i := 0; i < prefs.NumItems(); i++ {
						d := math.Abs(base.Average(c, i) - alt.Average(c, i))
						if d == 0 {
							continue
						}
						changed++
						want := 1 / float64(clusters.Size(c))
						if math.Abs(d-want) > 1e-12 {
							t.Fatalf("average (%d, %d) moved by %v, want exactly 1/|c| = %v", c, i, d, want)
						}
						if c != clusters.Cluster(u) || i != int(item) {
							t.Fatalf("removing edge (%d, %d) changed unrelated average (%d, %d)", u, item, c, i)
						}
					}
				}
				if changed != 1 {
					t.Fatalf("removing edge (%d, %d) changed %d averages, want exactly 1", u, item, changed)
				}
			}
		}
	}
}

// TestExactLinearity verifies Eq. 1's linearity: adding edge (v, i) raises
// μ_u^i by exactly sim(u, v) for every user u, and changes nothing else.
func TestExactLinearity(t *testing.T) {
	social, prefs := randomWorld(3, 25, 10)
	m := similarity.CommonNeighbors{}
	users := allUsers(25)
	sims := similarity.ComputeAll(social, m, users, 0)

	utils := func(p *graph.Preference) [][]float64 {
		out := make([][]float64, len(users))
		for i := range out {
			out[i] = make([]float64, p.NumItems())
		}
		NewExact(p).Utilities(users, sims, out)
		return out
	}
	base := utils(prefs)
	// Pick an absent edge to add.
	var v, item int
	found := false
	for v = 0; v < 25 && !found; v++ {
		for item = 0; item < 10; item++ {
			if prefs.Weight(v, item) == 0 {
				found = true
				break
			}
		}
	}
	v-- // undo the loop's final increment
	if !found {
		t.Skip("dense world, no absent edge")
	}
	with := utils(prefs.AddedEdge(v, item))
	for k, u := range users {
		for i := 0; i < 10; i++ {
			delta := with[k][i] - base[k][i]
			var want float64
			if i == item {
				want = sims[k].Value(int32(v))
			}
			if int(u) == v && i == item {
				// sim(u, u) is never counted; the user's own new edge
				// does not feed their own utility.
				want = 0
			}
			if math.Abs(delta-want) > 1e-12 {
				t.Fatalf("user %d item %d: delta %v, want %v", u, i, delta, want)
			}
		}
	}
}

// TestNOELinearityWithoutNoise: at ε = ∞ NOE is the exact algorithm, so the
// same linearity must hold through its code path.
func TestNOELinearityWithoutNoise(t *testing.T) {
	social, prefs := randomWorld(5, 15, 6)
	m := similarity.AdamicAdar{}
	users := allUsers(15)
	sims := similarity.ComputeAll(social, m, users, 0)
	noe, err := NewNOE(prefs, dp.Inf, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]float64, len(users))
	want := make([][]float64, len(users))
	for i := range users {
		got[i] = make([]float64, 6)
		want[i] = make([]float64, 6)
	}
	noe.Utilities(users, sims, got)
	NewExact(prefs).Utilities(users, sims, want)
	if d := maxAbsDiff(got, want); d > 1e-12 {
		t.Errorf("NOE at ε=∞ differs from exact by %v", d)
	}
}

// TestWeightedClusterSensitivityBound is the weighted counterpart: removing
// a weighted edge moves its cluster average by exactly w/|c| ≤ W_max/|c|.
func TestWeightedClusterSensitivityBound(t *testing.T) {
	pb := graph.NewWeightedPreferenceBuilder(6, 3)
	_ = pb.AddEdge(0, 0, 4)
	_ = pb.AddEdge(1, 0, 2)
	_ = pb.AddEdge(2, 1, 5)
	full := pb.Build()
	clusters, _ := community.FromAssignment([]int32{0, 0, 0, 1, 1, 1})
	base, err := NewWeightedCluster(context.Background(), clusters, full, 5, dp.Inf, dp.ZeroSource{})
	if err != nil {
		t.Fatal(err)
	}
	// Neighbor: drop edge (0, 0) of weight 4.
	pb2 := graph.NewWeightedPreferenceBuilder(6, 3)
	_ = pb2.AddEdge(1, 0, 2)
	_ = pb2.AddEdge(2, 1, 5)
	alt, err := NewWeightedCluster(context.Background(), clusters, pb2.Build(), 5, dp.Inf, dp.ZeroSource{})
	if err != nil {
		t.Fatal(err)
	}
	d := math.Abs(base.Average(0, 0) - alt.Average(0, 0))
	if want := 4.0 / 3.0; math.Abs(d-want) > 1e-12 {
		t.Errorf("average moved by %v, want w/|c| = %v", d, want)
	}
	if d > 5.0/3.0+1e-12 {
		t.Error("movement exceeds the declared W_max/|c| sensitivity bound")
	}
}
