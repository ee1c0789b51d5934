package mechanism

import (
	"context"
	"math"
	"testing"

	"socialrec/internal/community"
	"socialrec/internal/dp"
	"socialrec/internal/generator"
	"socialrec/internal/graph"
	"socialrec/internal/similarity"
)

// weightedFixture mirrors fixture() but with rating-like weights.
func weightedFixture(t testing.TB) (*graph.Social, *graph.WeightedPreference) {
	t.Helper()
	sb := graph.NewSocialBuilder(8)
	for c := 0; c < 2; c++ {
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				if err := sb.AddEdge(4*c+i, 4*c+j); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := sb.AddEdge(3, 4); err != nil {
		t.Fatal(err)
	}
	pb := graph.NewWeightedPreferenceBuilder(8, 6)
	for _, e := range []struct {
		u, i int
		w    float64
	}{
		{0, 0, 5}, {0, 1, 3}, {1, 0, 4}, {1, 2, 2}, {2, 1, 5}, {3, 0, 1},
		{4, 3, 5}, {5, 3, 4}, {5, 5, 3}, {6, 4, 2}, {7, 3, 1},
	} {
		if err := pb.AddEdge(e.u, e.i, e.w); err != nil {
			t.Fatal(err)
		}
	}
	return sb.Build(), pb.Build()
}

func TestWeightedExactHandComputed(t *testing.T) {
	g, p := weightedFixture(t)
	users := []int32{0}
	sims := similarity.ComputeAll(g, similarity.CommonNeighbors{}, users, 0)
	out := [][]float64{make([]float64, p.NumItems())}
	NewWeightedExact(p).Utilities(users, sims, out)
	// sim(0,·): 1→2, 2→2, 3→2, 4→1 (as in the unweighted fixture).
	// μ_0^0 = 2·w(1,0) + 2·w(3,0) = 2·4 + 2·1 = 10.
	if got := out[0][0]; got != 10 {
		t.Errorf("μ_0^0 = %v, want 10", got)
	}
	// μ_0^3 = 1·w(4,3) = 5.
	if got := out[0][3]; got != 5 {
		t.Errorf("μ_0^3 = %v, want 5", got)
	}
}

func TestWeightedClusterNoNoiseAverages(t *testing.T) {
	_, p := weightedFixture(t)
	clusters, _ := community.FromAssignment([]int32{0, 0, 0, 0, 1, 1, 1, 1})
	wc, err := NewWeightedCluster(context.Background(), clusters, p, 5, dp.Inf, dp.ZeroSource{})
	if err != nil {
		t.Fatal(err)
	}
	// Cluster 0, item 0: weights 5 + 4 + 1 over 4 users → 2.5.
	if got := wc.Average(0, 0); got != 2.5 {
		t.Errorf("Average(0,0) = %v, want 2.5", got)
	}
	// Cluster 1, item 3: weights 5 + 4 + 1 over 4 users → 2.5.
	if got := wc.Average(1, 3); got != 2.5 {
		t.Errorf("Average(1,3) = %v, want 2.5", got)
	}
}

// TestWeightedClusterNoiseScale verifies the §7 sensitivity argument: the
// noise scale must be W_max/(|c|·ε) for every released average.
func TestWeightedClusterNoiseScale(t *testing.T) {
	_, p := weightedFixture(t)
	clusters, _ := community.FromAssignment([]int32{0, 0, 0, 0, 0, 1, 1, 1})
	rec := &dp.RecordingSource{}
	const maxW, eps = 5.0, 0.4
	if _, err := NewWeightedCluster(context.Background(), clusters, p, maxW, dp.Epsilon(eps), rec); err != nil {
		t.Fatal(err)
	}
	ni := p.NumItems()
	for c := 0; c < clusters.NumClusters(); c++ {
		want := maxW / (float64(clusters.Size(c)) * eps)
		for i := 0; i < ni; i++ {
			if got := rec.Scales[c*ni+i]; math.Abs(got-want) > 1e-15 {
				t.Fatalf("cluster %d item %d: scale %v, want %v", c, i, got, want)
			}
		}
	}
}

func TestWeightedClusterRejectsUnderdeclaredBound(t *testing.T) {
	_, p := weightedFixture(t) // max weight 5
	clusters, _ := community.FromAssignment(make([]int32, 8))
	if _, err := NewWeightedCluster(context.Background(), clusters, p, 3, dp.Epsilon(1), dp.ZeroSource{}); err == nil {
		t.Error("weights above the declared bound must be rejected")
	}
	if _, err := NewWeightedCluster(context.Background(), clusters, p, 0, dp.Epsilon(1), dp.ZeroSource{}); err == nil {
		t.Error("non-positive bound must be rejected")
	}
}

func TestWeightedClusterSingletonsEqualExact(t *testing.T) {
	g, p := weightedFixture(t)
	singles, _ := community.FromAssignment(allUsers(8))
	wc, err := NewWeightedCluster(context.Background(), singles, p, 5, dp.Inf, dp.ZeroSource{})
	if err != nil {
		t.Fatal(err)
	}
	m := similarity.CommonNeighbors{}
	users := allUsers(8)
	sims := similarity.ComputeAll(g, m, users, 0)
	got := make([][]float64, len(users))
	want := make([][]float64, len(users))
	for i := range users {
		got[i] = make([]float64, p.NumItems())
		want[i] = make([]float64, p.NumItems())
	}
	wc.Utilities(users, sims, got)
	NewWeightedExact(p).Utilities(users, sims, want)
	if d := maxAbsDiff(got, want); d > 1e-12 {
		t.Errorf("singleton weighted clustering differs from exact by %v", d)
	}
}

// TestWeightedNormalizationEquivalence: running the mechanism on the
// normalized graph with bound 1 must equal running it on the raw graph with
// bound W_max, up to the uniform 1/W_max scaling of all averages — i.e.
// identical rankings.
func TestWeightedNormalizationEquivalence(t *testing.T) {
	_, p := weightedFixture(t)
	clusters, _ := community.FromAssignment([]int32{0, 0, 0, 0, 1, 1, 1, 1})
	raw, err := NewWeightedCluster(context.Background(), clusters, p, 5, dp.Inf, dp.ZeroSource{})
	if err != nil {
		t.Fatal(err)
	}
	norm, err := NewWeightedCluster(context.Background(), clusters, p.Normalized(), 1, dp.Inf, dp.ZeroSource{})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < clusters.NumClusters(); c++ {
		for i := 0; i < p.NumItems(); i++ {
			if math.Abs(raw.Average(c, i)-5*norm.Average(c, i)) > 1e-12 {
				t.Fatalf("averages not a uniform rescaling at (%d, %d)", c, i)
			}
		}
	}
}

// TestWeightedClusterUnitWeightsMatchCluster: the §7 release is Eq. 3 with
// Δ = W_max, so unit weights at W_max = 1 give the unweighted release bit
// for bit at the same seed.
func TestWeightedClusterUnitWeightsMatchCluster(t *testing.T) {
	social, _, prefs, err := generator.TinyTest(1).Generate()
	if err != nil {
		t.Fatal(err)
	}
	clusters, _ := community.BestOf(social, 3, 1, community.Options{})
	pb := graph.NewWeightedPreferenceBuilder(prefs.NumUsers(), prefs.NumItems())
	for u := 0; u < prefs.NumUsers(); u++ {
		for _, i := range prefs.Items(u) {
			if err := pb.AddEdge(u, int(i), 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	eps := dp.Epsilon(0.5)
	want, err := NewCluster(clusters, prefs, eps, dp.SourceFor(eps, 1))
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewWeightedCluster(context.Background(), clusters, pb.Build(), 1, eps, dp.SourceFor(eps, 1))
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < clusters.NumClusters(); c++ {
		for i := 0; i < prefs.NumItems(); i++ {
			if g, w := got.Average(c, i), want.Average(c, i); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("cluster %d item %d: weighted %v, unweighted %v", c, i, g, w)
			}
		}
	}
}
