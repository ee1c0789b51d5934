package socialrec

import (
	"math"
	"testing"

	"socialrec/internal/dataset"
	"socialrec/internal/generator"
)

// buildSmall wires a two-community toy network through the public builder.
func buildSmall() *GraphBuilder {
	b := NewGraphBuilder(8, 6)
	// Two 4-cliques with a bridge.
	for c := 0; c < 2; c++ {
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				b.AddFriendship(4*c+i, 4*c+j)
			}
		}
	}
	b.AddFriendship(3, 4)
	for _, e := range [][2]int{
		{0, 0}, {0, 1}, {1, 0}, {1, 2}, {2, 1}, {2, 2},
		{4, 3}, {4, 4}, {5, 3}, {5, 5}, {6, 4}, {6, 5},
	} {
		b.AddPreference(e[0], e[1])
	}
	return b
}

func TestEngineNonPrivateRecommends(t *testing.T) {
	e, err := NewEngine(buildSmall(), Config{Epsilon: NoPrivacy, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := e.Recommend(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("recs = %v", recs)
	}
	// User 3 sits in community A: its top recommendations must be the
	// community-A items 0-2, not B's 3-5. With community clustering the
	// utilities of items 0..2 dominate.
	topItems := map[int32]bool{recs[0].Item: true, recs[1].Item: true}
	for it := range topItems {
		if it > 2 {
			t.Errorf("user 3 recommended cross-community item %d; recs = %v", it, recs)
		}
	}
}

func TestEnginePrivateStillUseful(t *testing.T) {
	e, err := NewEngine(buildSmall(), Config{Epsilon: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := e.Recommend(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("recs = %v", recs)
	}
}

func TestEngineDeterministicBySeed(t *testing.T) {
	mk := func() [][]Recommendation {
		e, err := NewEngine(buildSmall(), Config{Epsilon: 0.5, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		out, err := e.RecommendBatch([]int{0, 1, 2, 3, 4, 5, 6, 7}, 4)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := mk(), mk()
	for u := range a {
		if len(a[u]) != len(b[u]) {
			t.Fatal("same seed, different list lengths")
		}
		for i := range a[u] {
			if a[u][i] != b[u][i] {
				t.Fatal("same seed, different recommendations")
			}
		}
	}
}

func TestEngineConfigValidation(t *testing.T) {
	if _, err := NewEngine(buildSmall(), Config{}); err == nil {
		t.Error("zero epsilon should fail loudly")
	}
	if _, err := NewEngine(buildSmall(), Config{Epsilon: -1}); err == nil {
		t.Error("negative epsilon should fail")
	}
	if _, err := NewEngine(buildSmall(), Config{Epsilon: 1, Measure: "nope"}); err == nil {
		t.Error("unknown measure should fail")
	}
}

func TestEngineBuilderErrorsAreSticky(t *testing.T) {
	b := NewGraphBuilder(2, 2)
	b.AddFriendship(0, 9) // out of range
	b.AddPreference(0, 0)
	if _, err := NewEngine(b, Config{Epsilon: 1}); err == nil {
		t.Error("builder error should surface in NewEngine")
	}
}

func TestEngineAllMeasures(t *testing.T) {
	for _, m := range []string{"CN", "GD", "AA", "KZ"} {
		e, err := NewEngine(buildSmall(), Config{Epsilon: NoPrivacy, Measure: m, Seed: 3})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if _, err := e.Recommend(0, 2); err != nil {
			t.Fatalf("%s: %v", m, err)
		}
	}
}

func TestEngineClusterIntrospection(t *testing.T) {
	e, err := NewEngine(buildSmall(), Config{Epsilon: NoPrivacy, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if e.NumClusters() < 2 {
		t.Errorf("NumClusters = %d, want >= 2 (two cliques)", e.NumClusters())
	}
	if e.ClusterOf(0) == e.ClusterOf(4) {
		t.Error("the two cliques should be in different clusters")
	}
	if e.Modularity() <= 0 {
		t.Errorf("Modularity = %v, want > 0", e.Modularity())
	}
	if !math.IsInf(e.Epsilon(), 1) {
		t.Errorf("Epsilon = %v", e.Epsilon())
	}
}

func TestEngineFromGeneratedGraphs(t *testing.T) {
	social, _, prefs, err := generator.TinyTest(9).Generate()
	if err != nil {
		t.Fatal(err)
	}
	ds := &dataset.Dataset{Name: "t", Social: social, Prefs: prefs}
	e, err := NewEngineFromGraphs(ds.Social, ds.Prefs, Config{Epsilon: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	lists, err := e.RecommendBatch([]int{0, 1, 2}, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range lists {
		if len(l) != 10 {
			t.Fatalf("list length = %d, want 10", len(l))
		}
		for i := 1; i < len(l); i++ {
			if l[i].Utility > l[i-1].Utility {
				t.Fatal("list not sorted by utility")
			}
		}
	}
}

func TestEngineSimilarityCacheEquivalence(t *testing.T) {
	e1, err := NewEngine(buildSmall(), Config{Epsilon: 0.5, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	e2, err := NewEngine(buildSmall(), Config{Epsilon: 0.5, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	e2.EnableSimilarityCache(16)
	users := []int{0, 1, 2, 3, 0, 1} // repeats exercise cache hits
	a, err := e1.RecommendBatch(users, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e2.RecommendBatch(users, 4)
	if err != nil {
		t.Fatal(err)
	}
	for k := range a {
		for i := range a[k] {
			if a[k][i] != b[k][i] {
				t.Fatal("cached engine disagrees with uncached engine")
			}
		}
	}
}

func TestEngineClustererOptions(t *testing.T) {
	for _, alg := range []string{"louvain", "labelprop", "cnm", ""} {
		e, err := NewEngine(buildSmall(), Config{Epsilon: NoPrivacy, Clusterer: alg, Seed: 2})
		if err != nil {
			t.Fatalf("%q: %v", alg, err)
		}
		// Every clusterer must separate the two cliques.
		if e.ClusterOf(0) == e.ClusterOf(4) {
			t.Errorf("%q: the two cliques share a cluster", alg)
		}
		if _, err := e.Recommend(0, 2); err != nil {
			t.Fatalf("%q: %v", alg, err)
		}
	}
	if _, err := NewEngine(buildSmall(), Config{Epsilon: 1, Clusterer: "bogus"}); err == nil {
		t.Error("unknown clusterer should fail")
	}
}

func TestEngineMinClusterSize(t *testing.T) {
	// A pendant pair next to the two cliques forms a tiny cluster that
	// MinClusterSize folds away.
	b := NewGraphBuilder(10, 6)
	for c := 0; c < 2; c++ {
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				b.AddFriendship(4*c+i, 4*c+j)
			}
		}
	}
	b.AddFriendship(3, 4)
	b.AddFriendship(0, 8)
	b.AddFriendship(8, 9)
	b.AddPreference(1, 0)
	b.AddPreference(5, 3)
	small, err := NewEngine(b, Config{Epsilon: NoPrivacy, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	b2 := NewGraphBuilder(10, 6)
	for c := 0; c < 2; c++ {
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				b2.AddFriendship(4*c+i, 4*c+j)
			}
		}
	}
	b2.AddFriendship(3, 4)
	b2.AddFriendship(0, 8)
	b2.AddFriendship(8, 9)
	b2.AddPreference(1, 0)
	b2.AddPreference(5, 3)
	merged, err := NewEngine(b2, Config{Epsilon: NoPrivacy, Seed: 2, MinClusterSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	if merged.NumClusters() >= small.NumClusters() {
		t.Errorf("MinClusterSize did not reduce clusters: %d vs %d",
			merged.NumClusters(), small.NumClusters())
	}
}

func TestEngineDimensions(t *testing.T) {
	e, err := NewEngine(buildSmall(), Config{Epsilon: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if e.NumUsers() != 8 || e.NumItems() != 6 {
		t.Errorf("dims = (%d, %d), want (8, 6)", e.NumUsers(), e.NumItems())
	}
}

// TestEngineRejectsOutOfRangeUsers: a user id outside the population is an
// error on every recommend entry point, including ids that would wrap onto
// a valid user if narrowed to int32 first, and ClusterOf answers -1 for it
// instead of indexing out of range.
func TestEngineRejectsOutOfRangeUsers(t *testing.T) {
	e, err := NewEngine(buildSmall(), Config{Epsilon: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []int{-1, 8, 1 << 31, 1 << 32, 1<<32 + 3, -1 << 32, math.MaxInt} {
		if recs, err := e.Recommend(u, 2); err == nil {
			t.Errorf("Recommend(%d) = %v, want an error", u, recs)
		}
		if lists, err := e.RecommendBatch([]int{0, u}, 2); err == nil {
			t.Errorf("RecommendBatch([0 %d]) = %v, want an error", u, lists)
		}
		if c := e.ClusterOf(u); c != -1 {
			t.Errorf("ClusterOf(%d) = %d, want -1", u, c)
		}
	}
}
