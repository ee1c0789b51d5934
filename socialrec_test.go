package socialrec

import (
	"context"
	"math"
	"testing"

	"socialrec/internal/dataset"
	"socialrec/internal/dp"
	"socialrec/internal/generator"
	"socialrec/internal/graph"
	"socialrec/internal/mechanism"
	"socialrec/internal/release"
	"socialrec/internal/similarity"
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

// cacheEngine is what the similarity-cache tests drive: Engine and
// ShardEngine alike.
type cacheEngine interface {
	Recommend(user, n int) ([]Recommendation, error)
	RecommendBatch(users []int, n int) ([][]Recommendation, error)
	EnableSimilarityCache(capacity int)
	CacheStats() (CacheStats, bool)
}

// sameRecs reports whether a and b hold the same items with bit-identical
// utilities, in order.
func sameRecs(a, b []Recommendation) bool {
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

// TestEngineSimilarityCacheEquivalence: an engine with a similarity cache
// answers bit-identically to one without, over the same release, for every
// kind of engine — whole cluster, weighted, shard, delta-applied and exact —
// while a small cache evicts, at n on both sides of the exact scan's cutoff
// (48): n = 10 runs the scan, n = 60 the dense fallback.
func TestEngineSimilarityCacheEquivalence(t *testing.T) {
	const capacity = 16
	social, _, prefs, err := generator.TinyTest(5).Generate()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Epsilon: 0.5, Seed: 6}
	whole, err := NewEngineFromGraphs(social, prefs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := whole.Release()
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, social.NumUsers())
	for u := range all {
		all[u] = u
	}

	wb := graph.NewWeightedPreferenceBuilder(prefs.NumUsers(), prefs.NumItems())
	for u := 0; u < prefs.NumUsers(); u++ {
		for _, i := range prefs.Items(u) {
			if err := wb.AddEdge(u, int(i), float64(1+(u+int(i))%5)); err != nil {
				t.Fatal(err)
			}
		}
	}
	weighted := wb.Build()

	m, err := similarity.ByName(rel.Measure)
	if err != nil {
		t.Fatal(err)
	}
	clusterShard := make([]int32, rel.Clusters.NumClusters())
	for c := range clusterShard {
		clusterShard[c] = int32(c % 2)
	}
	manifest, shards, err := release.SplitRelease(rel, social, clusterShard, 2, similarity.Horizon(m))
	if err != nil {
		t.Fatal(err)
	}
	var owned []int
	for _, u := range all {
		if manifest.ShardOf(u) == 0 {
			owned = append(owned, u)
		}
	}

	// The delta re-releases every odd cluster and keeps the even ones.
	nc := rel.Clusters.NumClusters()
	fresh := make([]bool, nc)
	source := make([]int32, nc)
	for c := range source {
		source[c], fresh[c] = int32(c), c%2 == 1
		if fresh[c] {
			source[c] = -1
		}
	}
	rows, err := mechanism.DeltaRows(context.Background(), rel.Clusters, prefs, fresh, 0.5, dp.SourceFor(0.5, 9))
	if err != nil {
		t.Fatal(err)
	}
	delta := &release.Delta{Base: 1, Epsilon: 0.5, Measure: rel.Measure, NumItems: rel.NumItems,
		Assign: rel.Clusters.Assignment(), Source: source, Fresh: rows}
	applied, err := delta.Apply(rel)
	if err != nil {
		t.Fatal(err)
	}

	for _, kind := range []struct {
		name  string
		build func() (cacheEngine, error)
		users []int
	}{
		{"cluster", func() (cacheEngine, error) { return EngineFromRelease(rel, social) }, all},
		{"weighted", func() (cacheEngine, error) { return NewWeightedEngineFromGraphs(social, weighted, 5, cfg) }, all},
		{"shard", func() (cacheEngine, error) { return EngineFromShard(shards[0], social) }, owned},
		{"delta", func() (cacheEngine, error) { return EngineFromRelease(applied, social) }, all},
		{"exact", func() (cacheEngine, error) { return NewExactEngineFromGraphs(social, prefs, "") }, all},
	} {
		t.Run(kind.name, func(t *testing.T) {
			plain, err := kind.build()
			if err != nil {
				t.Fatal(err)
			}
			cached, err := kind.build()
			if err != nil {
				t.Fatal(err)
			}
			cached.EnableSimilarityCache(capacity)
			for _, n := range []int{10, 60} {
				// Each user twice in a row (a hit), then batches of 8.
				for _, u := range kind.users {
					want, err := plain.Recommend(u, n)
					if err != nil {
						t.Fatal(err)
					}
					for rep := 0; rep < 2; rep++ {
						got, err := cached.Recommend(u, n)
						if err != nil {
							t.Fatal(err)
						}
						if !sameRecs(got, want) {
							t.Fatalf("user %d n=%d: cached %v, uncached %v", u, n, got, want)
						}
					}
				}
				for lo := 0; lo < len(kind.users); lo += 8 {
					batch := kind.users[lo:min(lo+8, len(kind.users))]
					want, err := plain.RecommendBatch(batch, n)
					if err != nil {
						t.Fatal(err)
					}
					got, err := cached.RecommendBatch(batch, n)
					if err != nil {
						t.Fatal(err)
					}
					for k := range want {
						if !sameRecs(got[k], want[k]) {
							t.Fatalf("batch user %d n=%d: cached %v, uncached %v", batch[k], n, got[k], want[k])
						}
					}
				}
			}
			st, ok := cached.CacheStats()
			if !ok || st.Hits == 0 || st.Evictions == 0 || st.Len != capacity {
				t.Errorf("cache stats %+v (ok %v): want hits, evictions and %d resident", st, ok, capacity)
			}
			if _, ok := plain.CacheStats(); ok {
				t.Error("an engine without a cache reports cache stats")
			}
		})
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
