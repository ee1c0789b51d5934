package socialrec

import (
	"math"
	"sync"
	"testing"

	"socialrec/internal/core"
	"socialrec/internal/generator"
	"socialrec/internal/mechanism"
	"socialrec/internal/similarity"
)

// TestEngineExactTopNConcurrentFirstUse races the lazily built per-cluster
// prefixes of the exact top-n path: many goroutines hit a fresh engine at
// once, so first touches of every cluster collide, and every answer must
// equal the dense Utilities + core.TopN list over the same release. The
// cached run also races the similarity cache: a capacity of a quarter of
// the users keeps folds being made, shared and evicted under the readers.
func TestEngineExactTopNConcurrentFirstUse(t *testing.T) {
	const n, workers = 10, 8
	social, _, prefs, err := generator.TinyTest(5).Generate()
	if err != nil {
		t.Fatal(err)
	}
	built, err := NewEngineFromGraphs(social, prefs, Config{Epsilon: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := built.Release()
	if err != nil {
		t.Fatal(err)
	}
	m, err := similarity.ByName(rel.Measure)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := mechanism.NewClusterFromRelease(rel.Clusters, rel.NumItems, rel.Avg)
	if err != nil {
		t.Fatal(err)
	}
	users := social.NumUsers()
	ids := make([]int32, users)
	for u := range ids {
		ids[u] = int32(u)
	}
	sims := similarity.ComputeAll(social, m, ids, 0)
	want := make([][]Recommendation, users)
	row := make([]float64, rel.NumItems)
	for u := range want {
		clear(row)
		ref.Utilities(ids[u:u+1], sims[u:u+1], [][]float64{row})
		want[u] = core.TopN(row, n, math.Inf(-1))
	}

	for _, capacity := range []int{0, users / 4} {
		name := "uncached"
		if capacity > 0 {
			name = "cached"
		}
		t.Run(name, func(t *testing.T) {
			fresh, err := EngineFromRelease(rel, social)
			if err != nil {
				t.Fatal(err)
			}
			if capacity > 0 {
				fresh.EnableSimilarityCache(capacity)
			}
			raceEngine(t, fresh, want, n, workers)
		})
	}
}

// raceEngine has workers goroutines ask e for every user's top-n list at
// once, each starting at a different user, and requires want[u] bit for
// bit.
func raceEngine(t *testing.T, e *Engine, want [][]Recommendation, n, workers int) {
	users := len(want)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for k := 0; k < users; k++ {
				u := (k + g*users/workers) % users
				got, err := e.Recommend(u, n)
				if err != nil {
					t.Error(err)
					return
				}
				if !sameRecs(got, want[u]) {
					t.Errorf("user %d: engine %v, dense %v", u, got, want[u])
					return
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
}
