package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"socialrec/internal/graph"
	"socialrec/internal/similarity"
)

func TestTopNBasic(t *testing.T) {
	u := []float64{0.5, 3, 1, 2, 0}
	got := TopN(u, 3, math.Inf(-1))
	want := []Recommendation{{Item: 1, Utility: 3}, {Item: 3, Utility: 2}, {Item: 2, Utility: 1}}
	if len(got) != len(want) {
		t.Fatalf("TopN = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TopN = %v, want %v", got, want)
		}
	}
}

func TestTopNTieBreaksTowardLowerItem(t *testing.T) {
	u := []float64{1, 1, 1, 1}
	got := TopN(u, 2, math.Inf(-1))
	if got[0].Item != 0 || got[1].Item != 1 {
		t.Errorf("ties must break toward lower item id: %v", got)
	}
}

func TestTopNFloorExcludes(t *testing.T) {
	u := []float64{0, 0.5, 0, 2}
	got := TopN(u, 4, 0)
	if len(got) != 2 {
		t.Fatalf("floor 0 should keep 2 items, got %v", got)
	}
	if got[0].Item != 3 || got[1].Item != 1 {
		t.Errorf("TopN = %v", got)
	}
}

func TestTopNNegativeUtilitiesKept(t *testing.T) {
	// Private mechanisms produce negative noisy utilities; they must
	// still rank.
	u := []float64{-1, -3, -2}
	got := TopN(u, 2, math.Inf(-1))
	if got[0].Item != 0 || got[1].Item != 2 {
		t.Errorf("TopN over negatives = %v", got)
	}
}

func TestTopNEmptyAndZeroN(t *testing.T) {
	if got := TopN(nil, 5, 0); len(got) != 0 {
		t.Errorf("TopN(nil) = %v", got)
	}
	if got := TopN([]float64{1, 2}, 0, 0); got != nil {
		t.Errorf("TopN with n=0 = %v", got)
	}
}

// Property: TopN agrees with full sort-then-truncate for random inputs.
func TestTopNMatchesSortProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(200)
		u := make([]float64, m)
		for i := range u {
			// Coarse values to force plenty of ties.
			u[i] = float64(rng.Intn(10)) / 2
		}
		n := 1 + rng.Intn(m+5)
		got := TopN(u, n, math.Inf(-1))

		type kv struct {
			item int32
			val  float64
		}
		ref := make([]kv, m)
		for i := range u {
			ref[i] = kv{int32(i), u[i]}
		}
		sort.Slice(ref, func(a, b int) bool {
			if ref[a].val != ref[b].val {
				return ref[a].val > ref[b].val
			}
			return ref[a].item < ref[b].item
		})
		if n > m {
			n = m
		}
		if len(got) != n {
			return false
		}
		for i := 0; i < n; i++ {
			if got[i].Item != ref[i].item || got[i].Utility != ref[i].val {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// countingEstimator records the batches it sees and scores item i with
// value numItems - i for every user.
type countingEstimator struct {
	batches [][]int32
	items   int
}

func (c *countingEstimator) Name() string { return "counting" }

func (c *countingEstimator) Utilities(users []int32, _ []similarity.Scores, out [][]float64) {
	c.batches = append(c.batches, append([]int32(nil), users...))
	for k := range users {
		for i := 0; i < c.items; i++ {
			out[k][i] = float64(c.items - i)
		}
	}
}

func lineGraph(t testing.TB, n int) *graph.Social {
	b := graph.NewSocialBuilder(n)
	for i := 0; i+1 < n; i++ {
		if err := b.AddEdge(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestRecommenderBatching(t *testing.T) {
	g := lineGraph(t, 10)
	est := &countingEstimator{items: 5}
	r := NewRecommender(g, 5, similarity.CommonNeighbors{}, est)
	r.BatchSize = 4
	users := []int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	lists, err := r.Recommend(users, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(est.batches) != 3 {
		t.Errorf("batches = %d, want 3 (4+4+2)", len(est.batches))
	}
	for _, l := range lists {
		if len(l) != 2 || l[0].Item != 0 || l[1].Item != 1 {
			t.Fatalf("list = %v", l)
		}
	}
}

func TestRecommenderValidation(t *testing.T) {
	g := lineGraph(t, 3)
	r := NewRecommender(g, 5, similarity.CommonNeighbors{}, &countingEstimator{items: 5})
	if _, err := r.Recommend([]int32{0}, 0); err == nil {
		t.Error("n = 0 should fail")
	}
	if _, err := r.Recommend([]int32{7}, 1); err == nil {
		t.Error("out-of-range user should fail")
	}
	if _, err := r.Recommend([]int32{-1}, 1); err == nil {
		t.Error("negative user should fail")
	}
}

func TestRecommenderBufferIsolation(t *testing.T) {
	// Rows are reused between batches; ensure results do not leak across
	// batches (the clear() between batches).
	g := lineGraph(t, 4)
	est := &onceEstimator{items: 3}
	r := NewRecommender(g, 3, similarity.CommonNeighbors{}, est)
	r.BatchSize = 1
	lists, err := r.Recommend([]int32{0, 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	// User 1 writes nothing; with a clean buffer its utilities are all 0
	// and survive only the -Inf floor.
	for _, rec := range lists[1] {
		if rec.Utility != 0 {
			t.Fatalf("buffer leaked between batches: %v", lists[1])
		}
	}
}

// onceEstimator writes utilities only for the first batch it sees.
type onceEstimator struct {
	called bool
	items  int
}

func (o *onceEstimator) Name() string { return "once" }

func (o *onceEstimator) Utilities(users []int32, _ []similarity.Scores, out [][]float64) {
	if o.called {
		return
	}
	o.called = true
	for k := range users {
		for i := 0; i < o.items; i++ {
			out[k][i] = 7
		}
	}
}

// splitEstimator scores item i, for a user whose similarity vector starts
// with v, from v and i alone, and answers TopN exactly for even v only,
// declining odd v, so one batch mixes the exact and the dense path.
type splitEstimator struct{ items int }

func (splitEstimator) util(v int32, i int) float64 { return float64((int(v)+1)*(i+3)%13) - 6 }

func (splitEstimator) Name() string { return "split" }

func (e splitEstimator) Utilities(_ []int32, sims []similarity.Scores, out [][]float64) {
	for k := range out {
		for i := range out[k] {
			out[k][i] += e.util(sims[k].Users[0], i)
		}
	}
}

func (e splitEstimator) TopN(sim similarity.Scores, n int) ([]Recommendation, bool) {
	v := sim.Users[0]
	if v%2 != 0 {
		return nil, false
	}
	h := make(TopHeap, 0, n)
	for i := 0; i < e.items; i++ {
		h.Offer(Recommendation{Item: int32(i), Utility: e.util(v, i)}, n)
	}
	return h, true
}

// denseOnly hides an estimator's TopN capability.
type denseOnly struct{ Estimator }

// foldingEstimator is splitEstimator with the fold capability: a user's
// fold is the first entry of their similarity vector, all split reads.
type foldingEstimator struct{ splitEstimator }

func (e foldingEstimator) Fold(sim similarity.Scores) Fold {
	return splitFold{e: e.splitEstimator, sim: similarity.Scores{Users: sim.Users[:1], Vals: sim.Vals[:1]}}
}

// splitFold answers from its one-entry vector through splitEstimator.
type splitFold struct {
	e   splitEstimator
	sim similarity.Scores
}

func (f splitFold) TopN(n int) ([]Recommendation, bool) { return f.e.TopN(f.sim, n) }

func (f splitFold) Utilities(out []float64) {
	f.e.Utilities(nil, []similarity.Scores{f.sim}, [][]float64{out})
}

// foldOnly is foldingEstimator for a recommender whose every user must
// arrive as a fold: it counts its folds and fails the test if asked to
// answer from a similarity vector.
type foldOnly struct {
	foldingEstimator
	t     *testing.T
	folds *int
}

func (e foldOnly) Fold(sim similarity.Scores) Fold {
	*e.folds++
	return e.foldingEstimator.Fold(sim)
}

func (e foldOnly) Utilities([]int32, []similarity.Scores, [][]float64) {
	e.t.Error("Utilities answered from a similarity vector")
}

func (e foldOnly) TopN(similarity.Scores, int) ([]Recommendation, bool) {
	e.t.Error("TopN answered from a similarity vector")
	return nil, false
}

// TestCacheSimilarityHoldsFolds: over a folding estimator, the similarity
// cache keeps each user's fold — exactly what the estimator's Fold made,
// built once per resident user — and every answer comes from it, never
// from a vector; over any other estimator it keeps vectors. Both answer as
// the uncached recommender does.
func TestCacheSimilarityHoldsFolds(t *testing.T) {
	const users, items = 20, 17
	g := lineGraph(t, users)
	all := make([]int32, users)
	for i := range all {
		all[i] = int32(i)
	}
	want, err := NewRecommender(g, items, similarity.CommonNeighbors{}, splitEstimator{items: items}).Recommend(all, 5)
	if err != nil {
		t.Fatal(err)
	}
	same := func(name string, got [][]Recommendation) {
		t.Helper()
		for u := range want {
			if len(got[u]) != len(want[u]) {
				t.Fatalf("%s user %d: %v, uncached %v", name, u, got[u], want[u])
			}
			for i := range want[u] {
				if got[u][i] != want[u][i] {
					t.Fatalf("%s user %d: %v, uncached %v", name, u, got[u], want[u])
				}
			}
		}
	}

	folds := 0
	est := foldOnly{foldingEstimator{splitEstimator{items: items}}, t, &folds}
	r := NewRecommender(g, items, similarity.CommonNeighbors{}, est)
	stats := r.CacheSimilarity(users)
	if r.foldSource == nil || r.similaritySource != nil {
		t.Fatal("a folding estimator's cache does not supply folds")
	}
	for rep := 0; rep < 2; rep++ {
		got, err := r.Recommend(all, 5)
		if err != nil {
			t.Fatal(err)
		}
		same("folded", got)
	}
	if folds != users {
		t.Errorf("%d folds for %d users served twice, want one each", folds, users)
	}
	for _, u := range all {
		// Every user is resident, so this is the cached entry itself.
		f, ok := r.foldSource(u).(splitFold)
		if !ok || len(f.sim.Users) != 1 {
			t.Fatalf("user %d: cached %#v, want its one-entry splitFold", u, r.foldSource(u))
		}
	}
	if st := stats(); st.Len != users || st.Misses != users {
		t.Errorf("cache stats %+v: want %d resident from %d misses", st, users, users)
	}

	r = NewRecommender(g, items, similarity.CommonNeighbors{}, splitEstimator{items: items})
	r.CacheSimilarity(users)
	if r.similaritySource == nil || r.foldSource != nil {
		t.Fatal("a non-folding estimator's cache does not supply vectors")
	}
	got, err := r.Recommend(all, 5)
	if err != nil {
		t.Fatal(err)
	}
	same("vector", got)
}

// TestRecommendContextExactPathMatchesDense checks the orchestration of
// the exact path: batches mixing answered and declined users, at several
// batch sizes, return the same lists as the dense path alone, whether the
// users arrive as similarity vectors or as folds.
func TestRecommendContextExactPathMatchesDense(t *testing.T) {
	const users, items = 20, 17
	g := lineGraph(t, users)
	all := make([]int32, users)
	for i := range all {
		all[i] = int32(i)
	}
	self := func(u int32) similarity.Scores { return similarity.Scores{Users: []int32{u}, Vals: []float64{1}} }
	for _, bs := range []int{1, 3, 0} {
		exact := NewRecommender(g, items, similarity.CommonNeighbors{}, splitEstimator{items: items})
		dense := NewRecommender(g, items, similarity.CommonNeighbors{}, denseOnly{splitEstimator{items: items}})
		fe := foldingEstimator{splitEstimator{items: items}}
		folded := NewRecommender(g, items, similarity.CommonNeighbors{}, fe)
		for _, r := range []*Recommender{exact, dense, folded} {
			r.BatchSize = bs
		}
		exact.similaritySource, dense.similaritySource = self, self
		folded.foldSource = func(u int32) Fold { return fe.Fold(self(u)) }
		for _, n := range []int{1, 5, items} {
			want, err := dense.Recommend(all, n)
			if err != nil {
				t.Fatal(err)
			}
			for name, r := range map[string]*Recommender{"exact": exact, "folded": folded} {
				got, err := r.Recommend(all, n)
				if err != nil {
					t.Fatal(err)
				}
				for u := range want {
					if len(got[u]) != len(want[u]) {
						t.Fatalf("batch %d n=%d user %d: %s %v, dense %v", bs, n, u, name, got[u], want[u])
					}
					for i := range want[u] {
						if got[u][i] != want[u][i] {
							t.Fatalf("batch %d n=%d user %d: %s %v, dense %v", bs, n, u, name, got[u], want[u])
						}
					}
				}
			}
		}
	}
}
