// Package core implements the top-N social recommender of §2.2 of the paper
// (Definitions 3 and 4): utility queries over a social-similarity measure,
// ranked truncation to top-N lists, and the batch orchestration shared by
// the non-private reference recommender and all private mechanisms.
//
// The package is deliberately mechanism-agnostic: anything that can estimate
// per-item utilities for a user (exactly, or privately via noisy cluster
// averages, noisy edges, etc.) plugs in through the Estimator interface.
// Sorting and truncating estimates into top-N lists is pure post-processing
// and therefore free under differential privacy (§5.1).
package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"socialrec/internal/graph"
	"socialrec/internal/simcache"
	"socialrec/internal/similarity"
	"socialrec/internal/telemetry"
	"socialrec/internal/trace"
)

// Span attribute keys for the traced recommend path — declared up front;
// values are batch sizes and counts, never preference data.
var (
	attrBatchSize = trace.NewKey("batch_size")
	attrUsers     = trace.NewKey("users")
	attrTopN      = trace.NewKey("top_n")
)

// scratch is the pooled per-call working set of RecommendContext: the flat
// utility arena the dense rows slice into, the row headers, the batch
// positions answered densely, and the similarity-vector and fold buffers
// used when a similarity cache supplies users. Pooling it (capacity
// is kept across calls, grown only when a larger batch arrives) makes the
// steady-state serving path allocation-free up to the returned
// recommendation lists themselves.
type scratch struct {
	flat  []float64
	rows  [][]float64
	dense []int
	sims  []similarity.Scores
	folds []Fold
}

// denseRows returns k zeroed utility rows of width items, windows into the
// flat arena, which grows only when a larger call arrives.
func (sc *scratch) denseRows(k, items int) [][]float64 {
	if need := k * items; cap(sc.flat) < need {
		sc.flat = make([]float64, need)
	}
	if cap(sc.rows) < k {
		sc.rows = make([][]float64, k)
	}
	rows := sc.rows[:k]
	for i := range rows {
		rows[i] = sc.flat[i*items : (i+1)*items : (i+1)*items]
		clear(rows[i])
	}
	return rows
}

var (
	scratchPool     = sync.Pool{New: func() any { scratchPoolNews.Add(1); return new(scratch) }}
	scratchPoolGets atomic.Uint64
	scratchPoolNews atomic.Uint64
)

func init() {
	telemetry.RegisterPoolStats("core_scratch", func() telemetry.PoolStats {
		return telemetry.PoolStats{Gets: scratchPoolGets.Load(), Misses: scratchPoolNews.Load()}
	})
}

//sociolint:hotpath
func getScratch() *scratch {
	scratchPoolGets.Add(1)
	return scratchPool.Get().(*scratch)
}

//sociolint:hotpath
func putScratch(sc *scratch) {
	// Drop the similarity vectors and folds (cache entries; a fold also
	// references its release) so a pooled scratch never pins another
	// engine's memory.
	clear(sc.sims)
	clear(sc.folds)
	scratchPool.Put(sc)
}

// Recommendation pairs an item with the (estimated) utility of recommending
// it, as computed by Definition 3's utility query or a private estimate
// thereof.
type Recommendation struct {
	Item    int32
	Utility float64
}

// Estimator produces per-item utility estimates for users. The similarity
// vector of each user is supplied by the caller so that the (public,
// privacy-free) similarity computation is shared across mechanisms.
//
// Implementations release any privacy-sensitive state at construction time;
// Utilities must be pure post-processing over that released state, so that
// calling it any number of times consumes no additional privacy budget.
type Estimator interface {
	// Name identifies the mechanism in experiment output (e.g. "exact",
	// "cluster", "nou", "noe", "gs", "lrm").
	Name() string
	// Utilities computes, for each users[k] with similarity vector
	// sims[k], estimated utilities for every item, written to out[k]
	// (len NumItems each). len(users) == len(sims) == len(out).
	Utilities(users []int32, sims []similarity.Scores, out [][]float64)
}

// TopNEstimator is an optional Estimator capability: selecting a user's
// top-n list straight from the released state, without writing a dense
// utility row. NewRecommender detects it once; RecommendContext then asks
// it first for every user and falls back to Utilities + TopN whenever it
// declines.
type TopNEstimator interface {
	// TopN returns, for the user with similarity vector sim, exactly the
	// items and bit-identical utilities that TopN(row, n, math.Inf(-1))
	// returns over the row Utilities writes for sim, as a TopHeap in heap
	// order (TopHeap.Sort ranks it). ok=false declines the query — the
	// estimator could not settle the list exactly and cheaply — and the
	// caller ignores list.
	TopN(sim similarity.Scores, n int) (list []Recommendation, ok bool)
}

// FoldEstimator is an optional Estimator capability: an estimator that
// reads a similarity vector only through a compact per-user summary, its
// fold, can hand that summary out and answer from it. NewRecommender
// detects it once; a similarity cache then keeps folds instead of vectors
// (CacheSimilarity), and RecommendContext answers cached users from them.
type FoldEstimator interface {
	// Fold summarizes sim. The result holds no reference to sim and is
	// immutable, so it may be cached and shared between callers.
	Fold(sim similarity.Scores) Fold
}

// Fold is one user's similarity vector as a FoldEstimator reads it. Its
// contents belong to the estimator that made it; both methods answer for
// that user exactly as the estimator answers from the vector itself.
type Fold interface {
	// TopN is TopNEstimator.TopN for the folded user: same items,
	// bit-identical utilities, same declines.
	TopN(n int) (list []Recommendation, ok bool)
	// Utilities adds the folded user's estimated utilities into out (len
	// NumItems, zeroed by the caller), bit-identically to Utilities over
	// the vector.
	Utilities(out []float64)
}

// TopN selects the n highest-utility items from a dense utility vector and
// returns them sorted by descending utility. Ties are broken toward the
// lower item id so output is deterministic. Items with utility ≤ minUtility
// are excluded; pass math.Inf(-1) to keep everything (private mechanisms
// must rank genuinely noisy values, including noise-only negative ones, as
// the paper's N-vs-accuracy discussion in §6.3 depends on zero-utility items
// displacing real ones).
//
//sociolint:hotpath
func TopN(utilities []float64, n int, minUtility float64) []Recommendation {
	if n <= 0 {
		return nil
	}
	// Bounded selection: maintain the current worst of the best n at
	// h[0]. The heap operations are methods, not closures, so the only
	// allocation per call is the result slice itself. The loop spells out
	// Offer's body: Offer is over the inlining budget, and this loop runs
	// once per item.
	h := make(TopHeap, 0, n)
	for item, u := range utilities {
		if u <= minUtility {
			continue
		}
		r := Recommendation{Item: int32(item), Utility: u}
		switch {
		case len(h) < n:
			h.push(r)
		case h.worse(h[0], r):
			h.replaceMin(r)
		}
	}
	return h.Sort()
}

// TopHeap is TopN's bounded selection heap: a min-heap under TopN's
// ranking (higher utility first, lower item id on ties), so h[0] is the
// worst entry kept. Exact top-n estimators select with it too, which keeps
// their tie-breaking identical to TopN's by construction.
type TopHeap []Recommendation

// Offer keeps r if fewer than n entries are kept or r ranks above h[0],
// evicting h[0] in the latter case.
func (h *TopHeap) Offer(r Recommendation, n int) {
	switch {
	case len(*h) < n:
		h.push(r)
	case h.worse((*h)[0], r):
		h.replaceMin(r)
	}
}

// Sort ranks the kept entries in place — descending utility, lower item id
// first on ties — and returns them. It is a heapsort: repeatedly swap the
// current minimum to the end and re-sift, which leaves the array in output
// order without the sort.Interface boxing a sort.Sort call would allocate.
// worse() is a strict total order, so the result is deterministic.
func (h TopHeap) Sort() []Recommendation {
	for m := len(h) - 1; m > 0; m-- {
		h[0], h[m] = h[m], h[0]
		h[:m].replaceMin(h[0])
	}
	return []Recommendation(h)
}

// worse reports whether a ranks strictly below b: lower utility, or a
// higher item id on equal utility (ties break toward the lower id).
func (TopHeap) worse(a, b Recommendation) bool {
	if a.Utility < b.Utility {
		return true
	}
	if a.Utility > b.Utility {
		return false
	}
	return a.Item > b.Item
}

// push sifts r up from the end of the heap.
func (h *TopHeap) push(r Recommendation) {
	s := append(*h, r)
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !s.worse(s[i], s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
	*h = s
}

// replaceMin overwrites the heap minimum with r and sifts it down.
func (h TopHeap) replaceMin(r Recommendation) {
	h[0] = r
	for i := 0; ; {
		l, rgt := 2*i+1, 2*i+2
		small := i
		if l < len(h) && h.worse(h[l], h[small]) {
			small = l
		}
		if rgt < len(h) && h.worse(h[rgt], h[small]) {
			small = rgt
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}

// Recommender generates personalized top-N recommendation lists by running
// an Estimator over users in bounded-memory batches.
type Recommender struct {
	social  *graph.Social
	items   int
	measure similarity.Measure
	est     Estimator
	// topN is est's exact top-n capability, nil when est lacks it.
	topN TopNEstimator
	// fold is est's fold capability, nil when est lacks it.
	fold FoldEstimator

	// BatchSize bounds how many dense utility vectors are held in memory
	// at once; 0 means a default of 256.
	BatchSize int

	// At most one of the two sources is set, by CacheSimilarity; with
	// neither, similarity is computed per batch. similaritySource supplies
	// vectors equal to Measure.Similar(social, u); foldSource supplies, for
	// a folding estimator only, their folds.
	similaritySource func(u int32) similarity.Scores
	foldSource       func(u int32) Fold
}

// NewRecommender wires a recommender from its parts. numItems is |I| of the
// preference graph the estimator was built from.
func NewRecommender(social *graph.Social, numItems int, m similarity.Measure, est Estimator) *Recommender {
	topN, _ := est.(TopNEstimator)
	fold, _ := est.(FoldEstimator)
	return &Recommender{social: social, items: numItems, measure: m, est: est, topN: topN, fold: fold}
}

// CacheSimilarity installs a bounded LRU of per-user similarity, capacity
// users (capacity < 1 selects simcache's default), and returns the cache's
// counters. When the estimator folds, the cache keeps each user's fold —
// all the estimator reads of the vector, and far smaller — otherwise the
// vector. Not safe to call concurrently with RecommendContext.
func (r *Recommender) CacheSimilarity(capacity int) (stats func() simcache.Stats) {
	if r.fold != nil {
		c := simcache.NewDerived(r.social, r.measure, capacity, r.fold.Fold)
		r.similaritySource, r.foldSource = nil, c.Similar
		return c.Stats
	}
	c := simcache.New(r.social, r.measure, capacity)
	r.similaritySource, r.foldSource = c.Similar, nil
	return c.Stats
}

func (r *Recommender) batchSize() int {
	if r.BatchSize > 0 {
		return r.BatchSize
	}
	return 256
}

// Recommend returns, for each requested user, the top-n recommendation list
// R_u of Definition 4 under the wired estimator. The result is parallel to
// users.
func (r *Recommender) Recommend(users []int32, n int) ([][]Recommendation, error) {
	return r.RecommendContext(context.Background(), users, n)
}

// RecommendContext is Recommend on a caller-supplied context. When ctx
// carries an active trace span (a served request, an evaluation run), the
// three phases of each batch — similarity lookup, cluster-average
// reconstruction, top-n selection — open child spans, so a slow request
// names the phase that made it slow, and the stage table gains a
// similarity_batch, cluster_average and top_n row as each ends. An
// untraced call records nothing.
//
// With a TopNEstimator, cluster_average times its selection scan and top_n
// the ranking of the n survivors; users it declines take the dense path
// (Utilities into a pooled row, then TopN), which is the only code that
// touches the dense arena. Users a similarity cache supplies as folds
// (CacheSimilarity) run both the scan and the dense path from the fold.
//
//sociolint:hotpath
func (r *Recommender) RecommendContext(ctx context.Context, users []int32, n int) ([][]Recommendation, error) {
	if n <= 0 {
		//sociolint:ignore hotalloc validation failure, the call is already rejected
		return nil, fmt.Errorf("core: top-N size must be positive, got %d", n)
	}
	for _, u := range users {
		if u < 0 || int(u) >= r.social.NumUsers() {
			//sociolint:ignore hotalloc validation failure, the call is already rejected
			return nil, fmt.Errorf("core: user %d out of range [0, %d)", u, r.social.NumUsers())
		}
	}
	out := make([][]Recommendation, len(users))
	bs := r.batchSize()
	if bs > len(users) {
		bs = len(users)
	}
	sc := getScratch()
	defer putScratch(sc)
	if cap(sc.dense) < bs {
		sc.dense = make([]int, 0, bs)
	}
	for start := 0; start < len(users); start += bs {
		end := start + bs
		if end > len(users) {
			end = len(users)
		}
		batch := users[start:end]
		// Each user arrives as a fold (folds != nil) or as a vector.
		var (
			sims  []similarity.Scores
			folds []Fold
		)
		simTrace := trace.StartLeaf(ctx, "similarity_batch", attrBatchSize.Int(int64(len(batch))))
		switch {
		case r.foldSource != nil:
			if cap(sc.folds) < len(batch) {
				sc.folds = make([]Fold, len(batch))
			}
			folds = sc.folds[:len(batch)]
			for i, u := range batch {
				folds[i] = r.foldSource(u)
			}
		case r.similaritySource != nil:
			if cap(sc.sims) < len(batch) {
				sc.sims = make([]similarity.Scores, len(batch))
			}
			sims = sc.sims[:len(batch)]
			for i, u := range batch {
				sims[i] = r.similaritySource(u)
			}
		default:
			sims = similarity.ComputeAll(r.social, r.measure, batch, 0)
		}
		simTrace.End()
		avgTrace := trace.StartLeaf(ctx, "cluster_average", attrUsers.Int(int64(len(batch))))
		// dense lists the batch positions the exact path did not answer.
		dense := sc.dense[:0]
		for i := range batch {
			var (
				list []Recommendation
				ok   bool
			)
			switch {
			case folds != nil:
				list, ok = folds[i].TopN(n)
			case r.topN != nil:
				list, ok = r.topN.TopN(sims[i], n)
			}
			if ok {
				out[start+i] = list
				continue
			}
			dense = append(dense, i)
		}
		rows := sc.denseRows(len(dense), r.items)
		switch {
		case folds != nil:
			for k, i := range dense {
				folds[i].Utilities(rows[k])
			}
		case len(dense) == len(batch):
			r.est.Utilities(batch, sims, rows)
		default:
			for k, i := range dense {
				r.est.Utilities(batch[i:i+1], sims[i:i+1], rows[k:k+1])
			}
		}
		avgTrace.End()
		topTrace := trace.StartLeaf(ctx, "top_n", attrTopN.Int(int64(n)))
		for i, k := 0, 0; i < len(batch); i++ {
			if k < len(dense) && dense[k] == i {
				out[start+i] = TopN(rows[k], n, math.Inf(-1))
				k++
			} else {
				TopHeap(out[start+i]).Sort()
			}
		}
		topTrace.End()
	}
	return out, nil
}
