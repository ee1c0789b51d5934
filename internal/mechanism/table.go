package mechanism

import (
	"math"
	"sync"
	"sync/atomic"

	"socialrec/internal/community"
	"socialrec/internal/core"
	"socialrec/internal/similarity"
	"socialrec/internal/telemetry"
)

// The exact top-n scan reads each touched cluster's sorted prefix one rank
// at a time, and the depth it needs grows with n: over 400 users of the
// LastFM-like and Flixster-like presets (seed 1, CN, ε=1) the depth p50/p99
// was 18/36 and 16/23 at n=10, and 102/224 and 63/76 at n=48, about 2–5×n.
// A 256-id prefix settled all but 2 of those 800 queries at n=48. Scoring
// from the prefixes' item-major columns, the scan's p90 on the LastFM-like
// preset stays below the dense pass's through n=64 (351 vs 376 µs, 10% of
// queries running out of prefix and paying for both) and exceeds it at
// n=80 (560 vs 380 µs, 38% running out); on the Flixster-like preset no
// query runs out through n=128 and the scan stays ahead. The cutoff is
// still the one set when the scan read the cluster-major rows and crossed
// the dense pass at n=56 (p90 498 vs 401 µs): the scan is tried only for
// n ≤ maxExactN, and larger n take the dense path.
const (
	prefixLen = 256
	maxExactN = 48
)

// table is a released per-(cluster, item) averages table and everything
// served from it: the per-user fold of a similarity vector (Fold), Eq. 4's
// dense reconstruction (Utilities), the exact top-n selection (TopN), both
// also from a fold, and the sorted prefixes TopN scans. Cluster and
// WeightedCluster differ only in how they release the averages.
type table struct {
	clusters *community.Clustering
	numItems int
	// avg[c*numItems + i] = ŵ_c^i, the sanitized per-cluster averages.
	avg []float64
	// prefix[c] indexes cluster c's row; it is built on the first TopN
	// that touches c, so engines and clusters no query reaches never pay
	// for the sort.
	prefix []sortedPrefix
}

// newTable wraps avg, a cluster-major numItems-column averages table, in
// place.
func newTable(clusters *community.Clustering, numItems int, avg []float64) table {
	t := table{clusters: clusters, numItems: numItems, avg: avg,
		prefix: make([]sortedPrefix, clusters.NumClusters())}
	for c := range t.prefix {
		t.prefix[c].avg = avg
		t.prefix[c].row = avg[c*numItems : (c+1)*numItems]
	}
	return t
}

// sortedPrefix is one cluster's index: the ids of the row's prefixLen best
// items in (average desc, id asc) order — the order TopN ranks by — and
// those items' columns, item-major: cols[d*nc + c] is cluster c's average
// for ids[d]. The columns are bit copies of the table, so TopN scores a
// candidate from one contiguous run of nc averages instead of one average
// from each touched row. It keeps the table and its own row so that
// once.Do can take build as a method value: hotalloc rejects a function
// literal on TopN's hot path.
type sortedPrefix struct {
	once sync.Once
	avg  []float64
	row  []float64
	ids  []int32
	cols []float64
}

// build fills ids and cols. A row holding a non-finite average gets an
// empty prefix, so TopN declines every query that touches it.
func (p *sortedPrefix) build() {
	for _, x := range p.row {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return
		}
	}
	best := core.TopN(p.row, prefixLen, math.Inf(-1))
	p.ids = make([]int32, len(best))
	for k, r := range best {
		p.ids[k] = r.Item
	}
	// Gather one row at a time: each pass reads a single row at the
	// prefix's ids, where item by item would stride across every row.
	ni := len(p.row)
	nc := len(p.avg) / ni
	p.cols = make([]float64, len(p.ids)*nc)
	for c := 0; c < nc; c++ {
		row := p.avg[c*ni : (c+1)*ni]
		for d, i := range p.ids {
			p.cols[d*nc+c] = row[i]
		}
	}
}

// sortedPrefix returns cluster cl's prefix, building it on first use.
func (t *table) sortedPrefix(cl int32) *sortedPrefix {
	p := &t.prefix[cl]
	p.once.Do(p.build)
	return p
}

// Average returns the released noisy average ŵ_c^i.
func (t *table) Average(cluster, item int) float64 {
	return t.avg[cluster*t.numItems+item]
}

// scanScratch is the pooled working set of Fold, Utilities and TopN: the
// per-cluster mass accumulator (all zero between uses), a fold's touched
// clusters and their masses, a scan's prefixes (prefix[k] is the k-th
// lane's), the set of items a scan has scored and the scan's selection
// heap.
type scanScratch struct {
	mass    []float64
	touched []int32
	masses  []float64
	prefix  []*sortedPrefix
	seen    []uint64
	heap    core.TopHeap
}

var (
	scanPool     = sync.Pool{New: func() any { scanPoolNews.Add(1); return new(scanScratch) }}
	scanPoolGets atomic.Uint64
	scanPoolNews atomic.Uint64
)

func init() {
	telemetry.RegisterPoolStats("mechanism_scan", func() telemetry.PoolStats {
		return telemetry.PoolStats{Gets: scanPoolGets.Load(), Misses: scanPoolNews.Load()}
	})
}

//sociolint:hotpath
func getScanScratch() *scanScratch {
	scanPoolGets.Add(1)
	return scanPool.Get().(*scanScratch)
}

// putScanScratch returns sc to the pool. Callers do not defer it: a call
// that panics mid-fold leaves sc.mass dirty, and its scratch must be
// dropped, not reused.
//
//sociolint:hotpath
func putScanScratch(sc *scanScratch) {
	// Drop the prefix references, stale ones past len included, so a
	// pooled scratch never pins another engine's release.
	clear(sc.prefix[:cap(sc.prefix)])
	scanPool.Put(sc)
}

// fold sums s's similarity values per cluster (the inner sum of Eq. 4) and
// leaves the touched clusters in sc.touched, in first-touch order, with
// their masses in sc.masses. Every reconstruction and every scan starts
// from a fold, so both combine the same masses in the same order.
func (t *table) fold(sc *scanScratch, s similarity.Scores) {
	if nc := t.clusters.NumClusters(); len(sc.mass) < nc {
		sc.mass = make([]float64, nc)
	}
	mass := sc.mass
	touched := sc.touched[:0]
	for j, v := range s.Users {
		cl := int32(t.clusters.Cluster(int(v)))
		if mass[cl] == 0 {
			touched = append(touched, cl)
		}
		mass[cl] += s.Vals[j]
	}
	masses := sc.masses[:0]
	for _, cl := range touched {
		masses = append(masses, mass[cl])
		mass[cl] = 0
	}
	sc.touched, sc.masses = touched, masses
}

// Fold is one user's similarity vector as the table reads it: the
// clusters the vector touches, in first-touch order, and the similarity
// mass it puts in each (the inner sum of Eq. 4) — at most |C| pairs,
// where the vector holds one pair per similar user. Both slices are
// exact-size, so a cached Fold keeps no spare capacity. A Fold answers
// TopN and Utilities bit-identically to its table answering from the
// vector, because both run from the same masses in the same order.
type Fold struct {
	t        *table
	clusters []int32
	masses   []float64
}

// Fold implements core.FoldEstimator: it folds sim into a Fold that
// holds no reference to sim.
func (t *table) Fold(sim similarity.Scores) core.Fold {
	sc := getScanScratch()
	t.fold(sc, sim)
	f := &Fold{t: t, clusters: make([]int32, len(sc.touched)), masses: make([]float64, len(sc.masses))}
	copy(f.clusters, sc.touched)
	copy(f.masses, sc.masses)
	putScanScratch(sc)
	return f
}

// Utilities reconstructs utility estimates via Eq. 4:
//
//	μ̂_u^i = Σ_{c ∈ Φ} ( Σ_{v ∈ sim(u) ∩ c} sim(u,v) ) · ŵ_c^i
//
// For each user it first folds the similarity vector into per-cluster
// similarity mass, then takes a dense linear combination of the sanitized
// per-cluster average rows (lines 8–17 of Algorithm 1). Eq. 4 is agnostic
// to how the averages were formed, so weighted releases reconstruct the
// same way.
func (t *table) Utilities(users []int32, sims []similarity.Scores, out [][]float64) {
	sc := getScanScratch()
	for k := range users {
		t.fold(sc, sims[k])
		t.reconstruct(sc.touched, sc.masses, out[k])
	}
	putScanScratch(sc)
}

// Utilities implements core.Fold: Eq. 4's dense row for the folded user,
// added into out.
func (f *Fold) Utilities(out []float64) {
	f.t.reconstruct(f.clusters, f.masses, out)
}

// reconstruct adds Σ_k masses[k]·row(touched[k]) into out, in fold order.
func (t *table) reconstruct(touched []int32, masses []float64, out []float64) {
	for j, cl := range touched {
		base := int(cl) * t.numItems
		axpy(masses[j], t.avg[base:base+t.numItems], out)
	}
}

// axpy computes y += a*x over equal-length slices. The bounds hint lets the
// compiler eliminate per-element checks in this hot loop.
func axpy(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic("mechanism: axpy length mismatch")
	}
	y = y[:len(x)]
	for i := range x {
		y[i] += a * x[i]
	}
}

// TopN implements core.TopNEstimator with Fagin, Lotem and Naor's
// threshold algorithm. A user's estimate is a combination, with positive
// weights, of the touched clusters' rows, so reading every touched row's
// sorted prefix one rank at a time bounds every item not yet read by the
// threshold Σ_c m_c·(row_c at the current rank). Each item read is scored
// exactly; the scan stops once the n-th best score is strictly above the
// threshold. Four rules make the list bit-identical to Utilities + TopN:
//
//   - scores and the threshold are summed in Utilities' cluster order (the
//     fold's first-touch order), in the same acc += m*x form as axpy, and
//     rounding is monotone, so the threshold is a true bound even in
//     floating point (a target that fuses the multiply-add fuses both
//     alike);
//   - ties break toward the lower id (core.TopHeap's rule);
//   - the stop test is strict, because an unread item equal to the
//     threshold could still win a tie;
//   - an empty similarity set yields ids 0..n-1 at utility 0.
//
// It declines (ok=false) when n is outside [1, maxExactN] or n ≥ |I|, when
// a fold mass is not finite and positive, when a score is NaN, and when a
// prefix runs out before the stop test passes.
//
//sociolint:hotpath
func (t *table) TopN(sim similarity.Scores, n int) ([]core.Recommendation, bool) {
	if !t.exactN(n) {
		return nil, false
	}
	sc := getScanScratch()
	t.fold(sc, sim)
	list, ok := t.selectTop(sc, sc.touched, sc.masses, n)
	putScanScratch(sc)
	return list, ok
}

// TopN implements core.Fold: the table's TopN for the folded user, without
// re-reading the vector.
//
//sociolint:hotpath
func (f *Fold) TopN(n int) ([]core.Recommendation, bool) {
	if !f.t.exactN(n) {
		return nil, false
	}
	sc := getScanScratch()
	list, ok := f.t.selectTop(sc, f.clusters, f.masses, n)
	putScanScratch(sc)
	return list, ok
}

// exactN reports whether TopN tries the scan for lists of length n.
func (t *table) exactN(n int) bool {
	return n >= 1 && n <= maxExactN && n < t.numItems
}

// selectTop runs the scan over a fold and copies out the n items it
// settles, in heap order; ok=false when the scan could not settle them.
func (t *table) selectTop(sc *scanScratch, touched []int32, masses []float64, n int) ([]core.Recommendation, bool) {
	if !t.scan(sc, touched, masses, n) {
		return nil, false
	}
	list := make([]core.Recommendation, len(sc.heap))
	copy(list, sc.heap)
	return list, true
}

// scan runs the threshold algorithm over a fold's clusters (its lanes),
// leaving the n best items in sc.heap; false means it could not settle
// them. Every lane's prefix is read in rank order: a candidate met at rank
// d of a lane is scored from that lane's column d, and the threshold takes
// each lane's term from its own column d, so no step reads a row of the
// table itself.
func (t *table) scan(sc *scanScratch, touched []int32, masses []float64, n int) bool {
	sc.heap = sc.heap[:0]
	if len(touched) == 0 {
		// The dense row is all zero, and TopN keeps the lowest ids.
		for i := 0; i < n; i++ {
			sc.heap.Offer(core.Recommendation{Item: int32(i)}, n)
		}
		return true
	}
	touched = touched[:len(masses)]
	for _, m := range masses {
		if !(m > 0 && m <= math.MaxFloat64) {
			return false
		}
	}
	depth := t.numItems
	prefix := sc.prefix[:0]
	for _, cl := range touched {
		p := t.sortedPrefix(cl)
		prefix = append(prefix, p)
		depth = min(depth, len(p.ids))
	}
	sc.prefix = prefix
	if words := (t.numItems + 63) / 64; cap(sc.seen) < words {
		sc.seen = make([]uint64, words)
	} else {
		sc.seen = sc.seen[:words]
		clear(sc.seen)
	}
	seen := sc.seen
	nc := len(t.prefix)
	for d := 0; d < depth; d++ {
		at := d * nc
		// Every item not yet read sits at rank d or below in every lane.
		if len(sc.heap) == n {
			var thr float64
			for k, p := range prefix {
				thr += masses[k] * p.cols[at+int(touched[k])]
			}
			if sc.heap[0].Utility > thr {
				return true
			}
		}
		for _, p := range prefix {
			i := p.ids[d]
			if seen[i>>6]&(1<<(i&63)) != 0 {
				continue
			}
			seen[i>>6] |= 1 << (i & 63)
			col := p.cols[at : at+nc]
			var s float64
			for k, m := range masses {
				s += m * col[touched[k]]
			}
			if math.IsNaN(s) {
				return false
			}
			// TopN drops -Inf utilities (its floor), so the scan does too.
			if s > math.Inf(-1) {
				sc.heap.Offer(core.Recommendation{Item: i, Utility: s}, n)
			}
		}
	}
	// A prefix that holds the whole row has scored every item.
	return depth == t.numItems
}
