package community

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"socialrec/internal/graph"
)

// Options configures the Louvain method.
type Options struct {
	// Seed seeds the node-order permutations. Runs with distinct seeds
	// explore different local optima of modularity.
	Seed int64
	// DisableRefinement turns off the multi-level refinement step of
	// Rotta & Noack [29]. The paper's setup has refinement on; the
	// ablation benchmarks turn it off.
	DisableRefinement bool
}

// minGain is how much a move's modularity gain must beat staying put by; it
// guards against floating-point oscillation between equal gains.
const minGain = 1e-12

// Louvain detects communities in the social graph by greedy modularity
// maximization [4]: repeated sweeps of local node moves followed by graph
// aggregation, then (unless disabled) a top-down multi-level refinement pass
// [29] that re-optimizes node assignments at every level of the hierarchy,
// which stabilizes the output across initial node orderings (§5.1.2 of the
// paper).
func Louvain(g *graph.Social, opt Options) *Clustering {
	return louvain(fromSocial(g), opt)
}

// louvain is Louvain over the level-0 graph. It only reads base, so
// concurrent runs may share one.
func louvain(base *wgraph, opt Options) *Clustering {
	rng := rand.New(rand.NewSource(opt.Seed))

	// Coarsening: at each level run local moving to convergence, then
	// aggregate communities into super-nodes.
	type level struct {
		g      *wgraph
		assign []int32 // node of this level's graph → community (== node of next level)
	}
	var levels []level
	cur := base
	for {
		assign := localMove(cur, initSingleton(cur.n), rng)
		comms := compact(assign)
		levels = append(levels, level{g: cur, assign: assign})
		if comms == cur.n {
			break
		}
		cur = aggregate(cur, assign, comms)
	}

	// Refinement: walk the hierarchy from coarsest to finest. At each
	// finer level, project the coarser solution down and re-run local
	// moving starting from it.
	if !opt.DisableRefinement {
		for li := len(levels) - 2; li >= 0; li-- {
			fine := levels[li]
			coarse := levels[li+1]
			projected := make([]int32, fine.g.n)
			for u := 0; u < fine.g.n; u++ {
				projected[u] = coarse.assign[fine.assign[u]]
			}
			levels[li].assign = localMove(fine.g, projected, rng)
			// Invalidate coarser levels: the finest assignment is now
			// authoritative. (Only level 0 is read below.)
			levels = levels[:li+1]
		}
	} else {
		// Compose the hierarchy into a flat assignment at level 0.
		flat := levels[len(levels)-1].assign
		for li := len(levels) - 2; li >= 0; li-- {
			fine := levels[li]
			composed := make([]int32, fine.g.n)
			for u := 0; u < fine.g.n; u++ {
				composed[u] = flat[fine.assign[u]]
			}
			flat = composed
		}
		levels[0].assign = flat
	}

	c, err := FromAssignment(levels[0].assign)
	if err != nil {
		// FromAssignment rejects only negative ids, and Louvain makes none.
		panic("community: internal error: Louvain assigned a negative cluster id")
	}
	return c
}

// BestOf runs Louvain `runs` times with seeds seed, seed+1, ... and returns
// the clustering with the highest modularity on g, mirroring the paper's
// best-of-10 protocol (§6.2); on an exact tie the earliest restart wins.
// The restarts run on up to GOMAXPROCS goroutines sharing one read-only
// level-0 graph. Each restart depends only on its own seed, so the result is
// identical to running the restarts one after another. It panics if
// runs < 1.
func BestOf(g *graph.Social, runs int, seed int64, opt Options) (*Clustering, float64) {
	if runs < 1 {
		panic("community: BestOf needs runs >= 1")
	}
	base := fromSocial(g)
	cs := make([]*Clustering, runs)
	qs := make([]float64, runs)
	var next atomic.Int64
	var wg sync.WaitGroup
	workers := min(runs, runtime.GOMAXPROCS(0))
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for r := next.Add(1) - 1; r < int64(runs); r = next.Add(1) - 1 {
				o := opt
				o.Seed = seed + r
				cs[r] = louvain(base, o)
				qs[r] = Modularity(g, cs[r])
			}
		}()
	}
	wg.Wait()
	best := 0
	for r := 1; r < runs; r++ {
		if qs[r] > qs[best] {
			best = r
		}
	}
	return cs[best], qs[best]
}

// wgraph is the multigraph used during coarsening. Its weights are edge
// counts: the social graph is unweighted and has no self-loops or repeated
// edges, and aggregation only sums counts. Every weight, degree and Σ_tot is
// therefore an integer of at most 2|E|, below 2³¹ because the CSR offsets
// are int32, and float64 holds each exactly: the gains computed from them
// are the same bits a float-weighted graph gives. No node lists itself as a
// neighbour; self-loops hold intra-community weight after aggregation.
type wgraph struct {
	n     int
	off   []int32
	to    []int32
	w     []int32 // edge counts; nil means every edge counts 1 (level 0)
	self  []int32 // self-loop weight per node (counted once)
	wdeg  []int32 // weighted degree: Σ_j A_uj with self-loop counted twice
	total int     // m = ½ Σ wdeg
}

func fromSocial(g *graph.Social) *wgraph {
	n := g.NumUsers()
	wg := &wgraph{
		n:    n,
		off:  make([]int32, n+1),
		to:   make([]int32, 0, 2*g.NumEdges()),
		self: make([]int32, n),
		wdeg: make([]int32, n),
	}
	for u := 0; u < n; u++ {
		wg.off[u] = int32(len(wg.to))
		wg.to = append(wg.to, g.Neighbors(u)...)
		wg.wdeg[u] = int32(g.Degree(u))
	}
	wg.off[n] = int32(len(wg.to))
	wg.total = g.NumEdges()
	return wg
}

func initSingleton(n int) []int32 {
	a := make([]int32, n)
	for i := range a {
		a[i] = int32(i)
	}
	return a
}

// mover evaluates single-node moves on g: it keeps each community's Σ_tot
// for the current assignment and, while one node is evaluated, its k_{u,in}
// toward each neighbouring community.
type mover struct {
	g       *wgraph
	m2      float64 // 2m
	tot     []int32 // community → Σ_tot (sum of weighted degrees)
	kin     []int32 // community → k_{u,in}; all zero between evaluations
	touched []int32 // scratch as long as g's longest adjacency list
}

// newMover sizes the community tables for ids below comms and sums Σ_tot
// over assign. It requires g.total > 0.
func newMover(g *wgraph, assign []int32, comms int) *mover {
	longest := int32(0)
	for u := 0; u < g.n; u++ {
		longest = max(longest, g.off[u+1]-g.off[u])
	}
	mv := &mover{
		g:       g,
		m2:      float64(2 * g.total),
		tot:     make([]int32, comms),
		kin:     make([]int32, comms),
		touched: make([]int32, longest),
	}
	for u, c := range assign {
		mv.tot[c] += g.wdeg[u]
	}
	return mv
}

// move takes u out of its community, puts it into the neighbouring
// community with the largest modularity gain, and returns that community.
// Staying put is the baseline: another community must beat its gain by more
// than minGain, and among equal gains the first in u's adjacency order wins.
func (mv *mover) move(assign []int32, u int32) int32 {
	g, kin, tot := mv.g, mv.kin, mv.tot
	// List u's neighbouring communities in order of first touch. Every edge
	// writes its community into the next slot, and the slot is kept only if
	// the community is new: a conditional count instead of a branch on the
	// data, which mispredicts whenever u's neighbours span communities.
	lo, hi := g.off[u], g.off[u+1]
	touched, k := mv.touched[:hi-lo], 0
	if g.w == nil {
		for _, v := range g.to[lo:hi] {
			c := assign[v]
			touched[k] = c
			if kin[c] == 0 {
				k++
			}
			kin[c]++
		}
	} else {
		w := g.w[lo:hi]
		for i, v := range g.to[lo:hi] {
			c := assign[v]
			touched[k] = c
			if kin[c] == 0 {
				k++
			}
			kin[c] += w[i]
		}
	}
	touched = touched[:k]
	cu, ku := assign[u], g.wdeg[u]
	tot[cu] -= ku
	best := cu
	bestGain := float64(kin[cu]) - float64(tot[cu])*float64(ku)/mv.m2
	for _, c := range touched {
		if c == cu {
			continue
		}
		gain := float64(kin[c]) - float64(tot[c])*float64(ku)/mv.m2
		if gain > bestGain+minGain {
			best, bestGain = c, gain
		}
	}
	for _, c := range touched {
		kin[c] = 0
	}
	tot[best] += ku
	assign[u] = best
	return best
}

// localMove runs sweeps of greedy node moves until no node improves
// modularity, starting from the given assignment, whose ids must be below
// g.n. It returns the (not necessarily compacted) assignment.
func localMove(g *wgraph, assign []int32, rng *rand.Rand) []int32 {
	if g.total == 0 {
		return assign
	}
	mv := newMover(g, assign, g.n)
	order := rng.Perm(g.n)
	for {
		moves := 0
		for _, u := range order {
			if cu := assign[u]; mv.move(assign, int32(u)) != cu {
				moves++
			}
		}
		if moves == 0 {
			return assign
		}
	}
}

// compact renumbers communities to dense ids in place, in order of first
// appearance, and returns the count. Every id must be below len(assign).
func compact(assign []int32) int {
	remap := make([]int32, len(assign)) // id → dense id + 1; 0 means unseen
	comms := int32(0)
	for i, a := range assign {
		if remap[a] == 0 {
			comms++
			remap[a] = comms
		}
		assign[i] = remap[a] - 1
	}
	return int(comms)
}

// aggregate contracts each community of g into a super-node. Inter-community
// edge weights are summed; intra-community weight (including existing
// self-loops) becomes the super-node's self-loop. Every super-node lists
// its neighbours in ascending id order, so the coarse graph, and with it
// localMove's first-of-equal-gains tie-break, depends only on g and assign.
func aggregate(g *wgraph, assign []int32, comms int) *wgraph {
	// Bucket the nodes by community, each bucket in id order.
	start := make([]int32, comms+1)
	for _, c := range assign {
		start[c+1]++
	}
	for c := 0; c < comms; c++ {
		start[c+1] += start[c]
	}
	members := make([]int32, g.n)
	next := make([]int32, comms)
	copy(next, start[:comms])
	for u, c := range assign {
		members[next[c]] = int32(u)
		next[c]++
	}

	// Sum each community's weight to every higher-numbered community into a
	// dense scratch, node by node in id order, and record the pairs in
	// (lower, higher) order.
	type pair struct {
		a, b, w int32
	}
	var pairs []pair
	var touched []int32
	self := make([]int32, comms)
	deg := make([]int32, comms)
	acc := make([]int32, comms)
	for a := int32(0); int(a) < comms; a++ {
		touched = touched[:0]
		for _, u := range members[start[a]:start[a+1]] {
			self[a] += g.self[u]
			for e := g.off[u]; e < g.off[u+1]; e++ {
				v, w := g.to[e], int32(1)
				if g.w != nil {
					w = g.w[e]
				}
				switch b := assign[v]; {
				case b == a:
					if u < v {
						self[a] += w
					}
				case b > a:
					if acc[b] == 0 {
						touched = append(touched, b)
					}
					acc[b] += w
				}
			}
		}
		slices.Sort(touched)
		for _, b := range touched {
			pairs = append(pairs, pair{a, b, acc[b]})
			acc[b] = 0
			deg[a]++
			deg[b]++
		}
	}

	out := &wgraph{
		n:     comms,
		off:   make([]int32, comms+1),
		self:  self,
		wdeg:  make([]int32, comms),
		total: g.total, // contraction keeps every unit of edge weight
	}
	for c := 0; c < comms; c++ {
		out.off[c+1] = out.off[c] + deg[c]
	}
	out.to = make([]int32, out.off[comms])
	out.w = make([]int32, out.off[comms])
	copy(next, out.off[:comms])
	// Pairs come in (lower, higher) order, so each row fills with its lower
	// neighbours ascending, then its higher ones ascending.
	for _, p := range pairs {
		out.to[next[p.a]] = p.b
		out.w[next[p.a]] = p.w
		next[p.a]++
		out.to[next[p.b]] = p.a
		out.w[next[p.b]] = p.w
		next[p.b]++
	}
	for c := 0; c < comms; c++ {
		out.wdeg[c] = 2 * out.self[c]
		for e := out.off[c]; e < out.off[c+1]; e++ {
			out.wdeg[c] += out.w[e]
		}
	}
	return out
}
