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
	// MaxLevels bounds the coarsening hierarchy depth; 0 means unbounded
	// (Louvain converges long before any practical bound is reached).
	MaxLevels int
	// MaxPasses bounds the local-moving sweeps per level; 0 means
	// unbounded (sweeps stop as soon as no node moves).
	MaxPasses int
	// DisableRefinement turns off the multi-level refinement step of
	// Rotta & Noack [29]. The paper's setup has refinement on; the
	// ablation benchmarks turn it off.
	DisableRefinement bool
	// MinGain is the minimum modularity-gain for a node move to be taken;
	// values ≤ 0 use a small default tolerance that guards against
	// floating-point oscillation.
	MinGain float64
}

func (o Options) minGain() float64 {
	if o.MinGain > 0 {
		return o.MinGain
	}
	return 1e-12
}

// Louvain detects communities in the social graph by greedy modularity
// maximization [4]: repeated sweeps of local node moves followed by graph
// aggregation, then (unless disabled) a top-down multi-level refinement pass
// [29] that re-optimizes node assignments at every level of the hierarchy,
// which stabilizes the output across initial node orderings (§5.1.2 of the
// paper).
func Louvain(g *graph.Social, opt Options) *Clustering {
	return louvain(fromSocial(g), opt)
}

// louvain is Louvain over the level-0 weighted graph. It only reads base,
// so concurrent runs may share one.
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
		assign := localMove(cur, initSingleton(cur.n), rng, opt)
		comms := compact(assign)
		moved := comms < cur.n
		levels = append(levels, level{g: cur, assign: assign})
		if !moved || (opt.MaxLevels > 0 && len(levels) >= opt.MaxLevels) {
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
			levels[li].assign = localMove(fine.g, projected, rng, opt)
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

// wgraph is the weighted multigraph used internally during coarsening.
// Self-loops hold intra-community weight after aggregation.
type wgraph struct {
	n     int
	off   []int32
	to    []int32
	w     []float64
	self  []float64 // self-loop weight per node (counted once)
	wdeg  []float64 // weighted degree: Σ_j A_uj with self-loop counted twice
	total float64   // m = ½ Σ wdeg
}

func fromSocial(g *graph.Social) *wgraph {
	n := g.NumUsers()
	wg := &wgraph{
		n:    n,
		off:  make([]int32, n+1),
		to:   make([]int32, 2*g.NumEdges()),
		w:    make([]float64, 2*g.NumEdges()),
		self: make([]float64, n),
		wdeg: make([]float64, n),
	}
	var pos int32
	for u := 0; u < n; u++ {
		wg.off[u] = pos
		for _, v := range g.Neighbors(u) {
			wg.to[pos] = v
			wg.w[pos] = 1
			pos++
		}
		wg.wdeg[u] = float64(g.Degree(u))
		wg.total += wg.wdeg[u]
	}
	wg.off[n] = pos
	wg.total /= 2
	return wg
}

func initSingleton(n int) []int32 {
	a := make([]int32, n)
	for i := range a {
		a[i] = int32(i)
	}
	return a
}

// localMove runs sweeps of greedy node moves until no node improves
// modularity, starting from the given assignment. It returns the (not
// necessarily compacted) assignment.
func localMove(g *wgraph, assign []int32, rng *rand.Rand, opt Options) []int32 {
	if g.total == 0 {
		return assign
	}
	tot := make([]float64, g.n) // community → Σ_tot (sum of weighted degrees)
	for u := 0; u < g.n; u++ {
		tot[assign[u]] += g.wdeg[u]
	}
	m2 := 2 * g.total
	minGain := opt.minGain()

	// neighW accumulates k_{u,in}(c) per candidate community during one
	// node's evaluation.
	neighW := make([]float64, g.n)
	touched := make([]int32, 0, 64)

	order := rng.Perm(g.n)
	for pass := 0; opt.MaxPasses == 0 || pass < opt.MaxPasses; pass++ {
		moves := 0
		for _, ui := range order {
			u := int32(ui)
			cu := assign[u]
			// Gather edge weight from u to each neighboring community.
			touched = touched[:0]
			for e := g.off[u]; e < g.off[u+1]; e++ {
				v := g.to[e]
				if v == u {
					continue
				}
				c := assign[v]
				if neighW[c] == 0 {
					touched = append(touched, c)
				}
				neighW[c] += g.w[e]
			}
			// Remove u from its community for the evaluation.
			tot[cu] -= g.wdeg[u]
			// Staying put is the baseline.
			best := cu
			bestGain := neighW[cu] - tot[cu]*g.wdeg[u]/m2
			for _, c := range touched {
				if c == cu {
					continue
				}
				gain := neighW[c] - tot[c]*g.wdeg[u]/m2
				if gain > bestGain+minGain {
					best, bestGain = c, gain
				}
			}
			for _, c := range touched {
				neighW[c] = 0
			}
			tot[best] += g.wdeg[u]
			if best != cu {
				assign[u] = best
				moves++
			}
		}
		if moves == 0 {
			break
		}
	}
	return assign
}

// compact renumbers communities to dense ids in place and returns the count.
func compact(assign []int32) int {
	remap := make(map[int32]int32)
	for i, a := range assign {
		id, ok := remap[a]
		if !ok {
			id = int32(len(remap))
			remap[a] = id
		}
		assign[i] = id
	}
	return len(remap)
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
		a, b int32
		w    float64
	}
	var pairs []pair
	var touched []int32
	self := make([]float64, comms)
	deg := make([]int32, comms)
	acc := make([]float64, comms)
	for a := int32(0); int(a) < comms; a++ {
		touched = touched[:0]
		for _, u := range members[start[a]:start[a+1]] {
			self[a] += g.self[u]
			for e := g.off[u]; e < g.off[u+1]; e++ {
				v := g.to[e]
				switch b := assign[v]; {
				case b == a:
					if u < v {
						self[a] += g.w[e]
					}
				case b > a:
					if acc[b] == 0 {
						touched = append(touched, b)
					}
					acc[b] += g.w[e]
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
		n:    comms,
		off:  make([]int32, comms+1),
		self: self,
		wdeg: make([]float64, comms),
	}
	for c := 0; c < comms; c++ {
		out.off[c+1] = out.off[c] + deg[c]
	}
	out.to = make([]int32, out.off[comms])
	out.w = make([]float64, out.off[comms])
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
		out.total += out.wdeg[c]
	}
	out.total /= 2
	return out
}
