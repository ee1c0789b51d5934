package community

import (
	"fmt"

	"socialrec/internal/graph"
)

// Repair incrementally updates an existing clustering after graph
// mutations, instead of re-running full Louvain. New vertices (ids at or
// beyond the base clustering's population) start as singletons; then
// greedy modularity local moves sweep outward from the touched vertices —
// each move can destabilize only its neighborhood, so the worklist stays
// proportional to the blast radius of the mutations rather than |V|.
//
// Each node is evaluated exactly as Louvain's local moving evaluates it, so
// every accepted move strictly increases modularity by more than minGain
// and the repair terminates; a safety cap bounds the worklist against
// pathological cascades. The result is compacted to dense cluster ids.
//
// Repair reads only the public social graph (as all clustering here
// does), so it consumes no privacy budget.
func Repair(g *graph.Social, base *Clustering, touched []int32) (*Clustering, error) {
	n := g.NumUsers()
	nb := base.NumUsers()
	if n < nb {
		return nil, fmt.Errorf("community: repair: graph has %d users but base clustering covers %d (shrinking is unsupported)", n, nb)
	}
	assign := make([]int32, n)
	copy(assign, base.Assignment())
	comms := base.NumClusters()
	for u := nb; u < n; u++ {
		assign[u] = int32(comms)
		comms++
	}

	wg := fromSocial(g)
	if wg.total == 0 {
		c, err := FromAssignment(assign)
		if err != nil {
			return nil, err
		}
		return c, nil
	}

	// Seed the worklist with the touched vertices and every new vertex.
	queue := make([]int32, 0, len(touched)+(n-nb))
	queued := make([]bool, n)
	push := func(u int32) {
		if !queued[u] {
			queued[u] = true
			queue = append(queue, u)
		}
	}
	for _, u := range touched {
		if u < 0 || int(u) >= n {
			return nil, fmt.Errorf("community: repair: touched vertex %d outside population of %d", u, n)
		}
		push(u)
	}
	for u := nb; u < n; u++ {
		push(int32(u))
	}

	mv := newMover(wg, assign, comms)
	// Safety cap: local moves strictly improve modularity so this is never
	// reached in practice, but a bound keeps the worst case linear-ish.
	budget := 32*n + 1024
	for head := 0; head < len(queue); head++ {
		if head > budget {
			break
		}
		u := queue[head]
		queued[u] = false
		if cu := assign[u]; mv.move(assign, u) != cu {
			// The move can destabilize u's neighborhood; re-examine it.
			for _, v := range wg.to[wg.off[u]:wg.off[u+1]] {
				push(v)
			}
		}
	}

	c, err := FromAssignment(assign)
	if err != nil {
		return nil, err
	}
	return c, nil
}
