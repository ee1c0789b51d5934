package community

import (
	"testing"

	"socialrec/internal/graph"
)

// ringOfCliques builds k well-separated cliques of size s with single
// bridge edges between consecutive cliques — an unambiguous community
// structure for repair to preserve.
func ringOfCliques(t *testing.T, k, s int) *graph.Social {
	t.Helper()
	b := graph.NewSocialBuilder(k * s)
	for c := 0; c < k; c++ {
		base := c * s
		for i := 0; i < s; i++ {
			for j := i + 1; j < s; j++ {
				if err := b.AddEdge(base+i, base+j); err != nil {
					t.Fatal(err)
				}
			}
		}
		next := ((c + 1) % k) * s
		if err := b.AddEdge(base, next); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestRepairNoMutationsIsStable(t *testing.T) {
	g := ringOfCliques(t, 4, 6)
	base, _ := BestOf(g, 4, 11, Options{})
	got, err := Repair(g, base, nil)
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	if got.NumClusters() != base.NumClusters() {
		t.Fatalf("repair changed cluster count %d -> %d with no mutations", base.NumClusters(), got.NumClusters())
	}
	if Modularity(g, got) < Modularity(g, base)-1e-9 {
		t.Fatalf("repair decreased modularity")
	}
}

func TestRepairAbsorbsNewVertices(t *testing.T) {
	g := ringOfCliques(t, 4, 6)
	base, _ := BestOf(g, 4, 11, Options{})

	// Grow the graph: one new vertex tied densely into clique 0.
	n := g.NumUsers()
	b := graph.NewSocialBuilder(n + 1)
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(u) {
			if int32(u) < v {
				if err := b.AddEdge(u, int(v)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for i := 0; i < 4; i++ {
		if err := b.AddEdge(n, i); err != nil {
			t.Fatal(err)
		}
	}
	g2 := b.Build()

	got, err := Repair(g2, base, []int32{0, 1, 2, 3})
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	if got.NumUsers() != n+1 {
		t.Fatalf("repaired clustering covers %d users, want %d", got.NumUsers(), n+1)
	}
	if got.Cluster(n) != got.Cluster(0) {
		t.Fatalf("new vertex with 4 edges into clique 0 landed in cluster %d, clique 0 is %d",
			got.Cluster(n), got.Cluster(0))
	}
	// Repair should track a fresh full clustering closely on this easy
	// structure.
	fresh, q := BestOf(g2, 4, 11, Options{})
	if gotQ := Modularity(g2, got); gotQ < q-0.05 {
		t.Fatalf("repaired modularity %.4f too far below fresh %.4f (%d vs %d clusters)",
			gotQ, q, got.NumClusters(), fresh.NumClusters())
	}
}

func TestRepairValidation(t *testing.T) {
	g := ringOfCliques(t, 3, 5)
	base, _ := BestOf(g, 2, 5, Options{})
	if _, err := Repair(g, base, []int32{int32(g.NumUsers())}); err == nil {
		t.Fatal("out-of-range touched vertex accepted")
	}
	small := graph.NewSocialBuilder(3).Build()
	if _, err := Repair(small, base, nil); err == nil {
		t.Fatal("shrunken graph accepted")
	}
}
