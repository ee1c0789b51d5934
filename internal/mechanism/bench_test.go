package mechanism

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"socialrec/internal/community"
	"socialrec/internal/core"
	"socialrec/internal/dp"
	"socialrec/internal/graph"
	"socialrec/internal/similarity"
)

// benchSetup builds a mid-sized dataset: 2000 users in 20 blocks, 5000
// items, ~60k preference edges.
func benchSetup(b *testing.B) (*graph.Social, *graph.Preference, *community.Clustering) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	const n, items, blocks = 2000, 5000, 20
	sb := graph.NewSocialBuilder(n)
	per := n / blocks
	for e := 0; e < 7*n; e++ {
		u := rng.Intn(n)
		v := (u/per)*per + rng.Intn(per)
		_ = sb.AddEdge(u, v)
	}
	social := sb.Build()
	pb := graph.NewPreferenceBuilder(n, items)
	for e := 0; e < 60000; e++ {
		u := rng.Intn(n)
		blockBase := (u / per) * (items / blocks)
		_ = pb.AddEdge(u, blockBase+rng.Intn(items/blocks))
	}
	prefs := pb.Build()
	clusters := community.Louvain(social, community.Options{Seed: 1})
	return social, prefs, clusters
}

func BenchmarkClusterRelease(b *testing.B) {
	_, prefs, clusters := benchSetup(b)
	noise := dp.NewLaplaceSource(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewCluster(clusters, prefs, dp.Epsilon(0.1), noise); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClusterUtilities(b *testing.B) {
	social, prefs, clusters := benchSetup(b)
	cl, err := NewCluster(clusters, prefs, dp.Epsilon(0.1), dp.NewLaplaceSource(1))
	if err != nil {
		b.Fatal(err)
	}
	users := []int32{0, 100, 200, 300}
	sims := similarity.ComputeAll(social, similarity.CommonNeighbors{}, users, 0)
	out := make([][]float64, len(users))
	for i := range out {
		out[i] = make([]float64, prefs.NumItems())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl.Utilities(users, sims, out)
	}
}

// BenchmarkClusterTopN times one user's top-n list the way the serving
// path selects it — TopN, falling back to Utilities + core.TopN when TopN
// declines — against the dense path alone, at list lengths on both sides of
// maxExactN.
func BenchmarkClusterTopN(b *testing.B) {
	social, prefs, clusters := benchSetup(b)
	cl, err := NewCluster(clusters, prefs, dp.Epsilon(0.1), dp.NewLaplaceSource(1))
	if err != nil {
		b.Fatal(err)
	}
	users := []int32{0, 100, 200, 300}
	sims := similarity.ComputeAll(social, similarity.CommonNeighbors{}, users, 0)
	row := make([]float64, prefs.NumItems())
	out := [][]float64{row}
	dense := func(k, n int) []core.Recommendation {
		clear(row)
		cl.Utilities(users[k:k+1], sims[k:k+1], out)
		return core.TopN(row, n, math.Inf(-1))
	}
	for _, n := range []int{10, 50, 100} {
		b.Run(fmt.Sprintf("n=%d/exact", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k := i % len(users)
				if list, ok := cl.TopN(sims[k], n); ok {
					core.TopHeap(list).Sort()
				} else {
					dense(k, n)
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/dense", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dense(i%len(users), n)
			}
		})
	}
}

func BenchmarkExactUtilities(b *testing.B) {
	social, prefs, _ := benchSetup(b)
	exact := NewExact(prefs)
	users := []int32{0, 100, 200, 300}
	sims := similarity.ComputeAll(social, similarity.CommonNeighbors{}, users, 0)
	out := make([][]float64, len(users))
	for i := range out {
		out[i] = make([]float64, prefs.NumItems())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range out {
			clear(out[k])
		}
		exact.Utilities(users, sims, out)
	}
}

func BenchmarkNOEUtilities(b *testing.B) {
	social, prefs, _ := benchSetup(b)
	noe, err := NewNOE(prefs, dp.Epsilon(0.1), 1)
	if err != nil {
		b.Fatal(err)
	}
	users := []int32{0, 100, 200, 300}
	sims := similarity.ComputeAll(social, similarity.CommonNeighbors{}, users, 0)
	out := make([][]float64, len(users))
	for i := range out {
		out[i] = make([]float64, prefs.NumItems())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range out {
			clear(out[k])
		}
		noe.Utilities(users, sims, out)
	}
}
