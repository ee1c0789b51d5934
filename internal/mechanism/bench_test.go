package mechanism

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"socialrec/internal/community"
	"socialrec/internal/core"
	"socialrec/internal/dp"
	"socialrec/internal/generator"
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
// maxExactN. Its table (20 clusters × 5,000 items, 800 KB) stays in cache;
// the lastfm-like cases run on a paper-scale table that does not.
func BenchmarkClusterTopN(b *testing.B) {
	social, prefs, clusters := benchSetup(b)
	cl, err := NewCluster(clusters, prefs, dp.Epsilon(0.1), dp.NewLaplaceSource(1))
	if err != nil {
		b.Fatal(err)
	}
	users := []int32{0, 100, 200, 300}
	benchTopN(b, cl, similarity.ComputeAll(social, similarity.CommonNeighbors{}, users, 0), []int{10, 50, 100})
	b.Run("lastfm-like", func(b *testing.B) {
		cl, sims := lastFMLikeSetup(b)
		benchTopN(b, cl, sims, []int{10, maxExactN})
	})
}

// benchTopN runs the exact-with-fallback and dense sub-benchmarks for each
// n, cycling over sims.
func benchTopN(b *testing.B, cl *Cluster, sims []similarity.Scores, ns []int) {
	row := make([]float64, cl.numItems)
	out := [][]float64{row}
	dense := func(k, n int) []core.Recommendation {
		clear(row)
		cl.Utilities([]int32{0}, sims[k:k+1], out)
		return core.TopN(row, n, math.Inf(-1))
	}
	for _, n := range ns {
		b.Run(fmt.Sprintf("n=%d/exact", n), func(b *testing.B) {
			// Build every touched prefix first: the loop times serving,
			// not an engine's first requests.
			for _, sim := range sims {
				cl.TopN(sim, n)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % len(sims)
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
				dense(i%len(sims), n)
			}
		})
	}
}

// lastFMLikeSetup builds the LastFM-like release as perfbench serves it
// (preset seed 1, Louvain best of 10 from seed 1, ε = 1 with noise seed 2)
// and the CN similarity vectors of 400 users spread over the population.
// Its 24 × 17,632 table is 3.4 MB.
func lastFMLikeSetup(b *testing.B) (*Cluster, []similarity.Scores) {
	b.Helper()
	social, _, prefs, err := generator.LastFMLike(1).Generate()
	if err != nil {
		b.Fatal(err)
	}
	clusters, _ := community.BestOf(social, 10, 1, community.Options{})
	eps := dp.Epsilon(1)
	cl, err := NewCluster(clusters, prefs, eps, dp.SourceFor(eps, 2))
	if err != nil {
		b.Fatal(err)
	}
	users := make([]int32, 400)
	for k := range users {
		users[k] = int32(k * social.NumUsers() / len(users))
	}
	return cl, similarity.ComputeAll(social, similarity.CommonNeighbors{}, users, 0)
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
