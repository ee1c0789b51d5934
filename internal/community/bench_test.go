package community

import (
	"math/rand"
	"testing"

	"socialrec/internal/generator"
	"socialrec/internal/graph"
)

func benchGraph(b *testing.B, n int) *graph.Social {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	const blockSize = 80
	bld := graph.NewSocialBuilder(n)
	for e := 0; e < 7*n; e++ {
		u := rng.Intn(n)
		var v int
		if rng.Float64() < 0.85 {
			v = (u/blockSize)*blockSize + rng.Intn(blockSize)
		} else {
			v = rng.Intn(n)
		}
		_ = bld.AddEdge(u, v)
	}
	return bld.Build()
}

func BenchmarkLouvain2K(b *testing.B) {
	g := benchGraph(b, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Louvain(g, Options{Seed: int64(i)})
	}
}

func BenchmarkLouvain20K(b *testing.B) {
	g := benchGraph(b, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Louvain(g, Options{Seed: int64(i)})
	}
}

// BenchmarkBestOf20K is the paper's best-of-10 on the 20K graph; run with
// -cpu 1,2 to see the restarts scale across cores.
func BenchmarkBestOf20K(b *testing.B) {
	g := benchGraph(b, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = BestOf(g, 10, int64(i), Options{})
	}
}

// BenchmarkBestOfFlixsterLike is the paper's best-of-10 on the social graph
// of the Flixster-like(1) preset (40,000 users), the clustering that the
// serve-flixster set-up of perfbench runs.
func BenchmarkBestOfFlixsterLike(b *testing.B) {
	g, _, err := generator.Social(generator.FlixsterLike(1).Social)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = BestOf(g, 10, 1, Options{})
	}
}

func BenchmarkLouvainNoRefinement(b *testing.B) {
	g := benchGraph(b, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Louvain(g, Options{Seed: int64(i), DisableRefinement: true})
	}
}

func BenchmarkModularity(b *testing.B) {
	g := benchGraph(b, 2000)
	c := Louvain(g, Options{Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Modularity(g, c)
	}
}

func BenchmarkLabelPropagation(b *testing.B) {
	g := benchGraph(b, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = LabelPropagation(g, int64(i), 0)
	}
}
