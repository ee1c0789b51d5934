package dp

import "testing"

func BenchmarkLaplaceDraw(b *testing.B) {
	src := NewLaplaceSource(1)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += src.Laplace(1.0)
	}
	_ = sink
}
