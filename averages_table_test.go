package socialrec

import (
	"math"
	"slices"
	"sync"
	"testing"

	"socialrec/internal/dp"
	"socialrec/internal/generator"
	"socialrec/internal/release"
	"socialrec/internal/similarity"
)

// TestEnginesAdoptReleaseAverages: an engine built from a release, or from
// a shard, serves from the release's own averages table, and
// Engine.Release hands that table back. None of the three copies it, so
// each allocates well under a quarter of the table's bytes.
func TestEnginesAdoptReleaseAverages(t *testing.T) {
	social, _, prefs, err := generator.LastFMLike(1).Generate()
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngineFromGraphs(social, prefs, Config{Epsilon: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := e.Release()
	if err != nil {
		t.Fatal(err)
	}
	m, err := similarity.ByName(rel.Measure)
	if err != nil {
		t.Fatal(err)
	}
	_, shards, err := release.SplitRelease(rel, social, make([]int32, rel.Clusters.NumClusters()), 1, similarity.Horizon(m))
	if err != nil {
		t.Fatal(err)
	}
	sh := shards[0]
	for _, tc := range []struct {
		name  string
		table int // bytes of the averages table the call is handed
		call  func() error
	}{
		{"EngineFromRelease", 8 * len(rel.Avg), func() error {
			_, err := EngineFromRelease(rel, social)
			return err
		}},
		{"EngineFromShard", 8 * len(sh.Release.Avg), func() error {
			_, err := EngineFromShard(sh, social)
			return err
		}},
		{"Engine.Release", 8 * len(rel.Avg), func() error {
			_, err := e.Release()
			return err
		}},
	} {
		if err := tc.call(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = tc.call()
			}
		})
		got := r.AllocedBytesPerOp()
		t.Logf("%s: %d bytes per call, averages table %d bytes", tc.name, got, tc.table)
		if got >= int64(tc.table/4) {
			t.Errorf("%s allocates %d bytes per call, want under a quarter of the %d-byte averages table",
				tc.name, got, tc.table)
		}
	}
}

// TestSnapLeavesEngineTable: snapping the release an engine returns snaps
// a copy. The engine keeps serving the unsnapped table, so its lists and a
// second Release are bit-identical to before, while the snapped release
// lies on the lattice.
func TestSnapLeavesEngineTable(t *testing.T) {
	e, err := NewEngine(buildSmall(), Config{Epsilon: 0.7, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	users := []int{0, 1, 2, 3, 4, 5, 6, 7}
	want, err := e.RecommendBatch(users, 4)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := e.Release()
	if err != nil {
		t.Fatal(err)
	}
	before := slices.Clone(rel.Avg)

	const grain = 0.01
	rel.Snap(grain)
	moved := false
	for i, v := range rel.Avg {
		if dp.SnapValue(v, grain) != v {
			t.Fatalf("snapped Avg[%d] = %v is off the %v lattice", i, v, grain)
		}
		moved = moved || math.Float64bits(v) != math.Float64bits(before[i])
	}
	if !moved {
		t.Fatal("snapping changed no average; the fixture cannot tell a copy from a write-through")
	}

	got, err := e.RecommendBatch(users, 4)
	if err != nil {
		t.Fatal(err)
	}
	for u := range want {
		if !slices.Equal(got[u], want[u]) {
			t.Fatalf("user %d: list after Snap %v, before %v", u, got[u], want[u])
		}
	}
	again, err := e.Release()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range again.Avg {
		if math.Float64bits(v) != math.Float64bits(before[i]) {
			t.Fatalf("second Release: Avg[%d] = %v, was %v before Snap", i, v, before[i])
		}
	}
}

// TestEngineReleaseSnapConcurrentWithRecommend: Release and Snap only read
// the table an engine serves from, so running them beside Recommend is
// race-free (run under -race).
func TestEngineReleaseSnapConcurrentWithRecommend(t *testing.T) {
	e, err := NewEngine(buildSmall(), Config{Epsilon: 0.7, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := e.Recommend((g+i)%8, 4); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				rel, err := e.Release()
				if err != nil {
					t.Error(err)
					return
				}
				rel.Snap(0.01)
			}
		}()
	}
	wg.Wait()
}
