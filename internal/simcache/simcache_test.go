package simcache

import (
	"math/rand"
	"sync"
	"testing"

	"socialrec/internal/graph"
	"socialrec/internal/similarity"
)

func testGraph(t testing.TB, n int) *graph.Social {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	b := graph.NewSocialBuilder(n)
	for k := 0; k < 4*n; k++ {
		_ = b.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	return b.Build()
}

func TestCacheCorrectness(t *testing.T) {
	g := testGraph(t, 40)
	m := similarity.CommonNeighbors{}
	c := New(g, m, 100)
	for u := 0; u < 40; u++ {
		got := c.Similar(int32(u))
		want := m.Similar(g, u, nil)
		if len(got.Users) != len(want.Users) {
			t.Fatalf("user %d: cached result differs", u)
		}
		for i := range want.Users {
			if got.Users[i] != want.Users[i] || got.Vals[i] != want.Vals[i] {
				t.Fatalf("user %d: cached result differs", u)
			}
		}
	}
}

func TestCacheHitAccounting(t *testing.T) {
	g := testGraph(t, 10)
	c := New(g, similarity.CommonNeighbors{}, 100)
	c.Similar(3)
	c.Similar(3)
	c.Similar(3)
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 2 {
		t.Errorf("hits, misses = %d, %d; want 2, 1", st.Hits, st.Misses)
	}
	if got, want := st.HitRatio(), 2.0/3.0; got < want-1e-12 || got > want+1e-12 {
		t.Errorf("HitRatio() = %v, want %v", got, want)
	}
}

func TestCacheEviction(t *testing.T) {
	g := testGraph(t, 30)
	c := New(g, similarity.CommonNeighbors{}, 5)
	for u := 0; u < 20; u++ {
		c.Similar(int32(u))
	}
	if c.Len() != 5 {
		t.Errorf("len = %d, want capacity 5", c.Len())
	}
	// Users 15..19 are the most recent; 15 must be a hit, 0 a miss.
	missesBefore := c.Stats().Misses
	c.Similar(15)
	if c.Stats().Misses != missesBefore {
		t.Error("recently used entry was evicted")
	}
	c.Similar(0)
	if c.Stats().Misses != missesBefore+1 {
		t.Error("old entry survived past capacity")
	}
}

// TestCacheStatsSnapshot covers the full Stats accessor: every insertion
// past capacity is one eviction, and Len/Capacity describe the current
// shape.
func TestCacheStatsSnapshot(t *testing.T) {
	g := testGraph(t, 30)
	c := New(g, similarity.CommonNeighbors{}, 5)
	for u := 0; u < 20; u++ {
		c.Similar(int32(u)) // 20 misses; 15 evictions once full
	}
	c.Similar(19) // one hit, no eviction
	st := c.Stats()
	want := Stats{Hits: 1, Misses: 20, Evictions: 15, Len: 5, Capacity: 5}
	if st != want {
		t.Errorf("Stats() = %+v, want %+v", st, want)
	}
	if st.Len != c.Len() {
		t.Errorf("Stats().Len = %d disagrees with Len() = %d", st.Len, c.Len())
	}
}

func TestCacheStatsEmpty(t *testing.T) {
	g := testGraph(t, 5)
	c := New(g, similarity.CommonNeighbors{}, 0) // capacity 0 selects 4096
	st := c.Stats()
	want := Stats{Capacity: 4096}
	if st != want {
		t.Errorf("Stats() = %+v, want %+v", st, want)
	}
	if st.HitRatio() != 0 {
		t.Errorf("empty HitRatio() = %v, want 0", st.HitRatio())
	}
}

func TestCacheLRUOrder(t *testing.T) {
	g := testGraph(t, 10)
	c := New(g, similarity.CommonNeighbors{}, 2)
	c.Similar(0)
	c.Similar(1)
	c.Similar(0) // refresh 0; 1 is now the LRU
	c.Similar(2) // evicts 1
	misses := c.Stats().Misses
	c.Similar(0)
	if m2 := c.Stats().Misses; m2 != misses {
		t.Error("refreshed entry was evicted instead of the LRU one")
	}
	c.Similar(1)
	if m3 := c.Stats().Misses; m3 != misses+1 {
		t.Error("LRU entry was not evicted")
	}
}

func TestCacheConcurrent(t *testing.T) {
	g := testGraph(t, 60)
	c := New(g, similarity.AdamicAdar{}, 30)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 200; i++ {
				u := int32(rng.Intn(60))
				s := c.Similar(u)
				// Touch the result to catch races on shared Scores.
				_ = s.Sum()
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 30 {
		t.Errorf("capacity exceeded: %d", c.Len())
	}
}

// TestDerivedCachesTheDerivedValue: NewDerived keeps derive's result, runs
// derive once per miss only, and counts hits, misses and evictions as the
// vector cache does.
func TestDerivedCachesTheDerivedValue(t *testing.T) {
	g := testGraph(t, 30)
	m := similarity.CommonNeighbors{}
	calls := 0
	c := NewDerived(g, m, 5, func(s similarity.Scores) int {
		calls++
		return len(s.Users)
	})
	for u := 0; u < 20; u++ {
		if got, want := c.Similar(int32(u)), len(m.Similar(g, u, nil).Users); got != want {
			t.Fatalf("user %d: cached %d, want %d", u, got, want)
		}
	}
	c.Similar(19)
	if calls != 20 {
		t.Errorf("derive ran %d times for 20 misses", calls)
	}
	want := Stats{Hits: 1, Misses: 20, Evictions: 15, Len: 5, Capacity: 5}
	if st := c.Stats(); st != want {
		t.Errorf("Stats() = %+v, want %+v", st, want)
	}
}
