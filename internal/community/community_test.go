package community

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"socialrec/internal/generator"
	"socialrec/internal/graph"
	"socialrec/internal/raceflag"
)

// twoCliques builds two k-cliques joined by a single bridge edge — the
// canonical graph whose optimal partition is one cluster per clique.
func twoCliques(t testing.TB, k int) *graph.Social {
	b := graph.NewSocialBuilder(2 * k)
	for c := 0; c < 2; c++ {
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				if err := b.AddEdge(c*k+i, c*k+j); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := b.AddEdge(0, k); err != nil {
		t.Fatal(err)
	}
	return b.Build()
}

func TestFromAssignment(t *testing.T) {
	c, err := FromAssignment([]int32{5, 5, 2, 9, 2})
	if err != nil {
		t.Fatal(err)
	}
	if c.NumClusters() != 3 {
		t.Fatalf("NumClusters = %d, want 3", c.NumClusters())
	}
	// Dense renumbering preserves first-appearance order: 5→0, 2→1, 9→2.
	want := []int{0, 0, 1, 2, 1}
	for u, w := range want {
		if c.Cluster(u) != w {
			t.Errorf("Cluster(%d) = %d, want %d", u, c.Cluster(u), w)
		}
	}
	if c.Size(0) != 2 || c.Size(1) != 2 || c.Size(2) != 1 {
		t.Errorf("Sizes = %v, want [2 2 1]", c.Sizes())
	}
	if _, err := FromAssignment([]int32{0, -1}); err == nil {
		t.Error("negative assignment should fail")
	}
}

func TestClusteringAccessors(t *testing.T) {
	c, _ := FromAssignment([]int32{0, 0, 0, 1, 1, 2})
	if got := c.LargestFraction(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("LargestFraction = %v, want 0.5", got)
	}
	mean, std := c.MeanSize()
	if mean != 2 {
		t.Errorf("MeanSize mean = %v, want 2", mean)
	}
	if wantVar := (1.0 + 0 + 1.0) / 3; math.Abs(std*std-wantVar) > 1e-12 {
		t.Errorf("MeanSize std² = %v, want %v", std*std, wantVar)
	}
	members := c.Members()
	if len(members) != 3 || len(members[0]) != 3 || members[2][0] != 5 {
		t.Errorf("Members = %v", members)
	}
	a := c.Assignment()
	a[0] = 99
	if c.Cluster(0) == 99 {
		t.Error("Assignment must return a copy")
	}
}

func TestModularityHandComputed(t *testing.T) {
	// Two triangles joined by one edge; partition = the two triangles.
	// m = 7; L_1 = L_2 = 3; D_1 = 2+2+3 = 7 = D_2.
	// Q = 2 · (3/7 − (7/14)²) = 6/7 − 1/2.
	g := twoCliques(t, 3)
	c, _ := FromAssignment([]int32{0, 0, 0, 1, 1, 1})
	want := 6.0/7.0 - 0.5
	if got := Modularity(g, c); math.Abs(got-want) > 1e-12 {
		t.Errorf("Modularity = %v, want %v", got, want)
	}
}

func TestModularitySingleClusterIsZero(t *testing.T) {
	g := twoCliques(t, 4)
	assign := make([]int32, g.NumUsers())
	c, _ := FromAssignment(assign)
	// All nodes in one cluster: Q = m/m − (2m/2m)² = 0.
	if got := Modularity(g, c); math.Abs(got) > 1e-12 {
		t.Errorf("Modularity = %v, want 0", got)
	}
}

func TestLouvainTwoCliques(t *testing.T) {
	g := twoCliques(t, 6)
	c := Louvain(g, Options{Seed: 1})
	if c.NumClusters() != 2 {
		t.Fatalf("NumClusters = %d, want 2", c.NumClusters())
	}
	// All members of each clique must share a cluster.
	for i := 1; i < 6; i++ {
		if c.Cluster(i) != c.Cluster(0) {
			t.Errorf("clique A split: user %d", i)
		}
		if c.Cluster(6+i) != c.Cluster(6) {
			t.Errorf("clique B split: user %d", 6+i)
		}
	}
	if c.Cluster(0) == c.Cluster(6) {
		t.Error("cliques merged")
	}
}

// plantedPartition builds k dense blocks of size sz with sparse inter-block
// edges.
func plantedPartition(t testing.TB, k, sz int, pIn, pOut float64, seed int64) (*graph.Social, []int32) {
	rng := rand.New(rand.NewSource(seed))
	n := k * sz
	truth := make([]int32, n)
	b := graph.NewSocialBuilder(n)
	for u := 0; u < n; u++ {
		truth[u] = int32(u / sz)
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			p := pOut
			if truth[u] == truth[v] {
				p = pIn
			}
			if rng.Float64() < p {
				if err := b.AddEdge(u, v); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return b.Build(), truth
}

func TestLouvainRecoversPlantedPartition(t *testing.T) {
	g, truth := plantedPartition(t, 4, 30, 0.5, 0.01, 42)
	c := Louvain(g, Options{Seed: 3})
	if c.NumClusters() != 4 {
		t.Fatalf("NumClusters = %d, want 4", c.NumClusters())
	}
	// Check the clustering matches the planted truth up to relabeling.
	mapping := make(map[int32]int32)
	for u := 0; u < g.NumUsers(); u++ {
		got := int32(c.Cluster(u))
		if want, ok := mapping[truth[u]]; ok {
			if got != want {
				t.Fatalf("user %d: cluster %d, want %d (planted block %d)", u, got, want, truth[u])
			}
		} else {
			mapping[truth[u]] = got
		}
	}
}

func TestLouvainModularityBeatsRandom(t *testing.T) {
	g, _ := plantedPartition(t, 5, 25, 0.4, 0.02, 7)
	louvain := Louvain(g, Options{Seed: 1})
	random := Random(g.NumUsers(), louvain.NumClusters(), rand.New(rand.NewSource(1)))
	ql, qr := Modularity(g, louvain), Modularity(g, random)
	if ql <= qr+0.2 {
		t.Errorf("Louvain Q = %v should clearly beat random Q = %v", ql, qr)
	}
}

func TestBestOfImprovesOrMatches(t *testing.T) {
	g, _ := plantedPartition(t, 4, 20, 0.4, 0.03, 11)
	single := Louvain(g, Options{Seed: 5})
	qSingle := Modularity(g, single)
	_, qBest := BestOf(g, 8, 5, Options{})
	if qBest < qSingle-1e-12 {
		t.Errorf("BestOf Q = %v < single-run Q = %v", qBest, qSingle)
	}
}

// sequentialBestOf is the reference best-of-N protocol BestOf must
// reproduce: one restart after another, keeping a restart only when its
// modularity is strictly greater, so the earliest of tied restarts wins.
func sequentialBestOf(g *graph.Social, runs int, seed int64, opt Options) (*Clustering, float64) {
	var best *Clustering
	bestQ := 0.0
	for r := 0; r < runs; r++ {
		o := opt
		o.Seed = seed + int64(r)
		c := Louvain(g, o)
		if q := Modularity(g, c); best == nil || q > bestQ {
			best, bestQ = c, q
		}
	}
	return best, bestQ
}

// cycle builds the n-node ring, whose rotated partitions into equal arcs
// have bit-identical modularity: restarts tie exactly.
func cycle(t testing.TB, n int) *graph.Social {
	b := graph.NewSocialBuilder(n)
	for u := 0; u < n; u++ {
		if err := b.AddEdge(u, (u+1)%n); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// TestBestOfMatchesSequential: the concurrent restarts pick exactly the
// clustering and modularity of the sequential protocol, including the
// earliest restart among exact ties.
func TestBestOfMatchesSequential(t *testing.T) {
	lastfm, _, err := generator.Social(generator.LastFMLike(1).Social)
	if err != nil {
		t.Fatal(err)
	}
	ring := cycle(t, 9)
	graphs := []struct {
		name string
		g    *graph.Social
	}{
		{"planted-4x30", plantedGraph(t, 4, 30, 0.5, 0.01, 42)},
		{"planted-5x25", plantedGraph(t, 5, 25, 0.4, 0.02, 7)},
		{"planted-4x20", plantedGraph(t, 4, 20, 0.4, 0.03, 11)},
		{"lastfm-like", lastfm},
		{"cycle-9", ring},
	}
	const seed = 5
	for _, tc := range graphs {
		for _, runs := range []int{1, 2, 3, 10} {
			wantC, wantQ := sequentialBestOf(tc.g, runs, seed, Options{})
			gotC, gotQ := BestOf(tc.g, runs, seed, Options{})
			if math.Float64bits(gotQ) != math.Float64bits(wantQ) {
				t.Errorf("%s runs=%d: Q = %v, sequential %v", tc.name, runs, gotQ, wantQ)
			}
			if !slices.Equal(gotC.Assignment(), wantC.Assignment()) {
				t.Errorf("%s runs=%d: assignment differs from the sequential pick", tc.name, runs)
			}
		}
	}

	// The ring must really tie at the best modularity with different
	// assignments, or the earliest-restart rule above went untested.
	var best []int32
	bestQ, ties := math.Inf(-1), 0
	for r := int64(0); r < 10; r++ {
		c := Louvain(ring, Options{Seed: seed + r})
		q := Modularity(ring, c)
		if q > bestQ {
			best, bestQ, ties = c.Assignment(), q, 0
		} else if math.Float64bits(q) == math.Float64bits(bestQ) && !slices.Equal(c.Assignment(), best) {
			ties++
		}
	}
	if ties == 0 {
		t.Fatal("cycle-9: no two restarts tie at the best modularity with different assignments")
	}
}

// plantedGraph is plantedPartition without the ground truth.
func plantedGraph(t testing.TB, k, sz int, pIn, pOut float64, seed int64) *graph.Social {
	g, _ := plantedPartition(t, k, sz, pIn, pOut, seed)
	return g
}

func TestRefinementDoesNotHurt(t *testing.T) {
	g, _ := plantedPartition(t, 4, 25, 0.35, 0.03, 13)
	for seed := int64(0); seed < 5; seed++ {
		refined := Louvain(g, Options{Seed: seed})
		coarse := Louvain(g, Options{Seed: seed, DisableRefinement: true})
		qr, qc := Modularity(g, refined), Modularity(g, coarse)
		if qr < qc-1e-9 {
			t.Errorf("seed %d: refined Q = %v < unrefined Q = %v", seed, qr, qc)
		}
	}
}

func TestLouvainDeterministicBySeed(t *testing.T) {
	g, _ := plantedPartition(t, 3, 20, 0.4, 0.05, 17)
	a := Louvain(g, Options{Seed: 9})
	b := Louvain(g, Options{Seed: 9})
	if a.NumClusters() != b.NumClusters() {
		t.Fatal("same seed, different cluster counts")
	}
	for u := 0; u < g.NumUsers(); u++ {
		if a.Cluster(u) != b.Cluster(u) {
			t.Fatal("same seed, different assignments")
		}
	}
}

func TestLouvainIsolatedNodes(t *testing.T) {
	// Graph with no edges at all: every node stays a singleton.
	g := graph.NewSocialBuilder(5).Build()
	c := Louvain(g, Options{Seed: 1})
	if c.NumClusters() != 5 {
		t.Errorf("NumClusters = %d, want 5 singletons", c.NumClusters())
	}
}

func TestRandomClustering(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := Random(100, 7, rng)
	if c.NumUsers() != 100 || c.NumClusters() != 7 {
		t.Fatalf("shape = (%d, %d), want (100, 7)", c.NumUsers(), c.NumClusters())
	}
	for id := 0; id < c.NumClusters(); id++ {
		if c.Size(id) == 0 {
			t.Errorf("cluster %d empty", id)
		}
	}
	// Clamping.
	if got := Random(3, 10, rng).NumClusters(); got != 3 {
		t.Errorf("k > n should clamp to n; got %d clusters", got)
	}
	if got := Random(3, 0, rng).NumClusters(); got != 1 {
		t.Errorf("k < 1 should clamp to 1; got %d clusters", got)
	}
}

func TestLabelPropagationTwoCliques(t *testing.T) {
	g := twoCliques(t, 8)
	c := LabelPropagation(g, 3, 0)
	if c.Cluster(0) == c.Cluster(8) {
		t.Error("label propagation merged the two cliques")
	}
	for i := 1; i < 8; i++ {
		if c.Cluster(i) != c.Cluster(0) || c.Cluster(8+i) != c.Cluster(8) {
			t.Fatalf("clique split: %v", c.Assignment())
		}
	}
}

// Property: modularity of any clustering on any graph lies in [-1, 1], and
// cluster sizes always sum to the user count.
func TestModularityBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(40)
		b := graph.NewSocialBuilder(n)
		for k := 0; k < 2*n; k++ {
			_ = b.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		g := b.Build()
		assign := make([]int32, n)
		k := 1 + rng.Intn(5)
		for i := range assign {
			assign[i] = int32(rng.Intn(k))
		}
		c, err := FromAssignment(assign)
		if err != nil {
			return false
		}
		q := Modularity(g, c)
		if q < -1 || q > 1 {
			return false
		}
		total := 0
		for _, s := range c.Sizes() {
			total += s
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Louvain always returns a valid partition whose modularity is at
// least that of the singleton partition (its own starting point).
func TestLouvainNeverWorseThanSingletonsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(50)
		b := graph.NewSocialBuilder(n)
		for k := 0; k < 3*n; k++ {
			_ = b.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		g := b.Build()
		c := Louvain(g, Options{Seed: seed})
		if c.NumUsers() != n {
			return false
		}
		singles, _ := FromAssignment(initSingleton(n))
		return Modularity(g, c) >= Modularity(g, singles)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// sameSeedRepeats runs Louvain on g with seed `repeats` more times and
// reports the first run whose assignment differs from the first, or -1.
func sameSeedRepeats(g *graph.Social, seed int64, repeats int) int {
	want := Louvain(g, Options{Seed: seed}).Assignment()
	for r := 1; r <= repeats; r++ {
		if !slices.Equal(Louvain(g, Options{Seed: seed}).Assignment(), want) {
			return r
		}
	}
	return -1
}

// randomSocial draws a graph on n nodes from m uniformly random node pairs
// (self-pairs and repeats are dropped by the builder).
func randomSocial(rng *rand.Rand, n, m int) *graph.Social {
	b := graph.NewSocialBuilder(n)
	for k := 0; k < m; k++ {
		_ = b.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	return b.Build()
}

// TestBestOfSameSeedRepeatsAgree pins the contract the byte-identical
// release checks rest on: one seed gives one clustering. On small graphs
// equal modularity gains are common, so any run-to-run freedom in the
// coarse graph's neighbour order (a map walk, say) shows up as a different
// tie-break and a different assignment.
//
// The 300 first runs are also pinned, as one digest over their assignments
// in graph order: a kernel change that moves any tie-break moves it.
func TestBestOfSameSeedRepeatsAgree(t *testing.T) {
	const pinned = "f60fe1fa82051bef"
	all := sha256.New()
	for gi := 0; gi < 300; gi++ {
		rng := rand.New(rand.NewSource(int64(gi)))
		n := 8 + rng.Intn(40)
		g := randomSocial(rng, n, n+rng.Intn(3*n))
		want, _ := BestOf(g, 10, 1, Options{})
		_ = binary.Write(all, binary.LittleEndian, want.Assignment())
		for r := 0; r < 10; r++ {
			if got, _ := BestOf(g, 10, 1, Options{}); !slices.Equal(got.Assignment(), want.Assignment()) {
				t.Fatalf("graph %d (%d nodes): repeat %d of BestOf(g, 10, 1) gave %v, first run %v",
					gi, n, r+1, got.Assignment(), want.Assignment())
			}
		}
	}
	if got := hex.EncodeToString(all.Sum(nil))[:16]; got != pinned {
		t.Errorf("digest of the 300 first runs' assignments %s, want %s", got, pinned)
	}
}

// assignmentDigest is the first 16 hex digits of the SHA-256 of a's ids,
// each as four little-endian bytes.
func assignmentDigest(a []int32) string {
	h := sha256.New()
	_ = binary.Write(h, binary.LittleEndian, a)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestLouvainPresetsPinned pins the clusterings the release bytes rest on,
// on the social graphs of the two paper-scale presets: the assignment of
// every seed of the paper's ten restarts, and the best-of-10 modularity bit
// for bit. Any change to the Louvain kernel must leave all of them alone.
func TestLouvainPresetsPinned(t *testing.T) {
	for _, tc := range []struct {
		preset   generator.Preset
		seeds    [10]string // assignmentDigest of Louvain(g, Options{Seed: s}), s = 1..10
		clusters int        // of BestOf(g, 10, 1)
		q        uint64     // math.Float64bits of BestOf(g, 10, 1)'s modularity
	}{
		{generator.LastFMLike(1), [10]string{
			"d623b1f4c4bcb9ca", "d623b1f4c4bcb9ca", "a828b9f182622bff", "d623b1f4c4bcb9ca", "ab1b26940b7df3e6",
			"212bd62399ce6ed9", "d623b1f4c4bcb9ca", "d623b1f4c4bcb9ca", "d623b1f4c4bcb9ca", "212bd62399ce6ed9",
		}, 24, 0x3fe2097b7baa88dc}, // Q = 0.5636575141291149
		{generator.FlixsterLike(1), [10]string{
			"e47b25dcf020f837", "7ff5ffee6c8e3bdc", "19918e21a4a44570", "ffc71f75a37adba9", "19918e21a4a44570",
			"19918e21a4a44570", "19918e21a4a44570", "19918e21a4a44570", "e47b25dcf020f837", "1b15952ff64279d7",
		}, 55, 0x3fe62128b8a95172}, // Q = 0.6915477377574872
	} {
		if raceflag.Enabled && tc.preset.Social.NumUsers > 10000 {
			t.Logf("%s: skipped under -race", tc.preset.Name)
			continue
		}
		g, _, err := generator.Social(tc.preset.Social)
		if err != nil {
			t.Fatal(err)
		}
		for s := int64(1); s <= 10; s++ {
			if got := assignmentDigest(Louvain(g, Options{Seed: s}).Assignment()); got != tc.seeds[s-1] {
				t.Errorf("%s: Louvain seed %d assignment digest %s, want %s", tc.preset.Name, s, got, tc.seeds[s-1])
			}
		}
		c, q := BestOf(g, 10, 1, Options{})
		if c.NumClusters() != tc.clusters || math.Float64bits(q) != tc.q {
			t.Errorf("%s: BestOf(g, 10, 1) gave %d clusters, Q = %v (bits %#x); want %d clusters, bits %#x",
				tc.preset.Name, c.NumClusters(), q, math.Float64bits(q), tc.clusters, tc.q)
		}
	}
}

// FuzzLouvainSameSeed runs Louvain repeatedly on fuzzer-chosen graphs and
// seeds and requires every repeat to reproduce the first assignment.
func FuzzLouvainSameSeed(f *testing.F) {
	f.Add(uint8(12), int64(1), []byte{0, 1, 1, 2, 2, 0, 3, 4, 4, 5, 5, 3, 2, 3})
	f.Add(uint8(40), int64(7), []byte{9, 3, 17, 22, 5, 5, 30, 1, 8, 13, 21, 34, 2, 39, 11, 12})
	f.Fuzz(func(t *testing.T, nodes uint8, seed int64, edges []byte) {
		n := 2 + int(nodes)%62
		b := graph.NewSocialBuilder(n)
		for k := 0; k+1 < len(edges); k += 2 {
			_ = b.AddEdge(int(edges[k])%n, int(edges[k+1])%n)
		}
		if r := sameSeedRepeats(b.Build(), seed, 8); r >= 0 {
			t.Fatalf("repeat %d with seed %d gave a different assignment", r, seed)
		}
	})
}
