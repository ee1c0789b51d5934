package socialrec

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"socialrec/internal/generator"
)

func TestSaveLoadReleaseRoundTrip(t *testing.T) {
	b := buildSmall()
	e, err := NewEngine(b, Config{Epsilon: 0.7, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.RecommendBatch([]int{0, 1, 2, 3, 4, 5, 6, 7}, 4)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := e.SaveRelease(&buf); err != nil {
		t.Fatal(err)
	}

	// Load against the same (public) social graph.
	loaded, err := LoadEngine(&buf, e.social)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.RecommendBatch([]int{0, 1, 2, 3, 4, 5, 6, 7}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for u := range want {
		if len(got[u]) != len(want[u]) {
			t.Fatalf("user %d: list lengths differ", u)
		}
		for i := range want[u] {
			if got[u][i] != want[u][i] {
				t.Fatalf("user %d: loaded engine disagrees: %v vs %v", u, got[u][i], want[u][i])
			}
		}
	}
	if loaded.Epsilon() != e.Epsilon() || loaded.NumClusters() != e.NumClusters() {
		t.Error("metadata lost in round trip")
	}
}

func TestSaveReleaseRefusesExactEngine(t *testing.T) {
	e, err := NewExactEngine(buildSmall(), "CN")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SaveRelease(&bytes.Buffer{}); err == nil {
		t.Error("persisting an exact engine must fail: its state is the raw data")
	}
}

func TestLoadEngineRejectsWrongGraph(t *testing.T) {
	e, err := NewEngine(buildSmall(), Config{Epsilon: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.SaveRelease(&buf); err != nil {
		t.Fatal(err)
	}
	other := NewGraphBuilder(3, 2).AddFriendship(0, 1)
	otherEngine, err := NewEngine(other, Config{Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadEngine(&buf, otherEngine.social); err == nil {
		t.Error("loading against a different-population graph should fail")
	}
}

// TestReleaseBytesPinned pins the SHA-256 of the persisted release for two
// presets (CN, ε = 1, seed 1). Clustering, the Laplace release and the
// release encoding all feed these bytes, so any drift in how a release is
// drawn or written fails here.
func TestReleaseBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		preset generator.Preset
		sha256 string
	}{
		{generator.TinyTest(1), "dda06ab788bb9993a5ae61ed85bd0ffe46ba87accace038247ea5f220fc4eb65"},
		{generator.LastFMLike(1), "94af4c655461d32db7bdce5704dc7c0014fb6243dda39cc55aefe384609f7ac0"},
	} {
		social, _, prefs, err := tc.preset.Generate()
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngineFromGraphs(social, prefs, Config{Epsilon: 1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		if err := e.SaveRelease(h); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.sha256 {
			t.Errorf("%s: release SHA-256 %s, want %s", tc.preset.Name, got, tc.sha256)
		}
	}
}
