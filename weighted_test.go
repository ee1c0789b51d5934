package socialrec

import (
	"testing"

	"socialrec/internal/telemetry"
	"socialrec/internal/trace"
)

func buildWeighted() *WeightedGraphBuilder {
	b := NewWeightedGraphBuilder(8, 6)
	for c := 0; c < 2; c++ {
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				b.AddFriendship(4*c+i, 4*c+j)
			}
		}
	}
	b.AddFriendship(3, 4)
	// Group A rates items 0-2 highly; group B rates 3-5.
	for _, e := range []struct {
		u, i int
		w    float64
	}{
		{1, 0, 5}, {1, 1, 4}, {2, 0, 5}, {2, 2, 3}, {3, 1, 4},
		{4, 3, 5}, {5, 3, 4}, {5, 5, 2}, {6, 4, 5}, {7, 3, 3},
	} {
		b.AddRating(e.u, e.i, e.w)
	}
	return b
}

func TestWeightedEngineRecommends(t *testing.T) {
	e, err := NewWeightedEngine(buildWeighted(), 5, Config{Epsilon: NoPrivacy, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := e.Recommend(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("recs = %v", recs)
	}
	// User 0's community rates items 0-2; the top recommendation must be
	// one of them, and item 0 (two 5-star ratings) should outrank item 2
	// (one 3-star).
	if recs[0].Item > 2 {
		t.Errorf("top item = %d, want a community-A item; recs = %v", recs[0].Item, recs)
	}
}

func TestWeightedEngineRespectsWeights(t *testing.T) {
	e, err := NewWeightedEngine(buildWeighted(), 5, Config{Epsilon: NoPrivacy, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := e.Recommend(0, 6)
	if err != nil {
		t.Fatal(err)
	}
	util := make(map[int32]float64)
	for _, r := range recs {
		util[r.Item] = r.Utility
	}
	// Item 0 carries weight 5+5 in-community; item 2 only 3. Whatever the
	// clustering, item 0 must score strictly higher for user 0.
	if util[0] <= util[2] {
		t.Errorf("utility(0) = %v should exceed utility(2) = %v", util[0], util[2])
	}
}

func TestWeightedEngineValidation(t *testing.T) {
	if _, err := NewWeightedEngine(buildWeighted(), 5, Config{}); err == nil {
		t.Error("zero epsilon should fail")
	}
	if _, err := NewWeightedEngine(buildWeighted(), 2, Config{Epsilon: 1}); err == nil {
		t.Error("ratings above the declared bound should fail")
	}
	if _, err := NewWeightedEngine(buildWeighted(), 5, Config{Epsilon: 1, Measure: "zz"}); err == nil {
		t.Error("unknown measure should fail")
	}
	bad := NewWeightedGraphBuilder(2, 2).AddRating(0, 0, -1)
	if _, err := NewWeightedEngine(bad, 5, Config{Epsilon: 1}); err == nil {
		t.Error("builder error should surface")
	}
}

func TestWeightedEngineDeterministic(t *testing.T) {
	mk := func() []Recommendation {
		e, err := NewWeightedEngine(buildWeighted(), 5, Config{Epsilon: 0.8, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		recs, err := e.Recommend(2, 4)
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed, different weighted recommendations")
		}
	}
}

// TestWeightedEngineBuildTracedAndAttributed: a weighted build releases
// under its engine_build root like an unweighted one does — the
// weighted_cluster spend carries the root's trace id, and the release is
// timed as a laplace_release stage.
func TestWeightedEngineBuildTracedAndAttributed(t *testing.T) {
	releases := func() int64 {
		for _, st := range telemetry.Stages().Snapshot() {
			if st.Stage == "laplace_release" {
				return st.Count
			}
		}
		return 0
	}
	telemetry.Budget().Reset()
	before := releases()
	if _, err := NewWeightedEngine(buildWeighted(), 5, Config{Epsilon: 1, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if got := releases(); got != before+1 {
		t.Errorf("laplace_release stage count %d after a weighted build, want %d", got, before+1)
	}
	events := telemetry.Budget().Snapshot().Events
	if len(events) != 1 || events[0].Mechanism != "weighted_cluster" || events[0].Sensitivity != 5 {
		t.Fatalf("ledger events %+v, want one weighted_cluster spend at sensitivity 5", events)
	}
	id, ok := trace.ParseTraceID(events[0].TraceID)
	if !ok {
		t.Fatalf("weighted_cluster spend carries trace id %q", events[0].TraceID)
	}
	td := trace.Default().Lookup(id)
	if td == nil || td.Root.Name != "engine_build" {
		t.Fatalf("spend's trace %s is not a retained engine_build root: %+v", id, td)
	}
	found := false
	for _, sp := range td.Spans {
		found = found || sp.Name == "laplace_release"
	}
	if !found {
		t.Errorf("engine_build trace %s has no laplace_release span", id)
	}
}
