package release

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"socialrec/internal/community"
	"socialrec/internal/telemetry"
)

func deltaTestBase(t *testing.T) *Release {
	t.Helper()
	cl, err := community.FromAssignment([]int32{0, 0, 1, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	return &Release{
		Epsilon:  0.5,
		Measure:  "CN",
		Clusters: cl,
		NumItems: 2,
		Avg:      []float64{1, 2, 3, 4, 5, 6},
	}
}

func deltaTestStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := OpenStore(dir, StoreOptions{
		Metrics: telemetry.NewRegistry(),
		Logf:    func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// moveDelta moves user 4 from cluster 2 into cluster 1 and re-releases
// clusters 1 and 2... cluster 2 disappears, so the new clustering has two
// clusters: 0 reused from base 0, 1 fresh.
func moveDelta(base uint64) *Delta {
	return &Delta{
		Base:     base,
		Epsilon:  0.25,
		Measure:  "CN",
		NumItems: 2,
		Assign:   []int32{0, 0, 1, 1, 1},
		Source:   []int32{0, -1},
		Fresh:    []float64{30, 40},
	}
}

func TestDeltaRoundtrip(t *testing.T) {
	d := moveDelta(3)
	var buf bytes.Buffer
	if err := WriteDeltaContext(context.Background(), &buf, d); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ReadDeltaContext(context.Background(), bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got.Base != 3 || got.Epsilon != 0.25 || got.Measure != "CN" || got.NumItems != 2 {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Assign) != 5 || got.Assign[4] != 1 || len(got.Source) != 2 || got.Source[1] != -1 {
		t.Fatalf("body mismatch: %+v", got)
	}
	// Corruption is caught by the checksum.
	raw := buf.Bytes()
	raw[len(raw)-10] ^= 0xff
	if _, err := ReadDeltaContext(context.Background(), bytes.NewReader(raw)); err == nil {
		t.Fatal("corrupt delta passed checksum")
	}
}

func TestDeltaApply(t *testing.T) {
	base := deltaTestBase(t)
	got, err := moveDelta(1).Apply(base)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	if got.Clusters.NumClusters() != 2 || got.Clusters.Cluster(4) != 1 {
		t.Fatalf("applied clustering wrong: %d clusters", got.Clusters.NumClusters())
	}
	// Cluster 0 reuses the base row; cluster 1 takes the fresh row.
	want := []float64{1, 2, 30, 40}
	for i, v := range want {
		if got.Avg[i] != v {
			t.Fatalf("avg[%d] = %v, want %v", i, got.Avg[i], v)
		}
	}
	if got.Epsilon != 0.75 {
		t.Fatalf("composed epsilon = %v, want 0.75", got.Epsilon)
	}

	// Item growth: reused rows zero-pad the new column.
	grow := moveDelta(1)
	grow.NumItems = 3
	grow.Fresh = []float64{30, 40, 50}
	got, err = grow.Apply(base)
	if err != nil {
		t.Fatalf("apply grow: %v", err)
	}
	if got.NumItems != 3 || got.Avg[2] != 0 || got.Avg[5] != 50 {
		t.Fatalf("grown avg = %v", got.Avg)
	}

	// Cross-reference failures refuse cleanly.
	bad := moveDelta(1)
	bad.Measure = "GD"
	if _, err := bad.Apply(base); err == nil || !strings.Contains(err.Error(), "measure") {
		t.Fatalf("measure mismatch accepted: %v", err)
	}
	bad = moveDelta(1)
	bad.NumItems = 1
	bad.Fresh = []float64{30}
	if _, err := bad.Apply(base); err == nil || !strings.Contains(err.Error(), "shrank") {
		t.Fatalf("item shrink accepted: %v", err)
	}
	bad = moveDelta(1)
	bad.Source = []int32{7, -1}
	if _, err := bad.Apply(base); err == nil || !strings.Contains(err.Error(), "base cluster") {
		t.Fatalf("out-of-range source accepted: %v", err)
	}
}

func TestStoreDeltaChain(t *testing.T) {
	dir := t.TempDir()
	s := deltaTestStore(t, dir)
	base := deltaTestBase(t)
	fullV, err := s.Save(base)
	if err != nil {
		t.Fatal(err)
	}
	d1 := moveDelta(fullV)
	v1, err := s.SaveDeltaContext(context.Background(), d1)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != fullV+1 {
		t.Fatalf("delta version %d, want %d", v1, fullV+1)
	}
	// Second delta on top of the first: move user 0 to cluster 1 and
	// refresh both rows.
	d2 := &Delta{
		Base:     v1,
		Epsilon:  0.25,
		Measure:  "CN",
		NumItems: 2,
		Assign:   []int32{1, 0, 1, 1, 1},
		Source:   []int32{-1, -1},
		Fresh:    []float64{7, 8, 9, 10},
	}
	v2, err := s.SaveDeltaContext(context.Background(), d2)
	if err != nil {
		t.Fatal(err)
	}

	rel, ln, skipped, err := s.LoadLatestContext(context.Background())
	if err != nil {
		t.Fatalf("load latest: %v", err)
	}
	if len(skipped) != 0 {
		t.Fatalf("skipped = %v", skipped)
	}
	if ln.Full != fullV || len(ln.Deltas) != 2 || ln.Version() != v2 {
		t.Fatalf("lineage = %+v", ln)
	}
	if rel.Clusters.Cluster(0) != rel.Clusters.Cluster(4) {
		t.Fatal("second delta's move not applied")
	}
	if rel.Avg[3] != 10 {
		t.Fatalf("avg = %v", rel.Avg)
	}

	// A later full generation supersedes the chain.
	full2 := deltaTestBase(t)
	v3, err := s.Save(full2)
	if err != nil {
		t.Fatal(err)
	}
	if v3 != v2+1 {
		t.Fatalf("full version %d did not advance past delta %d", v3, v2)
	}
	_, ln, _, err = s.LoadLatestContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ln.Full != v3 || len(ln.Deltas) != 0 {
		t.Fatalf("post-supersede lineage = %+v", ln)
	}
}

// TestStoreDeltaChainStopsAtCorruption: a corrupt delta stops the chain
// with an explicit skip; serving falls back to the last consistent state.
func TestStoreDeltaChainStopsAtCorruption(t *testing.T) {
	dir := t.TempDir()
	s := deltaTestStore(t, dir)
	base := deltaTestBase(t)
	fullV, err := s.Save(base)
	if err != nil {
		t.Fatal(err)
	}
	d1 := moveDelta(fullV)
	v1, err := s.SaveDeltaContext(context.Background(), d1)
	if err != nil {
		t.Fatal(err)
	}
	d2 := &Delta{
		Base: v1, Epsilon: 0.25, Measure: "CN", NumItems: 2,
		Assign: []int32{0, 0, 1, 1, 1}, Source: []int32{0, -1}, Fresh: []float64{70, 80},
	}
	v2, err := s.SaveDeltaContext(context.Background(), d2)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the second delta on disk.
	path := filepath.Join(dir, Deltas.file(v2))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-12] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	rel, ln, skipped, err := s.LoadLatestContext(context.Background())
	if err != nil {
		t.Fatalf("load latest: %v", err)
	}
	if len(skipped) != 1 || skipped[0].Name != Deltas.file(v2) {
		t.Fatalf("skipped = %v", skipped)
	}
	if ln.Version() != v1 {
		t.Fatalf("served version %d, want %d (chain stops before corruption)", ln.Version(), v1)
	}
	if rel.Avg[2] != 30 {
		t.Fatalf("avg = %v, want first delta's fresh row", rel.Avg)
	}

	// A chain break (wrong base) also stops: d3 chained to v2 which never
	// applied.
	d3 := &Delta{
		Base: v2, Epsilon: 0.25, Measure: "CN", NumItems: 2,
		Assign: []int32{0, 0, 1, 1, 1}, Source: []int32{0, -1}, Fresh: []float64{1, 2},
	}
	if _, err := s.SaveDeltaContext(context.Background(), d3); err != nil {
		t.Fatal(err)
	}
	_, ln2, skipped2, err := s.LoadLatestContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ln2.Version() != v1 || len(skipped2) != 2 {
		t.Fatalf("lineage %+v skipped %v", ln2, skipped2)
	}
}
