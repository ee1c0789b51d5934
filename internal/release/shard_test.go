package release

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"socialrec/internal/community"
	"socialrec/internal/graph"
)

// shardFixture builds a small two-community social graph, a deterministic
// release over it, and a 2-shard cluster assignment that puts each
// community on its own shard. The two communities are bridged by one edge,
// so each shard's 2-hop halo must pull in the other community's row.
func shardFixture(t testing.TB) (*Release, *graph.Social, []int32) {
	t.Helper()
	const users = 12
	b := graph.NewSocialBuilder(users)
	edge := func(u, v int) {
		if err := b.AddEdge(u, v); err != nil {
			t.Fatal(err)
		}
	}
	// Community A: ring over 0..5. Community B: ring over 6..11.
	for i := 0; i < 5; i++ {
		edge(i, i+1)
		edge(6+i, 7+i)
	}
	edge(5, 0)
	edge(11, 6)
	// One bridge.
	edge(5, 6)
	social := b.Build()

	assign := make([]int32, users)
	for u := 6; u < users; u++ {
		assign[u] = 1
	}
	clusters, err := community.FromAssignment(assign)
	if err != nil {
		t.Fatal(err)
	}
	const items = 7
	rel := &Release{
		Epsilon:  0.5,
		Measure:  "CN",
		Clusters: clusters,
		NumItems: items,
	}
	rel.Avg = make([]float64, 2*items)
	for i := range rel.Avg {
		rel.Avg[i] = float64(i)*0.25 - 1
	}
	return rel, social, []int32{0, 1}
}

func TestSplitReleaseExactRows(t *testing.T) {
	rel, social, clusterShard := shardFixture(t)
	m, shards, err := SplitRelease(rel, social, clusterShard, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumShards != 2 || m.NumUsers() != 12 || m.NumClusters() != 2 {
		t.Fatalf("manifest dimensions: %+v", m)
	}
	// Users 0..5 route to shard 0, 6..11 to shard 1.
	for u := 0; u < 12; u++ {
		want := 0
		if u >= 6 {
			want = 1
		}
		if got := m.ShardOf(u); got != want {
			t.Errorf("ShardOf(%d) = %d, want %d", u, got, want)
		}
	}
	for _, sh := range shards {
		// The bridge edge 5–6 puts each community within 2 hops of the
		// other, so both shards must hold both rows (the halo).
		if got := sh.Release.Clusters.NumClusters(); got != 2 {
			t.Fatalf("shard %d has %d local clusters, want 2 (own + halo)", sh.ID, got)
		}
		for u := 0; u < 12; u++ {
			wantOwned := (u < 6) == (sh.ID == 0)
			if got := sh.Owns(u); got != wantOwned {
				t.Errorf("shard %d Owns(%d) = %v, want %v", sh.ID, u, got, wantOwned)
			}
			if got, want := sh.GlobalCluster(u), int(m.Assign[u]); got != want {
				t.Errorf("shard %d GlobalCluster(%d) = %d, want %d", sh.ID, u, got, want)
			}
		}
		// Resident rows must be byte-identical to the source release's.
		for local, g := range sh.LocalToGlobal {
			if g < 0 {
				t.Fatalf("shard %d has a foreign row; halo should cover both clusters here", sh.ID)
			}
			got := sh.Release.Avg[local*rel.NumItems : (local+1)*rel.NumItems]
			want := rel.Avg[int(g)*rel.NumItems : (int(g)+1)*rel.NumItems]
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("shard %d row for cluster %d differs at item %d", sh.ID, g, i)
				}
			}
		}
	}
}

// TestSplitReleaseForeignRow verifies the zero sentinel row appears when a
// cluster is genuinely out of reach: with the bridge absent (two separate
// components), each shard's halo excludes the other community.
func TestSplitReleaseForeignRow(t *testing.T) {
	rel, _, clusterShard := shardFixture(t)
	b := graph.NewSocialBuilder(12)
	for i := 0; i < 5; i++ {
		if err := b.AddEdge(i, i+1); err != nil {
			t.Fatal(err)
		}
		if err := b.AddEdge(6+i, 7+i); err != nil {
			t.Fatal(err)
		}
	}
	social := b.Build()
	_, shards, err := SplitRelease(rel, social, clusterShard, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range shards {
		if got := sh.Release.Clusters.NumClusters(); got != 2 {
			t.Fatalf("shard %d has %d local clusters, want 2 (own + foreign)", sh.ID, got)
		}
		var foreignLocal = -1
		for local, g := range sh.LocalToGlobal {
			if g == foreignSentinel {
				foreignLocal = local
			}
		}
		if foreignLocal < 0 {
			t.Fatalf("shard %d has no foreign sentinel", sh.ID)
		}
		if sh.OwnedLocal[foreignLocal] {
			t.Fatalf("shard %d owns its foreign sentinel", sh.ID)
		}
		row := sh.Release.Avg[foreignLocal*rel.NumItems : (foreignLocal+1)*rel.NumItems]
		for i, v := range row {
			if v != 0 {
				t.Fatalf("shard %d foreign row non-zero at %d", sh.ID, i)
			}
		}
	}
}

func TestSplitReleaseFullReplication(t *testing.T) {
	rel, social, clusterShard := shardFixture(t)
	// Negative horizon: no provable similarity bound, every shard holds
	// every row.
	_, shards, err := SplitRelease(rel, social, clusterShard, 2, -1)
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range shards {
		if got := sh.Release.Clusters.NumClusters(); got != rel.Clusters.NumClusters() {
			t.Fatalf("shard %d holds %d clusters, want all %d", sh.ID, got, rel.Clusters.NumClusters())
		}
	}
}

func TestShardRoundTrip(t *testing.T) {
	rel, social, clusterShard := shardFixture(t)
	m, shards, err := SplitRelease(rel, social, clusterShard, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteManifest(&buf, m); err != nil {
		t.Fatal(err)
	}
	m2, err := ReadManifest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m2.NumShards != m.NumShards || m2.Measure != m.Measure || m2.Horizon != m.Horizon ||
		m2.NumItems != m.NumItems || m2.NumUsers() != m.NumUsers() {
		t.Fatalf("manifest round trip: got %+v, want %+v", m2, m)
	}
	for u := range m.Assign {
		if m2.ShardOf(u) != m.ShardOf(u) {
			t.Fatalf("manifest round trip changed ShardOf(%d)", u)
		}
	}
	for _, sh := range shards {
		buf.Reset()
		if err := WriteShardContext(context.Background(), &buf, sh); err != nil {
			t.Fatal(err)
		}
		sh2, err := ReadShardContext(context.Background(), &buf)
		if err != nil {
			t.Fatal(err)
		}
		if sh2.ID != sh.ID || sh2.NumShards != sh.NumShards {
			t.Fatalf("shard identity round trip: %d-of-%d", sh2.ID, sh2.NumShards)
		}
		for u := 0; u < m.NumUsers(); u++ {
			if sh2.Owns(u) != sh.Owns(u) || sh2.GlobalCluster(u) != sh.GlobalCluster(u) {
				t.Fatalf("shard %d round trip changed ownership of user %d", sh.ID, u)
			}
		}
		if len(sh2.Release.Avg) != len(sh.Release.Avg) {
			t.Fatalf("shard %d round trip changed avg length", sh.ID)
		}
		for i := range sh.Release.Avg {
			if sh2.Release.Avg[i] != sh.Release.Avg[i] {
				t.Fatalf("shard %d round trip changed avg[%d]", sh.ID, i)
			}
		}
	}
}

func TestShardCorruptionDetected(t *testing.T) {
	rel, social, clusterShard := shardFixture(t)
	_, shards, err := SplitRelease(rel, social, clusterShard, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteShardContext(context.Background(), &buf, shards[0]); err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the header region (after the magic).
	data := buf.Bytes()
	corrupt := append([]byte(nil), data...)
	corrupt[len(shardMagic)+3] ^= 0xff
	if _, err := ReadShardContext(context.Background(), bytes.NewReader(corrupt)); err == nil {
		t.Fatal("corrupt shard header accepted")
	}
	// Truncation must be detected too.
	if _, err := ReadShardContext(context.Background(), bytes.NewReader(data[:len(data)-5])); err == nil {
		t.Fatal("truncated shard accepted")
	}
}

func TestStoreSaveLoadSharded(t *testing.T) {
	rel, social, clusterShard := shardFixture(t)
	m, shards, err := SplitRelease(rel, social, clusterShard, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store, err := OpenStore(dir, StoreOptions{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	v, err := store.SaveSharded(ctx, m, shards)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 || m.Version != 1 {
		t.Fatalf("first sharded generation got version %d (manifest %d)", v, m.Version)
	}
	got, skipped, err := store.LoadManifest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 {
		t.Fatalf("unexpected skips: %v", skipped)
	}
	if got.Version != 1 || got.NumShards != 2 {
		t.Fatalf("loaded manifest %+v", got)
	}
	for id := 0; id < got.NumShards; id++ {
		sh, err := store.LoadShard(ctx, got, id)
		if err != nil {
			t.Fatalf("loading shard %d: %v", id, err)
		}
		if sh.Version != 1 || sh.ID != id {
			t.Fatalf("shard %d identity: version %d id %d", id, sh.Version, sh.ID)
		}
	}
	// A second save becomes version 2 and recovery prefers it.
	if _, err := store.SaveSharded(ctx, m, shards); err != nil {
		t.Fatal(err)
	}
	got2, _, err := store.LoadManifest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got2.Version != 2 {
		t.Fatalf("newest manifest version %d, want 2", got2.Version)
	}
}

// TestStoreShardedRecovery proves the manifest is the commit point: a
// corrupt newest manifest falls back to the previous generation, and a
// corrupt shard file fails that shard's load without touching the manifest.
func TestStoreShardedRecovery(t *testing.T) {
	rel, social, clusterShard := shardFixture(t)
	m, shards, err := SplitRelease(rel, social, clusterShard, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store, err := OpenStore(dir, StoreOptions{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := store.SaveSharded(ctx, m, shards); err != nil {
		t.Fatal(err)
	}
	if _, err := store.SaveSharded(ctx, m, shards); err != nil {
		t.Fatal(err)
	}
	// Corrupt generation 2's manifest mid-file.
	path := filepath.Join(dir, Manifests.file(2))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, skipped, err := store.LoadManifest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 1 {
		t.Fatalf("recovered manifest version %d, want fallback to 1", got.Version)
	}
	if len(skipped) != 1 {
		t.Fatalf("skipped %v, want the corrupt generation-2 manifest", skipped)
	}
	// Corrupt one shard of generation 1: its load fails loudly, the other
	// shard still loads.
	spath := filepath.Join(dir, shardFileName(1, 0, 2))
	sdata, err := os.ReadFile(spath)
	if err != nil {
		t.Fatal(err)
	}
	sdata[len(sdata)-3] ^= 0xff
	if err := os.WriteFile(spath, sdata, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.LoadShard(ctx, got, 0); err == nil {
		t.Fatal("corrupt shard file accepted")
	}
	if _, err := store.LoadShard(ctx, got, 1); err != nil {
		t.Fatalf("healthy shard failed to load: %v", err)
	}
}
