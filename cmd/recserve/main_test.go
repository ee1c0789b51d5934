package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"socialrec"
	"socialrec/internal/community"
	"socialrec/internal/graph"
	"socialrec/internal/release"
	"socialrec/internal/server"
	"socialrec/internal/telemetry"
)

// rollbackSocial builds the 5-user social graph the lineage fixtures
// cover.
func rollbackSocial(t *testing.T) *graph.Social {
	t.Helper()
	b := graph.NewSocialBuilder(5)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func rollbackStore(t *testing.T, dir string) *release.Store {
	t.Helper()
	s, err := release.OpenStore(dir, release.StoreOptions{
		Metrics: telemetry.NewRegistry(),
		Logf:    func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func saveFullFixture(t *testing.T, store *release.Store) uint64 {
	t.Helper()
	cl, err := community.FromAssignment([]int32{0, 0, 1, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	v, err := store.Save(&release.Release{
		Epsilon:  0.5,
		Measure:  "CN",
		Clusters: cl,
		NumItems: 2,
		Avg:      []float64{1, 2, 3, 4, 5, 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func saveDeltaFixture(t *testing.T, store *release.Store, base uint64) uint64 {
	t.Helper()
	v, err := store.SaveDeltaContext(context.Background(), &release.Delta{
		Base:     base,
		Epsilon:  0.25,
		Measure:  "CN",
		NumItems: 2,
		Assign:   []int32{0, 0, 1, 1, 1},
		Source:   []int32{0, -1},
		Fresh:    []float64{30, 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// loadStart builds the serving slot from the store's lineage as main()
// does at start-up (cacheCap < 0: no similarity cache).
func loadStart(t *testing.T, store *release.Store, social *graph.Social, cacheCap int) *server.Hot {
	t.Helper()
	hot, err := startFromStore(context.Background(), store, social, cacheCap)
	if err != nil {
		t.Fatal(err)
	}
	return hot
}

// servedRelease is the release behind the engine hot serves.
func servedRelease(t *testing.T, hot *server.Hot) *release.Release {
	t.Helper()
	e, ok := hot.Engine().(*socialrec.Engine)
	if !ok {
		t.Fatalf("serving engine is a %T", hot.Engine())
	}
	rel, err := e.Release()
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// releaseLoads counts the full-release decodes the process ledger has
// recorded (one release_load event per release.ReadContext).
func releaseLoads() int {
	for _, m := range telemetry.Budget().Snapshot().ByMechanism {
		if m.Mechanism == "release_load" {
			return m.Releases
		}
	}
	return 0
}

// corruptDelta flips a byte in the stored delta artifact for the given
// version, simulating on-disk rot of an already-served delta.
func corruptDelta(t *testing.T, dir string, version uint64) {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "delta-*"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no delta artifacts in %s (err %v)", dir, err)
	}
	for _, path := range matches {
		if !strings.Contains(path, "delta-") {
			continue
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)-10] ^= 0xff
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReloadFromStoreRollsBackOnCorruptDelta is the serving half of the
// crash-safety acceptance criterion: when a delta that is already being
// served goes corrupt on disk, a reload rolls serving back to the
// retained full generation — degraded and stale, but answering — instead
// of failing requests or serving state with unverifiable provenance.
func TestReloadFromStoreRollsBackOnCorruptDelta(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	store := rollbackStore(t, dir)
	social := rollbackSocial(t)

	fullV := saveFullFixture(t, store)
	deltaV := saveDeltaFixture(t, store, fullV)

	// Startup resolves full + delta, as main() does for -release-dir.
	hot := loadStart(t, store, social, -1)
	st := hot.Status()
	if st.Version != deltaV || st.FullVersion != fullV || len(st.Deltas) != 1 || st.Deltas[0] != deltaV || st.Degraded {
		t.Fatalf("startup status = %+v", st)
	}

	// A reload with nothing new is a no-op.
	if err := reloadFromStore(ctx, hot, store, social, -1); err != nil {
		t.Fatalf("idle reload: %v", err)
	}
	if got := hot.Status(); got.Version != deltaV || got.Degraded {
		t.Fatalf("idle reload changed the slot: %+v", got)
	}

	// Rot the served delta on disk. The store now resolves only the full
	// generation, which is older than what we serve: reload must roll
	// back, not 500 the serving path.
	corruptDelta(t, dir, deltaV)
	err := reloadFromStore(ctx, hot, store, social, -1)
	if err == nil || !strings.Contains(err.Error(), "rolled back") {
		t.Fatalf("reload over corrupt served delta: %v", err)
	}
	st = hot.Status()
	if st.Version != fullV || st.FullVersion != fullV || !st.Degraded || len(st.Deltas) != 0 {
		t.Fatalf("post-rollback status = %+v", st)
	}
	// Degraded means stale-but-serving: recommendations still answer from
	// the retained full generation without touching the rotten artifact.
	recs, err := hot.Recommend(0, 2)
	if err != nil || len(recs) == 0 {
		t.Fatalf("degraded slot stopped serving: %v, %v", recs, err)
	}

	// A fresh full generation recovers: swap clears degradation.
	newFull := saveFullFixture(t, store)
	if err := reloadFromStore(ctx, hot, store, social, -1); err != nil {
		t.Fatalf("recovery reload: %v", err)
	}
	st = hot.Status()
	if st.Version != newFull || st.Degraded || st.FullVersion != newFull {
		t.Fatalf("post-recovery status = %+v", st)
	}
}

// TestReloadFromStoreExtendsDeltaChain: a new delta appearing in the
// store swaps in through the validated delta path, keeping the full
// generation retained for rollback. The slot already retains that full
// generation, so the reload decodes it once (to compose the chain) and
// builds no second engine over it.
func TestReloadFromStoreExtendsDeltaChain(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	store := rollbackStore(t, dir)
	social := rollbackSocial(t)

	fullV := saveFullFixture(t, store)
	hot := loadStart(t, store, social, -1)
	if st := hot.Status(); st.Version != fullV || st.FullVersion != fullV || len(st.Deltas) != 0 {
		t.Fatalf("fresh store status = %+v", st)
	}

	deltaV := saveDeltaFixture(t, store, fullV)
	loads := releaseLoads()
	if err := reloadFromStore(ctx, hot, store, social, -1); err != nil {
		t.Fatalf("delta reload: %v", err)
	}
	if n := releaseLoads() - loads; n != 1 {
		t.Errorf("delta reload decoded %d full releases, want 1", n)
	}
	st := hot.Status()
	if st.Version != deltaV || st.FullVersion != fullV || len(st.Deltas) != 1 {
		t.Fatalf("post-delta status = %+v", st)
	}
}

// TestStartReadsFullGenerationOnce: start-up over a full generation and
// two deltas reads and decodes the full generation once, both to compose
// the served chain and to build the retained full engine, and the two
// engines still answer from their own tables.
func TestStartReadsFullGenerationOnce(t *testing.T) {
	store := rollbackStore(t, t.TempDir())
	social := rollbackSocial(t)
	fullV := saveFullFixture(t, store)
	saveDeltaFixture(t, store, saveDeltaFixture(t, store, fullV))

	loads := releaseLoads()
	hot := loadStart(t, store, social, -1)
	if n := releaseLoads() - loads; n != 1 {
		t.Errorf("start-up decoded %d full releases, want 1", n)
	}
	if st := hot.Status(); st.FullVersion != fullV || len(st.Deltas) != 2 {
		t.Fatalf("start-up status = %+v", st)
	}
	served := servedRelease(t, hot)
	if v := hot.Rollback("test"); v != fullV {
		t.Fatalf("rolled back to %d, want full generation %d", v, fullV)
	}
	retained := servedRelease(t, hot)
	// Cluster 1 is fresh in the deltas (30, 40); the full generation keeps
	// its own row (3, 4).
	if served.Avg[2] != 30 || retained.Avg[2] != 3 {
		t.Fatalf("served row %v, retained row %v", served.Avg[2:4], retained.Avg[2:4])
	}
}

// TestReloadNewFullWithDeltasUnderReaders drives reloadFromStore's branch
// for a new full generation that already carries deltas while readers use
// the Hot slot. Both engines must be complete before they are installed;
// under -race, enabling a cache on an engine that already serves is a
// reported data race.
func TestReloadNewFullWithDeltasUnderReaders(t *testing.T) {
	ctx := context.Background()
	store := rollbackStore(t, t.TempDir())
	social := rollbackSocial(t)

	saveFullFixture(t, store)
	hot := loadStart(t, store, social, -1)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := i; ; u++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := hot.Recommend(u%social.NumUsers(), 2); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()

	for round := 0; round < 50; round++ {
		fullV := saveFullFixture(t, store)
		deltaV := saveDeltaFixture(t, store, fullV)
		if err := reloadFromStore(ctx, hot, store, social, 16); err != nil {
			t.Fatalf("round %d: reload: %v", round, err)
		}
		st := hot.Status()
		if st.Version != deltaV || st.FullVersion != fullV || st.Degraded || len(st.Deltas) != 1 {
			t.Fatalf("round %d: status = %+v, want delta %d on full %d", round, st, deltaV, fullV)
		}
	}
}

// TestStartSlotCachesRetainedFull: start-up over a delta lineage installs
// through installFull, which gives the retained full generation its
// similarity cache too, so serving after a rollback stays cached and the
// simcache gauges keep reading it.
func TestStartSlotCachesRetainedFull(t *testing.T) {
	store := rollbackStore(t, t.TempDir())
	social := rollbackSocial(t)
	fullV := saveFullFixture(t, store)
	saveDeltaFixture(t, store, fullV)

	hot := loadStart(t, store, social, 16)
	served := func(stage string) {
		t.Helper()
		if _, err := hot.Recommend(0, 2); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		st, ok := hot.Engine().(cacheStatser).CacheStats()
		if !ok || st.Misses == 0 {
			t.Fatalf("%s: serving engine cache stats %+v, ok %v", stage, st, ok)
		}
	}
	served("delta")
	if v := hot.Rollback("test"); v != fullV {
		t.Fatalf("rolled back to %d, want full generation %d", v, fullV)
	}
	served("rolled back")
}
