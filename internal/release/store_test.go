package release

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"socialrec/internal/community"
	"socialrec/internal/faults"
	"socialrec/internal/telemetry"
)

// storeRelease builds a tiny valid release whose first average identifies
// the variant, so tests can tell versions apart after a round trip.
func storeRelease(t *testing.T, tag float64) *Release {
	t.Helper()
	cl, err := community.FromAssignment([]int32{0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	return &Release{
		Epsilon:  0.5,
		Measure:  "CN",
		Clusters: cl,
		NumItems: 2,
		Avg:      []float64{tag, 2, 3, 4},
	}
}

func openTestStore(t *testing.T, dir string, fsys faults.FS) *Store {
	t.Helper()
	s, err := OpenStore(dir, StoreOptions{FS: fsys, Metrics: telemetry.NewRegistry(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStoreSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, nil)

	v1, err := s.Save(storeRelease(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	v2, err := s.Save(storeRelease(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if v1 != 1 || v2 != 2 {
		t.Fatalf("versions = %d, %d, want 1, 2", v1, v2)
	}
	rel, v, skipped, err := s.LoadContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 || rel.Avg[0] != 2 {
		t.Errorf("loaded version %d with tag %v, want version 2 tag 2", v, rel.Avg[0])
	}
	if len(skipped) != 0 {
		t.Errorf("clean store skipped %v", skipped)
	}
	old, err := s.LoadVersionContext(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if old.Avg[0] != 1 {
		t.Errorf("version 1 tag = %v", old.Avg[0])
	}
	vs, err := s.Versions(Fulls)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 2 || vs[0] != 1 || vs[1] != 2 {
		t.Errorf("versions = %v", vs)
	}
}

func TestStoreEmptyLoad(t *testing.T) {
	s := openTestStore(t, t.TempDir(), nil)
	if _, _, _, err := s.LoadContext(context.Background()); !errors.Is(err, ErrStoreEmpty) {
		t.Fatalf("err = %v, want ErrStoreEmpty", err)
	}
}

// TestStoreCrashMidPersistKeepsPreviousVersion is acceptance criterion (a):
// a crash injected mid-persist (torn write, failed sync, failed rename)
// must leave the reopened store serving the previous valid version.
func TestStoreCrashMidPersistKeepsPreviousVersion(t *testing.T) {
	for _, tc := range []struct {
		name string
		plan faults.Point
	}{
		{"torn write", faults.PointFSWrite},
		{"failed sync", faults.PointFSSync},
		{"failed rename", faults.PointFSRename},
		{"failed dir sync", faults.PointFSSyncDir},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			reg := faults.New(1)
			fsys := faults.NewFS(faults.OS{}, reg)
			s := openTestStore(t, dir, fsys)

			if _, err := s.Save(storeRelease(t, 1)); err != nil {
				t.Fatal(err)
			}

			// Inject the crash into the second persist. (release.Write
			// buffers, so each fs point is hit about once per save; a torn
			// write still leaves a genuinely half-written temp file.)
			reg.Arm(tc.plan, faults.Plan{})
			if _, err := s.Save(storeRelease(t, 2)); !errors.Is(err, faults.ErrInjected) {
				t.Fatalf("crashing save err = %v, want ErrInjected", err)
			}
			reg.DisarmAll()

			// "Restart": reopen the store from disk and recover.
			s2 := openTestStore(t, dir, fsys)
			rel, v, skipped, err := s2.LoadContext(context.Background())
			if err != nil {
				t.Fatalf("recovery load: %v", err)
			}
			if v != 1 || rel.Avg[0] != 1 {
				t.Errorf("recovered version %d tag %v, want version 1 tag 1", v, rel.Avg[0])
			}
			if len(skipped) != 0 {
				t.Errorf("recovery skipped %v, want none (crash left no visible file)", skipped)
			}

			// The store still accepts new saves after the crash.
			v3, err := s2.Save(storeRelease(t, 3))
			if err != nil {
				t.Fatalf("post-recovery save: %v", err)
			}
			rel, v, _, err = s2.LoadContext(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if v != v3 || rel.Avg[0] != 3 {
				t.Errorf("post-recovery load = version %d tag %v, want %d tag 3", v, rel.Avg[0], v3)
			}
		})
	}
}

// TestStoreRecoversPastCorruptNewestVersion covers external corruption: a
// torn or bit-flipped file under a *final* name (beyond what the atomic
// rename protocol can prevent) is skipped, reported, and counted.
func TestStoreRecoversPastCorruptNewestVersion(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	s, err := OpenStore(dir, StoreOptions{Metrics: reg, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Save(storeRelease(t, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Save(storeRelease(t, 2)); err != nil {
		t.Fatal(err)
	}

	// Corrupt version 2 in place: truncate it mid-body.
	path := filepath.Join(dir, Fulls.file(2))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	// And plant a bit-flipped version 3.
	flipped := bytes.Clone(raw)
	flipped[len(flipped)/3] ^= 0x40
	if err := os.WriteFile(filepath.Join(dir, Fulls.file(3)), flipped, 0o644); err != nil {
		t.Fatal(err)
	}

	rel, v, skipped, err := s.LoadContext(context.Background())
	if err != nil {
		t.Fatalf("recovery load: %v", err)
	}
	if v != 1 || rel.Avg[0] != 1 {
		t.Errorf("recovered version %d tag %v, want version 1", v, rel.Avg[0])
	}
	if len(skipped) != 2 {
		t.Fatalf("skipped = %v, want versions 3 and 2", skipped)
	}
	if skipped[0].Name != Fulls.file(3) || skipped[1].Name != Fulls.file(2) {
		t.Errorf("skipped order = %v, want newest first", skipped)
	}
	if got := s.recoveries.Value(); got != 2 {
		t.Errorf("release_store_recoveries_total = %d, want 2", got)
	}
}

func TestStoreOpenSweepsTempDebris(t *testing.T) {
	dir := t.TempDir()
	debris := filepath.Join(dir, Fulls.file(7)+faults.AtomicTmpSuffix)
	if err := os.WriteFile(debris, []byte("half a release"), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	s, err := OpenStore(dir, StoreOptions{Metrics: reg, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(debris); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("temp debris survived open: %v", err)
	}
	if got := s.tempCleaned.Value(); got != 1 {
		t.Errorf("release_store_temp_cleaned_total = %d, want 1", got)
	}
	// The swept version number is reusable.
	if _, err := s.Save(storeRelease(t, 1)); err != nil {
		t.Fatal(err)
	}
}

func TestStoreSaveFailureCounters(t *testing.T) {
	dir := t.TempDir()
	reg := faults.New(1)
	fsys := faults.NewFS(faults.OS{}, reg)
	metrics := telemetry.NewRegistry()
	s, err := OpenStore(dir, StoreOptions{FS: fsys, Metrics: metrics, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	reg.Arm(faults.PointFSCreate, faults.Plan{})
	if _, err := s.Save(storeRelease(t, 1)); err == nil {
		t.Fatal("save with failing create succeeded")
	}
	reg.DisarmAll()
	if _, err := s.Save(storeRelease(t, 1)); err != nil {
		t.Fatal(err)
	}
	if s.saveFailures.Value() != 1 || s.saves.Value() != 1 {
		t.Errorf("saves = %d, failures = %d, want 1 and 1", s.saves.Value(), s.saveFailures.Value())
	}
}

func TestStoreVersionNumbersSkipGaps(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, nil)
	if _, err := s.Save(storeRelease(t, 1)); err != nil {
		t.Fatal(err)
	}
	// Simulate an operator pruning old versions: only version 5 remains.
	var buf bytes.Buffer
	if err := Write(&buf, storeRelease(t, 5)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, Fulls.file(5)), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, Fulls.file(1))); err != nil {
		t.Fatal(err)
	}
	v, err := s.Save(storeRelease(t, 6))
	if err != nil {
		t.Fatal(err)
	}
	if v != 6 {
		t.Errorf("next version after 5 = %d, want 6", v)
	}
}

func TestStoreIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, nil)
	for _, name := range []string{"README", "release-.socrec", "release-xyz.socrec", "other.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("not a release"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Save(storeRelease(t, 1)); err != nil {
		t.Fatal(err)
	}
	rel, v, skipped, err := s.LoadContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 || rel.Avg[0] != 1 || len(skipped) != 0 {
		t.Errorf("load with foreign files = version %d, skipped %v", v, skipped)
	}
}
