package experiment

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"path/filepath"
	"testing"

	"socialrec"
	"socialrec/internal/dataset"
	"socialrec/internal/dynamic"
	"socialrec/internal/generator"
	"socialrec/internal/release"
	"socialrec/internal/telemetry"
	"socialrec/internal/wal"
)

// TestOneRecipeOneRelease builds one release.Recipe (CN, ε = 1, seed 1,
// the default Louvain restarts) through every path that publishes a full
// release and requires one release digest from all of them: the facade's
// Engine.Release, a fresh pipeline run, the same pipeline resumed from its
// checkpoint directory, and an Updater's first full publish.
func TestOneRecipeOneRelease(t *testing.T) {
	ctx := context.Background()
	quiet := func(string, ...any) {}
	for _, preset := range []generator.Preset{generator.TinyTest(1), generator.LastFMLike(1)} {
		t.Run(preset.Name, func(t *testing.T) {
			ds, _, err := BuildDataset(preset)
			if err != nil {
				t.Fatal(err)
			}
			digests := map[string]string{}
			digest := func(path string, rel *release.Release) {
				t.Helper()
				h := sha256.Sum256(releaseBytes(t, rel))
				digests[path] = hex.EncodeToString(h[:])
			}

			eng, err := socialrec.NewEngineFromGraphs(ds.Social, ds.Prefs, socialrec.Config{Epsilon: 1, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			rel, err := eng.Release()
			if err != nil {
				t.Fatal(err)
			}
			digest("facade", rel)

			spec := ReleaseSpec{
				Load:               func(context.Context) (*dataset.Dataset, error) { return ds, nil },
				DatasetFingerprint: 1,
				Eps:                1,
				Seed:               1,
			}
			ckpt := t.TempDir()
			for _, path := range []string{"pipeline", "pipeline resumed"} {
				res, err := RunRelease(ctx, spec, quietOpts(ckpt))
				if err != nil {
					t.Fatalf("%s: %v", path, err)
				}
				if path == "pipeline resumed" && res.Resumed() != len(res.Stages) {
					t.Fatalf("resumed run re-ran %d of %d stages", len(res.Stages)-res.Resumed(), len(res.Stages))
				}
				digest(path, res.Release)
			}

			dir := t.TempDir()
			wlog, _, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{Metrics: telemetry.NewRegistry(), Logf: quiet})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = wlog.Close() }()
			store, err := release.OpenStore(filepath.Join(dir, "releases"), release.StoreOptions{Metrics: telemetry.NewRegistry(), Logf: quiet})
			if err != nil {
				t.Fatal(err)
			}
			upd, err := dynamic.OpenUpdater(dynamic.UpdaterConfig{
				TotalBudget: 1, PerRelease: 1, Seed: 1,
				JournalPath: filepath.Join(dir, "journal.bin"),
				WAL:         wlog, Store: store, BaseSocial: ds.Social, BasePrefs: ds.Prefs,
				Metrics: telemetry.NewRegistry(), Logf: quiet,
			})
			if err != nil {
				t.Fatal(err)
			}
			dec, err := upd.Advance()
			if err != nil || !dec.Published || dec.Kind != "full" {
				t.Fatalf("updater's first advance = %+v, %v; want a full publish", dec, err)
			}
			rel, err = store.LoadVersionContext(ctx, dec.Version)
			if err != nil {
				t.Fatal(err)
			}
			digest("updater", rel)

			for path, d := range digests {
				if d != digests["facade"] {
					t.Errorf("%s release %.8s…, facade %.8s…", path, d, digests["facade"])
				}
			}
		})
	}
}
