package experiment

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"socialrec/internal/dataset"
	"socialrec/internal/faults"
	"socialrec/internal/frame"
	"socialrec/internal/generator"
	"socialrec/internal/pipeline"
	"socialrec/internal/release"
	"socialrec/internal/similarity"
	"socialrec/internal/telemetry"
)

func tinySpec(seed int64, storeDir string) ReleaseSpec {
	preset := generator.TinyTest(seed)
	return ReleaseSpec{
		Load: func(ctx context.Context) (*dataset.Dataset, error) {
			ds, _, err := BuildDataset(preset)
			return ds, err
		},
		DatasetFingerprint: 42,
		Eps:                0.5,
		EvalSample:         30,
		LouvainRuns:        3,
		Seed:               seed,
		StoreDir:           storeDir,
	}
}

func quietOpts(dir string) pipeline.Options {
	return pipeline.Options{
		CheckpointDir: dir,
		Metrics:       telemetry.NewRegistry(),
	}
}

// tinyRecipe is the release.Recipe tinySpec(seed, …) describes.
func tinyRecipe(seed int64) release.Recipe {
	return release.Recipe{Measure: "CN", Eps: 0.5, LouvainRuns: 3, Seed: seed}
}

// releaseBytes serializes rel.
func releaseBytes(t *testing.T, rel *release.Release) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := release.Write(&buf, rel); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPipelineMatchesMonolithicPath proves the step decomposition did
// not change the computation: sampling and similarity equal the direct
// path, and the released bytes equal the spec's release.Recipe built
// directly.
func TestPipelineMatchesMonolithicPath(t *testing.T) {
	const seed = 11
	spec := tinySpec(seed, "")
	res, err := RunRelease(context.Background(), spec, quietOpts(""))
	if err != nil {
		t.Fatalf("RunRelease: %v", err)
	}

	ds, _, err := BuildDataset(generator.TinyTest(seed))
	if err != nil {
		t.Fatal(err)
	}
	wantUsers := SampleUsers(ds.Social.NumUsers(), spec.evalSample(), seed+200)
	if !reflect.DeepEqual(res.EvalUsers, wantUsers) {
		t.Fatalf("eval users diverge: got %v want %v", res.EvalUsers, wantUsers)
	}

	wantSims := similarity.ComputeAll(ds.Social, similarity.CommonNeighbors{}, wantUsers, 0)
	if !reflect.DeepEqual(res.EvalSims, wantSims) {
		t.Fatalf("similarity vectors diverge")
	}

	want, err := tinyRecipe(seed).Build(context.Background(), ds.Social, ds.Prefs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(releaseBytes(t, res.Release), releaseBytes(t, want)) {
		t.Fatalf("pipeline release diverges from the recipe built directly")
	}
}

// TestPipelineResumeAndPersistIdempotent checks the full-system invariant:
// resuming re-uses every checkpoint, produces an identical release, the
// persist stage never duplicates a store version, and the durable ledger
// records the ε-spend exactly once.
func TestPipelineResumeAndPersistIdempotent(t *testing.T) {
	const seed = 11
	ckpt := t.TempDir()
	storeDir := filepath.Join(t.TempDir(), "releases")
	spec := tinySpec(seed, storeDir)

	run := func() *ReleaseRun {
		res, err := RunRelease(context.Background(), spec, quietOpts(ckpt))
		if err != nil {
			t.Fatalf("RunRelease: %v", err)
		}
		return res
	}
	res1 := run()
	res2 := run()
	if got, want := res2.Resumed(), len(res2.Stages); got != want {
		t.Fatalf("second run resumed %d of %d stages", got, want)
	}
	if res1.Version != 1 || res2.Version != 1 {
		t.Fatalf("store versions %d and %d, want 1 and 1", res1.Version, res2.Version)
	}
	if !bytes.Equal(releaseBytes(t, res1.Release), releaseBytes(t, res2.Release)) {
		t.Fatalf("resumed release is not byte-identical")
	}

	store, err := release.OpenStore(storeDir, release.StoreOptions{Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	versions, err := store.Versions(release.Fulls)
	if err != nil {
		t.Fatal(err)
	}
	if len(versions) != 1 {
		t.Fatalf("store has %d versions after two runs, want 1 (persist not idempotent)", len(versions))
	}

	ckptStore, _, err := pipeline.OpenStore(ckpt, nil)
	if err != nil {
		t.Fatal(err)
	}
	records, skipped, err := ckptStore.Ledger()
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 {
		t.Fatalf("skipped receipts: %v", skipped)
	}
	spends := 0
	for _, r := range records {
		if r.Event.Epsilon != 0 {
			spends++
			if r.Stage != "release" || r.Event.Epsilon != 0.5 {
				t.Fatalf("unexpected spend %+v", r)
			}
		}
	}
	if spends != 1 {
		t.Fatalf("durable ledger has %d ε-spends, want exactly 1", spends)
	}
	if got := pipeline.SpentEpsilon(records); math.Abs(got-0.5) > 1e-15 {
		t.Fatalf("SpentEpsilon = %g, want 0.5", got)
	}
}

// TestPipelineCrashMidPersistThenResume fails the rename that commits the
// persist stage's receipt, after the release already landed in the store,
// and checks the resumed run re-runs persist into its byte-identical-reuse
// branch: one store version, one ε record.
func TestPipelineCrashMidPersistThenResume(t *testing.T) {
	const seed = 11
	storeDir := filepath.Join(t.TempDir(), "releases")
	spec := tinySpec(seed, storeDir)
	run := func(ckpt string, fsys faults.FS) error {
		opts := quietOpts(ckpt)
		opts.FS = fsys
		_, err := RunRelease(context.Background(), spec, opts)
		return err
	}

	// Count a clean run's checkpoint renames: the last one commits the
	// persist stage's receipt, the run's final write.
	count := faults.New(1)
	count.Arm(faults.PointFSRename, faults.Plan{After: math.MaxUint64})
	if err := run(t.TempDir(), faults.NewFS(faults.OS{}, count)); err != nil {
		t.Fatal(err)
	}
	renames := count.Checks(faults.PointFSRename)
	if err := os.RemoveAll(storeDir); err != nil {
		t.Fatal(err)
	}

	ckpt := t.TempDir()
	reg := faults.New(1)
	reg.Arm(faults.PointFSRename, faults.Plan{After: renames - 1, Times: 1})
	err := run(ckpt, faults.NewFS(faults.OS{}, reg))
	if err == nil || reg.Fired(faults.PointFSRename) != 1 {
		t.Fatalf("run survived the injected rename failure: %v", err)
	}
	if !strings.Contains(err.Error(), "stage persist ") {
		t.Fatalf("injected failure hit another stage: %v", err)
	}

	// Resume on a healthy filesystem.
	if err := run(ckpt, nil); err != nil {
		t.Fatalf("resume: %v", err)
	}
	store, err := release.OpenStore(storeDir, release.StoreOptions{Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	versions, err := store.Versions(release.Fulls)
	if err != nil {
		t.Fatal(err)
	}
	if len(versions) != 1 {
		t.Fatalf("store has %d versions after crash/resume, want 1", len(versions))
	}
	ckptStore, _, err := pipeline.OpenStore(ckpt, nil)
	if err != nil {
		t.Fatal(err)
	}
	records, _, err := ckptStore.Ledger()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 || pipeline.SpentEpsilon(records) != 0.5 {
		t.Fatalf("durable ledger after crash/resume = %+v, want one 0.5 record", records)
	}
}

// TestRunnerFromState proves the checkpoint-fed runner scores the
// pipeline's release exactly as a runner that recomputes everything scores
// the same recipe built directly.
func TestRunnerFromState(t *testing.T) {
	const seed = 11
	spec := tinySpec(seed, "")
	res, err := RunRelease(context.Background(), spec, quietOpts(""))
	if err != nil {
		t.Fatal(err)
	}
	fromState, err := RunnerFromState(res, similarity.CommonNeighbors{})
	if err != nil {
		t.Fatalf("RunnerFromState: %v", err)
	}

	ds, _, err := BuildDataset(generator.TinyTest(seed))
	if err != nil {
		t.Fatal(err)
	}
	want, err := tinyRecipe(seed).Build(context.Background(), ds.Social, ds.Prefs)
	if err != nil {
		t.Fatal(err)
	}
	eval := SampleUsers(ds.Social.NumUsers(), spec.evalSample(), seed+200)
	direct, err := NewRunner(ds, similarity.CommonNeighbors{}, want.Clusters, eval)
	if err != nil {
		t.Fatal(err)
	}

	r1, err := fromState.EvaluateRelease(res.Release, []int{10})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := direct.EvaluateRelease(want, []int{10})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.NDCG, r2.NDCG) {
		t.Fatalf("checkpoint-fed runner scores diverge: %v vs %v", r1.Mean(10), r2.Mean(10))
	}
}

// TestDatasetCodecRoundTrip covers isolated users and empty preference
// rows, which a TSV round-trip would lose.
func TestDatasetCodecRoundTrip(t *testing.T) {
	ds, _, err := BuildDataset(generator.TinyTest(5))
	if err != nil {
		t.Fatal(err)
	}
	data := codecBytes(t, encodeDataset, ds)
	ds2 := codecValue(t, decodeDataset, data)
	if ds2.Name != ds.Name ||
		ds2.Social.NumUsers() != ds.Social.NumUsers() ||
		ds2.Social.NumEdges() != ds.Social.NumEdges() ||
		ds2.Prefs.NumItems() != ds.Prefs.NumItems() ||
		ds2.Prefs.NumEdges() != ds.Prefs.NumEdges() {
		t.Fatalf("round-trip changed dataset shape")
	}
	for u := 0; u < ds.Social.NumUsers(); u++ {
		if !reflect.DeepEqual(ds2.Social.Neighbors(u), ds.Social.Neighbors(u)) {
			t.Fatalf("user %d neighbors diverge", u)
		}
		if !reflect.DeepEqual(ds2.Prefs.Items(u), ds.Prefs.Items(u)) {
			t.Fatalf("user %d items diverge", u)
		}
	}
	// Deterministic encoding: same value, same bytes.
	if !bytes.Equal(data, codecBytes(t, encodeDataset, ds2)) {
		t.Fatalf("dataset encoding is not deterministic")
	}
}

// codecBytes encodes v with encode into a standalone frame.
func codecBytes[T any](t *testing.T, encode func(*frame.Writer, T) error, v T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := frame.NewWriter(&buf, "SOCTSTv1")
	if err := encode(w, v); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// codecValue decodes a frame codecBytes wrote.
func codecValue[T any](t *testing.T, decode func(*frame.Reader) (T, error), data []byte) T {
	t.Helper()
	r := frame.NewReader(bytes.NewReader(data), "SOCTSTv1")
	v, err := decode(r)
	if err == nil {
		err = r.Close()
	}
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return v
}

// TestReleaseCheckpointsPinned pins the checkpoint bytes and the
// filesystem calls of `experiments -exp release -preset tiny -seed 7
// -sample 30 -runs 3 -release-dir D` (ε 0.5): a checkpoint directory
// written by one build must resume under the next, and the crash drills
// count on each fault point's call sequence.
func TestReleaseCheckpointsPinned(t *testing.T) {
	preset := generator.TinyTest(7)
	h := fnv.New64a()
	h.Write([]byte(preset.Name))
	spec := ReleaseSpec{
		Load: func(context.Context) (*dataset.Dataset, error) {
			ds, _, err := BuildDataset(preset)
			return ds, err
		},
		DatasetFingerprint: h.Sum64(),
		Eps:                0.5,
		EvalSample:         30,
		LouvainRuns:        3,
		Seed:               7,
		StoreDir:           filepath.Join(t.TempDir(), "releases"),
	}
	points := []faults.Point{
		faults.PointFSOpen, faults.PointFSCreate, faults.PointFSRead, faults.PointFSWrite, faults.PointFSSync,
		faults.PointFSClose, faults.PointFSRename, faults.PointFSRemove, faults.PointFSReadDir, faults.PointFSSyncDir,
	}
	ckpt := t.TempDir()
	for _, pass := range []struct {
		name   string
		checks []uint64 // per point, in points' order
	}{
		{"fresh", []uint64{15, 10, 0, 24, 10, 10, 10, 5, 1, 10}},
		{"resume", []uint64{10, 0, 61, 0, 0, 10, 0, 0, 1, 0}},
	} {
		reg := faults.New(1)
		for _, p := range points {
			reg.Arm(p, faults.Plan{After: 1 << 60}) // count every check, fire none
		}
		opts := quietOpts(ckpt)
		opts.FS = faults.NewFS(faults.OS{}, reg)
		if _, err := RunRelease(context.Background(), spec, opts); err != nil {
			t.Fatalf("%s run: %v", pass.name, err)
		}
		for i, p := range points {
			if got := reg.Checks(p); got != pass.checks[i] {
				t.Errorf("%s run: %s checked %d times, want %d", pass.name, p, got, pass.checks[i])
			}
		}
	}

	want := map[string]string{
		"dataset.art":         "4c2fcc21a15a8a6c9545b2a28b89ddaceb6004aadbca9b67134fc0d7a80b2b74",
		"eval_users.art":      "4bb5d517bdb809e820e8b2422a6bf9d9cc101f71fb757b0163fcf9a68651d493",
		"eval_sims.art":       "6ecd041e3e281394a13b957a5a46b9eefe4e28393bc724049b9e5c20aab1a1da",
		"released.art":        "9ac11f85de1c8ab941c612c9093867e5ff2c293062a8e9fdeaa1bcfc923e307d",
		"release_version.art": "c8235db0f57bbcb6760fac2788bae90decd98518cb7299c07f35c60f5e8451cb",
		"load_dataset.stage":  "7a689d6f4a179d314236224569da3e4fafeeba67987a52ada665cb30619fc848",
		"sample_eval.stage":   "22e228ff8b8edb8c68245a6bd0b12ff24a5beba42e9379fec624368c6968df1a",
		"similarity.stage":    "336bcd8b30a4df09ff5fdbf4e6a7bf892fdc74514d38e18d5bd226db2936d430",
		"release.stage":       "7d01eebf87a9b572819bd47da9739c33ff360dee26d8bb1dd2bd4bba3dbfd06c",
		"persist.stage":       "53736fcce0ede09ff0858c901c8d4cd387d305c0ecb39692958a46f089af4f9d",
	}
	entries, err := os.ReadDir(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(want) {
		t.Errorf("checkpoint dir holds %d files, want %d", len(entries), len(want))
	}
	for name, digest := range want {
		data, err := os.ReadFile(filepath.Join(ckpt, name))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != digest {
			t.Errorf("%s SHA-256 %x, want %s", name, sum, digest)
		}
	}
}
