package experiment

import (
	"bytes"
	"context"
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

// TestPipelineMatchesMonolithicPath proves stage-graph decomposition did
// not change the computation: sampling and similarity equal the direct
// path, and the released bytes equal the spec's release.Recipe built
// directly.
func TestPipelineMatchesMonolithicPath(t *testing.T) {
	const seed = 11
	spec := tinySpec(seed, "")
	p, err := BuildReleasePipeline(spec)
	if err != nil {
		t.Fatalf("BuildReleasePipeline: %v", err)
	}
	opts := quietOpts("")
	opts.Config = spec.Fingerprint()
	res, err := p.Run(context.Background(), opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	ds, _, err := BuildDataset(generator.TinyTest(seed))
	if err != nil {
		t.Fatal(err)
	}
	wantUsers := SampleUsers(ds.Social.NumUsers(), spec.evalSample(), seed+200)
	gotUsers, err := pipeline.Get[[]int32](res.State, KeyEvalUsers)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotUsers, wantUsers) {
		t.Fatalf("eval users diverge: got %v want %v", gotUsers, wantUsers)
	}

	wantSims := similarity.ComputeAll(ds.Social, similarity.CommonNeighbors{}, wantUsers, 0)
	gotSims, err := pipeline.Get[[]similarity.Scores](res.State, KeyEvalSims)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotSims, wantSims) {
		t.Fatalf("similarity vectors diverge")
	}

	want, err := tinyRecipe(seed).Build(context.Background(), ds.Social, ds.Prefs)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := pipeline.Get[*release.Release](res.State, KeyRelease)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(releaseBytes(t, rel), releaseBytes(t, want)) {
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
	opts := quietOpts(ckpt)
	opts.Config = spec.Fingerprint()

	run := func() *pipeline.Result {
		p, err := BuildReleasePipeline(spec)
		if err != nil {
			t.Fatalf("BuildReleasePipeline: %v", err)
		}
		res, err := p.Run(context.Background(), opts)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	res1 := run()
	res2 := run()
	if got, want := res2.Resumed(), len(res2.Stages); got != want {
		t.Fatalf("second run resumed %d of %d stages", got, want)
	}

	rel1, err := pipeline.Get[*release.Release](res1.State, KeyRelease)
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := pipeline.Get[*release.Release](res2.State, KeyRelease)
	if err != nil {
		t.Fatal(err)
	}
	var b1, b2 bytes.Buffer
	if err := release.Write(&b1, rel1); err != nil {
		t.Fatal(err)
	}
	if err := release.Write(&b2, rel2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
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
		t.Helper()
		p, err := BuildReleasePipeline(spec)
		if err != nil {
			t.Fatal(err)
		}
		opts := quietOpts(ckpt)
		opts.Config = spec.Fingerprint()
		opts.FS = fsys
		_, err = p.Run(context.Background(), opts)
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
	p, err := BuildReleasePipeline(spec)
	if err != nil {
		t.Fatal(err)
	}
	opts := quietOpts("")
	opts.Config = spec.Fingerprint()
	res, err := p.Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	fromState, err := RunnerFromState(res.State, similarity.CommonNeighbors{})
	if err != nil {
		t.Fatalf("RunnerFromState: %v", err)
	}
	rel, err := pipeline.Get[*release.Release](res.State, KeyRelease)
	if err != nil {
		t.Fatal(err)
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

	r1, err := fromState.EvaluateRelease(rel, []int{10})
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
	port := datasetPort(KeyDataset)
	data := portBytes(t, port, ds)
	ds2 := portValue(t, port, data).(*dataset.Dataset)
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
	if !bytes.Equal(data, portBytes(t, port, ds2)) {
		t.Fatalf("dataset encoding is not deterministic")
	}
}

// portBytes encodes v through port into a standalone frame.
func portBytes(t *testing.T, port pipeline.Port, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := frame.NewWriter(&buf, "SOCTSTv1")
	if err := port.Encode(w, v); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// portValue decodes a frame portBytes wrote.
func portValue(t *testing.T, port pipeline.Port, data []byte) any {
	t.Helper()
	r := frame.NewReader(bytes.NewReader(data), "SOCTSTv1")
	v, err := port.Decode(r)
	if err == nil {
		err = r.Close()
	}
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return v
}
