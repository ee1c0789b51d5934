// The offline release path as five checkpointed internal/pipeline steps:
// load dataset → sample evaluation users → similarity → release → persist.
// The release step is one call of release.Recipe.Build, the function every
// other publish path runs, so a pipeline release is byte-identical to the
// facade's for the same graphs, ε and seed.
package experiment

import (
	"bytes"
	"context"
	"fmt"
	"math"

	"socialrec/internal/dataset"
	"socialrec/internal/dp"
	"socialrec/internal/frame"
	"socialrec/internal/graph"
	"socialrec/internal/pipeline"
	"socialrec/internal/release"
	"socialrec/internal/similarity"
	"socialrec/internal/telemetry"
)

// ReleaseSpec configures the checkpointed release pipeline.
type ReleaseSpec struct {
	// Load materializes the dataset (generator preset, TSV ingestion, …).
	// It runs only when the dataset checkpoint is absent or invalidated.
	Load func(ctx context.Context) (*dataset.Dataset, error)
	// DatasetFingerprint identifies the dataset source (preset parameters,
	// input-file content hash); a change invalidates every checkpoint.
	DatasetFingerprint uint64
	// Measure is the similarity measure; nil selects Common Neighbors.
	Measure similarity.Measure
	// Eps is the release budget for the cluster mechanism.
	Eps dp.Epsilon
	// EvalSample is the evaluation-user sample size; 0 selects 400.
	EvalSample int
	// LouvainRuns is the best-of restart count; 0 selects the recipe's
	// default of 10.
	LouvainRuns int
	// Seed drives sampling and the release: the evaluation sample is
	// drawn at Seed+200, as Opts.Seed does for the figures, and the release
	// follows release.Recipe's seed rule (clustering at Seed, noise at
	// Seed+1).
	Seed int64
	// SnapGrain rounds the sanitized averages before they leave the trust
	// boundary (0 leaves them untouched).
	SnapGrain float64
	// StoreDir, when non-empty, appends the release to a release.Store
	// there (idempotently: a byte-identical newest version is reused).
	StoreDir string
}

func (s ReleaseSpec) measure() similarity.Measure {
	if s.Measure == nil {
		return similarity.CommonNeighbors{}
	}
	return s.Measure
}

func (s ReleaseSpec) evalSample() int {
	if s.EvalSample > 0 {
		return s.EvalSample
	}
	return 400
}

// recipe is the release the spec describes.
func (s ReleaseSpec) recipe() release.Recipe {
	return release.Recipe{Measure: s.measure().Name(), Eps: s.Eps, LouvainRuns: s.LouvainRuns, Seed: s.Seed}
}

// Fingerprint hashes every spec field that determines step values;
// RunRelease folds it into every step's fingerprint, so any configuration
// change re-runs the pipeline from the first affected step.
func (s ReleaseSpec) Fingerprint() uint64 {
	h := pipeline.NewHasher()
	h.Word(s.DatasetFingerprint)
	h.String(s.measure().Name())
	h.Word(math.Float64bits(float64(s.Eps)))
	h.Word(uint64(s.evalSample()))
	h.Word(uint64(s.LouvainRuns))
	h.Word(uint64(s.Seed))
	h.Word(math.Float64bits(s.SnapGrain))
	return h.Sum()
}

// ReleaseRun is what RunRelease computed or resumed, with the run's report.
type ReleaseRun struct {
	pipeline.Result
	Dataset   *dataset.Dataset
	EvalUsers []int32
	EvalSims  []similarity.Scores
	Release   *release.Release
	// Version is the release's store version; 0 without a StoreDir.
	Version uint64
}

// RunRelease runs the checkpointed offline path. opts.Config is set from
// spec.Fingerprint. Step versions are bumped when a step's algorithm
// changes incompatibly; everything else is invalidated through the spec's
// fingerprint.
func RunRelease(ctx context.Context, spec ReleaseSpec, opts pipeline.Options) (out *ReleaseRun, err error) {
	if spec.Load == nil {
		return nil, fmt.Errorf("experiment: ReleaseSpec.Load is required")
	}
	opts.Config = spec.Fingerprint()
	run, err := pipeline.Start(ctx, opts)
	if err != nil {
		return nil, err
	}
	defer func() { run.End(err) }()

	out = &ReleaseRun{}
	var dsFP, usersFP, relFP uint64
	if out.Dataset, dsFP, err = pipeline.Step(run, pipeline.Spec[*dataset.Dataset]{
		Name: "load_dataset", Key: "dataset", Version: 1, Fingerprint: spec.DatasetFingerprint,
		Encode: encodeDataset, Decode: decodeDataset,
	}, spec.Load); err != nil {
		return nil, err
	}
	if out.EvalUsers, usersFP, err = pipeline.Step(run, pipeline.Spec[[]int32]{
		Name: "sample_eval", Key: "eval_users", Version: 1, Encode: encodeUsers, Decode: decodeUsers,
	}, func(context.Context) ([]int32, error) {
		return SampleUsers(out.Dataset.Social.NumUsers(), spec.evalSample(), spec.Seed+200), nil
	}, dsFP); err != nil {
		return nil, err
	}
	if out.EvalSims, _, err = pipeline.Step(run, pipeline.Spec[[]similarity.Scores]{
		Name: "similarity", Key: "eval_sims", Version: 1, Encode: encodeSims, Decode: decodeSims,
	}, func(context.Context) ([]similarity.Scores, error) {
		return similarity.ComputeAll(out.Dataset.Social, spec.measure(), out.EvalUsers, 0), nil
	}, dsFP, usersFP); err != nil {
		return nil, err
	}
	if out.Release, relFP, err = pipeline.Step(run, pipeline.Spec[*release.Release]{
		Name: "release", Key: "released", Version: 1, Encode: encodeRelease, Decode: decodeRelease,
	}, func(ctx context.Context) (*release.Release, error) {
		rel, err := spec.recipe().Build(ctx, out.Dataset.Social, out.Dataset.Prefs)
		if err != nil {
			return nil, err
		}
		rel.Snap(spec.SnapGrain)
		// Journal the spend into the step's receipt: this is what makes
		// the ε durable exactly once across crash/resume sequences. The
		// noise is seeded, so a re-run after a crash reproduces the
		// identical draw — one release, not two.
		run.RecordSpend(ctx, telemetry.ReleaseEvent{
			Mechanism:   "cluster",
			Epsilon:     float64(spec.Eps),
			Sensitivity: 1,
			Values:      len(rel.Avg),
		})
		return rel, nil
	}, dsFP); err != nil {
		return nil, err
	}
	if spec.StoreDir != "" {
		if out.Version, _, err = pipeline.Step(run, pipeline.Spec[uint64]{
			Name: "persist", Key: "release_version", Version: 1, Encode: encodeVersion, Decode: decodeVersion,
		}, func(context.Context) (uint64, error) {
			return persistRelease(spec.StoreDir, out.Release)
		}, relFP); err != nil {
			return nil, err
		}
	}
	out.Result = run.Result
	return out, nil
}

// persistRelease appends rel to the store at dir unless the newest stored
// version is already byte-identical — the idempotence that keeps the
// persist stage safe to re-run after a crash between its store write and
// its checkpoint receipt.
func persistRelease(dir string, rel *release.Release) (uint64, error) {
	store, err := release.OpenStore(dir, release.StoreOptions{
		Logf: func(string, ...any) {},
	})
	if err != nil {
		return 0, err
	}
	var fresh bytes.Buffer
	if err := release.Write(&fresh, rel); err != nil {
		return 0, err
	}
	if prev, version, _, err := store.LoadContext(context.Background()); err == nil {
		var have bytes.Buffer
		if err := release.Write(&have, prev); err == nil && bytes.Equal(have.Bytes(), fresh.Bytes()) {
			return version, nil
		}
	}
	return store.Save(rel)
}

// RunnerFromState builds an evaluation Runner from a (possibly resumed)
// release run, reusing the checkpointed similarity vectors and the
// release's clustering instead of recomputing them. Score the release
// itself with Runner.EvaluateRelease.
func RunnerFromState(run *ReleaseRun, m similarity.Measure) (*Runner, error) {
	return NewRunnerWithSims(run.Dataset, m, run.Release.Clusters, run.EvalUsers, run.EvalSims)
}

// Checkpoint codecs: each writes its value's fields into the artifact's
// frame in a fixed order, so encoding is deterministic as pipeline.Spec
// requires.

// encodeDataset writes a *dataset.Dataset:
//
//	name    string
//	users   u32
//	social  []i32   undirected edges once each, u < v, as u,v pairs
//	items   u32
//	prefs   []i32   preference edges as user,item pairs
func encodeDataset(w *frame.Writer, ds *dataset.Dataset) error {
	nu := ds.Social.NumUsers()
	social := make([]int32, 0, 2*ds.Social.NumEdges())
	for u := 0; u < nu; u++ {
		for _, v := range ds.Social.Neighbors(u) {
			if int(v) > u {
				social = append(social, int32(u), v)
			}
		}
	}
	prefs := make([]int32, 0, 2*ds.Prefs.NumEdges())
	for u := 0; u < ds.Prefs.NumUsers(); u++ {
		for _, it := range ds.Prefs.Items(u) {
			prefs = append(prefs, int32(u), it)
		}
	}
	w.String(ds.Name)
	w.U32(uint32(nu))
	w.I32s(social)
	w.U32(uint32(ds.Prefs.NumItems()))
	w.I32s(prefs)
	return nil
}

// decodeDataset reads what encodeDataset wrote.
func decodeDataset(r *frame.Reader) (*dataset.Dataset, error) {
	name := r.String("name")
	nu := int(r.U32("users"))
	social := r.I32s("social edges")
	ni := int(r.U32("items"))
	prefs := r.I32s("preference edges")
	if err := r.Err(); err != nil {
		return nil, err
	}
	if len(social)%2 != 0 || len(prefs)%2 != 0 {
		return nil, fmt.Errorf("experiment: dataset edge list has an odd length")
	}
	sb := graph.NewSocialBuilder(nu)
	for i := 0; i < len(social); i += 2 {
		if err := sb.AddEdge(int(social[i]), int(social[i+1])); err != nil {
			return nil, err
		}
	}
	pb := graph.NewPreferenceBuilder(nu, ni)
	for i := 0; i < len(prefs); i += 2 {
		if err := pb.AddEdge(int(prefs[i]), int(prefs[i+1])); err != nil {
			return nil, err
		}
	}
	return &dataset.Dataset{Name: name, Social: sb.Build(), Prefs: pb.Build()}, nil
}

// encodeUsers writes a []int32 of user ids.
func encodeUsers(w *frame.Writer, users []int32) error {
	w.I32s(users)
	return nil
}

// decodeUsers reads what encodeUsers wrote.
func decodeUsers(r *frame.Reader) ([]int32, error) {
	users := r.I32s("users")
	return users, r.Err()
}

// encodeSims writes a []similarity.Scores: a u32 count, then each entry's
// users ([]i32) and values ([]f64).
func encodeSims(w *frame.Writer, sims []similarity.Scores) error {
	w.U32(uint32(len(sims)))
	for _, s := range sims {
		w.I32s(s.Users)
		w.F64s(s.Vals)
	}
	return nil
}

// decodeSims reads what encodeSims wrote.
func decodeSims(r *frame.Reader) ([]similarity.Scores, error) {
	sims := []similarity.Scores{}
	for n := r.U32("sims"); n > 0 && r.Err() == nil; n-- {
		s := similarity.Scores{Users: r.I32s("sim users"), Vals: r.F64s("sim values")}
		if len(s.Users) != len(s.Vals) {
			return nil, fmt.Errorf("experiment: similarity users and values differ in length")
		}
		sims = append(sims, s)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return sims, nil
}

// encodeRelease reuses the production release body (release.WriteBody), so
// the checkpointed fields are exactly the ones a release.Store persists.
// Like a store save or load, checkpointing the sanitized release is
// post-processing, recorded at ε = 0.
func encodeRelease(w *frame.Writer, rel *release.Release) error {
	if err := release.WriteBody(w, rel); err != nil {
		return err
	}
	telemetry.Budget().Record(telemetry.ReleaseEvent{Mechanism: "release_persist", Values: len(rel.Avg)})
	return nil
}

// decodeRelease reads what encodeRelease wrote.
func decodeRelease(r *frame.Reader) (*release.Release, error) {
	rel, err := release.ReadBody(r)
	if err != nil {
		return nil, err
	}
	telemetry.Budget().Record(telemetry.ReleaseEvent{Mechanism: "release_load", Values: len(rel.Avg)})
	return rel, nil
}

// encodeVersion writes a store version (u64).
func encodeVersion(w *frame.Writer, v uint64) error {
	w.U64(v)
	return nil
}

// decodeVersion reads what encodeVersion wrote.
func decodeVersion(r *frame.Reader) (uint64, error) {
	v := r.U64("version")
	return v, r.Err()
}
