// Stage-graph decomposition of the offline release path for
// internal/pipeline: load dataset → sample evaluation users → similarity
// → release → persist. The release stage is one call of
// release.Recipe.Build, the function every other publish path runs, so a
// pipeline release is byte-identical to the facade's for the same graphs,
// ε and seed.
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

// Pipeline state keys published by the release stages.
const (
	KeyDataset   pipeline.Key = "dataset"
	KeyEvalUsers pipeline.Key = "eval_users"
	KeyEvalSims  pipeline.Key = "eval_sims"
	KeyRelease   pipeline.Key = "released"
	KeyVersion   pipeline.Key = "release_version"
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

// Fingerprint hashes every spec field that determines stage outputs; pass
// it as pipeline.Options.Config so any configuration change re-runs the
// pipeline from the first affected stage.
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

// funcStage adapts a closure to pipeline.Stage.
type funcStage struct {
	name    string
	version int
	fp      uint64
	inputs  []pipeline.Key
	outputs []pipeline.Port
	run     func(ctx context.Context, st *pipeline.State) error
}

func (s *funcStage) Name() string             { return s.name }
func (s *funcStage) Version() int             { return s.version }
func (s *funcStage) Fingerprint() uint64      { return s.fp }
func (s *funcStage) Inputs() []pipeline.Key   { return s.inputs }
func (s *funcStage) Outputs() []pipeline.Port { return s.outputs }
func (s *funcStage) Run(ctx context.Context, st *pipeline.State) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return s.run(ctx, st)
}

// BuildReleasePipeline assembles the checkpointed offline path. Stage
// versions are bumped when a stage's algorithm changes incompatibly;
// everything else is invalidated through ReleaseSpec.Fingerprint.
func BuildReleasePipeline(spec ReleaseSpec) (*pipeline.Pipeline, error) {
	if spec.Load == nil {
		return nil, fmt.Errorf("experiment: ReleaseSpec.Load is required")
	}

	stages := []pipeline.Stage{
		&funcStage{
			name: "load_dataset", version: 1, fp: spec.DatasetFingerprint,
			outputs: []pipeline.Port{datasetPort(KeyDataset)},
			run: func(ctx context.Context, st *pipeline.State) error {
				ds, err := spec.Load(ctx)
				if err != nil {
					return err
				}
				st.Put(KeyDataset, ds)
				return nil
			},
		},
		&funcStage{
			name: "sample_eval", version: 1,
			inputs:  []pipeline.Key{KeyDataset},
			outputs: []pipeline.Port{usersPort(KeyEvalUsers)},
			run: func(ctx context.Context, st *pipeline.State) error {
				ds, err := pipeline.Get[*dataset.Dataset](st, KeyDataset)
				if err != nil {
					return err
				}
				st.Put(KeyEvalUsers, SampleUsers(ds.Social.NumUsers(), spec.evalSample(), spec.Seed+200))
				return nil
			},
		},
		&funcStage{
			name: "similarity", version: 1,
			inputs:  []pipeline.Key{KeyDataset, KeyEvalUsers},
			outputs: []pipeline.Port{simsPort(KeyEvalSims)},
			run: func(ctx context.Context, st *pipeline.State) error {
				ds, err := pipeline.Get[*dataset.Dataset](st, KeyDataset)
				if err != nil {
					return err
				}
				users, err := pipeline.Get[[]int32](st, KeyEvalUsers)
				if err != nil {
					return err
				}
				st.Put(KeyEvalSims, similarity.ComputeAll(ds.Social, spec.measure(), users, 0))
				return ctx.Err()
			},
		},
		&funcStage{
			name: "release", version: 1,
			inputs:  []pipeline.Key{KeyDataset},
			outputs: []pipeline.Port{releasePort(KeyRelease)},
			run: func(ctx context.Context, st *pipeline.State) error {
				ds, err := pipeline.Get[*dataset.Dataset](st, KeyDataset)
				if err != nil {
					return err
				}
				rel, err := spec.recipe().Build(ctx, ds.Social, ds.Prefs)
				if err != nil {
					return err
				}
				rel.Snap(spec.SnapGrain)
				// Journal the spend into the stage receipt: this is what makes
				// the ε durable exactly once across crash/resume sequences. The
				// noise is seeded, so a re-run after a crash reproduces the
				// identical draw — one release, not two.
				st.RecordSpendCtx(ctx, telemetry.ReleaseEvent{
					Mechanism:   "cluster",
					Epsilon:     float64(spec.Eps),
					Sensitivity: 1,
					Values:      len(rel.Avg),
				})
				st.Put(KeyRelease, rel)
				return ctx.Err()
			},
		},
	}
	if spec.StoreDir != "" {
		stages = append(stages, &funcStage{
			name: "persist", version: 1,
			inputs:  []pipeline.Key{KeyRelease},
			outputs: []pipeline.Port{versionPort(KeyVersion)},
			run: func(ctx context.Context, st *pipeline.State) error {
				rel, err := pipeline.Get[*release.Release](st, KeyRelease)
				if err != nil {
					return err
				}
				v, err := persistRelease(spec.StoreDir, rel)
				if err != nil {
					return err
				}
				st.Put(KeyVersion, v)
				return ctx.Err()
			},
		})
	}
	return pipeline.New(stages...)
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
// release-pipeline state, reusing the checkpointed similarity vectors and
// the release's clustering instead of recomputing them. Score the release
// itself with Runner.EvaluateRelease.
func RunnerFromState(st *pipeline.State, m similarity.Measure) (*Runner, error) {
	ds, err := pipeline.Get[*dataset.Dataset](st, KeyDataset)
	if err != nil {
		return nil, err
	}
	users, err := pipeline.Get[[]int32](st, KeyEvalUsers)
	if err != nil {
		return nil, err
	}
	sims, err := pipeline.Get[[]similarity.Scores](st, KeyEvalSims)
	if err != nil {
		return nil, err
	}
	rel, err := pipeline.Get[*release.Release](st, KeyRelease)
	if err != nil {
		return nil, err
	}
	return NewRunnerWithSims(ds, m, rel.Clusters, users, sims)
}

// Checkpoint codecs: each writes its value's fields into the artifact's
// frame in a fixed order, so encoding is deterministic as pipeline.Port
// requires.

// datasetPort round-trips a *dataset.Dataset:
//
//	name    string
//	users   u32
//	social  []i32   undirected edges once each, u < v, as u,v pairs
//	items   u32
//	prefs   []i32   preference edges as user,item pairs
func datasetPort(k pipeline.Key) pipeline.Port {
	return pipeline.Port{
		Key: k,
		Encode: func(w *frame.Writer, v any) error {
			ds, ok := v.(*dataset.Dataset)
			if !ok {
				return fmt.Errorf("experiment: dataset codec got %T", v)
			}
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
		},
		Decode: func(r *frame.Reader) (any, error) {
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
		},
	}
}

// usersPort round-trips a []int32 of user ids.
func usersPort(k pipeline.Key) pipeline.Port {
	return pipeline.Port{
		Key: k,
		Encode: func(w *frame.Writer, v any) error {
			s, ok := v.([]int32)
			if !ok {
				return fmt.Errorf("experiment: users codec got %T", v)
			}
			w.I32s(s)
			return nil
		},
		Decode: func(r *frame.Reader) (any, error) {
			s := r.I32s("users")
			return s, r.Err()
		},
	}
}

// simsPort round-trips a []similarity.Scores: a u32 count, then each
// entry's users ([]i32) and values ([]f64).
func simsPort(k pipeline.Key) pipeline.Port {
	return pipeline.Port{
		Key: k,
		Encode: func(w *frame.Writer, v any) error {
			sims, ok := v.([]similarity.Scores)
			if !ok {
				return fmt.Errorf("experiment: sims codec got %T", v)
			}
			w.U32(uint32(len(sims)))
			for _, s := range sims {
				w.I32s(s.Users)
				w.F64s(s.Vals)
			}
			return nil
		},
		Decode: func(r *frame.Reader) (any, error) {
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
		},
	}
}

// releasePort reuses the production release body (release.WriteBody), so
// the checkpointed fields are exactly the ones a release.Store persists.
// Like a store save or load, checkpointing the sanitized release is
// post-processing, recorded at ε = 0.
func releasePort(k pipeline.Key) pipeline.Port {
	return pipeline.Port{
		Key: k,
		Encode: func(w *frame.Writer, v any) error {
			rel, ok := v.(*release.Release)
			if !ok {
				return fmt.Errorf("experiment: release codec got %T", v)
			}
			if err := release.WriteBody(w, rel); err != nil {
				return err
			}
			telemetry.Budget().Record(telemetry.ReleaseEvent{Mechanism: "release_persist", Values: len(rel.Avg)})
			return nil
		},
		Decode: func(r *frame.Reader) (any, error) {
			rel, err := release.ReadBody(r)
			if err != nil {
				return nil, err
			}
			telemetry.Budget().Record(telemetry.ReleaseEvent{Mechanism: "release_load", Values: len(rel.Avg)})
			return rel, nil
		},
	}
}

// versionPort round-trips a store version (u64).
func versionPort(k pipeline.Key) pipeline.Port {
	return pipeline.Port{
		Key: k,
		Encode: func(w *frame.Writer, v any) error {
			ver, ok := v.(uint64)
			if !ok {
				return fmt.Errorf("experiment: version codec got %T", v)
			}
			w.U64(ver)
			return nil
		},
		Decode: func(r *frame.Reader) (any, error) {
			v := r.U64("version")
			return v, r.Err()
		},
	}
}
