package pipeline

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"log/slog"
	"time"

	"socialrec/internal/faults"
	"socialrec/internal/telemetry"
	"socialrec/internal/trace"
)

// Options configures one pipeline run.
type Options struct {
	// CheckpointDir is where stage outputs are checkpointed; "" disables
	// checkpointing entirely (the pipeline still runs, nothing persists).
	// Matching checkpoints there are always reused.
	CheckpointDir string
	// Fresh discards any existing checkpoints before running, forcing
	// every stage to re-run.
	Fresh bool
	// Config fingerprints the run configuration (flags, seed, ε, dataset
	// identity as the caller defines it). It is folded into every stage's
	// fingerprint, so any config change invalidates all checkpoints.
	Config uint64
	// FS is the filesystem checkpoints are written through; nil selects
	// faults.OS. Tests inject a faults.NewFS wrapper to simulate crashes
	// mid-checkpoint.
	FS faults.FS
	// Logger receives progress records; nil discards them. The supplied
	// handler is wrapped with trace.NewSlogHandler, so every record carries
	// the run's trace_id for correlation with /debug/traces.
	Logger *slog.Logger
	// Metrics receives the pipeline counters/gauges; nil selects
	// telemetry.Default().
	Metrics *telemetry.Registry
}

// StageReport describes how one stage completed.
type StageReport struct {
	Stage       string
	Fingerprint uint64
	// Resumed is true when the stage was skipped because its checkpoint
	// matched; its outputs were loaded from disk.
	Resumed bool
	// Spends are the ε-spends the stage recorded (from its receipt when
	// resumed).
	Spends []telemetry.ReleaseEvent
}

// Result is the outcome of a pipeline run.
type Result struct {
	// State holds every stage output, resumed or computed.
	State *State
	// Stages reports per-stage outcomes in execution order.
	Stages []StageReport
	// Swept lists temp debris removed when the checkpoint dir was opened.
	Swept []string
}

// Resumed counts the stages that were served from checkpoints.
func (r *Result) Resumed() int {
	n := 0
	for _, s := range r.Stages {
		if s.Resumed {
			n++
		}
	}
	return n
}

// pipelineMetrics are the runner's instruments, registered once per
// registry (telemetry registration is idempotent).
type pipelineMetrics struct {
	run        *telemetry.Counter
	resumed    *telemetry.Counter
	failures   *telemetry.Counter
	ckptWrites *telemetry.Counter
	ckptBad    *telemetry.Counter
	inflight   *telemetry.Gauge
}

func newPipelineMetrics(reg *telemetry.Registry) *pipelineMetrics {
	return &pipelineMetrics{
		run: reg.NewCounter("pipeline_stages_run_total",
			"pipeline stages executed (not resumed from checkpoint)"),
		resumed: reg.NewCounter("pipeline_stages_resumed_total",
			"pipeline stages skipped because a matching checkpoint existed"),
		failures: reg.NewCounter("pipeline_stage_failures_total",
			"pipeline stages that failed permanently"),
		ckptWrites: reg.NewCounter("pipeline_checkpoint_writes_total",
			"checkpoint artifacts and receipts written durably"),
		ckptBad: reg.NewCounter("pipeline_checkpoint_invalid_total",
			"checkpoints ignored because they were corrupt, truncated or fingerprint-stale"),
		inflight: reg.NewGauge("pipeline_stages_inflight",
			"pipeline stages currently executing"),
	}
}

// fingerprint chains a stage's cache key from everything that determines
// its output: stage identity and code version, the stage's external-input
// hash, the run config, and the fingerprints of its inputs (which chain
// back to their producers, so an upstream change cascades downstream).
func fingerprint(s Stage, config uint64, inputFPs []uint64) uint64 {
	h := NewHasher()
	h.String(s.Name())
	h.Word(uint64(s.Version()))
	h.Word(s.Fingerprint())
	h.Word(config)
	for _, fp := range inputFPs {
		h.Word(fp)
	}
	return h.Sum()
}

// artifactFingerprint derives an output artifact's fingerprint from its
// producing stage's fingerprint and its key.
func artifactFingerprint(stageFP uint64, key Key) uint64 {
	h := NewHasher()
	h.Word(stageFP)
	h.String(string(key))
	return h.Sum()
}

// Hasher builds a fingerprint: FNV-64a over little-endian words and raw
// strings. Stages and run configs derive their cache keys with it.
type Hasher struct {
	h   hash.Hash64
	buf [8]byte
}

// NewHasher starts an empty fingerprint.
func NewHasher() *Hasher { return &Hasher{h: fnv.New64a()} }

// Word folds in a 64-bit word.
func (h *Hasher) Word(v uint64) {
	binary.LittleEndian.PutUint64(h.buf[:], v)
	h.h.Write(h.buf[:])
}

// String folds in a string's bytes.
func (h *Hasher) String(s string) { h.h.Write([]byte(s)) }

// Sum returns the fingerprint.
func (h *Hasher) Sum() uint64 { return h.h.Sum64() }

// Run executes the pipeline. With a checkpoint directory it resumes from
// the first stage whose checkpoint is absent, corrupt or fingerprint-stale
// and checkpoints every stage it runs; without one it simply executes the
// stages in order. Run returns the first stage error; state already
// checkpointed remains durable, so rerunning picks up where this run
// stopped. A stage that fails is not retried within the run: the caller's
// rerun is the retry.
func (p *Pipeline) Run(ctx context.Context, opts Options) (res *Result, err error) {
	// The whole run is one trace: stages become child spans, and a
	// caller that passes an already-traced context (an admin request) gets
	// the run folded into its own trace instead.
	ctx, rootSpan := trace.Start(ctx, "pipeline_run")
	defer func() {
		if err != nil {
			rootSpan.SetStatus(trace.StatusError)
		}
		rootSpan.End()
	}()
	logf := func(string, ...any) {}
	if opts.Logger != nil {
		logger := slog.New(trace.NewSlogHandler(opts.Logger.Handler()))
		logf = func(format string, args ...any) {
			logger.InfoContext(ctx, fmt.Sprintf(format, args...))
		}
	}
	reg := opts.Metrics
	if reg == nil {
		reg = telemetry.Default()
	}
	met := newPipelineMetrics(reg)

	res = &Result{State: NewState()}
	var store *Store
	if opts.CheckpointDir != "" {
		var err error
		store, res.Swept, err = OpenStore(opts.CheckpointDir, opts.FS)
		if err != nil {
			return res, err
		}
		for _, name := range res.Swept {
			logf("pipeline: swept crashed-write debris %s", name)
		}
		if opts.Fresh {
			if err := store.Clear(); err != nil {
				return res, err
			}
			logf("pipeline: cleared checkpoints in %s (fresh run)", store.Dir())
		}
	}

	fps := make(map[Key]uint64)
	for _, stage := range p.stages {
		if err := ctx.Err(); err != nil {
			return res, fmt.Errorf("pipeline: canceled before stage %s: %w", stage.Name(), err)
		}
		inputFPs := make([]uint64, 0, len(stage.Inputs()))
		for _, in := range stage.Inputs() {
			inputFPs = append(inputFPs, fps[in])
		}
		fp := fingerprint(stage, opts.Config, inputFPs)
		for _, out := range stage.Outputs() {
			fps[out.Key] = artifactFingerprint(fp, out.Key)
		}

		if store != nil {
			if spends, ok := p.tryResume(store, stage, fp, res.State, met, logf); ok {
				met.resumed.Inc()
				res.Stages = append(res.Stages, StageReport{
					Stage: stage.Name(), Fingerprint: fp, Resumed: true, Spends: spends,
				})
				logf("pipeline: stage %s resumed from checkpoint (fingerprint %016x)", stage.Name(), fp)
				continue
			}
		}

		report, err := p.runStage(ctx, stage, fp, res.State, store, met, logf)
		res.Stages = append(res.Stages, report)
		if err != nil {
			met.failures.Inc()
			return res, err
		}
	}
	return res, nil
}

// tryResume loads a stage's checkpoint if its receipt and every output
// artifact validate against the expected fingerprint. On any mismatch it
// reports false and the stage re-runs.
func (p *Pipeline) tryResume(store *Store, stage Stage, fp uint64, st *State, met *pipelineMetrics, logf func(string, ...any)) ([]telemetry.ReleaseEvent, bool) {
	rc, err := store.LoadReceipt(stage.Name())
	if err != nil {
		if !isNotExist(err) {
			met.ckptBad.Inc()
			logf("pipeline: stage %s checkpoint unusable: %v", stage.Name(), err)
		}
		return nil, false
	}
	if rc.Fingerprint != fp || rc.Version != stage.Version() {
		met.ckptBad.Inc()
		logf("pipeline: stage %s checkpoint stale (have fingerprint %016x v%d, want %016x v%d)",
			stage.Name(), rc.Fingerprint, rc.Version, fp, stage.Version())
		return nil, false
	}
	// Decode into a scratch map first so a corrupt later artifact cannot
	// leave a half-loaded state.
	loaded := make(map[Key]any, len(stage.Outputs()))
	for _, out := range stage.Outputs() {
		a, err := store.LoadArtifact(out)
		if err != nil {
			met.ckptBad.Inc()
			logf("pipeline: stage %s artifact %s unusable: %v", stage.Name(), out.Key, err)
			return nil, false
		}
		want := artifactFingerprint(fp, out.Key)
		if a.Fingerprint != want || a.Stage != stage.Name() {
			met.ckptBad.Inc()
			logf("pipeline: stage %s artifact %s stale (fingerprint %016x, want %016x)",
				stage.Name(), out.Key, a.Fingerprint, want)
			return nil, false
		}
		loaded[out.Key] = a.Value
	}
	for k, v := range loaded {
		st.Put(k, v)
	}
	return rc.Spends, true
}

// runStage executes one stage and checkpoints its outputs.
func (p *Pipeline) runStage(ctx context.Context, stage Stage, fp uint64, st *State, store *Store, met *pipelineMetrics, logf func(string, ...any)) (StageReport, error) {
	report := StageReport{Stage: stage.Name(), Fingerprint: fp}
	if store != nil {
		// Invalidate any stale commit point before mutating artifacts, so
		// a crash mid-rewrite can never pair an old receipt with new
		// artifacts of a different fingerprint.
		if err := store.RemoveReceipt(stage.Name()); err != nil {
			return report, err
		}
	}

	start := time.Now()
	if err := execute(ctx, stage, st, met); err != nil {
		return report, fmt.Errorf("pipeline: stage %s: %w", stage.Name(), err)
	}
	report.Spends = st.drainSpends()
	met.run.Inc()

	if store != nil {
		outputs := stage.Outputs()
		keys := make([]Key, 0, len(outputs))
		for _, out := range outputs {
			v, ok := st.Value(out.Key)
			if !ok {
				return report, fmt.Errorf("pipeline: stage %s did not publish declared output %q", stage.Name(), out.Key)
			}
			if err := store.SaveArtifact(Artifact{
				Stage:       stage.Name(),
				Key:         out.Key,
				Version:     stage.Version(),
				Fingerprint: artifactFingerprint(fp, out.Key),
				Value:       v,
			}, out); err != nil {
				return report, fmt.Errorf("pipeline: stage %s checkpointing %q: %w", stage.Name(), out.Key, err)
			}
			met.ckptWrites.Inc()
			keys = append(keys, out.Key)
		}
		if err := store.SaveReceipt(Receipt{
			Stage:       stage.Name(),
			Version:     stage.Version(),
			Fingerprint: fp,
			Outputs:     keys,
			Spends:      report.Spends,
		}); err != nil {
			return report, fmt.Errorf("pipeline: stage %s committing receipt: %w", stage.Name(), err)
		}
		met.ckptWrites.Inc()
	} else {
		// Without a checkpoint dir, still verify the stage kept its
		// declared-output contract.
		for _, out := range stage.Outputs() {
			if _, ok := st.Value(out.Key); !ok {
				return report, fmt.Errorf("pipeline: stage %s did not publish declared output %q", stage.Name(), out.Key)
			}
		}
	}
	logf("pipeline: stage %s completed in %s", stage.Name(), time.Since(start).Round(time.Millisecond))
	return report, nil
}

// execute runs a stage under its trace span with panic containment.
func execute(ctx context.Context, stage Stage, st *State, met *pipelineMetrics) (err error) {
	met.inflight.Add(1)
	defer met.inflight.Add(-1)
	// The stage's span joins the run's causal tree and, as it ends, adds
	// its duration to the stage's row of the stage table. A failed or
	// panicked stage marks it errored, which forces the whole run trace
	// through tail retention.
	ctx, tsp := trace.StartChild(ctx, stage.Name())
	defer func() {
		if err != nil {
			tsp.SetStatus(trace.StatusError)
		}
		tsp.End()
	}()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panicked: %v", r)
		}
	}()
	if err := stage.Run(ctx, st); err != nil {
		return err
	}
	// A stage that swallowed its context's end must still not commit: a
	// stage cut off by the caller's deadline or cancellation failed.
	return ctx.Err()
}
