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
	"socialrec/internal/frame"
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

// Result reports a pipeline run.
type Result struct {
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

// fingerprint chains a step's cache key from everything that determines
// its value: step identity and code version, the step's external-input
// hash, the run config, and the fingerprints of its inputs (which chain
// back to their producers, so an upstream change cascades downstream).
func fingerprint(name string, version int, external, config uint64, inputFPs []uint64) uint64 {
	h := NewHasher()
	h.String(name)
	h.Word(uint64(version))
	h.Word(external)
	h.Word(config)
	for _, fp := range inputFPs {
		h.Word(fp)
	}
	return h.Sum()
}

// artifactFingerprint derives an artifact's fingerprint from its producing
// step's fingerprint and its key.
func artifactFingerprint(stageFP uint64, key string) uint64 {
	h := NewHasher()
	h.Word(stageFP)
	h.String(key)
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

// Run is one pipeline run: Start opens it, Step runs each step in order,
// and End closes the run's trace. A Run is not safe for concurrent use.
type Run struct {
	// Result reports the steps run so far and the debris Start swept.
	Result

	ctx    context.Context // carries the run's root span
	span   trace.Span
	config uint64
	store  *Store // nil without a checkpoint directory
	met    *pipelineMetrics
	logf   func(string, ...any)
	spends []telemetry.ReleaseEvent // recorded by the step computing now
}

// Start opens a run. With a checkpoint directory it opens the store,
// sweeps temp debris and, for a fresh run, clears the checkpoints; every
// Step then resumes from a matching checkpoint or checkpoints what it
// computes. Without one, each Step simply computes. The caller must End a
// run Start returns.
func Start(ctx context.Context, opts Options) (*Run, error) {
	// The whole run is one trace: steps become child spans, and a caller
	// that passes an already-traced context (an admin request) gets the run
	// folded into its own trace instead.
	ctx, span := trace.Start(ctx, "pipeline_run")
	r := &Run{ctx: ctx, span: span, config: opts.Config, logf: func(string, ...any) {}}
	if opts.Logger != nil {
		logger := slog.New(trace.NewSlogHandler(opts.Logger.Handler()))
		r.logf = func(format string, args ...any) {
			logger.InfoContext(ctx, fmt.Sprintf(format, args...))
		}
	}
	reg := opts.Metrics
	if reg == nil {
		reg = telemetry.Default()
	}
	r.met = newPipelineMetrics(reg)

	if opts.CheckpointDir != "" {
		var err error
		r.store, r.Swept, err = OpenStore(opts.CheckpointDir, opts.FS)
		if err != nil {
			r.End(err)
			return nil, err
		}
		for _, name := range r.Swept {
			r.logf("pipeline: swept crashed-write debris %s", name)
		}
		if opts.Fresh {
			if err := r.store.Clear(); err != nil {
				r.End(err)
				return nil, err
			}
			r.logf("pipeline: cleared checkpoints in %s (fresh run)", r.store.Dir())
		}
	}
	return r, nil
}

// End closes the run's root span, marking it failed when err is non-nil.
func (r *Run) End(err error) {
	if err != nil {
		r.span.SetStatus(trace.StatusError)
	}
	r.span.End()
}

// RecordSpend notes that the step computing now consumed privacy budget,
// stamping ctx's trace id into the event when it carries none. The spend
// lands in the step's receipt, durable exactly when (and only when) the
// step's artifact is — the persistence that lets Store.Ledger report each
// ε-spend exactly once across crash/resume sequences. Steps call this in
// addition to (not instead of) the process-wide telemetry ledger their
// mechanism constructors already feed.
func (r *Run) RecordSpend(ctx context.Context, ev telemetry.ReleaseEvent) {
	if ev.TraceID == "" {
		ev.TraceID = telemetry.TraceIDFrom(ctx)
	}
	r.spends = append(r.spends, ev)
}

// Step returns the value of one step and its artifact fingerprint, which
// later steps that read the value pass among their inputs. With a
// checkpoint directory it loads the value when the step's receipt and
// artifact both match the fingerprint, and otherwise computes it and
// checkpoints it. A step that fails is not retried within the run: the
// caller's rerun is the retry.
func Step[T any](r *Run, s Spec[T], compute func(context.Context) (T, error), inputs ...uint64) (T, uint64, error) {
	var zero T
	if !telemetry.ValidName(s.Name) {
		return zero, 0, fmt.Errorf("pipeline: invalid stage name %q (want [a-z][a-z0-9_]*)", s.Name)
	}
	if !telemetry.ValidName(s.Key) {
		return zero, 0, fmt.Errorf("pipeline: stage %q output key %q is not a valid name", s.Name, s.Key)
	}
	if err := r.ctx.Err(); err != nil {
		return zero, 0, fmt.Errorf("pipeline: canceled before stage %s: %w", s.Name, err)
	}
	fp := fingerprint(s.Name, s.Version, s.Fingerprint, r.config, inputs)
	artFP := artifactFingerprint(fp, s.Key)

	if r.store != nil {
		if v, spends, ok := resume(r, s, fp, artFP); ok {
			r.met.resumed.Inc()
			r.Stages = append(r.Stages, StageReport{Stage: s.Name, Fingerprint: fp, Resumed: true, Spends: spends})
			r.logf("pipeline: stage %s resumed from checkpoint (fingerprint %016x)", s.Name, fp)
			return v, artFP, nil
		}
	}

	v, report, err := runStep(r, s, fp, artFP, compute)
	r.Stages = append(r.Stages, report)
	if err != nil {
		r.met.failures.Inc()
		return zero, 0, err
	}
	return v, artFP, nil
}

// resume loads a step's checkpoint if its receipt and artifact validate
// against the expected fingerprints. On any mismatch it reports false, and
// the step re-runs.
func resume[T any](r *Run, s Spec[T], fp, artFP uint64) (T, []telemetry.ReleaseEvent, bool) {
	var v T
	rc, err := r.store.LoadReceipt(s.Name)
	if err != nil {
		if !isNotExist(err) {
			r.met.ckptBad.Inc()
			r.logf("pipeline: stage %s checkpoint unusable: %v", s.Name, err)
		}
		return v, nil, false
	}
	if rc.Fingerprint != fp || rc.Version != s.Version {
		r.met.ckptBad.Inc()
		r.logf("pipeline: stage %s checkpoint stale (have fingerprint %016x v%d, want %016x v%d)",
			s.Name, rc.Fingerprint, rc.Version, fp, s.Version)
		return v, nil, false
	}
	a, err := r.store.LoadArtifact(s.Key, func(fr *frame.Reader) (err error) {
		v, err = s.Decode(fr)
		return err
	})
	if err != nil {
		r.met.ckptBad.Inc()
		r.logf("pipeline: stage %s artifact %s unusable: %v", s.Name, s.Key, err)
		return v, nil, false
	}
	if a.Fingerprint != artFP || a.Stage != s.Name {
		r.met.ckptBad.Inc()
		r.logf("pipeline: stage %s artifact %s stale (fingerprint %016x, want %016x)",
			s.Name, s.Key, a.Fingerprint, artFP)
		return v, nil, false
	}
	return v, rc.Spends, true
}

// runStep computes one step and checkpoints its value.
func runStep[T any](r *Run, s Spec[T], fp, artFP uint64, compute func(context.Context) (T, error)) (T, StageReport, error) {
	var zero T
	report := StageReport{Stage: s.Name, Fingerprint: fp}
	if r.store != nil {
		// Invalidate any stale commit point before mutating the artifact,
		// so a crash mid-rewrite can never pair an old receipt with a new
		// artifact of a different fingerprint.
		if err := r.store.RemoveReceipt(s.Name); err != nil {
			return zero, report, err
		}
	}

	start := time.Now()
	v, err := execute(r, s.Name, compute)
	if err != nil {
		return zero, report, fmt.Errorf("pipeline: stage %s: %w", s.Name, err)
	}
	report.Spends = r.spends
	r.met.run.Inc()

	if r.store != nil {
		if err := r.store.SaveArtifact(Artifact{Stage: s.Name, Key: s.Key, Version: s.Version, Fingerprint: artFP},
			func(w *frame.Writer) error { return s.Encode(w, v) }); err != nil {
			return zero, report, fmt.Errorf("pipeline: stage %s checkpointing %q: %w", s.Name, s.Key, err)
		}
		r.met.ckptWrites.Inc()
		if err := r.store.SaveReceipt(Receipt{
			Stage:       s.Name,
			Version:     s.Version,
			Fingerprint: fp,
			Outputs:     []string{s.Key},
			Spends:      report.Spends,
		}); err != nil {
			return zero, report, fmt.Errorf("pipeline: stage %s committing receipt: %w", s.Name, err)
		}
		r.met.ckptWrites.Inc()
	}
	r.logf("pipeline: stage %s completed in %s", s.Name, time.Since(start).Round(time.Millisecond))
	return v, report, nil
}

// execute runs compute under the step's trace span with panic containment.
func execute[T any](r *Run, name string, compute func(context.Context) (T, error)) (v T, err error) {
	r.met.inflight.Add(1)
	defer r.met.inflight.Add(-1)
	// The step's span joins the run's causal tree and, as it ends, adds
	// its duration to the step's row of the stage table. A failed or
	// panicked step marks it errored, which forces the whole run trace
	// through tail retention.
	ctx, tsp := trace.StartChild(r.ctx, name)
	defer func() {
		if err != nil {
			tsp.SetStatus(trace.StatusError)
		}
		tsp.End()
	}()
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panicked: %v", p)
		}
	}()
	r.spends = nil
	if v, err = compute(ctx); err != nil {
		return v, err
	}
	// A step that swallowed its context's end must still not commit: a
	// step cut off by the caller's deadline or cancellation failed.
	return v, ctx.Err()
}
