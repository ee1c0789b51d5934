// Package pipeline is a checkpointed, resumable stage-graph orchestrator
// for the offline release path (the paper's Algorithm 1 and the evaluation
// around it): load dataset → sample evaluation users → similarity → release
// → persist.
//
// Each stage declares typed inputs and outputs; completed stage outputs
// are checkpointed to disk as CRC'd, versioned artifacts written with the
// same crash-safe discipline as internal/release.Store (same-directory
// temp file + fsync + atomic rename + directory fsync, via
// faults.WriteAtomicFunc). A rerun fingerprints every stage over (config,
// seed, external-input hashes, code-level stage version, upstream
// fingerprints) and skips stages whose checkpoints match, re-running from
// the first invalidated stage.
//
// # Determinism and the privacy budget
//
// Every stage must be a deterministic function of its fingerprinted
// inputs: seeded noise, seeded clustering order, seeded sampling. That is
// what makes resumption privacy-sound — re-running an interrupted release
// stage reproduces the *same* noisy values, so the bytes that eventually
// leave the trust boundary are identical whether or not the run crashed,
// and publishing the same draw twice is one release, not two. The
// checkpoint store doubles as a persistent budget journal: a stage that
// spends ε records the spend in its stage receipt (State.RecordSpend), the
// receipt becomes durable atomically after the stage's outputs, and
// Store.Ledger reads the spends back. Because a receipt either exists once
// or not at all, each ε-spend is recorded exactly once across arbitrary
// crash/resume sequences.
package pipeline

import (
	"context"
	"fmt"
	"sync"

	"socialrec/internal/frame"
	"socialrec/internal/telemetry"
)

// Key names one value flowing between stages. Keys must be valid telemetry
// names ([a-z][a-z0-9_]*) because they become checkpoint file names and
// metric-adjacent log tokens.
type Key string

// Port declares one typed stage output: the key it is published under and
// the codec that round-trips it through a checkpoint artifact's frame.
// Encode must be deterministic — the same value must always serialize to
// the same bytes — or resume verification and the byte-identical-release
// guarantee break.
type Port struct {
	Key Key
	// Encode writes v's fields into the artifact.
	Encode func(w *frame.Writer, v any) error
	// Decode reconstructs the value from the fields Encode wrote.
	Decode func(r *frame.Reader) (any, error)
}

// Stage is one unit of the offline pipeline. Implementations must be
// deterministic functions of their declared inputs and fingerprint, and
// Run must honor ctx — return promptly on cancellation — so the caller's
// deadline and operator interrupts work (sociolint's ctxstage analyzer
// enforces the latter).
type Stage interface {
	// Name identifies the stage; it must be a valid telemetry name and
	// unique within a pipeline. The stage runs under a trace span of this
	// name (and so lands in the stage table under it), and the checkpoint
	// receipt is stored as "<name>.stage".
	Name() string
	// Version is the code-level stage version. Bumping it invalidates
	// every existing checkpoint of this stage (and, through fingerprint
	// chaining, of all downstream stages).
	Version() int
	// Fingerprint folds stage-external inputs — a source file's content
	// hash, a generator preset's parameters — into the stage's cache key.
	// Stages whose behavior is fully determined by their declared inputs
	// and the run's config fingerprint return 0.
	Fingerprint() uint64
	// Inputs lists the keys this stage reads. Each must be produced by an
	// earlier stage in the pipeline.
	Inputs() []Key
	// Outputs lists the typed values this stage publishes.
	Outputs() []Port
	// Run computes the outputs from the inputs in st. It must honor ctx.
	Run(ctx context.Context, st *State) error
}

// State is the value bag a pipeline threads through its stages. It is safe
// for concurrent use (a stage may fan work out internally).
type State struct {
	mu     sync.Mutex
	vals   map[Key]any
	spends []telemetry.ReleaseEvent
}

// NewState returns an empty state.
func NewState() *State {
	return &State{vals: make(map[Key]any)}
}

// Put publishes a value under key.
func (st *State) Put(k Key, v any) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.vals[k] = v
}

// Value returns the raw value under key.
func (st *State) Value(k Key) (any, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	v, ok := st.vals[k]
	return v, ok
}

// Get returns the value under key asserted to type T.
func Get[T any](st *State, k Key) (T, error) {
	var zero T
	v, ok := st.Value(k)
	if !ok {
		return zero, fmt.Errorf("pipeline: no value for key %q", k)
	}
	t, ok := v.(T)
	if !ok {
		return zero, fmt.Errorf("pipeline: value for key %q is %T, want %T", k, v, zero)
	}
	return t, nil
}

// RecordSpend notes that the currently running stage consumed privacy
// budget. The runner folds recorded spends into the stage's checkpoint
// receipt, making the spend durable exactly when (and only when) the
// stage's outputs are — the persistence that lets Store.Ledger report each
// ε-spend exactly once across crash/resume sequences. Stages call this in
// addition to (not instead of) the process-wide telemetry ledger their
// mechanism constructors already feed.
func (st *State) RecordSpend(ev telemetry.ReleaseEvent) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.spends = append(st.spends, ev)
}

// RecordSpendCtx is RecordSpend stamping the context's active trace id into
// the event (when the event doesn't already carry one), so a checkpointed
// receipt names the traced run that spent the ε.
func (st *State) RecordSpendCtx(ctx context.Context, ev telemetry.ReleaseEvent) {
	if ev.TraceID == "" {
		ev.TraceID = telemetry.TraceIDFrom(ctx)
	}
	st.RecordSpend(ev)
}

// drainSpends removes and returns the spends accumulated since the last
// drain; the runner calls it after each stage.
func (st *State) drainSpends() []telemetry.ReleaseEvent {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := st.spends
	st.spends = nil
	return out
}

// Pipeline is a validated, ordered sequence of stages.
type Pipeline struct {
	stages []Stage
}

// New validates the stage sequence: names and keys must be well formed,
// stage names and output keys unique, and every input produced by an
// earlier stage. (The graph is given in execution order; the validation
// makes it a DAG by construction.)
func New(stages ...Stage) (*Pipeline, error) {
	if len(stages) == 0 {
		return nil, fmt.Errorf("pipeline: no stages")
	}
	seenStage := make(map[string]bool, len(stages))
	produced := make(map[Key]string)
	for _, s := range stages {
		name := s.Name()
		if !telemetry.ValidName(name) {
			return nil, fmt.Errorf("pipeline: invalid stage name %q (want [a-z][a-z0-9_]*)", name)
		}
		if seenStage[name] {
			return nil, fmt.Errorf("pipeline: duplicate stage name %q", name)
		}
		seenStage[name] = true
		if s.Version() < 0 {
			return nil, fmt.Errorf("pipeline: stage %q has negative version", name)
		}
		for _, in := range s.Inputs() {
			if _, ok := produced[in]; !ok {
				return nil, fmt.Errorf("pipeline: stage %q input %q is not produced by any earlier stage", name, in)
			}
		}
		for _, out := range s.Outputs() {
			if !telemetry.ValidName(string(out.Key)) {
				return nil, fmt.Errorf("pipeline: stage %q output key %q is not a valid name", name, out.Key)
			}
			if prev, dup := produced[out.Key]; dup {
				return nil, fmt.Errorf("pipeline: output key %q produced by both %q and %q", out.Key, prev, name)
			}
			if out.Encode == nil || out.Decode == nil {
				return nil, fmt.Errorf("pipeline: stage %q output %q is missing its codec", name, out.Key)
			}
			produced[out.Key] = name
		}
	}
	return &Pipeline{stages: stages}, nil
}

// Stages returns the pipeline's stages in execution order.
func (p *Pipeline) Stages() []Stage { return p.stages }
