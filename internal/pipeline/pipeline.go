// Package pipeline checkpoints the offline release path (the paper's
// Algorithm 1 and the evaluation around it) one typed step at a time: load
// dataset → sample evaluation users → similarity → release → persist.
//
// A run is opened once (Start) and then calls Step once per step, in
// order. Each step computes one value, and the caller passes the
// fingerprints of the earlier steps it reads as the step's inputs. A
// completed step's value is checkpointed to disk as one CRC'd, versioned
// artifact written with the same crash-safe discipline as
// internal/release.Store (same-directory temp file + fsync + atomic rename +
// directory fsync, via faults.WriteAtomicFunc). A rerun fingerprints every
// step over (config, seed, external-input hashes, code-level step version,
// input fingerprints) and skips steps whose checkpoints match, re-running
// from the first invalidated step.
//
// # Determinism and the privacy budget
//
// Every step must be a deterministic function of its fingerprinted
// inputs: seeded noise, seeded clustering order, seeded sampling. That is
// what makes resumption privacy-sound — re-running an interrupted release
// step reproduces the *same* noisy values, so the bytes that eventually
// leave the trust boundary are identical whether or not the run crashed,
// and publishing the same draw twice is one release, not two. The
// checkpoint store doubles as a persistent budget journal: a step that
// spends ε records the spend in its receipt (Run.RecordSpend), the receipt
// becomes durable atomically after the step's artifact, and Store.Ledger
// reads the spends back. Because a receipt either exists once or not at
// all, each ε-spend is recorded exactly once across arbitrary crash/resume
// sequences.
package pipeline

import "socialrec/internal/frame"

// Spec describes one checkpointed step whose value has type T.
type Spec[T any] struct {
	// Name identifies the step; it must be a valid telemetry name
	// ([a-z][a-z0-9_]*). The step runs under a trace span of this name
	// (and so lands in the stage table under it), and its receipt is
	// stored as "<Name>.stage".
	Name string
	// Key names the step's value; it must be a valid telemetry name too,
	// because the artifact is stored as "<Key>.art".
	Key string
	// Version is the code-level step version. Bumping it invalidates every
	// existing checkpoint of this step (and, through fingerprint chaining,
	// of every step that takes its fingerprint as an input).
	Version int
	// Fingerprint folds step-external inputs — a source file's content
	// hash, a generator preset's parameters — into the step's cache key.
	// Steps fully determined by their inputs and the run's config use 0.
	Fingerprint uint64
	// Encode writes the value's fields into the artifact. It must be
	// deterministic — the same value must always serialize to the same
	// bytes — or resume verification and the byte-identical-release
	// guarantee break.
	Encode func(*frame.Writer, T) error
	// Decode reconstructs the value from the fields Encode wrote.
	Decode func(*frame.Reader) (T, error)
}
