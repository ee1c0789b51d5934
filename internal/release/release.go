// Package release serializes a completed private release — the sanitized
// per-(cluster, item) averages together with the clustering and the
// metadata needed to serve from them — to a stable binary format.
//
// Differential privacy makes this sound: once the noisy averages exist,
// any computation over them (including writing them to disk and serving
// them from another process years later) is post-processing and consumes
// no further budget. Persisting a release is therefore the *preferred*
// production pattern: release once, serve anywhere, never re-touch the raw
// preference data.
//
// Every file here is one internal/frame frame; each format's fields are
// listed beside its encoder.
package release

import (
	"context"
	"fmt"
	"io"
	"math"
	"slices"

	"socialrec/internal/community"
	"socialrec/internal/dp"
	"socialrec/internal/frame"
	"socialrec/internal/telemetry"
)

const magic = "SOCRECv2"

// maxDim bounds the item and shard counts a decoder accepts: serving
// allocates per item, so a count no slice backs must still be plausible.
const maxDim = 1 << 28

// Release is a deserialized private release, sufficient to reconstruct
// utilities for any user given a similarity vector.
type Release struct {
	// Epsilon is the budget the release consumed.
	Epsilon float64
	// Measure is the similarity measure name the release was built for
	// ("CN", "GD", "AA", "KZ"). Serving with a different measure is valid
	// under DP (still post-processing) but changes recommendation
	// semantics, so the name is recorded and checked by callers.
	Measure string
	// Clusters is the user partition.
	Clusters *community.Clustering
	// NumItems is |I|.
	NumItems int
	// Avg holds the sanitized averages, cluster-major:
	// Avg[c*NumItems + i] = ŵ_c^i. It may be a serving engine's own table
	// (socialrec.EngineFromRelease adopts it, Engine.Release returns it),
	// so nothing writes it in place; Snap replaces it.
	Avg []float64
}

// Snap rounds the sanitized averages onto a coarse lattice of the given
// grain via dp.Snap, mitigating the Mironov (CCS 2012) floating-point
// side channel before the release leaves the trust boundary: the low-order
// bits of textbook Laplace samples can leak the true averages, and
// rounding them onto an input-independent grid destroys exactly those
// bits. Snapping is post-processing, so the release's ε is unchanged; a
// grain well below the mechanism's noise scale (e.g. scale/100) costs at
// most grain/2 of utility per value. A grain ≤ 0 leaves the values
// unchanged. Callers should snap before Write, so only snapped values are
// ever persisted or served.
// Snap writes into a new slice and points r.Avg at it, leaving the slice
// it replaces, which may be an engine's own table (see Avg), untouched.
func (r *Release) Snap(grain float64) {
	r.Avg = dp.Snap(slices.Clone(r.Avg), grain)
}

// Validate checks internal consistency.
func (r *Release) Validate() error {
	if r.Clusters == nil {
		return fmt.Errorf("release: missing clustering")
	}
	if r.NumItems < 0 {
		return fmt.Errorf("release: negative item count")
	}
	if want := r.Clusters.NumClusters() * r.NumItems; len(r.Avg) != want {
		return fmt.Errorf("release: %d averages, want %d", len(r.Avg), want)
	}
	if r.Epsilon <= 0 && !math.IsInf(r.Epsilon, 1) {
		return fmt.Errorf("release: invalid epsilon %v", r.Epsilon)
	}
	return nil
}

// Write serializes the release.
func Write(w io.Writer, r *Release) error {
	fw := frame.NewWriter(w, magic)
	if err := WriteBody(fw, r); err != nil {
		return err
	}
	if err := fw.Close(); err != nil {
		return err
	}
	// Persisting sanitized averages is post-processing: ε = 0 records that
	// the event happened without charging the budget again.
	recordPostProcessing(context.Background(), "release_persist", len(r.Avg))
	return nil
}

// WriteBody validates r and writes its fields into a frame. Release files,
// shard files and pipeline checkpoints all carry a release this way:
//
//	epsilon   f64     (math.Inf(1) for a no-noise release)
//	measure   string
//	items     u32
//	clusters  u32
//	assign    []i32   user → cluster
//	avg       []f64   clusters × items, cluster-major
func WriteBody(w *frame.Writer, r *Release) error {
	if err := r.Validate(); err != nil {
		return err
	}
	w.F64(r.Epsilon)
	w.String(r.Measure)
	w.U32(uint32(r.NumItems))
	w.U32(uint32(r.Clusters.NumClusters()))
	w.I32s(r.Clusters.Assignment())
	w.F64s(r.Avg)
	return nil
}

// ReadBody reads and validates the fields WriteBody wrote. The frame's CRC
// is not checked yet: the caller's Close does that.
func ReadBody(fr *frame.Reader) (*Release, error) {
	eps := fr.F64("epsilon")
	measure := fr.String("measure")
	items := fr.U32("items")
	clusters := fr.U32("clusters")
	assign := fr.I32s("assignment")
	avg := fr.F64s("averages")
	if err := fr.Err(); err != nil {
		return nil, err
	}
	if items > maxDim {
		return nil, fmt.Errorf("release: implausible item count")
	}
	if uint64(len(avg)) != uint64(clusters)*uint64(items) {
		return nil, fmt.Errorf("release: averages table does not match its dimensions")
	}
	for _, a := range assign {
		if a < 0 || uint32(a) >= clusters {
			return nil, fmt.Errorf("release: assignment names a cluster out of range")
		}
	}
	cl, err := community.FromAssignment(assign)
	if err != nil {
		return nil, err
	}
	if cl.NumClusters() != int(clusters) {
		return nil, fmt.Errorf("release: assignment leaves clusters empty")
	}
	out := &Release{Epsilon: eps, Measure: measure, Clusters: cl, NumItems: int(items), Avg: avg}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadContext deserializes and validates a release, including its
// checksum. The recorded release_load budget event carries ctx's active
// trace id (if any).
func ReadContext(ctx context.Context, r io.Reader) (*Release, error) {
	fr := frame.NewReader(r, magic)
	out, err := ReadBody(fr)
	if err == nil {
		err = fr.Close()
	}
	if err != nil {
		return nil, err
	}
	recordPostProcessing(ctx, "release_load", len(out.Avg))
	return out, nil
}

// recordPostProcessing notes at ε = 0 that already-sanitized values were
// persisted or loaded.
func recordPostProcessing(ctx context.Context, mechanism string, values int) {
	telemetry.Budget().RecordCtx(ctx, telemetry.ReleaseEvent{Mechanism: mechanism, Values: values})
}
