// Delta releases: the incremental artifact kind the streaming update path
// persists beside full generations. A delta carries the complete new
// user→cluster assignment (assignments derive from the public social
// graph and are cheap) but fresh sanitized average rows only for the
// clusters that actually changed; every unchanged cluster references the
// base generation's row instead of duplicating it. Applying a delta to
// its base release is pure post-processing over already-sanitized values,
// so it consumes no privacy budget beyond the delta's own Epsilon (spent
// when the fresh rows were released).
package release

import (
	"context"
	"fmt"
	"io"
	"math"
	"path/filepath"

	"socialrec/internal/community"
	"socialrec/internal/faults"
	"socialrec/internal/frame"
	"socialrec/internal/trace"
)

const deltaMagic = "SOCDLT02"

// Delta is an incremental release: a full new assignment plus fresh
// sanitized rows for only the changed clusters.
type Delta struct {
	// Base is the store version (full generation or earlier delta) whose
	// applied release this delta extends.
	Base uint64
	// Epsilon is the ε spent releasing the fresh rows.
	Epsilon float64
	// Measure is the similarity measure name, matching the base release.
	Measure string
	// NumItems is |I| after the delta (item growth appends columns).
	NumItems int
	// Assign is the complete new user → cluster assignment with dense
	// cluster ids.
	Assign []int32
	// Source maps each new cluster either to the base cluster whose
	// sanitized row it reuses, or to -1 when this delta carries a fresh
	// row for it.
	Source []int32
	// Fresh holds the re-released rows, cluster-major in ascending
	// new-cluster order, NumItems columns each.
	Fresh []float64
}

// NumFresh counts the clusters this delta re-releases.
func (d *Delta) NumFresh() int {
	n := 0
	for _, s := range d.Source {
		if s < 0 {
			n++
		}
	}
	return n
}

// Validate checks internal consistency (not base compatibility; see
// Apply).
func (d *Delta) Validate() error {
	if d.Epsilon <= 0 && !math.IsInf(d.Epsilon, 1) {
		return fmt.Errorf("release: delta: invalid epsilon %v", d.Epsilon)
	}
	if d.NumItems < 0 {
		return fmt.Errorf("release: delta: negative item count")
	}
	nc := len(d.Source)
	for u, c := range d.Assign {
		if c < 0 || int(c) >= nc {
			return fmt.Errorf("release: delta: user %d assigned to cluster %d of %d", u, c, nc)
		}
	}
	for c, s := range d.Source {
		if s < -1 {
			return fmt.Errorf("release: delta: cluster %d has invalid source %d", c, s)
		}
	}
	if want := d.NumFresh() * d.NumItems; len(d.Fresh) != want {
		return fmt.Errorf("release: delta: %d fresh values, want %d", len(d.Fresh), want)
	}
	return nil
}

// Apply materializes the release this delta describes on top of its base.
// It validates every cross-reference — measure, item growth, source
// cluster bounds, assignment density — and fails without partial effects
// on any mismatch, so a corrupt or misdirected delta can never produce a
// half-applied serving state. Applying is post-processing: the result's
// Epsilon is the sequential-composition total of base and delta.
func (d *Delta) Apply(base *Release) (*Release, error) {
	if err := base.Validate(); err != nil {
		return nil, fmt.Errorf("release: delta apply: base: %w", err)
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("release: delta apply: %w", err)
	}
	if d.Measure != base.Measure {
		return nil, fmt.Errorf("release: delta apply: measure %q does not match base %q", d.Measure, base.Measure)
	}
	if d.NumItems < base.NumItems {
		return nil, fmt.Errorf("release: delta apply: item count shrank %d -> %d", base.NumItems, d.NumItems)
	}
	if len(d.Assign) < base.Clusters.NumUsers() {
		return nil, fmt.Errorf("release: delta apply: population shrank %d -> %d", base.Clusters.NumUsers(), len(d.Assign))
	}
	clusters, err := community.FromAssignment(d.Assign)
	if err != nil {
		return nil, fmt.Errorf("release: delta apply: %w", err)
	}
	if clusters.NumClusters() != len(d.Source) {
		return nil, fmt.Errorf("release: delta apply: assignment uses %d clusters, delta declares %d",
			clusters.NumClusters(), len(d.Source))
	}
	avg := make([]float64, len(d.Source)*d.NumItems)
	fresh := 0
	for c, src := range d.Source {
		row := avg[c*d.NumItems : (c+1)*d.NumItems]
		if src < 0 {
			copy(row, d.Fresh[fresh*d.NumItems:(fresh+1)*d.NumItems])
			fresh++
			continue
		}
		if int(src) >= base.Clusters.NumClusters() {
			return nil, fmt.Errorf("release: delta apply: cluster %d references base cluster %d of %d",
				c, src, base.Clusters.NumClusters())
		}
		// Reused rows keep the base's sanitized values; columns for items
		// added after the base release stay zero (no released signal yet).
		copy(row, base.Avg[int(src)*base.NumItems:(int(src)+1)*base.NumItems])
	}
	eps := base.Epsilon + d.Epsilon
	if math.IsInf(base.Epsilon, 1) || math.IsInf(d.Epsilon, 1) {
		eps = math.Inf(1)
	}
	out := &Release{
		Epsilon:  eps,
		Measure:  base.Measure,
		Clusters: clusters,
		NumItems: d.NumItems,
		Avg:      avg,
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("release: delta apply: result: %w", err)
	}
	return out, nil
}

// WriteDeltaContext serializes the delta as one frame; persisting
// already-sanitized rows is post-processing, recorded at ε = 0.
//
//	base     u64     store version this delta applies on top of
//	epsilon  f64     ε spent on the fresh rows
//	measure  string
//	items    u32
//	assign   []i32   user → new cluster
//	source   []i32   new cluster → base cluster, -1 = fresh row
//	fresh    []f64   fresh rows, ascending cluster order
func WriteDeltaContext(ctx context.Context, w io.Writer, d *Delta) error {
	if err := d.Validate(); err != nil {
		return err
	}
	fw := frame.NewWriter(w, deltaMagic)
	fw.U64(d.Base)
	fw.F64(d.Epsilon)
	fw.String(d.Measure)
	fw.U32(uint32(d.NumItems))
	fw.I32s(d.Assign)
	fw.I32s(d.Source)
	fw.F64s(d.Fresh)
	if err := fw.Close(); err != nil {
		return err
	}
	recordPostProcessing(ctx, "delta_persist", len(d.Fresh))
	return nil
}

// ReadDeltaContext deserializes and validates a delta, including its
// checksum.
func ReadDeltaContext(ctx context.Context, r io.Reader) (*Delta, error) {
	fr := frame.NewReader(r, deltaMagic)
	d := &Delta{Base: fr.U64("base"), Epsilon: fr.F64("epsilon"), Measure: fr.String("measure")}
	items := fr.U32("items")
	d.Assign = fr.I32s("assignment")
	d.Source = fr.I32s("sources")
	d.Fresh = fr.F64s("fresh rows")
	if err := fr.Close(); err != nil {
		return nil, err
	}
	if items > maxDim {
		return nil, fmt.Errorf("release: delta: implausible item count")
	}
	d.NumItems = int(items)
	if err := d.Validate(); err != nil {
		return nil, err
	}
	recordPostProcessing(ctx, "delta_load", len(d.Fresh))
	return d, nil
}

// NextVersion returns the version number the next save (full or delta)
// will claim: one past the newest artifact of either kind, so full
// generations and deltas share one monotonic version space and serving
// lineage is totally ordered.
func (s *Store) NextVersion() (uint64, error) {
	next := uint64(1)
	for _, k := range []Kind{Fulls, Deltas} {
		vs, err := s.Versions(k)
		if err != nil {
			return 0, err
		}
		if n := len(vs); n > 0 && vs[n-1]+1 > next {
			next = vs[n-1] + 1
		}
	}
	return next, nil
}

// SaveDeltaContext persists d as the next version with the atomic-write
// discipline; nothing becomes visible on failure.
func (s *Store) SaveDeltaContext(ctx context.Context, d *Delta) (uint64, error) {
	ctx, sp := trace.StartChild(ctx, "release_store_save_delta")
	defer sp.End()
	if err := d.Validate(); err != nil {
		s.saveFailures.Inc()
		sp.SetStatus(trace.StatusError)
		return 0, err
	}
	next, err := s.NextVersion()
	if err != nil {
		s.saveFailures.Inc()
		sp.SetStatus(trace.StatusError)
		return 0, err
	}
	final := filepath.Join(s.dir, Deltas.file(next))
	if err := faults.WriteAtomicFunc(s.fsys, final, func(w io.Writer) error {
		return WriteDeltaContext(ctx, w, d)
	}); err != nil {
		s.saveFailures.Inc()
		sp.SetStatus(trace.StatusError)
		return 0, fmt.Errorf("release: saving delta version %d: %w", next, err)
	}
	s.saves.Inc()
	sp.Set(attrVersion.Int(int64(next)))
	return next, nil
}

// LoadDeltaContext opens one specific delta version, validating its
// checksum.
func (s *Store) LoadDeltaContext(ctx context.Context, v uint64) (*Delta, error) {
	var d *Delta
	if err := s.read(Deltas.file(v), func(f io.Reader) (err error) {
		d, err = ReadDeltaContext(ctx, f)
		return err
	}); err != nil {
		return nil, fmt.Errorf("release: loading delta version %d: %w", v, err)
	}
	return d, nil
}

// Lineage records how a served release was assembled: the full generation
// it started from and the delta versions applied on top, in order.
type Lineage struct {
	// Full is the base full generation's store version.
	Full uint64
	// Deltas lists applied delta versions, ascending.
	Deltas []uint64
}

// Version is the serving version: the last applied delta, or the full
// generation when no deltas are applied.
func (ln Lineage) Version() uint64 {
	if n := len(ln.Deltas); n > 0 {
		return ln.Deltas[n-1]
	}
	return ln.Full
}

// LoadLatestContext recovers the newest consistent serving state: the
// newest valid full generation, plus every subsequent delta whose base
// chain and checksum validate, applied in version order. The chain stops —
// and the remainder is reported in skipped, never silently dropped — at the
// first delta that is corrupt, unreachable, or chained to a version other
// than the current head. The caller therefore always gets a consistent
// (possibly stale) release or ErrStoreEmpty.
func (s *Store) LoadLatestContext(ctx context.Context) (*Release, Lineage, []Skipped, error) {
	base, fullV, skipped, err := s.LoadContext(ctx)
	if err != nil {
		return nil, Lineage{}, skipped, err
	}
	return s.compose(ctx, base, fullV, skipped)
}

// LoadLineage is LoadLatestContext that also returns base, the bare full
// generation the served release was composed from: the served release
// itself when the lineage has no deltas, else a release Delta.Apply never
// wrote into, so a caller can keep both without reading the full
// generation twice.
func (s *Store) LoadLineage(ctx context.Context) (served, base *Release, ln Lineage, skipped []Skipped, err error) {
	base, fullV, skipped, err := s.LoadContext(ctx)
	if err != nil {
		return nil, nil, Lineage{}, skipped, err
	}
	served, ln, skipped, err = s.compose(ctx, base, fullV, skipped)
	return served, base, ln, skipped, err
}

// compose applies to rel, the full generation at version fullV, every
// later delta of the chain LoadLatestContext describes. It keeps no
// reference to rel once the first delta applies, so a caller that dropped
// its own holds one full generation's table at a time, not two.
func (s *Store) compose(ctx context.Context, rel *Release, fullV uint64, skipped []Skipped) (*Release, Lineage, []Skipped, error) {
	ln := Lineage{Full: fullV}
	deltas, err := s.Versions(Deltas)
	if err != nil {
		return nil, Lineage{}, skipped, err
	}
	head := fullV
	var stopped error
	for _, dv := range deltas {
		if dv <= fullV {
			continue
		}
		if stopped != nil {
			// Everything past a broken link is unreachable; report it
			// rather than silently ignoring it.
			err := fmt.Errorf("release: delta version %d unreachable: %w", dv, stopped)
			s.recoveries.Inc()
			s.logf("release: store %s: %v", s.dir, err)
			skipped = append(skipped, Skipped{Name: Deltas.file(dv), Err: err})
			continue
		}
		d, err := s.LoadDeltaContext(ctx, dv)
		if err == nil && d.Base != head {
			err = fmt.Errorf("release: delta version %d chains to %d but head is %d", dv, d.Base, head)
		}
		var next *Release
		if err == nil {
			next, err = d.Apply(rel)
		}
		if err != nil {
			s.recoveries.Inc()
			s.logf("release: store %s: stopping delta chain at version %d: %v", s.dir, dv, err)
			skipped = append(skipped, Skipped{Name: Deltas.file(dv), Err: err})
			stopped = fmt.Errorf("chain stopped at version %d", dv)
			continue
		}
		rel = next
		head = dv
		ln.Deltas = append(ln.Deltas, dv)
	}
	return rel, ln, skipped, nil
}
