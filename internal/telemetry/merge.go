package telemetry

import (
	"fmt"
	"math"
)

// Fleet-merge primitives. A fleet collector (internal/obsagg) scrapes the
// JSON /metrics export of every process and combines the per-process
// snapshots into one fleet view. Counters sum; histograms with identical
// bucket layouts merge exactly (cumulative bucket counts, total count and
// sum all add), so fleet quantiles recomputed from the merged buckets are
// EXACTLY the quantiles of the concatenated observation stream — no
// approximation is introduced by aggregation, only the approximation the
// fixed bucket layout already carried. Histograms whose layouts differ do
// not merge; callers must skip (and count) them rather than guess.

// SameBuckets reports whether two histogram snapshots share an identical
// bucket layout (same boundaries in the same order). Bit-exact float
// comparison is deliberate: layouts are identical by construction when the
// processes run the same registration code, and anything else must not
// merge.
func SameBuckets(a, b HistogramSnapshot) bool {
	if len(a.Buckets) != len(b.Buckets) {
		return false
	}
	for i := range a.Buckets {
		if math.Float64bits(a.Buckets[i].Le) != math.Float64bits(b.Buckets[i].Le) {
			return false
		}
	}
	return true
}

// MergeHistogramSnapshots merges per-process snapshots of the same
// histogram into one fleet snapshot. All inputs must agree on the bucket
// layout; the merged name and labels are taken from the first input.
// Cumulative bucket counts, the total count and the sum add exactly.
// Exemplars are best-effort last-writer state per process; the merged
// snapshot keeps, per bucket, the first non-nil exemplar encountered.
func MergeHistogramSnapshots(hs []HistogramSnapshot) (HistogramSnapshot, error) {
	if len(hs) == 0 {
		return HistogramSnapshot{}, fmt.Errorf("telemetry: no histogram snapshots to merge")
	}
	out := HistogramSnapshot{
		Name:     hs[0].Name,
		LabelKey: hs[0].LabelKey, LabelValue: hs[0].LabelValue,
		Buckets: make([]Bucket, len(hs[0].Buckets)),
	}
	for i, b := range hs[0].Buckets {
		out.Buckets[i].Le = b.Le
	}
	for _, h := range hs {
		if !SameBuckets(out, h) {
			// The mismatching layout is deliberately not echoed bucket by
			// bucket; the name suffices to find the offending registration.
			return HistogramSnapshot{}, fmt.Errorf("telemetry: histogram %q bucket layouts differ; refusing inexact merge", out.Name)
		}
		out.Count += h.Count
		out.Sum += h.Sum
		for i, b := range h.Buckets {
			out.Buckets[i].Count += b.Count
			if out.Buckets[i].Exemplar == nil {
				out.Buckets[i].Exemplar = b.Exemplar
			}
		}
		if out.InfExemplar == nil {
			out.InfExemplar = h.InfExemplar
		}
	}
	return out, nil
}

// Quantile estimates the q-quantile (0 < q < 1) of the observations a
// histogram snapshot recorded, by linear interpolation within the bucket
// the target rank lands in — the same estimator as Prometheus's
// histogram_quantile. Observations beyond the last finite bound clamp to
// that bound (the +Inf bucket has no width to interpolate in). Returns NaN
// for an empty histogram or a q outside (0, 1).
//
// Because the estimate is a pure function of the bucket counts, merging
// snapshots with identical layouts and then taking the quantile yields
// exactly the quantile of the concatenated observation stream.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 || q <= 0 || q >= 1 || len(h.Buckets) == 0 {
		return math.NaN()
	}
	rank := q * float64(h.Count)
	var prevCum uint64
	var lower float64 // observations are latencies; the first bucket starts at 0
	for _, b := range h.Buckets {
		if float64(b.Count) >= rank {
			in := b.Count - prevCum
			if in == 0 {
				return b.Le
			}
			return lower + (b.Le-lower)*(rank-float64(prevCum))/float64(in)
		}
		prevCum = b.Count
		lower = b.Le
	}
	// rank falls in the implicit +Inf bucket: clamp to the last finite bound.
	return h.Buckets[len(h.Buckets)-1].Le
}

// MergeLedgers combines per-process privacy-budget snapshots into one
// fleet snapshot: per-mechanism totals, finite-ε totals and inf-release
// counts all add. The merged Events list stays empty — raw event lists are
// capped per process and a fleet view sums totals, it does not replay
// spending — but Dropped carries the per-process event counts forward so
// the fleet view still reports how many events stand behind the totals.
// Summation order is deterministic (mechanism name order, inputs in call
// order), so equal inputs always produce the identical fleet total.
func MergeLedgers(ls []LedgerSnapshot) LedgerSnapshot {
	byMech := map[string]*MechanismTotal{}
	var out LedgerSnapshot
	for _, l := range ls {
		out.Dropped += len(l.Events) + l.Dropped
		for _, m := range l.ByMechanism {
			t, ok := byMech[m.Mechanism]
			if !ok {
				t = &MechanismTotal{Mechanism: m.Mechanism}
				byMech[m.Mechanism] = t
			}
			t.Releases += m.Releases
			t.Epsilon += m.Epsilon
			t.InfReleases += m.InfReleases
		}
	}
	for _, name := range sortedKeys(byMech) {
		t := byMech[name]
		out.ByMechanism = append(out.ByMechanism, *t)
		out.TotalEpsilon += t.Epsilon
		out.InfReleases += t.InfReleases
	}
	return out
}
