package mechanism

import (
	"context"
	"fmt"

	"socialrec/internal/community"
	"socialrec/internal/dp"
	"socialrec/internal/graph"
	"socialrec/internal/telemetry"
	"socialrec/internal/trace"
)

// edges returns user u's preferred items and their weights; nil weights
// mean every edge weighs 1.
type edges func(u int) (items []int32, weights []float64)

// unitEdges reads an unweighted preference graph as edges of weight 1.
func unitEdges(prefs *graph.Preference) edges {
	return func(u int) ([]int32, []float64) { return prefs.Items(u), nil }
}

// checkUsers rejects a clustering that does not partition exactly the
// preference graph's users.
func checkUsers(clusters *community.Clustering, users int) error {
	if clusters.NumUsers() != users {
		return fmt.Errorf("mechanism: clustering covers %d users but preference graph has %d",
			clusters.NumUsers(), users)
	}
	return nil
}

// release is Eq. 3, the one privacy-sensitive step of Algorithm 1 and of
// its §7 weighted extension. For every released cluster c — all of them
// when fresh is nil, else those with fresh[c] set — it sums the members'
// edge weights per item and perturbs their average:
//
//	ŵ_c^i = (Σ_{v ∈ c} w(v, i)) / |c|  +  Lap(Δ/(|c|·ε))
//
// Δ = sensitivity bounds how far one edge moves a cluster's sum (1 for
// unit edges, W_max for weighted ones), so each average is ε-DP, and
// since every edge feeds exactly one average the release as a whole is
// ε-DP by parallel composition (Theorem 4). ε may be dp.Inf (no noise).
//
// The rows come back cluster-major, packed in ascending cluster order.
// Noise is drawn in that order, item by item; an empty cluster's row
// stays zero and takes no draw. The draws run under a span named span,
// opened after the sums, and the release records one ledger event for
// mech, attributed to that span's trace.
func release(ctx context.Context, span, mech string, clusters *community.Clustering, numItems int,
	edgesOf edges, fresh []bool, sensitivity float64, eps dp.Epsilon, noise dp.NoiseSource) []float64 {
	rowOf := make([]int, clusters.NumClusters())
	rows := 0
	for c := range rowOf {
		rowOf[c] = -1
		if fresh == nil || fresh[c] {
			rowOf[c], rows = rows, rows+1
		}
	}
	out := make([]float64, rows*numItems)
	// Sum each released cluster's edge weights per item (lines 2–6 of
	// Algorithm 1).
	for u := 0; u < clusters.NumUsers(); u++ {
		r := rowOf[clusters.Cluster(u)]
		if r < 0 {
			continue
		}
		row := out[r*numItems : (r+1)*numItems]
		items, ws := edgesOf(u)
		for k, item := range items {
			w := 1.0
			if ws != nil {
				w = ws[k]
			}
			row[item] += w
		}
	}
	// Average and perturb (line 7).
	ctx, sp := trace.Start(ctx, span)
	defer sp.End()
	for c, r := range rowOf {
		size := float64(clusters.Size(c))
		if r < 0 || size == 0 {
			continue
		}
		var scale float64
		if !eps.IsInf() {
			scale = sensitivity / (size * float64(eps))
		}
		row := out[r*numItems : (r+1)*numItems]
		for i := range row {
			row[i] = row[i]/size + noise.Laplace(scale)
		}
	}
	telemetry.Budget().RecordCtx(ctx, telemetry.ReleaseEvent{
		Mechanism:   mech,
		Epsilon:     float64(eps),
		Sensitivity: sensitivity,
		Values:      len(out),
	})
	return out
}
