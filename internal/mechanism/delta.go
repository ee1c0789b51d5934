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

// DeltaRows runs module A_w restricted to a subset of clusters: it
// computes fresh noisy average rows ŵ_c^i only for clusters c with
// fresh[c] set, at noise scale 1/(|c|·ε) exactly as NewCluster does. The
// streaming update path uses it to build delta releases — unchanged
// clusters keep their previously released rows, so only the changed part
// of the table is recomputed and re-noised.
//
// Privacy accounting: within one delta the fresh clusters are disjoint
// user sets, so the released rows compose in parallel and the delta as a
// whole is an ε-DP release of the preference graph. ACROSS releases
// (full or delta) the same evolving preference edges are touched again,
// which is exactly the sequential composition the dynamic manager's
// budget accountant charges per release. Note the caveat the runbook
// spells out: which clusters are re-released is itself derived from the
// mutation stream, so the fresh set is metadata about where activity
// happened; deployments that consider that sensitive should re-release
// on membership changes only.
//
// The returned slice is cluster-major over ONLY the fresh clusters, in
// ascending cluster order — the layout release.Delta.Fresh expects.
func DeltaRows(ctx context.Context, clusters *community.Clustering, prefs *graph.Preference, fresh []bool, eps dp.Epsilon, noise dp.NoiseSource) ([]float64, error) {
	if err := eps.Validate(); err != nil {
		return nil, err
	}
	if clusters.NumUsers() != prefs.NumUsers() {
		return nil, fmt.Errorf("mechanism: clustering covers %d users but preference graph has %d",
			clusters.NumUsers(), prefs.NumUsers())
	}
	nc := clusters.NumClusters()
	if len(fresh) != nc {
		return nil, fmt.Errorf("mechanism: fresh mask covers %d clusters, clustering has %d", len(fresh), nc)
	}
	ni := prefs.NumItems()
	// Map fresh clusters to compact row indices.
	rowOf := make([]int, nc)
	rows := 0
	for c := 0; c < nc; c++ {
		if fresh[c] {
			rowOf[c] = rows
			rows++
		} else {
			rowOf[c] = -1
		}
	}
	out := make([]float64, rows*ni)
	if rows == 0 {
		return out, nil
	}
	// Accumulate raw counts for fresh clusters only.
	for u := 0; u < prefs.NumUsers(); u++ {
		r := rowOf[clusters.Cluster(u)]
		if r < 0 {
			continue
		}
		base := r * ni
		for _, item := range prefs.Items(u) {
			out[base+int(item)]++
		}
	}
	ctx, sp := trace.Start(ctx, "laplace_delta_release")
	defer sp.End()
	for c := 0; c < nc; c++ {
		r := rowOf[c]
		if r < 0 {
			continue
		}
		size := float64(clusters.Size(c))
		if size == 0 {
			continue
		}
		var scale float64
		if !eps.IsInf() {
			scale = 1 / (size * float64(eps))
		}
		base := r * ni
		for i := 0; i < ni; i++ {
			out[base+i] = out[base+i]/size + noise.Laplace(scale)
		}
	}
	telemetry.Budget().RecordCtx(ctx, telemetry.ReleaseEvent{
		Mechanism:   "cluster_delta",
		Epsilon:     float64(eps),
		Sensitivity: 1,
		Values:      rows * ni,
	})
	return out, nil
}
