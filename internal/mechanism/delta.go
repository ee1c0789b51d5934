package mechanism

import (
	"context"
	"fmt"
	"slices"

	"socialrec/internal/community"
	"socialrec/internal/dp"
	"socialrec/internal/graph"
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
// ascending cluster order — the layout release.Delta.Fresh expects. The
// rows are released under a "laplace_delta_release" span on ctx; with no
// fresh cluster DeltaRows returns an empty slice, opens no span and
// spends no budget.
func DeltaRows(ctx context.Context, clusters *community.Clustering, prefs *graph.Preference, fresh []bool, eps dp.Epsilon, noise dp.NoiseSource) ([]float64, error) {
	if err := eps.Validate(); err != nil {
		return nil, err
	}
	if err := checkUsers(clusters, prefs.NumUsers()); err != nil {
		return nil, err
	}
	if nc := clusters.NumClusters(); len(fresh) != nc {
		return nil, fmt.Errorf("mechanism: fresh mask covers %d clusters, clustering has %d", len(fresh), nc)
	}
	if !slices.Contains(fresh, true) {
		return []float64{}, nil
	}
	return release(ctx, "laplace_delta_release", "cluster_delta", clusters, prefs.NumItems(), unitEdges(prefs), fresh, 1, eps, noise), nil
}
