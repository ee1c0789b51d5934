package mechanism

import (
	"context"
	"fmt"

	"socialrec/internal/community"
	"socialrec/internal/dp"
	"socialrec/internal/graph"
)

// Cluster is the paper's privacy-preserving framework (Algorithm 1). At
// construction it performs the only privacy-sensitive computation, module
// A_w: for every (cluster c, item i) pair it releases the noisy average
// preference weight
//
//	ŵ_c^i = (Σ_{v ∈ c} w(v, i)) / |c|  +  Lap(1/(|c|·ε))        (Eq. 3)
//
// Each preference edge (v, i) contributes to exactly one average (the one
// for v's cluster and item i), so by parallel composition (Theorem 3) the
// whole release satisfies ε-differential privacy, which is the content of
// the paper's Theorem 4. Everything after construction — reconstructing
// utility estimates via Eq. 4 and ranking items — is post-processing on the
// sanitized averages.
type Cluster struct {
	table
}

// NewCluster runs module A_w of Algorithm 1: it computes the noisy
// per-(cluster, item) average weights from the preference graph. The
// clustering must partition exactly the users of prefs and must have been
// derived from the public social graph alone (e.g. community.Louvain) for
// the privacy guarantee to hold. eps may be dp.Inf to isolate approximation
// error (the paper's ε = ∞ runs).
func NewCluster(clusters *community.Clustering, prefs *graph.Preference, eps dp.Epsilon, noise dp.NoiseSource) (*Cluster, error) {
	return NewClusterCtx(context.Background(), clusters, prefs, eps, noise)
}

// NewClusterCtx is NewCluster on a caller-supplied context. The release
// runs under a "laplace_release" span — a child when ctx carries an active
// trace (an engine build, a pipeline run, an admin reload request), a root
// otherwise — and the recorded budget spend carries that span's trace id,
// so the ε is attributable to the run that spent it.
func NewClusterCtx(ctx context.Context, clusters *community.Clustering, prefs *graph.Preference, eps dp.Epsilon, noise dp.NoiseSource) (*Cluster, error) {
	if err := eps.Validate(); err != nil {
		return nil, err
	}
	if err := checkUsers(clusters, prefs.NumUsers()); err != nil {
		return nil, err
	}
	avg := release(ctx, "laplace_release", "cluster", clusters, prefs.NumItems(), unitEdges(prefs), nil, 1, eps, noise)
	return &Cluster{newTable(clusters, prefs.NumItems(), avg)}, nil
}

// Name returns "cluster".
func (*Cluster) Name() string { return "cluster" }

// Averages returns the sanitized per-(cluster, item) averages,
// cluster-major: the estimator's own table, not a copy. They are safe to
// persist and share: under differential privacy everything derived from
// them is post-processing (see internal/release). The slice is read-only:
// the estimator serves from it, and nothing writes it after Eq. 3.
func (c *Cluster) Averages() []float64 { return c.avg }

// Clustering returns the user partition backing the release.
func (c *Cluster) Clustering() *community.Clustering { return c.clusters }

// NewClusterFromRelease reconstructs a Cluster estimator from previously
// released sanitized averages — no preference data and no privacy budget
// involved. avg must be cluster-major with numItems columns. The estimator
// adopts avg instead of copying it, so one table serves the release and
// the engine: neither the estimator nor the caller may write it afterwards.
func NewClusterFromRelease(clusters *community.Clustering, numItems int, avg []float64) (*Cluster, error) {
	if numItems < 0 {
		return nil, fmt.Errorf("mechanism: negative item count")
	}
	if want := clusters.NumClusters() * numItems; len(avg) != want {
		return nil, fmt.Errorf("mechanism: %d averages, want %d", len(avg), want)
	}
	return &Cluster{newTable(clusters, numItems, avg)}, nil
}

// NumClusters reports the number of clusters backing the release.
func (c *Cluster) NumClusters() int { return c.clusters.NumClusters() }
