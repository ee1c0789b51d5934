package release

import (
	"context"
	"fmt"

	"socialrec/internal/community"
	"socialrec/internal/dp"
	"socialrec/internal/graph"
	"socialrec/internal/mechanism"
	"socialrec/internal/trace"
)

// Recipe is everything besides the two graphs that decides a release's
// bytes: Algorithm 1 is one function of (G_s, G_p, ε), and the facade, the
// checkpointed pipeline, the streaming updater and the attack harness all
// cluster and draw noise through a Recipe, so one recipe over the same
// graphs gives the same release on every path.
//
// The seed rule: release R clusters at Seed + (R−1)·7919 and draws its
// Laplace noise from that seed + 1. Every path but the updater publishes
// release 1, so it clusters at Seed and draws noise at Seed + 1.
type Recipe struct {
	// Measure names the similarity measure the release is built for; it
	// is recorded in the release.
	Measure string
	// Eps is the release budget; dp.Inf releases without noise.
	Eps dp.Epsilon
	// LouvainRuns is the best-of restart count; 0 selects the paper's 10.
	LouvainRuns int
	// Clusterer is "louvain" (or ""), "labelprop" or "cnm".
	Clusterer string
	// MinClusterSize, when > 1, folds smaller clusters into their
	// best-connected neighbor (community.MergeSmall).
	MinClusterSize int
	// Seed is the base seed of the seed rule above.
	Seed int64
	// Index is the release index R, counted from 1; 0 reads as 1.
	Index uint64
}

// seed is the clustering seed of release R: Seed + (R−1)·7919.
func (r Recipe) seed() int64 {
	if r.Index <= 1 {
		return r.Seed
	}
	return r.Seed + int64(r.Index-1)*7919
}

// Cluster partitions the public social graph, each step under a child span
// of ctx's active span: cluster_louvain (best of LouvainRuns restarts),
// cluster_labelprop or cluster_cnm, then merge_small when MinClusterSize
// > 1.
func (r Recipe) Cluster(ctx context.Context, social *graph.Social) (*community.Clustering, error) {
	var clusters *community.Clustering
	switch r.Clusterer {
	case "", "louvain":
		runs := r.LouvainRuns
		if runs <= 0 {
			runs = 10
		}
		_, sp := trace.StartChild(ctx, "cluster_louvain")
		clusters, _ = community.BestOf(social, runs, r.seed(), community.Options{})
		sp.End()
	case "labelprop":
		_, sp := trace.StartChild(ctx, "cluster_labelprop")
		clusters = community.LabelPropagation(social, r.seed(), 0)
		sp.End()
	case "cnm":
		_, sp := trace.StartChild(ctx, "cluster_cnm")
		clusters = community.CNM(social)
		sp.End()
	default:
		return nil, fmt.Errorf("release: unknown clusterer %q (want louvain, labelprop or cnm)", r.Clusterer)
	}
	if r.MinClusterSize > 1 {
		_, sp := trace.StartChild(ctx, "merge_small")
		merged, err := community.MergeSmall(social, clusters, r.MinClusterSize)
		sp.End()
		if err != nil {
			return nil, err
		}
		clusters = merged
	}
	return clusters, nil
}

// Noise returns the release's Laplace noise stream, seeded one past the
// clustering seed.
func (r Recipe) Noise() dp.NoiseSource {
	return dp.SourceFor(r.Eps, r.seed()+1)
}

// Build runs Algorithm 1: Cluster, then the Laplace release of every
// (cluster, item) average (mechanism.NewClusterCtx) drawn from Noise.
func (r Recipe) Build(ctx context.Context, social *graph.Social, prefs *graph.Preference) (*Release, error) {
	clusters, err := r.Cluster(ctx, social)
	if err != nil {
		return nil, err
	}
	est, err := mechanism.NewClusterCtx(ctx, clusters, prefs, r.Eps, r.Noise())
	if err != nil {
		return nil, err
	}
	return &Release{
		Epsilon:  float64(r.Eps),
		Measure:  r.Measure,
		Clusters: clusters,
		NumItems: prefs.NumItems(),
		Avg:      est.Averages(),
	}, nil
}
