package socialrec

import (
	"context"
	"fmt"

	"socialrec/internal/community"
	"socialrec/internal/core"
	"socialrec/internal/dp"
	"socialrec/internal/graph"
	"socialrec/internal/mechanism"
)

// WeightedGraphBuilder accumulates a social graph plus a *weighted*
// preference graph (e.g. star ratings) — the §7 extension of the paper's
// unweighted model. Weights must be positive; the privacy noise of the
// resulting engine scales with the declared maximum weight, so normalize
// ratings into a small range (or rely on Engine-side normalization via
// NewWeightedEngine's maxWeight).
type WeightedGraphBuilder struct {
	social *graph.SocialBuilder
	prefs  *graph.WeightedPreferenceBuilder
	err    error
}

// NewWeightedGraphBuilder starts building graphs over numUsers users and
// numItems items.
func NewWeightedGraphBuilder(numUsers, numItems int) *WeightedGraphBuilder {
	return &WeightedGraphBuilder{
		social: graph.NewSocialBuilder(numUsers),
		prefs:  graph.NewWeightedPreferenceBuilder(numUsers, numItems),
	}
}

// AddFriendship records an undirected social edge. Errors are sticky.
func (b *WeightedGraphBuilder) AddFriendship(u, v int) *WeightedGraphBuilder {
	if b.err == nil {
		b.err = b.social.AddEdge(u, v)
	}
	return b
}

// AddRating records the weighted preference edge (u, i) with weight w
// (re-adding overwrites). Errors are sticky.
func (b *WeightedGraphBuilder) AddRating(u, i int, w float64) *WeightedGraphBuilder {
	if b.err == nil {
		b.err = b.prefs.AddEdge(u, i, w)
	}
	return b
}

// NewWeightedEngine clusters the social graph and performs the weighted
// private release: noisy per-(cluster, item) average weights with noise
// scale maxWeight/(|c|·ε). maxWeight must be a public a-priori bound on
// ratings (e.g. 5 for five-star scales) — never derived from the data.
func NewWeightedEngine(b *WeightedGraphBuilder, maxWeight float64, cfg Config) (*Engine, error) {
	if b.err != nil {
		return nil, fmt.Errorf("socialrec: building graphs: %w", b.err)
	}
	return NewWeightedEngineFromGraphs(b.social.Build(), b.prefs.Build(), maxWeight, cfg)
}

// NewWeightedEngineFromGraphs is NewWeightedEngine for pre-built graphs.
func NewWeightedEngineFromGraphs(social *graph.Social, prefs *graph.WeightedPreference, maxWeight float64, cfg Config) (*Engine, error) {
	return build(social, prefs, cfg, func(ctx context.Context, clusters *community.Clustering, eps dp.Epsilon, noise dp.NoiseSource) (core.Estimator, error) {
		return mechanism.NewWeightedCluster(ctx, clusters, prefs, maxWeight, eps, noise)
	})
}
