package socialrec

import (
	"context"
	"fmt"

	"socialrec/internal/core"
	"socialrec/internal/dp"
	"socialrec/internal/graph"
	"socialrec/internal/mechanism"
	"socialrec/internal/similarity"
	"socialrec/internal/trace"
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
	if social.NumUsers() != prefs.NumUsers() {
		return nil, fmt.Errorf("socialrec: social graph has %d users but preference graph %d",
			social.NumUsers(), prefs.NumUsers())
	}
	if cfg.Measure == "" {
		cfg.Measure = "CN"
	}
	m, err := similarity.ByName(cfg.Measure)
	if err != nil {
		return nil, err
	}
	if cfg.Epsilon == 0 {
		return nil, fmt.Errorf("socialrec: Config.Epsilon must be set; use math.Inf(1) for a non-private engine")
	}
	eps := dp.Epsilon(cfg.Epsilon)
	if err := eps.Validate(); err != nil {
		return nil, err
	}
	ctx, sp := trace.Start(context.Background(), "engine_build")
	defer sp.End()
	clusters, err := cfg.cluster(ctx, social)
	if err != nil {
		return nil, err
	}
	est, err := mechanism.NewWeightedCluster(clusters, prefs, maxWeight, eps, dp.SourceFor(eps, cfg.Seed+1))
	if err != nil {
		return nil, err
	}
	return &Engine{
		social:   social,
		measure:  m,
		clusters: clusters,
		eps:      eps,
		numItems: prefs.NumItems(),
		rec:      core.NewRecommender(social, prefs.NumItems(), m, est),
	}, nil
}
