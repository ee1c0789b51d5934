// Package socialrec is a privacy-preserving framework for personalized,
// social recommendations, reproducing Jorgensen & Yu, "A Privacy-Preserving
// Framework for Personalized, Social Recommendations" (EDBT 2014).
//
// The framework turns a non-private, structural-similarity-based social
// recommender into an ε-differentially-private one. The social graph is
// treated as public; the user→item preference edges are the protected
// secret. Privacy is achieved by (1) clustering users by the community
// structure of the social graph (Louvain, best of several runs), (2)
// releasing one Laplace-noised average preference weight per
// (cluster, item) pair with noise scale 1/(|cluster|·ε), and (3)
// reconstructing every user's per-item utilities from those sanitized
// averages. Because each preference edge touches exactly one released
// average, the whole release is ε-DP by parallel composition, and because
// community members tend to share similarity sets, the cluster averages are
// accurate proxies for the exact utility queries.
//
// # Quick start
//
//	b := socialrec.NewGraphBuilder(numUsers, numItems)
//	b.AddFriendship(0, 1)
//	b.AddPreference(1, 42)
//	engine, err := socialrec.NewEngine(b, socialrec.Config{Epsilon: 0.5})
//	recs, err := engine.Recommend(0, 10)
//
// The engine defaults to the Common Neighbors similarity measure; Graph
// Distance, Adamic/Adar and Katz (the paper's other measures) are selected
// through Config.Measure.
package socialrec

import (
	"context"
	"fmt"
	"io"
	"math"

	"socialrec/internal/community"
	"socialrec/internal/core"
	"socialrec/internal/dp"
	"socialrec/internal/graph"
	"socialrec/internal/mechanism"
	"socialrec/internal/release"
	"socialrec/internal/simcache"
	"socialrec/internal/similarity"
	"socialrec/internal/trace"
)

// Recommendation pairs an item id with its estimated utility for the target
// user, as produced by the private recommender.
type Recommendation = core.Recommendation

// Config configures an Engine.
type Config struct {
	// Measure selects the social-similarity measure: "CN" (Common
	// Neighbors, the default), "GD" (Graph Distance), "AA" (Adamic/Adar)
	// or "KZ" (Katz).
	Measure string
	// Epsilon is the differential-privacy budget protecting preference
	// edges. Must be positive. Use math.Inf(1) to disable noise (no
	// privacy; useful to inspect approximation error alone). Typical
	// values are 0.01–1.0.
	Epsilon float64
	// LouvainRuns is the number of Louvain restarts; the best-modularity
	// clustering is kept. 0 selects the paper's 10. The restarts run on up
	// to GOMAXPROCS goroutines, and the kept clustering is identical to the
	// one a sequential best-of-N returns.
	LouvainRuns int
	// Clusterer selects the community-detection algorithm: "louvain"
	// (the paper's choice; default), "labelprop" or "cnm". All read only
	// the public social graph, so the privacy guarantee is identical;
	// accuracy differs (see BenchmarkAblationClusteringStrategy).
	Clusterer string
	// MinClusterSize, when > 1, folds clusters below this size into their
	// best-connected neighbor before the release (the §7 pruning
	// heuristic) — tiny clusters get the largest noise for the least
	// approximation benefit.
	MinClusterSize int
	// Seed makes clustering and noise reproducible: clustering runs at
	// Seed and the Laplace noise draws from Seed+1, release.Recipe's rule
	// for a first release. Two engines built with the same inputs and seed
	// release identical recommendations.
	Seed int64
}

// GraphBuilder accumulates the two input graphs.
type GraphBuilder struct {
	social *graph.SocialBuilder
	prefs  *graph.PreferenceBuilder
	users  int
	items  int
	err    error
}

// NewGraphBuilder starts building graphs over numUsers users (ids
// 0..numUsers-1) and numItems items (ids 0..numItems-1).
func NewGraphBuilder(numUsers, numItems int) *GraphBuilder {
	return &GraphBuilder{
		social: graph.NewSocialBuilder(numUsers),
		prefs:  graph.NewPreferenceBuilder(numUsers, numItems),
		users:  numUsers,
		items:  numItems,
	}
}

// AddFriendship records an undirected social edge between users u and v.
// Errors are sticky and reported by NewEngine.
func (b *GraphBuilder) AddFriendship(u, v int) *GraphBuilder {
	if b.err == nil {
		b.err = b.social.AddEdge(u, v)
	}
	return b
}

// AddPreference records that user u positively prefers item i (a purchase,
// a listen, a like, ...). Errors are sticky and reported by NewEngine.
func (b *GraphBuilder) AddPreference(u, i int) *GraphBuilder {
	if b.err == nil {
		b.err = b.prefs.AddEdge(u, i)
	}
	return b
}

// Engine is a differentially private social recommender: one immutable
// release of sanitized cluster averages, from which any number of
// recommendation lists may be served without further privacy cost.
type Engine struct {
	social   *graph.Social
	measure  similarity.Measure
	clusters *community.Clustering
	rec      *core.Recommender
	eps      dp.Epsilon
	numItems int
	// cluster is the sanitized release backing the engine; nil for exact
	// engines (which have nothing safe to persist).
	cluster *mechanism.Cluster
	// cacheStats reads the similarity cache's counters, nil until
	// EnableSimilarityCache.
	cacheStats func() simcache.Stats
}

// NewEngine clusters the social graph, performs the private release of
// Algorithm 1 at the configured ε, and returns an engine ready to serve
// recommendations. Wrapped graphs are built from the builder; NewEngine
// reports any accumulated builder error.
func NewEngine(b *GraphBuilder, cfg Config) (*Engine, error) {
	if b.err != nil {
		return nil, fmt.Errorf("socialrec: building graphs: %w", b.err)
	}
	return NewEngineFromGraphs(b.social.Build(), b.prefs.Build(), cfg)
}

// NewEngineFromGraphs is the advanced constructor for callers that built
// graphs directly with the internal packages (e.g. the dataset loaders).
func NewEngineFromGraphs(social *graph.Social, prefs *graph.Preference, cfg Config) (*Engine, error) {
	return build(social, prefs, cfg, func(ctx context.Context, clusters *community.Clustering, eps dp.Epsilon, noise dp.NoiseSource) (core.Estimator, error) {
		return mechanism.NewClusterCtx(ctx, clusters, prefs, eps, noise)
	})
}

// NewExactEngine returns the NON-PRIVATE reference recommender A of
// Definition 4: exact utility queries with no clustering and no noise. It
// exists for evaluation and for demonstrating what an attacker learns from
// an unprotected system (see examples/sybilattack); do not serve real user
// data with it. measure is as in Config.Measure ("" selects CN).
func NewExactEngine(b *GraphBuilder, measure string) (*Engine, error) {
	if b.err != nil {
		return nil, fmt.Errorf("socialrec: building graphs: %w", b.err)
	}
	return NewExactEngineFromGraphs(b.social.Build(), b.prefs.Build(), measure)
}

// NewExactEngineFromGraphs is NewExactEngine for pre-built graphs.
func NewExactEngineFromGraphs(social *graph.Social, prefs *graph.Preference, measure string) (*Engine, error) {
	m, err := checkGraphs(social, prefs, measure)
	if err != nil {
		return nil, err
	}
	return &Engine{
		social:   social,
		measure:  m,
		eps:      dp.Inf,
		numItems: prefs.NumItems(),
		rec:      core.NewRecommender(social, prefs.NumItems(), m, mechanism.NewExact(prefs)),
	}, nil
}

// preferences is what the constructors read of a preference graph,
// weighted or not.
type preferences interface {
	NumUsers() int
	NumItems() int
}

// checkGraphs rejects graphs over different user populations and resolves
// the similarity measure ("" selects CN).
func checkGraphs(social *graph.Social, prefs preferences, measure string) (similarity.Measure, error) {
	if social.NumUsers() != prefs.NumUsers() {
		return nil, fmt.Errorf("socialrec: social graph has %d users but preference graph %d",
			social.NumUsers(), prefs.NumUsers())
	}
	if measure == "" {
		measure = "CN"
	}
	return similarity.ByName(measure)
}

// build is the one private-engine constructor behind NewEngineFromGraphs
// and NewWeightedEngineFromGraphs: it checks the graphs and cfg, then,
// under one engine_build root, clusters the public social graph through
// cfg's release.Recipe and runs publish, the private release over the
// clustering, on the recipe's noise. Only an unweighted release (a
// *mechanism.Cluster) is kept for persisting.
func build(social *graph.Social, prefs preferences, cfg Config,
	publish func(context.Context, *community.Clustering, dp.Epsilon, dp.NoiseSource) (core.Estimator, error)) (*Engine, error) {
	m, err := checkGraphs(social, prefs, cfg.Measure)
	if err != nil {
		return nil, err
	}
	eps := dp.Epsilon(cfg.Epsilon)
	if cfg.Epsilon == 0 {
		return nil, fmt.Errorf("socialrec: Config.Epsilon must be set; use math.Inf(1) for a non-private engine")
	}
	if err := eps.Validate(); err != nil {
		return nil, err
	}
	recipe := release.Recipe{Measure: m.Name(), Eps: eps, LouvainRuns: cfg.LouvainRuns,
		Clusterer: cfg.Clusterer, MinClusterSize: cfg.MinClusterSize, Seed: cfg.Seed}
	ctx, sp := trace.Start(context.Background(), "engine_build")
	defer sp.End()
	clusters, err := recipe.Cluster(ctx, social)
	if err != nil {
		return nil, err
	}
	est, err := publish(ctx, clusters, eps, recipe.Noise())
	if err != nil {
		return nil, err
	}
	e := &Engine{
		social:   social,
		measure:  m,
		clusters: clusters,
		eps:      eps,
		numItems: prefs.NumItems(),
		rec:      core.NewRecommender(social, prefs.NumItems(), m, est),
	}
	e.cluster, _ = est.(*mechanism.Cluster)
	return e, nil
}

// SaveRelease persists the engine's sanitized release (clustering + noisy
// averages + metadata) to w in the internal/release binary format. Under
// differential privacy this is safe post-processing: the file can be
// shipped to other processes and served forever without further budget.
// Exact (non-private) engines refuse — their state IS the raw data.
func (e *Engine) SaveRelease(w io.Writer) error {
	rel, err := e.Release()
	if err != nil {
		return err
	}
	return release.Write(w, rel)
}

// Release returns the engine's sanitized release as a value, for callers
// that persist through release.Store rather than a plain io.Writer. The
// same post-processing safety as SaveRelease applies; exact (non-private)
// engines refuse. The release's Avg is the engine's own averages table,
// not a copy: treat it as read-only. Snap replaces it with a snapped copy
// and leaves the engine's table as it was.
func (e *Engine) Release() (*release.Release, error) {
	if e.cluster == nil {
		return nil, fmt.Errorf("socialrec: engine has no sanitized release to save (exact or weighted engines are not persistable)")
	}
	return &release.Release{
		Epsilon:  float64(e.eps),
		Measure:  e.measure.Name(),
		Clusters: e.clusters,
		NumItems: e.numItems,
		Avg:      e.cluster.Averages(),
	}, nil
}

// LoadEngine reconstructs a serving engine from a persisted release and the
// (public) social graph it was built over. The social graph must have the
// same user population; the release's similarity measure is restored.
func LoadEngine(r io.Reader, social *graph.Social) (*Engine, error) {
	rel, err := release.ReadContext(context.Background(), r)
	if err != nil {
		return nil, err
	}
	return EngineFromRelease(rel, social)
}

// EngineFromRelease reconstructs a serving engine from an already-decoded
// release, as produced by release.Store recovery. See LoadEngine.
func EngineFromRelease(rel *release.Release, social *graph.Social) (*Engine, error) {
	if rel.Clusters.NumUsers() != social.NumUsers() {
		return nil, fmt.Errorf("socialrec: release covers %d users but social graph has %d",
			rel.Clusters.NumUsers(), social.NumUsers())
	}
	m, err := similarity.ByName(rel.Measure)
	if err != nil {
		return nil, err
	}
	est, err := mechanism.NewClusterFromRelease(rel.Clusters, rel.NumItems, rel.Avg)
	if err != nil {
		return nil, err
	}
	return &Engine{
		social:   social,
		measure:  m,
		clusters: rel.Clusters,
		eps:      dp.Epsilon(rel.Epsilon),
		numItems: rel.NumItems,
		cluster:  est,
		rec:      core.NewRecommender(social, rel.NumItems, m, est),
	}, nil
}

// Recommend returns the top-n recommendation list for one user, ranked by
// estimated utility. Items the user already prefers are not filtered out —
// deliberately: under the paper's threat model every recommendation list is
// adversary-visible, and suppressing exactly the items a user already owns
// would leak those (private!) preference edges through their absence.
// Callers serving lists only to the user themself may filter client-side
// with the user's own data, which is outside the privacy boundary.
func (e *Engine) Recommend(user, n int) ([]Recommendation, error) {
	return e.RecommendContext(context.Background(), user, n)
}

// RecommendContext is Recommend on a caller-supplied context. A context
// carrying an active trace span (a served HTTP request) gets child spans
// for the similarity/reconstruction/top-n phases; see internal/trace.
func (e *Engine) RecommendContext(ctx context.Context, user, n int) ([]Recommendation, error) {
	if err := e.checkUser(user); err != nil {
		return nil, err
	}
	lists, err := e.rec.RecommendContext(ctx, []int32{int32(user)}, n)
	if err != nil {
		return nil, err
	}
	return lists[0], nil
}

// RecommendBatch returns top-n lists for many users, computed with shared
// batching. The result is parallel to users.
func (e *Engine) RecommendBatch(users []int, n int) ([][]Recommendation, error) {
	return e.RecommendBatchContext(context.Background(), users, n)
}

// RecommendBatchContext is RecommendBatch on a caller-supplied context.
func (e *Engine) RecommendBatchContext(ctx context.Context, users []int, n int) ([][]Recommendation, error) {
	us := make([]int32, len(users))
	for i, u := range users {
		if err := e.checkUser(u); err != nil {
			return nil, err
		}
		us[i] = int32(u)
	}
	return e.rec.RecommendContext(ctx, us, n)
}

// checkUser rejects a user id outside the engine's population. It runs on
// the int, before the id is narrowed to int32: narrowing first would wrap
// 1<<32+u onto user u.
func (e *Engine) checkUser(user int) error {
	if user < 0 || user >= e.social.NumUsers() {
		return fmt.Errorf("socialrec: user %d out of range [0, %d)", user, e.social.NumUsers())
	}
	return nil
}

// Epsilon reports the privacy budget the engine's release consumed.
func (e *Engine) Epsilon() float64 { return float64(e.eps) }

// NumUsers reports the user population the engine serves.
func (e *Engine) NumUsers() int { return e.social.NumUsers() }

// NumItems reports the item catalog size.
func (e *Engine) NumItems() int { return e.numItems }

// NumClusters reports how many communities the clustering phase found, or 0
// for an exact (non-clustered) engine.
func (e *Engine) NumClusters() int {
	if e.clusters == nil {
		return 0
	}
	return e.clusters.NumClusters()
}

// ClusterOf reports which cluster a user belongs to (cluster ids are dense
// in [0, NumClusters)), or -1 for an exact (non-clustered) engine or a user
// outside the population. Cluster membership is derived from the public
// social graph only and is safe to expose.
func (e *Engine) ClusterOf(user int) int {
	if e.clusters == nil || user < 0 || user >= e.social.NumUsers() {
		return -1
	}
	return e.clusters.Cluster(user)
}

// Modularity reports the modularity of the clustering on the social graph,
// or 0 for an exact (non-clustered) engine.
func (e *Engine) Modularity() float64 {
	if e.clusters == nil {
		return 0
	}
	return community.Modularity(e.social, e.clusters)
}

// NoPrivacy is a convenience Epsilon value for non-private engines.
var NoPrivacy = math.Inf(1)

// EnableSimilarityCache installs a bounded LRU cache of per-user similarity
// holding capacity users (capacity < 1 selects 4096). A private engine
// caches each user's per-cluster similarity mass — at most one entry per
// cluster, all its release reads of the vector — and an exact engine the
// whole vector. Similarity computation dominates per-request serving cost
// and is derived from public data only, so caching changes performance,
// not privacy, and cached lists equal uncached ones bit for bit. Call
// before serving; not safe to call concurrently with Recommend.
func (e *Engine) EnableSimilarityCache(capacity int) {
	e.cacheStats = e.rec.CacheSimilarity(capacity)
}

// CacheStats is a point-in-time summary of the similarity cache. It
// describes cache behaviour over public similarity data only.
type CacheStats = simcache.Stats

// CacheStats reports the similarity cache's counters; ok is false when no
// cache is installed.
func (e *Engine) CacheStats() (stats CacheStats, ok bool) {
	if e.cacheStats == nil {
		return CacheStats{}, false
	}
	return e.cacheStats(), true
}
