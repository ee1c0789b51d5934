// Benchmarks regenerating every table and figure of the paper's evaluation
// (§6). Each benchmark reports the reproduced quantity (NDCG, modularity,
// correlation) via b.ReportMetric alongside the usual timing, so
//
//	go test -bench=. -benchmem
//
// prints both the performance of the implementation and the scientific
// numbers recorded in EXPERIMENTS.md. Dataset construction and clustering
// are cached across benchmarks; the timed region of each figure benchmark
// is one complete private release + evaluation.
package socialrec_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"socialrec/internal/attack"
	"socialrec/internal/community"
	"socialrec/internal/core"
	"socialrec/internal/dataset"
	"socialrec/internal/dp"
	"socialrec/internal/experiment"
	"socialrec/internal/generator"
	"socialrec/internal/mechanism"
	"socialrec/internal/metrics"
	"socialrec/internal/similarity"
)

const benchSeed = 7

// fixture bundles a dataset with its best-of-10 Louvain clustering and
// per-measure runners over a fixed evaluation sample.
type fixture struct {
	ds       *dataset.Dataset
	clusters *community.Clustering
	q        float64
	runners  map[string]*experiment.Runner
}

var (
	fixOnce  sync.Once
	fixtures map[string]*fixture
)

func getFixture(b *testing.B, name string) *fixture {
	b.Helper()
	fixOnce.Do(func() {
		fixtures = make(map[string]*fixture)
		for _, p := range []generator.Preset{generator.LastFMLike(benchSeed), generator.FlixsterLike(benchSeed)} {
			ds, _, err := experiment.BuildDataset(p)
			if err != nil {
				panic(err)
			}
			clusters, q := experiment.ClusterSocial(ds, 10, benchSeed)
			f := &fixture{ds: ds, clusters: clusters, q: q, runners: make(map[string]*experiment.Runner)}
			fixtures[p.Name] = f
		}
	})
	f, ok := fixtures[name]
	if !ok {
		b.Fatalf("unknown fixture %q", name)
	}
	return f
}

func (f *fixture) runner(b *testing.B, m similarity.Measure) *experiment.Runner {
	b.Helper()
	if r, ok := f.runners[m.Name()]; ok {
		return r
	}
	eval := experiment.SampleUsers(f.ds.Social.NumUsers(), 200, benchSeed+1)
	r, err := experiment.NewRunner(f.ds, m, f.clusters, eval)
	if err != nil {
		b.Fatal(err)
	}
	f.runners[m.Name()] = r
	return r
}

func epsName(e dp.Epsilon) string {
	if e.IsInf() {
		return "inf"
	}
	return fmt.Sprintf("%g", float64(e))
}

// BenchmarkTable1DatasetStats regenerates Table 1: it times dataset
// synthesis + summary and reports the headline statistics as metrics.
func BenchmarkTable1DatasetStats(b *testing.B) {
	for _, preset := range []func(int64) generator.Preset{generator.LastFMLike, generator.FlixsterLike} {
		p := preset(benchSeed)
		b.Run(p.Name, func(b *testing.B) {
			var s dataset.Stats
			for i := 0; i < b.N; i++ {
				ds, _, err := experiment.BuildDataset(p)
				if err != nil {
					b.Fatal(err)
				}
				s = ds.Summarize()
			}
			b.ReportMetric(float64(s.Users), "users")
			b.ReportMetric(float64(s.SocialEdges), "social_edges")
			b.ReportMetric(s.AvgUserDegree, "avg_user_degree")
			b.ReportMetric(float64(s.PrefEdges), "pref_edges")
			b.ReportMetric(s.AvgItemDegree, "avg_item_degree")
			b.ReportMetric(s.PrefSparsity, "sparsity")
		})
	}
}

// benchmarkNDCGSweep is the engine behind the Fig. 1 and Fig. 2 benchmarks:
// one complete cluster-mechanism release + NDCG evaluation per iteration.
func benchmarkNDCGSweep(b *testing.B, fixtureName string) {
	eps := experiment.DefaultEps()
	ns := experiment.DefaultNs()
	for _, m := range similarity.All() {
		for _, e := range eps {
			b.Run(fmt.Sprintf("measure=%s/eps=%s", m.Name(), epsName(e)), func(b *testing.B) {
				f := getFixture(b, fixtureName)
				r := f.runner(b, m)
				var res *experiment.Result
				for i := 0; i < b.N; i++ {
					var err error
					res, err = r.EvaluateCluster(e, benchSeed+int64(i), ns)
					if err != nil {
						b.Fatal(err)
					}
				}
				for _, n := range ns {
					b.ReportMetric(res.Mean(n), fmt.Sprintf("ndcg@%d", n))
				}
			})
		}
	}
}

// BenchmarkFig1LastfmNDCG regenerates Fig. 1: NDCG@{10,50,100} of the
// cluster framework on the Last.fm-like dataset across the privacy sweep,
// for all four similarity measures.
func BenchmarkFig1LastfmNDCG(b *testing.B) {
	benchmarkNDCGSweep(b, "lastfm-like")
}

// BenchmarkFig2FlixsterNDCG regenerates Fig. 2 on the Flixster-like dataset.
func BenchmarkFig2FlixsterNDCG(b *testing.B) {
	benchmarkNDCGSweep(b, "flixster-like")
}

// BenchmarkFig3DegreeVsAccuracy regenerates Fig. 3: the per-user degree vs
// NDCG@50 relationship under approximation error alone (ε = ∞, CN measure),
// reporting the paper's high/low-degree split means and the rank
// correlation.
func BenchmarkFig3DegreeVsAccuracy(b *testing.B) {
	for _, name := range []string{"lastfm-like", "flixster-like"} {
		b.Run(name, func(b *testing.B) {
			f := getFixture(b, name)
			r := f.runner(b, similarity.CommonNeighbors{})
			var hi, lo, corr float64
			for i := 0; i < b.N; i++ {
				res, err := r.EvaluateCluster(dp.Inf, benchSeed, []int{50})
				if err != nil {
					b.Fatal(err)
				}
				da := experiment.DegreeAccuracy{Dataset: name}
				var hiSum, loSum float64
				var hiN, loN int
				for k, u := range r.EvalUsers {
					d := f.ds.Social.Degree(int(u))
					v := res.NDCG[50][k]
					da.Points = append(da.Points, experiment.DegreePoint{User: u, Degree: d, NDCG: v})
					if d > 10 {
						hiSum += v
						hiN++
					} else {
						loSum += v
						loN++
					}
				}
				hi, lo = hiSum/float64(hiN), loSum/float64(maxInt(loN, 1))
				corr = da.Correlation()
			}
			b.ReportMetric(hi, "ndcg_deg_gt10")
			b.ReportMetric(lo, "ndcg_deg_le10")
			b.ReportMetric(corr, "corr_logdeg_ndcg")
		})
	}
}

// BenchmarkFig4BaselineComparison regenerates Fig. 4: NDCG@50 of the
// baseline mechanisms (NOU, NOE, and the GS and LRM adaptations) against
// the paper's cluster framework, on the Last.fm-like dataset at
// ε ∈ {1.0, 0.1}.
func BenchmarkFig4BaselineComparison(b *testing.B) {
	type mech struct {
		name string
		eval func(r *experiment.Runner, e dp.Epsilon, seed int64) (*experiment.Result, error)
	}
	mechs := []mech{
		{"cluster", func(r *experiment.Runner, e dp.Epsilon, s int64) (*experiment.Result, error) {
			return r.EvaluateCluster(e, s, []int{50})
		}},
		{"noe", func(r *experiment.Runner, e dp.Epsilon, s int64) (*experiment.Result, error) {
			return r.EvaluateNOE(e, s, []int{50})
		}},
		{"gs", func(r *experiment.Runner, e dp.Epsilon, s int64) (*experiment.Result, error) {
			return r.EvaluateGS(e, s, []int{50})
		}},
		{"lrm", func(r *experiment.Runner, e dp.Epsilon, s int64) (*experiment.Result, error) {
			return r.EvaluateLRM(e, 200, s, []int{50})
		}},
		{"nou", func(r *experiment.Runner, e dp.Epsilon, s int64) (*experiment.Result, error) {
			return r.EvaluateNOU(e, s, []int{50})
		}},
	}
	for _, m := range mechs {
		for _, e := range []dp.Epsilon{1.0, 0.1} {
			b.Run(fmt.Sprintf("mech=%s/eps=%s", m.name, epsName(e)), func(b *testing.B) {
				f := getFixture(b, "lastfm-like")
				r := f.runner(b, similarity.CommonNeighbors{})
				var res *experiment.Result
				for i := 0; i < b.N; i++ {
					var err error
					res, err = m.eval(r, e, benchSeed+int64(i))
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(res.Mean(50), "ndcg@50")
			})
		}
	}
}

// BenchmarkClusterStats regenerates the §6.2 clustering numbers: cluster
// count, size distribution, largest-cluster share and modularity.
func BenchmarkClusterStats(b *testing.B) {
	for _, name := range []string{"lastfm-like", "flixster-like"} {
		b.Run(name, func(b *testing.B) {
			f := getFixture(b, name)
			var cl *community.Clustering
			var q float64
			for i := 0; i < b.N; i++ {
				cl, q = community.BestOf(f.ds.Social, 10, benchSeed+int64(i), community.Options{})
			}
			mean, std := cl.MeanSize()
			b.ReportMetric(float64(cl.NumClusters()), "clusters")
			b.ReportMetric(mean, "mean_size")
			b.ReportMetric(std, "std_size")
			b.ReportMetric(100*cl.LargestFraction(), "largest_pct")
			b.ReportMetric(q, "modularity")
		})
	}
}

// BenchmarkAblationClusteringStrategy isolates the paper's central design
// choice: community clustering vs a random partition of identical cluster
// count (the §5.1.2 strawman), at matched privacy cost.
func BenchmarkAblationClusteringStrategy(b *testing.B) {
	const eps = dp.Epsilon(0.1)
	f0 := generator.LastFMLike(benchSeed)
	ds, _, err := experiment.BuildDataset(f0)
	if err != nil {
		b.Fatal(err)
	}
	louvain, _ := experiment.ClusterSocial(ds, 10, benchSeed)
	random := community.Random(ds.Social.NumUsers(), louvain.NumClusters(), rand.New(rand.NewSource(benchSeed)))
	labelprop := community.LabelPropagation(ds.Social, benchSeed, 0)
	eval := experiment.SampleUsers(ds.Social.NumUsers(), 200, benchSeed+1)
	for _, c := range []struct {
		name     string
		clusters *community.Clustering
	}{{"louvain", louvain}, {"random", random}, {"labelprop", labelprop}} {
		b.Run(c.name, func(b *testing.B) {
			r, err := experiment.NewRunner(ds, similarity.CommonNeighbors{}, c.clusters, eval)
			if err != nil {
				b.Fatal(err)
			}
			var res *experiment.Result
			for i := 0; i < b.N; i++ {
				res, err = r.EvaluateCluster(eps, benchSeed+int64(i), []int{50})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Mean(50), "ndcg@50")
			b.ReportMetric(float64(c.clusters.NumClusters()), "clusters")
		})
	}
}

// BenchmarkAblationRefinement measures the contribution of the multi-level
// refinement step (§6.2 / [29]) to modularity and downstream accuracy.
func BenchmarkAblationRefinement(b *testing.B) {
	ds, _, err := experiment.BuildDataset(generator.LastFMLike(benchSeed))
	if err != nil {
		b.Fatal(err)
	}
	eval := experiment.SampleUsers(ds.Social.NumUsers(), 200, benchSeed+1)
	for _, cfg := range []struct {
		name    string
		disable bool
	}{{"refined", false}, {"unrefined", true}} {
		b.Run(cfg.name, func(b *testing.B) {
			var q float64
			var cl *community.Clustering
			for i := 0; i < b.N; i++ {
				cl, q = community.BestOf(ds.Social, 10, benchSeed, community.Options{DisableRefinement: cfg.disable})
			}
			r, err := experiment.NewRunner(ds, similarity.CommonNeighbors{}, cl, eval)
			if err != nil {
				b.Fatal(err)
			}
			res, err := r.EvaluateCluster(dp.Epsilon(0.1), benchSeed, []int{50})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(q, "modularity")
			b.ReportMetric(res.Mean(50), "ndcg@50")
		})
	}
}

// BenchmarkAblationMergeSmall measures the §7 post-processing heuristic:
// folding clusters below a size floor into their best-connected neighbor
// before the release.
func BenchmarkAblationMergeSmall(b *testing.B) {
	const eps = dp.Epsilon(0.1)
	ds, _, err := experiment.BuildDataset(generator.LastFMLike(benchSeed))
	if err != nil {
		b.Fatal(err)
	}
	louvain, _ := experiment.ClusterSocial(ds, 10, benchSeed)
	eval := experiment.SampleUsers(ds.Social.NumUsers(), 200, benchSeed+1)
	for _, minSize := range []int{1, 10, 30} {
		b.Run(fmt.Sprintf("minSize=%d", minSize), func(b *testing.B) {
			clusters, err := community.MergeSmall(ds.Social, louvain, minSize)
			if err != nil {
				b.Fatal(err)
			}
			r, err := experiment.NewRunner(ds, similarity.CommonNeighbors{}, clusters, eval)
			if err != nil {
				b.Fatal(err)
			}
			var res *experiment.Result
			for i := 0; i < b.N; i++ {
				res, err = r.EvaluateCluster(eps, benchSeed+int64(i), []int{50})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Mean(50), "ndcg@50")
			b.ReportMetric(float64(clusters.NumClusters()), "clusters")
		})
	}
}

// BenchmarkAblationKMeans measures the §5.1.2 alternative the paper
// rejects: k-means on the similarity matrix, at several guesses of k (k
// cannot be tuned privately), against Louvain's parameterless clustering.
func BenchmarkAblationKMeans(b *testing.B) {
	const eps = dp.Epsilon(0.1)
	ds, _, err := experiment.BuildDataset(generator.LastFMLike(benchSeed))
	if err != nil {
		b.Fatal(err)
	}
	eval := experiment.SampleUsers(ds.Social.NumUsers(), 200, benchSeed+1)
	for _, k := range []int{5, 25, 100} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var res *experiment.Result
			for i := 0; i < b.N; i++ {
				clusters := community.KMeansSimilarity(ds.Social, similarity.CommonNeighbors{}, k, benchSeed, 0)
				r, err := experiment.NewRunner(ds, similarity.CommonNeighbors{}, clusters, eval)
				if err != nil {
					b.Fatal(err)
				}
				res, err = r.EvaluateCluster(eps, benchSeed+int64(i), []int{50})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Mean(50), "ndcg@50")
		})
	}
}

// BenchmarkEmpiricalPrivacy measures the §2.3 Sybil attack end to end: the
// fraction of a victim's preference edges an attacker recovers from the
// observer's recommendations, non-privately and at two privacy budgets.
func BenchmarkEmpiricalPrivacy(b *testing.B) {
	f := getFixture(b, "lastfm-like")
	m := similarity.CommonNeighbors{}
	// Pick a victim with a reasonable number of secrets.
	victim := 0
	for u := 0; u < f.ds.Social.NumUsers(); u++ {
		if f.ds.Prefs.UserDegree(u) >= 20 && f.ds.Social.Degree(u) >= 5 {
			victim = u
			break
		}
	}
	top, err := attack.Plan(f.ds.Social, victim, attack.ChainLengthFor(m))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("exact", func(b *testing.B) {
		var hit float64
		for i := 0; i < b.N; i++ {
			hit, err = attack.RunExact(top, f.ds.Prefs, m)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(hit, "hit_rate")
	})
	for _, eps := range []dp.Epsilon{1.0, 0.1} {
		b.Run("eps="+epsName(eps), func(b *testing.B) {
			var hit float64
			for i := 0; i < b.N; i++ {
				hit, err = attack.RunPrivate(top, f.ds.Prefs, m, eps, 3, benchSeed+int64(i))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(hit, "hit_rate")
		})
	}
}

// BenchmarkExtensionWeighted measures the §7 weighted extension: with real
// star ratings, how much accuracy does the weighted release keep relative
// to the paper's §6.1 preprocessing (threshold then unweight), both scored
// against the weighted ground truth? The sweep exposes a crossover the
// paper's future-work section implies but never measures: weighted releases
// carry W_max× the sensitivity, so they win while noise is small (ε large)
// and lose to the thresholded unweighted release under strong privacy.
func BenchmarkExtensionWeighted(b *testing.B) {
	const n = 50
	ds, _, err := experiment.BuildDataset(generator.LastFMLike(benchSeed))
	if err != nil {
		b.Fatal(err)
	}
	rated, err := generator.AssignRatings(ds.Prefs, 5, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	clusters, _ := experiment.ClusterSocial(ds, 10, benchSeed)
	eval := experiment.SampleUsers(ds.Social.NumUsers(), 200, benchSeed+1)
	m := similarity.CommonNeighbors{}
	sims := similarity.ComputeAll(ds.Social, m, eval, 0)

	// Weighted ground truth for the evaluation users.
	truth := make([][]float64, len(eval))
	for i := range truth {
		truth[i] = make([]float64, rated.NumItems())
	}
	mechanism.NewWeightedExact(rated).Utilities(eval, sims, truth)

	score := func(est core.Estimator) float64 {
		out := make([][]float64, len(eval))
		for i := range out {
			out[i] = make([]float64, rated.NumItems())
		}
		est.Utilities(eval, sims, out)
		return metrics.MeanNDCGDense(out, truth, n)
	}

	thresholded := rated.Unweighted(2) // §6.1 preprocessing: rated >= 2 → weight 1
	for _, eps := range []dp.Epsilon{dp.Inf, 1.0, 0.1} {
		b.Run("weighted-release/eps="+epsName(eps), func(b *testing.B) {
			var v float64
			for i := 0; i < b.N; i++ {
				est, err := mechanism.NewWeightedCluster(context.Background(), clusters, rated, 5, eps, dp.SourceFor(eps, benchSeed+int64(i)))
				if err != nil {
					b.Fatal(err)
				}
				v = score(est)
			}
			b.ReportMetric(v, "ndcg@50_vs_weighted_truth")
		})
		b.Run("thresholded-unweighted/eps="+epsName(eps), func(b *testing.B) {
			var v float64
			for i := 0; i < b.N; i++ {
				est, err := mechanism.NewCluster(clusters, thresholded, eps, dp.SourceFor(eps, benchSeed+int64(i)))
				if err != nil {
					b.Fatal(err)
				}
				v = score(est)
			}
			b.ReportMetric(v, "ndcg@50_vs_weighted_truth")
		})
	}
}

// BenchmarkMetricComparison reproduces the §2.4 argument for NDCG over
// precision/recall: at moderate noise the private ranking keeps most of its
// NDCG (equal-utility substitutions are free) while set-overlap metrics
// drop much further.
func BenchmarkMetricComparison(b *testing.B) {
	f := getFixture(b, "lastfm-like")
	r := f.runner(b, similarity.CommonNeighbors{})
	for _, eps := range []dp.Epsilon{dp.Inf, 0.1} {
		b.Run("eps="+epsName(eps), func(b *testing.B) {
			var rep *experiment.MetricReport
			var err error
			for i := 0; i < b.N; i++ {
				rep, err = r.EvaluateClusterAllMetrics(eps, benchSeed+int64(i), 50)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rep.NDCG, "ndcg@50")
			b.ReportMetric(rep.Precision, "precision@50")
			b.ReportMetric(rep.Recall, "recall@50")
		})
	}
}

// BenchmarkAblationMeasureParams sweeps the similarity-measure parameters
// the paper fixes in §6.2 (GD cutoff d, Katz damping α and cutoff k),
// quantifying how sensitive the framework is to those choices.
func BenchmarkAblationMeasureParams(b *testing.B) {
	const eps = dp.Epsilon(0.1)
	f := getFixture(b, "lastfm-like")
	eval := experiment.SampleUsers(f.ds.Social.NumUsers(), 200, benchSeed+1)
	variants := []struct {
		name string
		m    similarity.Measure
	}{
		{"GD/d=2", similarity.GraphDistance{MaxDist: 2}},
		{"GD/d=3", similarity.GraphDistance{MaxDist: 3}},
		{"KZ/k=3,a=0.05", similarity.Katz{MaxLen: 3, Alpha: 0.05}},
		{"KZ/k=3,a=0.005", similarity.Katz{MaxLen: 3, Alpha: 0.005}},
		{"KZ/k=2,a=0.05", similarity.Katz{MaxLen: 2, Alpha: 0.05}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			r, err := experiment.NewRunner(f.ds, v.m, f.clusters, eval)
			if err != nil {
				b.Fatal(err)
			}
			var res *experiment.Result
			for i := 0; i < b.N; i++ {
				res, err = r.EvaluateCluster(eps, benchSeed+int64(i), []int{50})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Mean(50), "ndcg@50")
		})
	}
}

// BenchmarkAblationBestOfRuns measures the value of the paper's best-of-10
// Louvain protocol over a single run.
func BenchmarkAblationBestOfRuns(b *testing.B) {
	ds, _, err := experiment.BuildDataset(generator.LastFMLike(benchSeed))
	if err != nil {
		b.Fatal(err)
	}
	for _, runs := range []int{1, 10} {
		b.Run(fmt.Sprintf("runs=%d", runs), func(b *testing.B) {
			var q float64
			for i := 0; i < b.N; i++ {
				_, q = community.BestOf(ds.Social, runs, benchSeed+int64(i), community.Options{})
			}
			b.ReportMetric(q, "modularity")
		})
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
