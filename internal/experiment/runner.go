// Package experiment provides the evaluation harness behind the paper's
// experimental section (§6): it wires datasets, similarity measures,
// clusterings and private mechanisms together, evaluates NDCG@N over a set
// of evaluation users, and regenerates every table and figure of the paper
// (see figures.go).
package experiment

import (
	"fmt"
	"math"
	"sort"

	"socialrec/internal/community"
	"socialrec/internal/core"
	"socialrec/internal/dataset"
	"socialrec/internal/dp"
	"socialrec/internal/mechanism"
	"socialrec/internal/metrics"
	"socialrec/internal/release"
	"socialrec/internal/similarity"
)

// Runner evaluates private mechanisms against the exact recommender on a
// fixed dataset, similarity measure, clustering and evaluation-user sample.
// Construction precomputes the evaluation users' similarity vectors and
// exact utilities once; each Evaluate* call then costs only the mechanism
// under test.
type Runner struct {
	DS       *dataset.Dataset
	Measure  similarity.Measure
	Clusters *community.Clustering

	EvalUsers []int32
	evalSims  []similarity.Scores
	truth     [][]float64

	// Lazily computed, shared across evaluations.
	allSims      []similarity.Scores
	maxInfluence float64
	haveMaxInf   bool
}

// NewRunner precomputes the evaluation state. evalUsers must be distinct,
// valid user ids; clusters may be nil if only mechanisms that do not need a
// clustering will be evaluated.
func NewRunner(ds *dataset.Dataset, m similarity.Measure, clusters *community.Clustering, evalUsers []int32) (*Runner, error) {
	return NewRunnerWithSims(ds, m, clusters, evalUsers, nil)
}

// NewRunnerWithSims is NewRunner with the evaluation users' similarity
// vectors already computed (e.g. resumed from a pipeline checkpoint);
// evalSims must be parallel to evalUsers. A nil evalSims computes them
// here, exactly as NewRunner does.
func NewRunnerWithSims(ds *dataset.Dataset, m similarity.Measure, clusters *community.Clustering, evalUsers []int32, evalSims []similarity.Scores) (*Runner, error) {
	seen := make(map[int32]struct{}, len(evalUsers))
	for _, u := range evalUsers {
		if u < 0 || int(u) >= ds.Social.NumUsers() {
			return nil, fmt.Errorf("experiment: eval user %d out of range [0, %d)", u, ds.Social.NumUsers())
		}
		if _, dup := seen[u]; dup {
			return nil, fmt.Errorf("experiment: duplicate eval user %d", u)
		}
		seen[u] = struct{}{}
	}
	if evalSims != nil && len(evalSims) != len(evalUsers) {
		return nil, fmt.Errorf("experiment: %d similarity vectors for %d eval users", len(evalSims), len(evalUsers))
	}
	r := &Runner{
		DS:        ds,
		Measure:   m,
		Clusters:  clusters,
		EvalUsers: append([]int32(nil), evalUsers...),
	}
	if evalSims != nil {
		r.evalSims = evalSims
	} else {
		r.evalSims = similarity.ComputeAll(ds.Social, m, r.EvalUsers, 0)
	}
	r.truth = make([][]float64, len(r.EvalUsers))
	for k := range r.truth {
		r.truth[k] = make([]float64, ds.Prefs.NumItems())
	}
	mechanism.NewExact(ds.Prefs).Utilities(r.EvalUsers, r.evalSims, r.truth)
	return r, nil
}

// AllSims returns (computing on first use) the similarity vectors of every
// user in the graph, needed by the GS comparator and the NOU sensitivity.
func (r *Runner) AllSims() []similarity.Scores {
	if r.allSims == nil {
		users := make([]int32, r.DS.Social.NumUsers())
		for i := range users {
			users[i] = int32(i)
		}
		r.allSims = similarity.ComputeAll(r.DS.Social, r.Measure, users, 0)
	}
	return r.allSims
}

// MaxInfluence returns (computing on first use) Δ_A = max_v Σ_u sim(u, v).
func (r *Runner) MaxInfluence() float64 {
	if !r.haveMaxInf {
		var max float64
		for _, s := range r.AllSims() {
			if t := s.Sum(); t > max {
				max = t
			}
		}
		r.maxInfluence = max
		r.haveMaxInf = true
	}
	return r.maxInfluence
}

// Result holds the per-evaluation-user NDCG@N scores of one mechanism run.
type Result struct {
	Mechanism string
	Eps       dp.Epsilon
	// NDCG maps each requested N to per-user scores parallel to the
	// runner's EvalUsers.
	NDCG map[int][]float64
}

// Mean returns the average NDCG@n over evaluation users.
func (res *Result) Mean(n int) float64 { return metrics.Mean(res.NDCG[n]) }

// Std returns the standard deviation of NDCG@n over evaluation users.
func (res *Result) Std(n int) float64 { return metrics.Std(res.NDCG[n]) }

// score runs the estimator over the evaluation users in bounded-memory
// chunks and scores NDCG at every requested N.
func (r *Runner) score(est core.Estimator, eps dp.Epsilon, ns []int) *Result {
	res := &Result{Mechanism: est.Name(), Eps: eps, NDCG: make(map[int][]float64, len(ns))}
	for _, n := range ns {
		res.NDCG[n] = make([]float64, len(r.EvalUsers))
	}
	maxN := 0
	for _, n := range ns {
		if n > maxN {
			maxN = n
		}
	}
	const chunk = 128
	ni := r.DS.Prefs.NumItems()
	rows := make([][]float64, chunk)
	for i := range rows {
		rows[i] = make([]float64, ni)
	}
	for start := 0; start < len(r.EvalUsers); start += chunk {
		end := start + chunk
		if end > len(r.EvalUsers) {
			end = len(r.EvalUsers)
		}
		batch := r.EvalUsers[start:end]
		buf := rows[:len(batch)]
		for i := range buf {
			clear(buf[i])
		}
		est.Utilities(batch, r.evalSims[start:end], buf)
		for i := range batch {
			list := core.TopN(buf[i], maxN, negInf())
			for _, n := range ns {
				l := list
				if len(l) > n {
					l = l[:n]
				}
				res.NDCG[n][start+i] = metrics.NDCGAtN(l, r.truth[start+i], n)
			}
		}
	}
	return res
}

func negInf() float64 { return math.Inf(-1) }

// EvaluateCluster runs the paper's cluster mechanism (Algorithm 1) at the
// given budget and scores NDCG at every n in ns. seed drives the Laplace
// noise only; the clustering is fixed in the runner.
func (r *Runner) EvaluateCluster(eps dp.Epsilon, seed int64, ns []int) (*Result, error) {
	if r.Clusters == nil {
		return nil, fmt.Errorf("experiment: runner has no clustering")
	}
	est, err := mechanism.NewCluster(r.Clusters, r.DS.Prefs, eps, dp.SourceFor(eps, seed))
	if err != nil {
		return nil, err
	}
	return r.score(est, eps, ns), nil
}

// EvaluateRelease scores an already-drawn release's own averages over the
// runner's evaluation users: no noise is drawn and no ε is spent.
func (r *Runner) EvaluateRelease(rel *release.Release, ns []int) (*Result, error) {
	est, err := mechanism.NewClusterFromRelease(rel.Clusters, rel.NumItems, rel.Avg)
	if err != nil {
		return nil, err
	}
	return r.score(est, dp.Epsilon(rel.Epsilon), ns), nil
}

// EvaluateExact scores the non-private recommender (trivially 1.0 at every
// N; useful as a harness self-check).
func (r *Runner) EvaluateExact(ns []int) *Result {
	return r.score(mechanism.NewExact(r.DS.Prefs), dp.Inf, ns)
}

// MetricReport holds the §2.4 metric comparison for one mechanism run.
type MetricReport struct {
	NDCG      float64
	Precision float64
	Recall    float64
}

// EvaluateClusterAllMetrics runs the cluster mechanism once and scores it
// with NDCG@n *and* precision/recall@n, reproducing the paper's §2.4
// argument that set-overlap metrics over-penalize private rankings: a
// private list that swaps equal-utility items or trades a tail item for an
// equally useful substitute loses precision but not NDCG.
func (r *Runner) EvaluateClusterAllMetrics(eps dp.Epsilon, seed int64, n int) (*MetricReport, error) {
	if r.Clusters == nil {
		return nil, fmt.Errorf("experiment: runner has no clustering")
	}
	est, err := mechanism.NewCluster(r.Clusters, r.DS.Prefs, eps, dp.SourceFor(eps, seed))
	if err != nil {
		return nil, err
	}
	rep := &MetricReport{}
	const chunk = 128
	ni := r.DS.Prefs.NumItems()
	rows := make([][]float64, chunk)
	for i := range rows {
		rows[i] = make([]float64, ni)
	}
	for start := 0; start < len(r.EvalUsers); start += chunk {
		end := start + chunk
		if end > len(r.EvalUsers) {
			end = len(r.EvalUsers)
		}
		batch := r.EvalUsers[start:end]
		buf := rows[:len(batch)]
		for i := range buf {
			clear(buf[i])
		}
		est.Utilities(batch, r.evalSims[start:end], buf)
		for i := range batch {
			list := core.TopN(buf[i], n, negInf())
			rep.NDCG += metrics.NDCGAtN(list, r.truth[start+i], n)
			p, rc := metrics.PrecisionRecallAtN(list, r.truth[start+i], n)
			rep.Precision += p
			rep.Recall += rc
		}
	}
	cnt := float64(len(r.EvalUsers))
	rep.NDCG /= cnt
	rep.Precision /= cnt
	rep.Recall /= cnt
	return rep, nil
}

// EvaluateNOU runs the Noise-on-Utility strawman.
func (r *Runner) EvaluateNOU(eps dp.Epsilon, seed int64, ns []int) (*Result, error) {
	est, err := mechanism.NewNOU(r.DS.Prefs, r.MaxInfluence(), eps, dp.SourceFor(eps, seed))
	if err != nil {
		return nil, err
	}
	return r.score(est, eps, ns), nil
}

// EvaluateNOE runs the Noise-on-Edges strawman.
func (r *Runner) EvaluateNOE(eps dp.Epsilon, seed int64, ns []int) (*Result, error) {
	est, err := mechanism.NewNOE(r.DS.Prefs, eps, seed)
	if err != nil {
		return nil, err
	}
	return r.score(est, eps, ns), nil
}

// EvaluateGS runs the Group-and-Smooth comparator.
func (r *Runner) EvaluateGS(eps dp.Epsilon, seed int64, ns []int) (*Result, error) {
	est, err := mechanism.NewGS(r.DS.Prefs, r.EvalUsers, r.evalSims, r.AllSims(), mechanism.GSConfig{
		Eps:          eps,
		MaxInfluence: r.MaxInfluence(),
		Seed:         seed,
	})
	if err != nil {
		return nil, err
	}
	return r.score(est, eps, ns), nil
}

// EvaluateLRM runs the Low-Rank Mechanism comparator with the given rank
// (0 selects the default).
func (r *Runner) EvaluateLRM(eps dp.Epsilon, rank int, seed int64, ns []int) (*Result, error) {
	est, err := mechanism.NewLRM(r.DS.Social, r.DS.Prefs, r.Measure, mechanism.LRMConfig{
		Eps:  eps,
		Rank: rank,
		Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	return r.score(est, eps, ns), nil
}

// SampleUsers draws a uniform sample (without replacement) of size n from
// the user population, sorted ascending, mirroring the paper's 10,000-user
// Flixster evaluation sample. If n >= the population, all users are
// returned. The sample is a deterministic function of seed via the
// dp.NewRand stream (identical to the historical rand.NewSource stream, so
// existing seeds reproduce existing samples); no package-global randomness
// is consumed.
func SampleUsers(numUsers, n int, seed int64) []int32 {
	if n >= numUsers {
		all := make([]int32, numUsers)
		for i := range all {
			all[i] = int32(i)
		}
		return all
	}
	perm := dp.NewRand(seed).Perm(numUsers)[:n]
	out := make([]int32, n)
	for i, u := range perm {
		out[i] = int32(u)
	}
	sortInt32(out)
	return out
}

func sortInt32(s []int32) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}

// ClusterSocial reproduces the paper's clustering protocol (§6.2): Louvain
// with multi-level refinement, best modularity of `runs` runs (the paper
// uses 10).
func ClusterSocial(ds *dataset.Dataset, runs int, seed int64) (*community.Clustering, float64) {
	return community.BestOf(ds.Social, runs, seed, community.Options{})
}
