package experiment

import (
	"fmt"
	"math"
	"strings"

	"socialrec/internal/core"
	"socialrec/internal/dp"
	"socialrec/internal/generator"
	"socialrec/internal/metrics"
	"socialrec/internal/similarity"
)

// ErrorDecomposition quantifies the two error sources of the framework's
// Eq. 5 for every evaluation user:
//
//	Err[μ̂_u^i] = AE_u^i + Σ_c (√2/(ε·|c|)) · Σ_{v ∈ sim(u) ∩ c} sim(u,v)
//
// Approximation error (AE) is measured empirically as the NDCG achieved at
// ε = ∞ (averaging is the only distortion); perturbation error is both
// predicted analytically from the equation's right-hand side and observed
// as the additional NDCG drop when noise is enabled. The decomposition
// makes the paper's §5.1.2 claim testable: community clustering buys a
// large reduction in predicted perturbation error at a small approximation
// cost.
type ErrorDecomposition struct {
	Dataset string
	Eps     dp.Epsilon
	N       int

	// Per-evaluation-user values, parallel to the runner's EvalUsers.
	ApproxNDCG []float64 // NDCG@N at ε = ∞
	NoisyNDCG  []float64 // NDCG@N at the configured ε
	// PredictedPE is the Eq. 5 expected perturbation error of one utility
	// estimate for this user (the Σ_c √2/(ε|c|)·S_c term).
	PredictedPE []float64
	// TopSignal is the mean true utility of the user's ideal top-N items
	// — the magnitude the perturbation error competes against.
	TopSignal []float64
}

// Decompose measures the decomposition of preset p's Common Neighbors
// recommendations at each budget, over the clustering and evaluation sample
// the figures use (o's zero values select the figures' defaults).
func Decompose(p generator.Preset, eps []dp.Epsilon, n int, o Opts) ([]*ErrorDecomposition, error) {
	ds, _, err := BuildDataset(p)
	if err != nil {
		return nil, err
	}
	clusters, _ := ClusterSocial(ds, o.louvainRuns(), o.Seed+100)
	eval := SampleUsers(ds.Social.NumUsers(), o.evalSample(), o.Seed+200)
	r, err := NewRunner(ds, similarity.CommonNeighbors{}, clusters, eval)
	if err != nil {
		return nil, err
	}
	out := make([]*ErrorDecomposition, len(eps))
	for i, e := range eps {
		if out[i], err = r.DecomposeError(e, o.Seed, n); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// DecomposeError measures the decomposition at the given budget.
func (r *Runner) DecomposeError(eps dp.Epsilon, seed int64, n int) (*ErrorDecomposition, error) {
	if r.Clusters == nil {
		return nil, fmt.Errorf("experiment: runner has no clustering")
	}
	approx, err := r.EvaluateCluster(dp.Inf, seed, []int{n})
	if err != nil {
		return nil, err
	}
	noisy, err := r.EvaluateCluster(eps, seed, []int{n})
	if err != nil {
		return nil, err
	}
	d := &ErrorDecomposition{
		Dataset:     r.DS.Name,
		Eps:         eps,
		N:           n,
		ApproxNDCG:  approx.NDCG[n],
		NoisyNDCG:   noisy.NDCG[n],
		PredictedPE: make([]float64, len(r.EvalUsers)),
		TopSignal:   make([]float64, len(r.EvalUsers)),
	}
	epsF := float64(eps)
	// mass[c] accumulates S_c(u); touched lists the clusters in first-touch
	// order, so every call sums the same terms in the same order.
	mass := make([]float64, r.Clusters.NumClusters())
	var touched []int
	for k := range r.EvalUsers {
		s := r.evalSims[k]
		touched = touched[:0]
		for j, v := range s.Users {
			c := r.Clusters.Cluster(int(v))
			if mass[c] == 0 {
				touched = append(touched, c)
			}
			mass[c] += s.Vals[j]
		}
		var pe float64
		for _, c := range touched {
			if !eps.IsInf() {
				pe += math.Sqrt2 / (epsF * float64(r.Clusters.Size(c))) * mass[c]
			}
			mass[c] = 0
		}
		d.PredictedPE[k] = pe

		ideal := core.TopN(r.truth[k], n, 0)
		for _, it := range ideal {
			d.TopSignal[k] += it.Utility
		}
		if len(ideal) > 0 {
			d.TopSignal[k] /= float64(len(ideal))
		}
	}
	return d, nil
}

// MeanSNR returns the mean ratio of top-signal to predicted perturbation
// error across users with non-zero prediction — > 1 means the released
// utilities carry more signal than noise for the typical user.
func (d *ErrorDecomposition) MeanSNR() float64 {
	var sum float64
	var n int
	for k := range d.PredictedPE {
		if d.PredictedPE[k] > 0 {
			sum += d.TopSignal[k] / d.PredictedPE[k]
			n++
		}
	}
	if n == 0 {
		return math.Inf(1)
	}
	return sum / float64(n)
}

// Format renders the aggregate decomposition.
func (d *ErrorDecomposition) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Error decomposition on %s at eps=%s, N=%d\n", d.Dataset, epsLabel(d.Eps), d.N)
	fmt.Fprintf(&b, "  NDCG@%d, approximation only (eps=inf): %.3f\n", d.N, metrics.Mean(d.ApproxNDCG))
	fmt.Fprintf(&b, "  NDCG@%d, with Laplace noise:           %.3f\n", d.N, metrics.Mean(d.NoisyNDCG))
	fmt.Fprintf(&b, "  NDCG lost to approximation:            %.3f\n", 1-metrics.Mean(d.ApproxNDCG))
	fmt.Fprintf(&b, "  NDCG lost to perturbation:             %.3f\n", metrics.Mean(d.ApproxNDCG)-metrics.Mean(d.NoisyNDCG))
	fmt.Fprintf(&b, "  predicted perturbation error (Eq. 5):  %.3f (mean per utility)\n", metrics.Mean(d.PredictedPE))
	fmt.Fprintf(&b, "  top-%d signal magnitude:               %.3f (mean true utility)\n", d.N, metrics.Mean(d.TopSignal))
	fmt.Fprintf(&b, "  signal-to-noise ratio:                 %.2f\n", d.MeanSNR())
	return b.String()
}
