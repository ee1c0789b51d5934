package mechanism

import (
	"fmt"
	"math"

	"socialrec/internal/dp"
	"socialrec/internal/graph"
	"socialrec/internal/linalg"
	"socialrec/internal/similarity"
	"socialrec/internal/telemetry"
)

// LRMConfig configures the Low-Rank Mechanism comparator.
type LRMConfig struct {
	// Eps is the privacy budget for the per-item strategy answers.
	Eps dp.Epsilon
	// Rank is r, the rank of the decomposition W ≈ B·L; 0 selects
	// min(|U|, 400). The paper used r = rank(W) (near |U|) via the
	// authors' Matlab optimizer; see the package note on the substitution.
	Rank int
	// Seed drives the randomized SVD and the Laplace noise.
	Seed int64
	// MaxUsers guards against accidentally materializing a huge |U|×|U|
	// workload matrix; 0 selects 5000.
	MaxUsers int
}

// lrmPowerIters and lrmOversample are the randomized SVD's power
// iterations and extra sketch columns (see linalg.RandomizedSVD).
const (
	lrmPowerIters = 2
	lrmOversample = 10
)

func (c LRMConfig) rank(n int) int {
	r := c.Rank
	if r <= 0 {
		r = 400
	}
	if r > n {
		r = n
	}
	return r
}

func (c LRMConfig) maxUsers() int {
	if c.MaxUsers > 0 {
		return c.MaxUsers
	}
	return 5000
}

// LRM adapts the Low-Rank Mechanism of Yuan et al. [34] to the social
// recommendation workload, following §6.4 of the paper: the |U|×|U|
// workload matrix W with W_{u,v} = sim(u, v) is decomposed as W ≈ B·L; for
// each item i the strategy answers L·D_i (where D_i is the 0/1 vector of
// users preferring i) are released with Laplace noise calibrated to the
// maximum column L1 norm of L, and utilities are reconstructed as
// B·(L·D_i + noise).
//
// Substitution note: the original LRM derives B, L from a convex program
// minimizing noise under the decomposition constraint; this implementation
// uses a randomized truncated SVD split W ≈ (UΣ^½)(Σ^½Vᵀ) instead. The
// defining failure mode the paper reports — social-similarity workloads are
// near full rank, so any low-rank strategy answers them poorly — is
// preserved (and is exactly what the Fig. 4 reproduction shows).
type LRM struct {
	numItems int
	b        *linalg.Matrix // |U| × r
	y        *linalg.Matrix // r × |I|: noisy strategy answers per item
}

// NewLRM builds the LRM release over the full user population of the social
// graph. It computes all-pairs similarities to form the workload matrix, so
// it is quadratic in |U| and refuses graphs larger than cfg.MaxUsers.
func NewLRM(social *graph.Social, prefs *graph.Preference, m similarity.Measure, cfg LRMConfig) (*LRM, error) {
	if err := cfg.Eps.Validate(); err != nil {
		return nil, err
	}
	n := social.NumUsers()
	if n != prefs.NumUsers() {
		return nil, fmt.Errorf("mechanism: social graph has %d users but preference graph %d", n, prefs.NumUsers())
	}
	if n > cfg.maxUsers() {
		return nil, fmt.Errorf("mechanism: LRM is quadratic in users; %d exceeds the configured cap %d", n, cfg.maxUsers())
	}

	// Workload matrix W from the public similarity structure. Similarity
	// matrices are sparse (each row's support is the user's similarity
	// set), so W is held in CSR form and the SVD touches it only through
	// sparse products.
	users := make([]int32, n)
	for i := range users {
		users[i] = int32(i)
	}
	sims := similarity.ComputeAll(social, m, users, 0)
	wb := linalg.NewSparseBuilder(n, n)
	for u, s := range sims {
		for j, v := range s.Users {
			if err := wb.Add(u, int(v), s.Vals[j]); err != nil {
				return nil, err
			}
		}
	}
	w := wb.Build()

	// Decompose W ≈ B·L with B = UΣ^½ and L = Σ^½Vᵀ.
	rng := dp.NewRand(cfg.Seed)
	r := cfg.rank(n)
	svd := linalg.RandomizedSVDOp(w, r, lrmPowerIters, lrmOversample, rng)
	b := linalg.NewMatrix(n, r)
	l := linalg.NewMatrix(r, n)
	for j := 0; j < r; j++ {
		sq := sqrtNonNeg(svd.S[j])
		for i := 0; i < n; i++ {
			b.Set(i, j, svd.U.At(i, j)*sq)
			l.Set(j, i, svd.V.At(i, j)*sq)
		}
	}

	// Sensitivity: toggling one preference edge (v, i) toggles D_i[v],
	// changing L·D_i by L's column v; the L1 sensitivity is the largest
	// column L1 norm.
	delta := l.MaxColL1()
	var scale float64
	if !cfg.Eps.IsInf() {
		scale = delta / float64(cfg.Eps)
	}

	// Release noisy strategy answers Y[:, i] = L·D_i + Lap(Δ_L/ε)^r. Each
	// item's answers touch a disjoint set of preference edges, so the
	// whole release is ε-DP by parallel composition.
	noise := dp.NewLaplaceSource(cfg.Seed + 1)
	ni := prefs.NumItems()
	y := linalg.NewMatrix(r, ni)
	for i := 0; i < ni; i++ {
		for _, v := range prefs.Users(i) {
			for j := 0; j < r; j++ {
				y.Data[j*ni+i] += l.At(j, int(v))
			}
		}
	}
	if scale > 0 {
		for idx := range y.Data {
			y.Data[idx] += noise.Laplace(scale)
		}
	}
	telemetry.Budget().Record(telemetry.ReleaseEvent{
		Mechanism:   "lrm",
		Epsilon:     float64(cfg.Eps),
		Sensitivity: delta,
		Values:      r * ni,
	})
	return &LRM{numItems: ni, b: b, y: y}, nil
}

func sqrtNonNeg(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}

// Name returns "lrm".
func (*LRM) Name() string { return "lrm" }

// Rank reports the decomposition rank r.
func (l *LRM) Rank() int { return l.b.Cols }

// Utilities reconstructs μ̂_u = B[u, :]·Y, a dense linear combination of the
// noisy strategy rows. The similarity vectors are unused: the workload
// matrix already encodes them.
func (l *LRM) Utilities(users []int32, _ []similarity.Scores, out [][]float64) {
	r := l.b.Cols
	for k, u := range users {
		row := out[k]
		bu := l.b.Row(int(u))
		for j := 0; j < r; j++ {
			if bu[j] == 0 {
				continue
			}
			axpy(bu[j], l.y.Row(j), row)
		}
	}
}
