// Package dp provides the differential-privacy primitives used by the
// framework: the Laplace mechanism (Theorem 1 of the paper), a noise-source
// abstraction that lets tests substitute deterministic noise, and a privacy
// accountant implementing the sequential and parallel composition rules
// (Theorems 2 and 3).
package dp

import (
	"fmt"
	"math"
	"math/rand"
)

// Epsilon is a differential-privacy budget. The special value Inf disables
// noise entirely (the paper's ε = ∞ configuration, used to isolate
// approximation error from perturbation error).
type Epsilon float64

// Inf is the no-noise privacy setting ε = ∞.
var Inf = Epsilon(math.Inf(1))

// IsInf reports whether the budget disables noise.
func (e Epsilon) IsInf() bool { return math.IsInf(float64(e), 1) }

// Validate returns an error unless the budget is positive (finite or Inf).
func (e Epsilon) Validate() error {
	if float64(e) <= 0 || math.IsNaN(float64(e)) {
		return fmt.Errorf("dp: epsilon must be positive, got %v", float64(e))
	}
	return nil
}

// NoiseSource produces additive noise for the Laplace mechanism. The scale
// parameter is Δ/ε as in Theorem 1. Implementations must treat successive
// calls as independent draws.
//
// Abstracting the source serves two purposes: tests can verify the *scale*
// requested at every call site (the core of the privacy proof) without
// statistical flakiness, and the ε = ∞ configuration becomes a zero source
// rather than a special case threaded through every mechanism.
type NoiseSource interface {
	// Laplace returns one draw from Lap(scale), the zero-mean Laplace
	// distribution with the given scale parameter.
	Laplace(scale float64) float64
}

// LaplaceSource is the production NoiseSource: genuine Laplace noise from a
// pseudo-random generator. It is not safe for concurrent use; create one
// source per goroutine.
//
// Two deployment caveats: (1) the guarantee assumes the adversary cannot
// predict the noise, and no seed gives that here (see NewLaplaceSource);
// (2) Mironov (CCS 2012) showed that the low-order bits of textbook
// floating-point Laplace samples can leak — deployments handling genuinely
// hostile adversaries should layer the snapping post-processor (Snap, or
// release.(*Release).Snap for persisted releases) on top: it composes as
// post-processing, so the ε guarantee is unchanged.
type LaplaceSource struct {
	rng *rand.Rand
}

// NewLaplaceSource returns a Laplace noise source seeded deterministically:
// the same seed always yields the same stream. No seed makes the stream
// unpredictable: math/rand reduces every seed modulo 2³¹−1, so an adversary
// who sees a release can search every seed and replay its noise. Closing
// that needs a secret key rather than a seed (ROADMAP.md, "Noise nobody can
// replay"). There is deliberately no time- or entropy-seeded variant:
// callers own seeding policy, and experiments stay reproducible.
func NewLaplaceSource(seed int64) *LaplaceSource {
	return &LaplaceSource{rng: rand.New(rand.NewSource(seed))}
}

// Laplace draws from Lap(scale) by inverse-CDF sampling.
func (s *LaplaceSource) Laplace(scale float64) float64 {
	if scale <= 0 {
		return 0
	}
	// u is uniform on (-1/2, 1/2); Float64 returns [0,1) so shift and
	// reject the single measure-zero endpoint that would yield log(0).
	for {
		u := s.rng.Float64() - 0.5
		a := 1 - 2*math.Abs(u)
		if a == 0 {
			continue
		}
		return -scale * sign(u) * math.Log(a)
	}
}

func sign(x float64) float64 {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	default:
		return 0
	}
}

// ZeroSource is a NoiseSource that adds no noise. It implements the paper's
// ε = ∞ configuration and is also useful in tests that need the
// deterministic, approximation-only behaviour of a mechanism.
type ZeroSource struct{}

// Laplace returns 0 regardless of scale.
func (ZeroSource) Laplace(float64) float64 { return 0 }

// RecordingSource wraps another NoiseSource and records every scale
// requested. Privacy tests use it to assert that a mechanism calibrates its
// noise exactly as its sensitivity analysis claims.
type RecordingSource struct {
	// Inner provides the actual noise; if nil, zero noise is used.
	Inner NoiseSource
	// Scales receives the scale of every Laplace call, in order.
	Scales []float64
}

// Laplace records scale and delegates to Inner (or returns 0 if Inner is
// nil).
func (r *RecordingSource) Laplace(scale float64) float64 {
	r.Scales = append(r.Scales, scale)
	if r.Inner == nil {
		return 0
	}
	return r.Inner.Laplace(scale)
}

// SourceFor returns the NoiseSource implementing the Laplace mechanism for
// the given budget: a ZeroSource when eps is Inf, and a fresh seeded
// LaplaceSource otherwise.
func SourceFor(eps Epsilon, seed int64) NoiseSource {
	if eps.IsInf() {
		return ZeroSource{}
	}
	return NewLaplaceSource(seed)
}

// LaplaceExpectedError returns the expected absolute error sqrt(Var)/... of
// one draw from Lap(Δ/ε), i.e. √2·Δ/ε as derived in §3.1 of the paper. For
// ε = ∞ it is 0.
func LaplaceExpectedError(sensitivity float64, eps Epsilon) float64 {
	if eps.IsInf() {
		return 0
	}
	return math.Sqrt2 * sensitivity / float64(eps)
}
