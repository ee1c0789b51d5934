package experiment

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"socialrec/internal/dp"
	"socialrec/internal/generator"
)

func TestDecomposeError(t *testing.T) {
	r := tinyRunner(t)
	d, err := r.DecomposeError(dp.Epsilon(0.5), 3, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.ApproxNDCG) != len(r.EvalUsers) || len(d.PredictedPE) != len(r.EvalUsers) {
		t.Fatal("per-user slices wrong length")
	}
	// The approximation-only score must dominate the noisy score on
	// average (noise can only hurt in expectation).
	var am, nm float64
	for k := range d.ApproxNDCG {
		am += d.ApproxNDCG[k]
		nm += d.NoisyNDCG[k]
	}
	if am < nm {
		t.Errorf("approx mean %v below noisy mean %v", am, nm)
	}
	// Predictions are positive for users with any similarity mass.
	anyPE := false
	for _, pe := range d.PredictedPE {
		if pe < 0 {
			t.Fatal("negative predicted perturbation error")
		}
		if pe > 0 {
			anyPE = true
		}
	}
	if !anyPE {
		t.Error("no user has predicted perturbation error")
	}
	out := d.Format()
	for _, needle := range []string{"approximation", "perturbation", "signal-to-noise"} {
		if !strings.Contains(out, needle) {
			t.Errorf("format missing %q", needle)
		}
	}
}

// TestDecomposeDefaults: zero Opts read as the figures' defaults (10
// Louvain restarts, a 400-user sample), as every other experiment reads
// them, rather than panicking in BestOf or evaluating no user.
func TestDecomposeDefaults(t *testing.T) {
	p := generator.TinyTest(3)
	eps := []dp.Epsilon{1}
	got, err := Decompose(p, eps, 10, Opts{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Decompose(p, eps, 10, Opts{LouvainRuns: 10, EvalSample: 400, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(got[0].ApproxNDCG); n != p.Social.NumUsers {
		t.Fatalf("evaluated %d users, want all %d (the 400-user default caps at the population)", n, p.Social.NumUsers)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("zero Opts decomposed differently from the explicit defaults")
	}
}

func TestDecomposePredictionScalesWithEps(t *testing.T) {
	r := tinyRunner(t)
	strong, err := r.DecomposeError(dp.Epsilon(0.1), 3, 20)
	if err != nil {
		t.Fatal(err)
	}
	weak, err := r.DecomposeError(dp.Epsilon(1.0), 3, 20)
	if err != nil {
		t.Fatal(err)
	}
	// Eq. 5: expected perturbation error is ∝ 1/ε.
	for k := range strong.PredictedPE {
		if weak.PredictedPE[k] == 0 {
			continue
		}
		ratio := strong.PredictedPE[k] / weak.PredictedPE[k]
		if math.Abs(ratio-10) > 1e-9 {
			t.Fatalf("PE ratio = %v, want exactly 10 (1/ε scaling)", ratio)
		}
	}
}

func TestDecomposeInfEpsHasNoPE(t *testing.T) {
	r := tinyRunner(t)
	d, err := r.DecomposeError(dp.Inf, 3, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, pe := range d.PredictedPE {
		if pe != 0 {
			t.Fatal("ε = ∞ must predict zero perturbation error")
		}
	}
	if !math.IsInf(d.MeanSNR(), 1) {
		t.Errorf("SNR at ε=∞ = %v, want +Inf", d.MeanSNR())
	}
}

// TestDecomposeErrorDeterministic: the Eq. 5 prediction sums each user's
// per-cluster masses in one fixed order, so repeated calls agree to the
// bit.
func TestDecomposeErrorDeterministic(t *testing.T) {
	r := tinyRunner(t)
	first, err := r.DecomposeError(dp.Epsilon(0.1), 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 4; rep++ {
		d, err := r.DecomposeError(dp.Epsilon(0.1), 3, 10)
		if err != nil {
			t.Fatal(err)
		}
		for k := range first.PredictedPE {
			if math.Float64bits(d.PredictedPE[k]) != math.Float64bits(first.PredictedPE[k]) ||
				math.Float64bits(d.TopSignal[k]) != math.Float64bits(first.TopSignal[k]) {
				t.Fatalf("repeat %d, user %d: (PE %v, signal %v) vs first call's (%v, %v)",
					rep, k, d.PredictedPE[k], d.TopSignal[k], first.PredictedPE[k], first.TopSignal[k])
			}
		}
	}
}
