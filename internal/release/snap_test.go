package release

import (
	"bytes"
	"context"
	"math"
	"testing"

	"socialrec/internal/dp"
)

// TestSnapRoundTrip checks that snapping a release puts every average on
// the grain lattice, survives serialization exactly, and is idempotent —
// the properties that make it safe to apply just before Write.
func TestSnapRoundTrip(t *testing.T) {
	r := sample(t)
	src := dp.NewLaplaceSource(3)
	for i := range r.Avg {
		r.Avg[i] += src.Laplace(0.1)
	}
	const grain = 0.001
	r.Snap(grain)
	for i, v := range r.Avg {
		if got := dp.SnapValue(v, grain); got != v {
			t.Fatalf("Avg[%d] = %v not on the %v lattice (re-snap gives %v)", i, v, grain, got)
		}
		if k := math.Round(v / grain); math.Abs(k*grain-v) > 1e-12 {
			t.Fatalf("Avg[%d] = %v is not a grain multiple", i, v)
		}
	}

	var buf bytes.Buffer
	if err := Write(&buf, r); err != nil {
		t.Fatal(err)
	}
	got, err := ReadContext(context.Background(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r.Avg {
		if got.Avg[i] != r.Avg[i] {
			t.Fatalf("snapped average %d changed across serialization: %v != %v", i, got.Avg[i], r.Avg[i])
		}
	}
}

// TestSnapDisabled checks that a non-positive grain is a no-op, so a zero
// "snapping disabled" config value cannot corrupt a release.
func TestSnapDisabled(t *testing.T) {
	r := sample(t)
	want := append([]float64(nil), r.Avg...)
	r.Snap(0)
	r.Snap(-1)
	for i := range want {
		if r.Avg[i] != want[i] {
			t.Fatalf("Avg[%d] changed by disabled snap", i)
		}
	}
}
