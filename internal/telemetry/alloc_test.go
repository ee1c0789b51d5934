package telemetry

import (
	"strings"
	"testing"
	"time"

	"socialrec/internal/raceflag"
)

// TestObserveExemplarAllocBudget pins histogram observation — with and
// without exemplar stamping — at exactly zero allocations: the exemplar
// lands in a preallocated atomic slot (no boxed Exemplar, no copied trace
// id). Skipped under -race (detector shadow state allocates).
func TestObserveExemplarAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts are only exact without the race detector")
	}
	reg := NewRegistry()
	h := reg.NewHistogram("alloc_budget_seconds", "test", nil)
	traceID := strings.Repeat("ab", 16)

	if got := testing.AllocsPerRun(200, func() {
		h.Observe(0.003)
	}); got != 0 {
		t.Errorf("Observe allocs/run = %v, want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		h.ObserveExemplar(0.003, traceID)
	}); got != 0 {
		t.Errorf("ObserveExemplar allocs/run = %v, want 0", got)
	}

	// The stamped exemplar must still round-trip losslessly to snapshots.
	snap := reg.Snapshot()
	found := false
	for _, hs := range snap.Histograms {
		if hs.Name != "alloc_budget_seconds" {
			continue
		}
		for _, b := range hs.Buckets {
			if b.Exemplar != nil && b.Exemplar.TraceID == traceID && b.Exemplar.Value == 0.003 {
				found = true
			}
		}
	}
	if !found {
		t.Error("exemplar did not survive the slot round-trip to Snapshot")
	}
}

// TestStageTracerAllocBudget pins the stage table's fold — what every
// trace span's End pays — at zero steady-state allocations.
func TestStageTracerAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts are only exact without the race detector")
	}
	tab := Stages()
	tab.Observe("alloc_budget_stage", time.Microsecond) // create the stage entry
	if got := testing.AllocsPerRun(200, func() {
		tab.Observe("alloc_budget_stage", time.Microsecond)
	}); got != 0 {
		t.Errorf("stage Observe allocs/run = %v, want 0", got)
	}
}
