package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"sync"
)

// ReleaseEvent records one differentially private release: which mechanism
// performed it, the budget it consumed, the sensitivity the noise was
// calibrated to, and how many sanitized values left the trust boundary.
// Events carry only these public parameters — ε, sensitivity and mechanism
// names are part of the release's public metadata under the DP threat model
// (the adversary is assumed to know the mechanism), so exporting them does
// not weaken the guarantee.
type ReleaseEvent struct {
	// Mechanism is the static mechanism name ("cluster", "nou", "noe",
	// "gs", "lrm", "cluster_weighted", "persist", "load").
	Mechanism string
	// Epsilon is the budget the release consumed; math.Inf(1) for a
	// deliberately non-private release (the paper's ε = ∞ runs).
	Epsilon float64
	// Sensitivity is the query sensitivity the noise scale was calibrated
	// to (0 when not applicable, e.g. replaying a persisted release).
	Sensitivity float64
	// Values is the number of released values (e.g. clusters × items).
	Values int
	// TraceID, when non-empty, attributes the spend to the request or
	// pipeline run (32 lowercase hex digits) whose trace caused the
	// release. It is an opaque correlation token — anything else is
	// scrubbed by Record.
	TraceID string
}

// MarshalJSON renders Epsilon as a string so ε = ∞ (which encoding/json
// rejects as a float) survives the trip to /metrics.
func (e ReleaseEvent) MarshalJSON() ([]byte, error) {
	eps := "inf"
	if !math.IsInf(e.Epsilon, 1) {
		eps = strconv.FormatFloat(e.Epsilon, 'g', -1, 64)
	}
	return json.Marshal(struct {
		Mechanism   string  `json:"mechanism"`
		Epsilon     string  `json:"epsilon"`
		Sensitivity float64 `json:"sensitivity"`
		Values      int     `json:"values"`
		TraceID     string  `json:"trace_id,omitempty"`
	}{e.Mechanism, eps, e.Sensitivity, e.Values, e.TraceID})
}

// UnmarshalJSON is MarshalJSON's inverse, for fleet collectors that
// re-ingest a scraped /metrics export. The string form "inf" round-trips
// back to math.Inf(1); a malformed epsilon is an error, never a silent 0 —
// a budget number that fails to parse must not vanish from an audit.
func (e *ReleaseEvent) UnmarshalJSON(data []byte) error {
	var wire struct {
		Mechanism   string  `json:"mechanism"`
		Epsilon     string  `json:"epsilon"`
		Sensitivity float64 `json:"sensitivity"`
		Values      int     `json:"values"`
		TraceID     string  `json:"trace_id"`
	}
	if err := json.Unmarshal(data, &wire); err != nil {
		return err
	}
	eps := math.Inf(1)
	if wire.Epsilon != "inf" {
		var err error
		eps, err = strconv.ParseFloat(wire.Epsilon, 64)
		if err != nil {
			// The unparseable field is not echoed; it came over the wire.
			return fmt.Errorf("telemetry: release event carries a malformed epsilon")
		}
	}
	*e = ReleaseEvent{
		Mechanism: wire.Mechanism, Epsilon: eps,
		Sensitivity: wire.Sensitivity, Values: wire.Values, TraceID: wire.TraceID,
	}
	return nil
}

// maxLedgerEvents bounds the raw event list so a test loop or a re-release
// cycle cannot grow the ledger without bound; per-mechanism totals stay
// exact past the cap, only the raw list stops growing.
const maxLedgerEvents = 4096

// Ledger is an append-only record of every release event in the process.
// It enforces nothing: the streaming Updater's journaled lifetime budget
// refuses over-budget publishes, while the ledger *observes* all spending
// for export — an operator reading /metrics should see every ε that left
// the building, whichever mechanism spent it.
type Ledger struct {
	mu      sync.Mutex
	events  []ReleaseEvent
	dropped int
	byMech  map[string]*MechanismTotal
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{byMech: map[string]*MechanismTotal{}}
}

// Record appends one release event. A mechanism name that is not a static
// identifier is recorded under "invalid_mechanism" — the ledger never
// exports caller-supplied dynamic strings.
func (l *Ledger) Record(ev ReleaseEvent) {
	if !ValidName(ev.Mechanism) {
		ev.Mechanism = "invalid_mechanism"
	}
	if ev.TraceID != "" && !isTraceHex(ev.TraceID) {
		ev.TraceID = ""
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.events) < maxLedgerEvents {
		l.events = append(l.events, ev)
	} else {
		l.dropped++
	}
	t, ok := l.byMech[ev.Mechanism]
	if !ok {
		t = &MechanismTotal{Mechanism: ev.Mechanism}
		l.byMech[ev.Mechanism] = t
	}
	t.Releases++
	if math.IsInf(ev.Epsilon, 1) {
		t.InfReleases++
	} else {
		t.Epsilon += ev.Epsilon
	}
}

// MechanismTotal aggregates a mechanism's spending.
type MechanismTotal struct {
	Mechanism string `json:"mechanism"`
	// Releases counts all releases, including infinite-ε ones.
	Releases int `json:"releases"`
	// Epsilon is the sum of the finite ε values (the sequential-
	// composition upper bound on this mechanism's total spend).
	Epsilon float64 `json:"epsilon_total"`
	// InfReleases counts deliberately non-private (ε = ∞) releases.
	InfReleases int `json:"inf_releases"`
}

// LedgerSnapshot is a point-in-time copy of the ledger for export.
type LedgerSnapshot struct {
	// Events lists every recorded release, oldest first (capped; see
	// Dropped).
	Events []ReleaseEvent `json:"events"`
	// Dropped counts events past the raw-list cap; totals still include
	// them.
	Dropped int `json:"dropped,omitempty"`
	// ByMechanism aggregates spending per mechanism, sorted by name.
	ByMechanism []MechanismTotal `json:"by_mechanism"`
	// TotalEpsilon is the sum of all finite ε across mechanisms — the
	// worst-case (sequential composition) bound on what the process
	// spent. Releases over disjoint data compose in parallel and spend
	// less.
	TotalEpsilon float64 `json:"total_epsilon"`
	// InfReleases counts ε = ∞ releases across mechanisms.
	InfReleases int `json:"inf_releases"`
}

// Snapshot copies the ledger state.
func (l *Ledger) Snapshot() LedgerSnapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	snap := LedgerSnapshot{
		Events:  make([]ReleaseEvent, len(l.events)),
		Dropped: l.dropped,
	}
	copy(snap.Events, l.events)
	for _, name := range sortedKeys(l.byMech) {
		t := l.byMech[name]
		snap.ByMechanism = append(snap.ByMechanism, *t)
		snap.TotalEpsilon += t.Epsilon
		snap.InfReleases += t.InfReleases
	}
	return snap
}

// Reset discards all recorded events (test hygiene).
func (l *Ledger) Reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = nil
	l.dropped = 0
	l.byMech = map[string]*MechanismTotal{}
}

// String summarizes the ledger in one line, for shutdown logs.
func (s LedgerSnapshot) String() string {
	return fmt.Sprintf("%d releases, total finite epsilon %g, %d non-private (inf) releases",
		len(s.Events)+s.Dropped, s.TotalEpsilon, s.InfReleases)
}
