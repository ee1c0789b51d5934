package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Report bundles the three observability surfaces — metric snapshot,
// per-stage span timings, privacy-budget ledger — into one document, the
// payload of cmd/recserve's /metrics endpoint.
type Report struct {
	Metrics       Snapshot       `json:"metrics"`
	Stages        []StageTiming  `json:"stages"`
	PrivacyBudget LedgerSnapshot `json:"privacy_budget"`
}

// NewReport snapshots the three sources. Any of them may be nil, yielding
// an empty section.
func NewReport(r *Registry, t *StageTable, l *Ledger) Report {
	var rep Report
	if r != nil {
		rep.Metrics = r.Snapshot()
	}
	if t != nil {
		rep.Stages = t.Snapshot()
	}
	if l != nil {
		rep.PrivacyBudget = l.Snapshot()
	}
	return rep
}

// WriteJSON writes the report as one indented JSON document.
func (rep Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// WritePrometheus writes the report in the Prometheus text exposition
// format. Stage timings become pipeline_stage_seconds_total /
// pipeline_stage_count pairs; the budget ledger becomes
// privacy_epsilon_spent_total plus per-mechanism release counters. Stage
// and mechanism names are static identifiers by construction (see the
// package comment), so they are safe label values.
func (rep Report) WritePrometheus(w io.Writer) error {
	if err := rep.Metrics.WritePrometheus(w); err != nil {
		return err
	}
	if len(rep.Stages) > 0 {
		if _, err := fmt.Fprintf(w, "# TYPE pipeline_stage_seconds_total counter\n"); err != nil {
			return err
		}
		for _, s := range rep.Stages {
			if _, err := fmt.Fprintf(w, "pipeline_stage_seconds_total%s %s\n", promLabel("stage", s.Stage, ""), formatFloat(s.Total.Seconds())); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE pipeline_stage_count counter\n"); err != nil {
			return err
		}
		for _, s := range rep.Stages {
			if _, err := fmt.Fprintf(w, "pipeline_stage_count%s %d\n", promLabel("stage", s.Stage, ""), s.Count); err != nil {
				return err
			}
		}
	}
	b := rep.PrivacyBudget
	if _, err := fmt.Fprintf(w, "# TYPE privacy_epsilon_spent_total gauge\nprivacy_epsilon_spent_total %s\n", formatFloat(b.TotalEpsilon)); err != nil {
		return err
	}
	if len(b.ByMechanism) > 0 {
		if _, err := fmt.Fprintf(w, "# TYPE privacy_releases_total counter\n"); err != nil {
			return err
		}
		for _, m := range b.ByMechanism {
			if _, err := fmt.Fprintf(w, "privacy_releases_total%s %d\n", promLabel("mechanism", m.Mechanism, ""), m.Releases); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE privacy_epsilon_total gauge\n"); err != nil {
			return err
		}
		for _, m := range b.ByMechanism {
			if _, err := fmt.Fprintf(w, "privacy_epsilon_total%s %s\n", promLabel("mechanism", m.Mechanism, ""), formatFloat(m.Epsilon)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Handler serves the combined report: JSON by default (or with
// Accept: application/json), Prometheus text with ?format=prometheus or an
// Accept header preferring text/plain. Any source may be nil.
func Handler(r *Registry, t *StageTable, l *Ledger) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		rep := NewReport(r, t, l)
		format := req.URL.Query().Get("format")
		accept := req.Header.Get("Accept")
		wantProm := format == "prometheus" ||
			(format == "" && strings.Contains(accept, "text/plain") && !strings.Contains(accept, "application/json"))
		if wantProm {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			if err := rep.WritePrometheus(w); err != nil {
				return // client gone mid-body; nothing to salvage
			}
			return
		}
		w.Header().Set("Content-Type", "application/json")
		// Best effort: an encode error here means the client went away.
		_ = rep.WriteJSON(w)
	})
}
