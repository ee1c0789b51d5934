package obsagg

import (
	"slices"
	"sort"

	"socialrec/internal/telemetry"
)

// Fleet metric merging: the last-known snapshot of every target (stale
// ones included — staleness is declared per target, not silently dropped)
// is grouped by series identity (name + label pair), counters and
// histogram buckets sum, and quantiles are recomputed from the merged
// buckets. Series whose names or label values fail re-validation, ledger
// entries whose mechanism names fail it, and histograms whose bucket
// layouts disagree, are skipped and counted — never merged approximately,
// never echoed.

// FleetCounter is one counter series summed across the fleet, with the
// per-target breakdown keyed by declared target name.
type FleetCounter struct {
	Name       string `json:"name"`
	LabelKey   string `json:"label_key,omitempty"`
	LabelValue string `json:"label_value,omitempty"`
	// Value is the exact fleet sum.
	Value uint64 `json:"value"`
	// ByTarget breaks the sum down by target (replica identity as a
	// declared label).
	ByTarget map[string]uint64 `json:"by_target"`
}

// FleetGauge is one gauge series across the fleet. Gauges are point-in-
// time readings, so they sum only where summing is meaningful to the
// reader; the fleet view reports the per-target values and the sum and
// lets the reader pick.
type FleetGauge struct {
	Name     string             `json:"name"`
	Sum      float64            `json:"sum"`
	ByTarget map[string]float64 `json:"by_target"`
}

// FleetHistogram is one histogram series merged exactly across the fleet,
// with quantiles recomputed from the merged buckets.
type FleetHistogram struct {
	Name       string  `json:"name"`
	LabelKey   string  `json:"label_key,omitempty"`
	LabelValue string  `json:"label_value,omitempty"`
	Count      uint64  `json:"count"`
	Sum        float64 `json:"sum"`
	// P50/P99/P999 are the fleet quantiles — exactly the quantiles of
	// the concatenated observation stream, since bucket layouts are
	// identical by construction.
	P50  float64 `json:"p50"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
	// Targets lists the targets whose snapshots merged into this series.
	Targets []string `json:"targets"`
}

// FleetLatency is the headline fleet request-latency summary: every
// http_request_seconds histogram (all endpoints, all targets) merged.
type FleetLatency struct {
	Count uint64  `json:"count"`
	P50   float64 `json:"p50_seconds"`
	P99   float64 `json:"p99_seconds"`
	P999  float64 `json:"p999_seconds"`
}

// FleetMetrics is the /fleet/metrics document.
type FleetMetrics struct {
	// Targets carries per-target health; a stale or missing target is
	// visible here, never an error page.
	Targets    []TargetStatus   `json:"targets"`
	Latency    *FleetLatency    `json:"latency,omitempty"`
	Counters   []FleetCounter   `json:"counters"`
	Gauges     []FleetGauge     `json:"gauges"`
	Histograms []FleetHistogram `json:"histograms"`
	// SkippedSeries counts series dropped by name/label re-validation or
	// by a histogram bucket-layout mismatch, and ledger mechanism totals
	// and events dropped by name re-validation. The offending values are
	// deliberately not listed.
	SkippedSeries int `json:"skipped_series,omitempty"`
}

// mergedView is the internal merge result shared by /fleet/metrics, the
// sliding-window sampler and the budget view.
type mergedView struct {
	Counters   []FleetCounter
	Gauges     []FleetGauge
	Histograms []FleetHistogram
	latencyAll []telemetry.HistogramSnapshot // every http_request_seconds snapshot
	budget     telemetry.LedgerSnapshot      // fleet ledger (Σε exact)
	perTarget  []targetBudget                // per-target ledger totals
	skipped    int
}

// targetBudget is one target's ledger contribution.
type targetBudget struct {
	status TargetStatus
	ledger telemetry.LedgerSnapshot
}

// seriesKey identifies one metric series across targets.
type seriesKey struct {
	name, labelKey, labelValue string
}

// mergeAll merges the last-known snapshot of every target. Stale targets
// contribute their last-good data; missing ones contribute nothing.
func (c *Collector) mergeAll() *mergedView {
	v := &mergedView{}
	counters := map[seriesKey]*FleetCounter{}
	gauges := map[string]*FleetGauge{}
	hists := map[seriesKey][]telemetry.HistogramSnapshot{}
	histTargets := map[seriesKey][]string{}
	var ledgers []telemetry.LedgerSnapshot
	statuses := c.targetStatuses()
	statusByName := map[string]TargetStatus{}
	for _, st := range statuses {
		statusByName[st.Target] = st
	}

	for _, ts := range c.targets {
		ts.mu.Lock()
		rep := ts.report
		ts.mu.Unlock()
		if rep == nil {
			continue
		}
		name := ts.target.Name
		for _, m := range rep.Metrics.Counters {
			if !validSeries(m.Name, m.LabelKey, m.LabelValue) {
				v.skipped++
				continue
			}
			k := seriesKey{m.Name, m.LabelKey, m.LabelValue}
			fc, ok := counters[k]
			if !ok {
				fc = &FleetCounter{Name: m.Name, LabelKey: m.LabelKey, LabelValue: m.LabelValue, ByTarget: map[string]uint64{}}
				counters[k] = fc
			}
			val := uint64(m.Value)
			fc.Value += val
			fc.ByTarget[name] = val
		}
		for _, m := range rep.Metrics.Gauges {
			if !telemetry.ValidName(m.Name) {
				v.skipped++
				continue
			}
			fg, ok := gauges[m.Name]
			if !ok {
				fg = &FleetGauge{Name: m.Name, ByTarget: map[string]float64{}}
				gauges[m.Name] = fg
			}
			fg.Sum += m.Value
			fg.ByTarget[name] = m.Value
		}
		for _, h := range rep.Metrics.Histograms {
			if !validSeries(h.Name, h.LabelKey, h.LabelValue) {
				v.skipped++
				continue
			}
			k := seriesKey{h.Name, h.LabelKey, h.LabelValue}
			hists[k] = append(hists[k], h)
			histTargets[k] = append(histTargets[k], name)
			if h.Name == "http_request_seconds" {
				v.latencyAll = append(v.latencyAll, h)
			}
		}
		ledger, dropped := validLedger(rep.PrivacyBudget)
		v.skipped += dropped
		ledgers = append(ledgers, ledger)
		v.perTarget = append(v.perTarget, targetBudget{
			status: statusByName[name],
			ledger: ledger,
		})
	}

	for k, hs := range hists {
		merged, err := telemetry.MergeHistogramSnapshots(hs)
		if err != nil {
			// Mismatched bucket layouts: refuse the inexact merge, count
			// the whole series as skipped.
			v.skipped++
			continue
		}
		tg := append([]string(nil), histTargets[k]...)
		sort.Strings(tg)
		v.Histograms = append(v.Histograms, FleetHistogram{
			Name: k.name, LabelKey: k.labelKey, LabelValue: k.labelValue,
			Count: merged.Count, Sum: merged.Sum,
			P50: quantileOrZero(merged, 0.5), P99: quantileOrZero(merged, 0.99), P999: quantileOrZero(merged, 0.999),
			Targets: tg,
		})
	}
	for _, fc := range counters {
		v.Counters = append(v.Counters, *fc)
	}
	for _, fg := range gauges {
		v.Gauges = append(v.Gauges, *fg)
	}
	sortSeries(v.Counters, func(c FleetCounter) seriesKey { return seriesKey{c.Name, c.LabelKey, c.LabelValue} })
	sort.Slice(v.Gauges, func(i, j int) bool { return v.Gauges[i].Name < v.Gauges[j].Name })
	sortSeries(v.Histograms, func(h FleetHistogram) seriesKey { return seriesKey{h.Name, h.LabelKey, h.LabelValue} })
	v.budget = telemetry.MergeLedgers(ledgers)
	return v
}

// sortSeries orders fleet series deterministically by (name, label).
func sortSeries[T any](s []T, key func(T) seriesKey) {
	sort.Slice(s, func(i, j int) bool {
		a, b := key(s[i]), key(s[j])
		if a.name != b.name {
			return a.name < b.name
		}
		if a.labelKey != b.labelKey {
			return a.labelKey < b.labelKey
		}
		return a.labelValue < b.labelValue
	})
}

// validSeries re-validates a scraped series identity under the registry's
// closed-world rule before it can re-appear in the fleet view.
func validSeries(name, labelKey, labelValue string) bool {
	if !telemetry.ValidName(name) {
		return false
	}
	if labelKey == "" && labelValue == "" {
		return true
	}
	return telemetry.ValidName(labelKey) && telemetry.ValidName(labelValue)
}

// validLedger re-validates a scraped privacy ledger under the same rule:
// it returns l without the mechanism totals and events whose mechanism
// name fails telemetry.ValidName, and how many it dropped. The target's
// reported TotalEpsilon and InfReleases stay as sent, so a dropped name
// never hides that target's spend from its own budget row.
func validLedger(l telemetry.LedgerSnapshot) (telemetry.LedgerSnapshot, int) {
	dropped := 0
	for _, m := range l.ByMechanism {
		if !telemetry.ValidName(m.Mechanism) {
			dropped++
		}
	}
	for _, e := range l.Events {
		if !telemetry.ValidName(e.Mechanism) {
			dropped++
		}
	}
	if dropped == 0 {
		return l, 0
	}
	// The scraped report is shared by every merge: filter copies.
	l.ByMechanism = slices.DeleteFunc(slices.Clone(l.ByMechanism), func(m telemetry.MechanismTotal) bool {
		return !telemetry.ValidName(m.Mechanism)
	})
	l.Events = slices.DeleteFunc(slices.Clone(l.Events), func(e telemetry.ReleaseEvent) bool {
		return !telemetry.ValidName(e.Mechanism)
	})
	return l, dropped
}

// requestLatency merges every request-latency histogram in the view into
// the headline fleet latency distribution.
func (v *mergedView) requestLatency() (telemetry.HistogramSnapshot, bool) {
	if len(v.latencyAll) == 0 {
		return telemetry.HistogramSnapshot{}, false
	}
	merged, err := telemetry.MergeHistogramSnapshots(v.latencyAll)
	if err != nil {
		return telemetry.HistogramSnapshot{}, false
	}
	return merged, true
}

// FleetMetrics assembles the /fleet/metrics document.
func (c *Collector) FleetMetrics() FleetMetrics {
	v := c.mergeAll()
	doc := FleetMetrics{
		Targets:       c.targetStatuses(),
		Counters:      v.Counters,
		Gauges:        v.Gauges,
		Histograms:    v.Histograms,
		SkippedSeries: v.skipped,
	}
	if doc.Counters == nil {
		doc.Counters = []FleetCounter{}
	}
	if doc.Gauges == nil {
		doc.Gauges = []FleetGauge{}
	}
	if doc.Histograms == nil {
		doc.Histograms = []FleetHistogram{}
	}
	if lat, ok := v.requestLatency(); ok {
		doc.Latency = &FleetLatency{
			Count: lat.Count,
			P50:   quantileOrZero(lat, 0.5),
			P99:   quantileOrZero(lat, 0.99),
			P999:  quantileOrZero(lat, 0.999),
		}
	}
	return doc
}

// quantileOrZero guards the JSON surface: an empty histogram's quantile
// is NaN, which encoding/json rejects; 0 is the honest empty reading.
func quantileOrZero(h telemetry.HistogramSnapshot, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Quantile(q)
}
