package obsagg

import (
	"bytes"
	"encoding/json"
	"testing"

	"socialrec/internal/telemetry"
)

// FuzzScrapeMerge feeds arbitrary /metrics bodies, as two targets' scrapes,
// through socmon's scrape decode and its fleet merge. Neither may panic,
// and every name the merged fleet view re-exports — counter, gauge and
// histogram names and label pairs, and the mechanism names of the fleet
// and per-target privacy ledgers — passes telemetry.ValidName, whatever a
// target sent.
func FuzzScrapeMerge(f *testing.F) {
	reg := telemetry.NewRegistry()
	reg.NewCounter("http_requests_total", "requests").Add(3)
	reg.NewGauge("simcache_entries", "entries").Set(4)
	reg.NewHistogram("http_request_seconds", "latency", nil).Observe(0.002)
	reg.NewCounterVec("router_retries_total", "retries", "shard", "shard_0").MustWith("shard_0").Inc()
	ledger := telemetry.NewLedger()
	ledger.Record(telemetry.ReleaseEvent{Mechanism: "cluster", Epsilon: 0.5, Sensitivity: 1, Values: 10})
	real, err := json.Marshal(telemetry.NewReport(reg, nil, ledger))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real, real)
	f.Add(real, []byte(`{"metrics":{"counters":[{"name":"Bad Name","value":1}],"gauges":[{"name":"","value":2}]}}`))
	f.Add([]byte(`{"metrics":{"histograms":[{"name":"http_request_seconds","label_key":"x","label_value":"Y","count":1}]}}`), []byte(`{}`))
	f.Add([]byte(`not json`), []byte(`{"metrics":null,"privacy_budget":{"total_epsilon":"Inf"}}`))
	f.Add(real, []byte(`{"privacy_budget":{"events":[{"mechanism":"Not A Name!","epsilon":"0.5"}],"by_mechanism":[{"mechanism":"Not A Name!","releases":1,"epsilon_total":0.5}]}}`))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		c := newTestCollector(t, Config{Targets: []Target{
			{Name: "router", Role: "router", URL: "http://127.0.0.1:1"},
			{Name: "shard_0", Role: "shard", URL: "http://127.0.0.1:1"},
		}})
		for i, body := range [][]byte{a, b} {
			var rep telemetry.Report
			if decodeScrape(bytes.NewReader(body), &rep) == nil {
				c.targets[i].report = &rep
			}
		}
		v := c.mergeAll()
		check := func(kind, name, key, value string) {
			if !telemetry.ValidName(name) {
				t.Fatalf("fleet %s %q re-exported", kind, name)
			}
			if (key != "" || value != "") && (!telemetry.ValidName(key) || !telemetry.ValidName(value)) {
				t.Fatalf("fleet %s %s carries label %q=%q", kind, name, key, value)
			}
		}
		for _, m := range v.Counters {
			check("counter", m.Name, m.LabelKey, m.LabelValue)
		}
		for _, m := range v.Gauges {
			check("gauge", m.Name, "", "")
		}
		for _, m := range v.Histograms {
			check("histogram", m.Name, m.LabelKey, m.LabelValue)
		}
		ledgers := []telemetry.LedgerSnapshot{v.budget}
		for _, tb := range v.perTarget {
			ledgers = append(ledgers, tb.ledger)
		}
		for _, l := range ledgers {
			for _, m := range l.ByMechanism {
				check("ledger mechanism", m.Mechanism, "", "")
			}
			for _, e := range l.Events {
				check("ledger event", e.Mechanism, "", "")
			}
		}
	})
}
