package router

import (
	"encoding/json"
	"testing"
)

// FuzzParseBatchResults feeds arbitrary shard batch bodies to the router's
// parse. It must not panic, and an accepted body yields exactly the
// requested number of rows, each a well-formed JSON value the router can
// pass through unparsed.
func FuzzParseBatchResults(f *testing.F) {
	f.Add([]byte(`{"results":[{"user":"u0","recommendations":[]},{"user":"u2","error":"unknown user"}]}`), uint8(2))
	f.Add([]byte(`{"results":[]}`), uint8(0))
	f.Add([]byte(`{"results":null}`), uint8(0))
	f.Add([]byte(`{"results":[1,2,3]`), uint8(3))
	f.Add([]byte(`[{"results":[1]}]`), uint8(1))
	f.Fuzz(func(t *testing.T, body []byte, want uint8) {
		rows, ok := parseBatchResults(body, int(want))
		if !ok {
			if rows != nil {
				t.Fatalf("rejected body returned %d rows", len(rows))
			}
			return
		}
		if len(rows) != int(want) {
			t.Fatalf("accepted %d rows, requested %d", len(rows), want)
		}
		for i, r := range rows {
			if !json.Valid(r) {
				t.Fatalf("row %d is not valid JSON: %q", i, r)
			}
		}
	})
}

// FuzzParseLineage feeds arbitrary readyz bodies to the router's lineage
// parse. It must not panic, and an accepted lineage names a release
// version, so the router never re-exports a zero version as provenance.
func FuzzParseLineage(f *testing.F) {
	f.Add([]byte(`{"ready":true,"release_version":7,"full_version":5,"deltas_applied":[6,7],"degraded":false}`))
	f.Add([]byte(`{"ready":true,"release_version":0}`))
	f.Add([]byte(`{"release_version":-1}`))
	f.Add([]byte(`{"release_version":18446744073709551615,"deltas_applied":null}`))
	f.Add([]byte(`ok`))
	f.Fuzz(func(t *testing.T, body []byte) {
		ln, ok := parseLineage(body)
		if !ok {
			if ln != nil {
				t.Fatal("rejected body returned a lineage")
			}
			return
		}
		if ln.Version == 0 {
			t.Fatalf("accepted lineage %+v has no release version", ln)
		}
	})
}
