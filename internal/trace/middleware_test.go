package trace

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// serveOnce runs one request through t.Middleware and returns the response
// recorder and the retained trace it produced.
func serveOnce(t *testing.T, tr *Tracer, inbound string, h http.HandlerFunc) (*httptest.ResponseRecorder, *TraceData) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/x", nil)
	if inbound != "" {
		req.Header.Set(TraceparentHeader, inbound)
	}
	rec := httptest.NewRecorder()
	tr.Middleware("http_test", h).ServeHTTP(rec, req)
	tp, err := ParseTraceparent(rec.Header().Get(TraceparentHeader))
	if err != nil {
		t.Fatalf("response traceparent %q: %v", rec.Header().Get(TraceparentHeader), err)
	}
	td := tr.Lookup(tp.TraceID)
	if td == nil {
		t.Fatalf("trace %s not retained", tp.TraceID)
	}
	if td.Root.Name != "http_test" || td.Root.SpanID != tp.ParentID.String() {
		t.Errorf("echoed traceparent %v does not name the root span %+v", tp, td.Root)
	}
	return rec, td
}

func TestMiddleware(t *testing.T) {
	const inbound = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	tr := New(Config{Seed: 11, Capacity: 16})
	ok := func(w http.ResponseWriter, r *http.Request) {
		if FromContext(r.Context()).TraceID().IsZero() {
			t.Error("handler context carries no span")
		}
		_, _ = w.Write([]byte("ok"))
	}

	t.Run("continues a valid traceparent", func(t *testing.T) {
		_, td := serveOnce(t, tr, inbound, ok)
		if td.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" || td.Root.ParentID != "00f067aa0ba902b7" {
			t.Errorf("trace %s parent %s, want the caller's", td.TraceID, td.Root.ParentID)
		}
	})
	for _, bad := range []string{"", "00-zzzz-bad-01", "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01"} {
		t.Run("restarts on "+bad, func(t *testing.T) {
			_, td := serveOnce(t, tr, bad, ok)
			if td.TraceID == "4bf92f3577b34da6a3ce929d0e0e4736" || td.Root.ParentID != "" {
				t.Errorf("trace %s parent %q, want a fresh root", td.TraceID, td.Root.ParentID)
			}
		})
	}

	for _, tc := range []struct {
		name    string
		h       http.HandlerFunc
		status  int64
		errored bool
	}{
		{"nothing written records 200", func(http.ResponseWriter, *http.Request) {}, 200, false},
		{"body only records 200", ok, 200, false},
		{"first status wins", func(w http.ResponseWriter, _ *http.Request) {
			w.WriteHeader(http.StatusNotFound)
			w.WriteHeader(http.StatusInternalServerError)
		}, 404, false},
		{"body then status keeps 200", func(w http.ResponseWriter, _ *http.Request) {
			_, _ = w.Write([]byte("x"))
			w.WriteHeader(http.StatusBadGateway)
		}, 200, false},
		{"5xx marks the root errored", func(w http.ResponseWriter, _ *http.Request) {
			http.Error(w, "boom", http.StatusServiceUnavailable)
		}, 503, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec, td := serveOnce(t, tr, "", tc.h)
			if int64(rec.Code) != tc.status {
				t.Errorf("wire status %d, want %d", rec.Code, tc.status)
			}
			if got := td.Root.Attrs["http_status"]; got != tc.status {
				t.Errorf("http_status = %v, want %d", got, tc.status)
			}
			if td.Err() != tc.errored || (td.Retained == "error") != tc.errored {
				t.Errorf("errored = %v (retained %q), want %v", td.Err(), td.Retained, tc.errored)
			}
		})
	}
}
