package trace

import "net/http"

// attrHTTPStatus carries the committed response status on every HTTP root
// span. Statuses are small static integers; no request content rides along.
var attrHTTPStatus = NewKey("http_status")

// StatusWriter is the ResponseWriter Middleware hands its handler: it
// records the status the response committed. The first WriteHeader wins,
// as it does on the wire (net/http ignores later calls), and a handler that
// writes only a body, or nothing at all, committed 200. Wrote reports
// whether anything was committed, so a panic-recovery layer knows whether
// a 500 can still be sent.
type StatusWriter struct {
	http.ResponseWriter
	Status int
	Wrote  bool
}

// WriteHeader records the first status and passes every call through.
func (w *StatusWriter) WriteHeader(status int) {
	if !w.Wrote {
		w.Status = status
		w.Wrote = true
	}
	w.ResponseWriter.WriteHeader(status)
}

// Write commits the response (200 unless a status was written first).
func (w *StatusWriter) Write(p []byte) (int, error) {
	w.Wrote = true
	return w.ResponseWriter.Write(p)
}

// Middleware runs h under the request's root span, named name, on t — the
// one HTTP edge of recserve, recrouter and socmon. A valid inbound W3C
// traceparent is continued (same trace ID, so the deterministic head
// decision matches the caller's; the remote span becomes the parent);
// anything else, absent or malformed, starts a fresh root. The response
// always carries the handling span's traceparent, so a client can quote
// the id back when reporting a slow or failed request. h receives a
// *StatusWriter; the status it commits lands on the span as http_status,
// and a 5xx marks the span errored, which forces the whole trace through
// tail retention.
func (t *Tracer) Middleware(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var remote Traceparent
		if tp, err := ParseTraceparent(r.Header.Get(TraceparentHeader)); err == nil {
			remote = tp
		}
		ctx, sp := t.StartRemote(r.Context(), name, remote)
		defer sp.End()
		w.Header().Set(TraceparentHeader, sp.Traceparent())
		sw := &StatusWriter{ResponseWriter: w, Status: http.StatusOK}
		h(sw, r.WithContext(ctx))
		sp.Set(attrHTTPStatus.Int(int64(sw.Status)))
		if sw.Status >= http.StatusInternalServerError {
			sp.SetStatus(StatusError)
		}
	}
}
