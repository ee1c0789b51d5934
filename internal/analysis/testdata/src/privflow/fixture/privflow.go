// Package fixture exercises the privflow taint analyzer: raw
// preference/adjacency values flowing into observability sinks must be
// flagged; released, aggregated, or sanitized values must not.
package fixture

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"

	"socialrec/internal/dp"
	"socialrec/internal/graph"
	"socialrec/internal/httpedge"
	"socialrec/internal/similarity"
	"socialrec/internal/telemetry"
	"socialrec/internal/trace"
)

// --- seeded leak 1: preference value → slog ---

func leakToSlog(p *graph.Preference, u int) {
	w := p.Weight(u, 0)
	slog.Info("debug weight", "w", w) // want "reaches slog.Info"
}

// --- seeded leak 2: preference value → fmt.Errorf → HTTP body ---

func describe(p *graph.Preference, u int) error {
	if p.UserDegree(u) > 10 {
		return fmt.Errorf("user has items %v", p.Items(u)) // want "reaches fmt.Errorf"
	}
	return nil
}

func handle(w http.ResponseWriter, p *graph.Preference, u int) {
	if err := describe(p, u); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError) // want "reaches the HTTP error body"
	}
}

func rawBody(w http.ResponseWriter, g *graph.Social, u int) {
	fmt.Fprintf(w, "neighbors: %v", g.Neighbors(u)) // want "reaches the HTTP response body"
}

// --- other sinks ---

func errorsNewLeak(g *graph.Social, u int) error {
	msg := fmt.Sprint(g.Degree(u))
	return errors.New("degree " + msg) // want "reaches errors.New"
}

var attrDeg = trace.NewKey("deg")

func spanAttrLeak(ctx context.Context, g *graph.Social, u int) {
	_, sp := trace.Start(ctx, "fixture_stage")
	defer sp.End()
	sp.Set(attrDeg.Int(int64(g.Degree(u)))) // want "reaches span attribute trace.Key.Int"
}

func stageNameLeak(g *graph.Social, u int) {
	telemetry.Stages().Observe(fmt.Sprint(g.Degree(u)), 0) // want "reaches telemetry stage name"
}

func httpSpanNameLeak(g *graph.Social, u int) *http.ServeMux {
	routes := []httpedge.Route{{Endpoint: fmt.Sprint(g.Degree(u))}}
	return httpedge.New(httpedge.Config{Routes: routes}) // want "reaches span name httpedge.New"
}

func metricLabelLeak(vec *telemetry.CounterVec, g *graph.Social, u int) {
	c, err := vec.With(fmt.Sprint(g.Degree(u))) // want "reaches metric label CounterVec.With"
	if err == nil {
		c.Inc()
	}
}

func panicLeak(p *graph.Preference, u int) {
	if p.UserDegree(u) == 0 {
		panic(fmt.Sprint(p.Items(u))) // want "reaches panic"
	}
}

// --- type-based sources ---

func scoresLeak(s similarity.Scores) {
	slog.Warn("similarity scores", "s", s) // want "reaches slog.Warn"
}

// --- flow sensitivity: sanitizers and reassignment keep paths clean ---

func sanitized(p *graph.Preference, u int) {
	w := p.Weight(u, 0)
	w = dp.SnapValue(w, 0.5)
	slog.Info("released weight", "w", w)
}

func aggregateClean(g *graph.Social) {
	slog.Info("graph stats", "users", g.NumUsers(), "edges", g.NumEdges())
}

func lenClean(p *graph.Preference, u int) {
	slog.Info("item count", "n", len(p.Items(u)))
}

// branchTaint joins taint across branches: w is raw on the debug path.
func branchTaint(p *graph.Preference, u int, debug bool) {
	w := 0.0
	if debug {
		w = p.Weight(u, 0)
	}
	slog.Info("maybe raw", "w", w) // want "reaches slog.Info"
}

// loopCarry accumulates taint across iterations (fixpoint convergence).
func loopCarry(g *graph.Social, us []int) {
	total := ""
	for _, u := range us {
		total += fmt.Sprint(g.Neighbors(u))
	}
	slog.Info("all neighbors", "t", total) // want "reaches slog.Info"
}

// closureLeak: captured raw value flagged inside the literal.
func closureLeak(g *graph.Social, u int) func() {
	n := g.Neighbors(u)
	return func() {
		slog.Error("callback", "n", n) // want "reaches slog.Error"
	}
}

// suppressed shows //sociolint:ignore integration.
func suppressed(p *graph.Preference, u int) {
	slog.Info("dbg", "w", p.Weight(u, 0)) //sociolint:ignore privflow fixture exercises suppression
}

// paramClean: plain parameters are not sources — modular analysis treats
// each package's own sources as the trust boundary.
func paramClean(w float64) {
	slog.Info("param", "w", w)
}
