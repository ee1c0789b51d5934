// Package fixture exercises the spanend analyzer: spans started through
// internal/trace must be ended on every path. Clean shapes — deferred End,
// deferred closure, linear End with no intervening return, ownership
// hand-off — carry no annotations; leaking shapes carry // want lines.
package fixture

import (
	"context"
	"errors"

	"socialrec/internal/trace"
)

// GoodDefer is the canonical shape: End deferred right after Start.
func GoodDefer(ctx context.Context) {
	ctx, sp := trace.StartChild(ctx, "good_defer")
	defer sp.End()
	_ = ctx
}

// GoodDeferClosure ends inside a deferred closure (the pipeline's
// error-status pattern).
func GoodDeferClosure(ctx context.Context) (err error) {
	_, sp := trace.StartChild(ctx, "good_closure")
	defer func() {
		if err != nil {
			sp.SetStatus(trace.StatusError)
		}
		sp.End()
	}()
	return nil
}

// GoodLinear ends inline with no return statement in between (the
// recommender's per-phase pattern).
func GoodLinear(ctx context.Context) {
	_, sp := trace.StartChild(ctx, "good_linear")
	sp.SetStatus(trace.StatusOK)
	sp.End()
}

// GoodReassigned covers conditional starts into one pre-declared span,
// ended by a single deferred call (the middleware's traceparent branch).
func GoodReassigned(ctx context.Context, remote bool) {
	var sp trace.Span
	if remote {
		ctx, sp = trace.StartChild(ctx, "good_remote")
	} else {
		ctx, sp = trace.StartChild(ctx, "good_local")
	}
	defer sp.End()
	_ = ctx
}

// GoodHandoff transfers ownership to the caller; the analyzer must not
// demand an End here.
func GoodHandoff(ctx context.Context) trace.Span {
	_, sp := trace.StartChild(ctx, "good_handoff")
	return sp
}

// GoodDelegated passes the span to a helper that ends it.
func GoodDelegated(ctx context.Context) {
	_, sp := trace.StartChild(ctx, "good_delegated")
	finish(sp)
}

func finish(sp trace.Span) { sp.End() }

// BadNoEnd starts a span and forgets it entirely.
func BadNoEnd(ctx context.Context) {
	_, sp := trace.StartChild(ctx, "bad_no_end") // want "never ended"
	sp.SetStatus(trace.StatusError)
}

// BadEarlyReturn has a linear End that the error return skips.
func BadEarlyReturn(ctx context.Context, fail bool) error {
	_, sp := trace.StartChild(ctx, "bad_early") // want "return between the span start"
	if fail {
		return errors.New("boom")
	}
	sp.End()
	return nil
}

// BadDiscard throws the span away at the assignment.
func BadDiscard(ctx context.Context) context.Context {
	ctx, _ = trace.StartChild(ctx, "bad_discard") // want "span is discarded"
	return ctx
}

// BadClosureLeak leaks inside a nested function literal: the literal is
// its own scope, and nothing in it ends the span.
func BadClosureLeak(ctx context.Context) func() {
	return func() {
		_, sp := trace.StartChild(ctx, "bad_closure") // want "never ended"
		_ = sp.TraceID()
	}
}
