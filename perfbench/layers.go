package main

import (
	"context"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"socialrec/internal/core"
	"socialrec/internal/server"
	"socialrec/internal/trace"
)

// versions brackets which release version may serve a request: cur is
// raised after an install completes and next just before it starts, so a
// request that reads cur before it is sent and next after its answer
// arrives was served by a version in [cur, next].
type versions struct {
	cur, next atomic.Uint64
}

func (v *versions) set(version uint64) {
	v.cur.Store(version)
	v.next.Store(version)
}

// span is one timed call, relative to the collector's base time.
type span struct{ start, end time.Duration }

func (s span) dur() time.Duration { return s.end - s.start }

type spanKey struct {
	trace string
	shard int
}

// engineCall is one RecommendContext call seen by the engine decorator.
type engineCall struct {
	key      spanKey
	user, n  int
	vLo, vHi uint64
	span
	recs []core.Recommendation
	err  bool
}

// collector holds the benchmark's own spans, recorded around the calls into
// each layer and correlated by the trace id the client sends, which the
// router propagates to the shards in its traceparent header. Recording is on
// only while on is set; off, every wrapper is a pass-through.
type collector struct {
	on   atomic.Bool
	base time.Time

	mu     sync.Mutex
	router map[string]span
	server map[spanKey][]span
	engine []engineCall
}

func newCollector() *collector {
	return &collector{base: time.Now(), router: map[string]span{}, server: map[spanKey][]span{}}
}

func (c *collector) now() time.Duration { return time.Since(c.base) }

func traceIDOf(r *http.Request) string {
	tp, err := trace.ParseTraceparent(r.Header.Get(trace.TraceparentHeader))
	if err != nil {
		return ""
	}
	return tp.TraceID.String()
}

// wrapRouter times router.Router.ServeHTTP.
func (c *collector) wrapRouter(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !c.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		t0 := c.now()
		h.ServeHTTP(w, r)
		sp := span{t0, c.now()}
		id := traceIDOf(r)
		c.mu.Lock()
		c.router[id] = sp
		c.mu.Unlock()
	})
}

// wrapServer times one shard's server.Server.ServeHTTP.
func (c *collector) wrapServer(shard int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !c.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		t0 := c.now()
		h.ServeHTTP(w, r)
		sp := span{t0, c.now()}
		k := spanKey{traceIDOf(r), shard}
		c.mu.Lock()
		c.server[k] = append(c.server[k], sp)
		c.mu.Unlock()
	})
}

// tracedEngine is the server.Engine decorator around a shard's (or the
// single server's) Hot slot. Embedding *server.Hot forwards every other
// method, Owns and Status included, so the server keeps answering 421 for
// users another shard owns and /readyz keeps reporting the lineage.
type tracedEngine struct {
	*server.Hot
	col   *collector
	shard int
	ver   *versions
}

var (
	_ server.Engine                          = (*tracedEngine)(nil)
	_ interface{ Owns(int) bool }            = (*tracedEngine)(nil)
	_ interface{ Status() server.HotStatus } = (*tracedEngine)(nil)
)

// RecommendContext implements server.Engine.
func (e *tracedEngine) RecommendContext(ctx context.Context, user, n int) ([]core.Recommendation, error) {
	if !e.col.on.Load() {
		return e.Hot.RecommendContext(ctx, user, n)
	}
	var lo uint64
	if e.ver != nil {
		lo = e.ver.cur.Load()
	}
	t0 := e.col.now()
	recs, err := e.Hot.RecommendContext(ctx, user, n)
	t1 := e.col.now()
	call := engineCall{
		key: spanKey{trace.FromContext(ctx).TraceID().String(), e.shard}, user: user, n: n,
		span: span{t0, t1}, recs: append([]core.Recommendation(nil), recs...), err: err != nil,
	}
	if e.ver != nil {
		call.vLo, call.vHi = lo, e.ver.next.Load()
	}
	e.col.mu.Lock()
	e.col.engine = append(e.col.engine, call)
	e.col.mu.Unlock()
	return recs, err
}

// union is the total length of the parts of [within] that spans cover.
func union(spans []span, within span) time.Duration {
	if len(spans) == 0 {
		return 0
	}
	s := append([]span(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	var total time.Duration
	cur := span{-1, -1}
	for _, x := range s {
		if x.start < within.start {
			x.start = within.start
		}
		if x.end > within.end {
			x.end = within.end
		}
		if x.end <= x.start {
			continue
		}
		if x.start > cur.end {
			if cur.end > cur.start {
				total += cur.dur()
			}
			cur = x
		} else if x.end > cur.end {
			cur.end = x.end
		}
	}
	if cur.end > cur.start {
		total += cur.dur()
	}
	return total
}
