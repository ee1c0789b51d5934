package telemetry

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// PoolStats is one object pool's cumulative self-accounting: Gets counts
// acquisitions, Misses counts the subset that had to allocate because the
// pool was empty (typically right after a GC cycle emptied it). The hit
// rate is (Gets-Misses)/Gets.
type PoolStats struct {
	Gets   uint64
	Misses uint64
}

// poolStatsRegistry is the closed world of registered pools. Names are
// validated static identifiers supplied at package init by the subsystems
// that own the pools (trace spans, server response buffers), so the metric
// names derived from them can never carry request data.
var poolStatsRegistry = struct {
	mu    sync.Mutex
	pools map[string]func() PoolStats
}{pools: map[string]func() PoolStats{}}

// RegisterPoolStats registers a pool's stats callback under a static
// identifier name. The runtime collector exports each registered pool as
// pool_<name>_gets / pool_<name>_misses gauges. fn must be safe for
// concurrent use; it is polled on the collector tick. Re-registering a
// name replaces the callback. An invalid name panics — registration
// happens at package init with compile-time-constant names, so a dynamic
// name here would mean request data is about to become a metric name.
func RegisterPoolStats(name string, fn func() PoolStats) {
	if !ValidName(name) {
		panic("telemetry: invalid pool name (pool names are static identifiers declared up front, never request data)")
	}
	if fn == nil {
		panic(fmt.Sprintf("telemetry: nil stats func for pool %q", name))
	}
	poolStatsRegistry.mu.Lock()
	poolStatsRegistry.pools[name] = fn
	poolStatsRegistry.mu.Unlock()
}

// poolStatsFuncs snapshots the registered (name, callback) pairs.
func poolStatsFuncs() map[string]func() PoolStats {
	poolStatsRegistry.mu.Lock()
	defer poolStatsRegistry.mu.Unlock()
	out := make(map[string]func() PoolStats, len(poolStatsRegistry.pools))
	for k, v := range poolStatsRegistry.pools {
		out[k] = v
	}
	return out
}

// StartRuntimeCollector samples Go runtime health — goroutine count, heap
// bytes, GC totals — into reg on a ticker, so /metrics answers "is the
// process itself sick?" alongside the request-level instruments. Runtime
// numbers are pure process state, never derived from user data, so they
// are trivially safe to export.
//
// The returned stop function halts the ticker; calling it more than once
// is safe. interval <= 0 selects 10s.
func StartRuntimeCollector(reg *Registry, interval time.Duration) (stop func()) {
	if reg == nil {
		reg = Default()
	}
	if interval <= 0 {
		interval = 10 * time.Second
	}
	goroutines := reg.NewGauge("go_goroutines", "Number of live goroutines.")
	heapAlloc := reg.NewGauge("go_heap_alloc_bytes", "Bytes of allocated heap objects.")
	heapSys := reg.NewGauge("go_heap_sys_bytes", "Bytes of heap obtained from the OS.")
	// Cumulative GC figures are exported as gauges (set from MemStats each
	// tick) rather than counters, so the names avoid the _total suffix the
	// Prometheus convention reserves for counter types.
	gcRuns := reg.NewGauge("go_gc_cycles", "Completed GC cycles since process start.")
	gcPause := reg.NewGauge("go_gc_pause_ns", "Cumulative GC stop-the-world pause since process start, nanoseconds.")
	nextGC := reg.NewGauge("go_gc_next_target_bytes", "Heap size target of the next GC cycle.")

	sample := func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		goroutines.Set(int64(runtime.NumGoroutine()))
		heapAlloc.Set(int64(ms.HeapAlloc))
		heapSys.Set(int64(ms.HeapSys))
		gcRuns.Set(int64(ms.NumGC))
		gcPause.Set(int64(ms.PauseTotalNs))
		nextGC.Set(int64(ms.NextGC))
		// Pool self-metrics: cumulative gets/misses per registered pool.
		// Gauges are created lazily (NewGauge is idempotent) so pools
		// registered after the collector started still show up; the names
		// are closed-world because RegisterPoolStats validates them.
		for name, fn := range poolStatsFuncs() {
			st := fn()
			reg.NewGauge("pool_"+name+"_gets", "Cumulative pool Get calls.").Set(int64(st.Gets))
			reg.NewGauge("pool_"+name+"_misses", "Cumulative pool Gets that had to allocate (pool empty).").Set(int64(st.Misses))
		}
	}
	sample() // expose real values immediately, not zeros until the first tick

	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				sample()
			case <-done:
				return
			}
		}
	}()
	var stopped bool
	return func() {
		if !stopped {
			stopped = true
			close(done)
		}
	}
}
