package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"time"

	"socialrec/internal/community"
	"socialrec/internal/dp"
	"socialrec/internal/mechanism"
	"socialrec/internal/release"
	"socialrec/internal/simcache"
	"socialrec/internal/telemetry"
)

// endToEnd and perLayer name every metric the benchmark reports, with its
// unit; BENCHMARK.json lists the same names.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"ok_ratio", "ratio"},
	{"rss_peak_mb", "MB"},
}

var perLayer = []struct{ name, unit string }{
	{"router.self_p50_us", "us"},
	{"router.self_p99_us", "us"},
	{"router.shard_calls", "count"},
	{"router.retries", "count"},
	{"router.hedges", "count"},
	{"server.self_p50_us", "us"},
	{"server.self_p99_us", "us"},
	{"server.batch_self_p50_us", "us"},
	{"server.shed", "count"},
	{"net.residual_p50_us", "us"},
	{"engine.recommend_p50_us", "us"},
	{"engine.recommend_p99_us", "us"},
	{"engine.residual_p50_us", "us"},
	{"similarity.p50_us", "us"},
	{"similarity.p99_us", "us"},
	{"similarity.set_size_mean", "users"},
	{"simcache.hit_ratio", "ratio"},
	{"simcache.evictions", "count"},
	{"mechanism.cluster_average_p50_us", "us"},
	{"mechanism.clusters_touched_mean", "clusters"},
	{"mechanism.laplace_release_s", "s"},
	{"core.top_n_p50_us", "us"},
	{"community.louvain_s", "s"},
	{"release.save_s", "s"},
	{"release.split_s", "s"},
	{"release.save_sharded_s", "s"},
	{"release.load_shard_s", "s"},
	{"release.shard_bytes", "bytes"},
	{"release.delta_load_ms", "ms"},
	{"wal.append_sync_ms", "ms"},
	{"dynamic.advance_p50_ms", "ms"},
	{"dynamic.advance_max_ms", "ms"},
	{"dynamic.published_full", "count"},
	{"dynamic.published_delta", "count"},
	{"dynamic.held", "count"},
	{"server.reload_p50_ms", "ms"},
	{"fresh_p50_s", "s"},
	{"fresh_p90_s", "s"},
	{"capacity.max_rps", "1/s"},
	{"nominal.p99_ms", "ms"},
	{"nominal.batch_p50_ms", "ms"},
	{"nominal.batch_p95_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.queue_p99_ms", "ms"},
	{"bench.trace_overhead_pct", "%"},
}

// plan is a run's phase lengths.
type plan struct {
	rate     float64
	setups   int
	warmup   time.Duration
	capacity time.Duration
	nominal  time.Duration
	batches  int // WAL batches (update workload)
}

func makePlan(cfg config) plan {
	s := time.Duration(cfg.seconds * float64(time.Second))
	p := plan{rate: cfg.wl.rate, setups: 5, warmup: 1500 * time.Millisecond, batches: 110}
	if cfg.smoke {
		p.rate, p.warmup, p.batches = 200, 200*time.Millisecond, 8
	}
	// An untraced run spends the whole run at the nominal rate, with the
	// update workload's writer running. A traced run first measures
	// capacity.max_rps for a quarter of the run, on reads alone, then
	// spends the rest at the nominal rate, half untraced and half traced,
	// with the writer running throughout.
	p.nominal = s
	if cfg.trace {
		p.capacity = s / 4
		p.nominal = s - p.capacity
	}
	return p
}

// nominalWindows is how many windows the nominal-rate phase is cut into;
// calmWindows of them, those with the least host steal, give the latencies.
const (
	nominalWindows = 30
	calmWindows    = 10
)

// setupBudget stops repeating setup after three builds that took longer.
const setupBudget = 4 * time.Second

// setup builds the workload's tier.
func setup(ctx context.Context, cfg config, in *inputs, dir string, col *collector) (*tier, error) {
	if cfg.wl.update {
		return setupSingle(ctx, in, dir, col)
	}
	return setupSharded(ctx, in, dir, col)
}

// setupRepeated builds the tier from a clean directory and collected heap
// p.setups times, or only three when those took over setupBudget, and keeps
// the last; it returns every setup time.
func setupRepeated(ctx context.Context, cfg config, p plan, in *inputs, dir string, col *collector) (*tier, []float64, error) {
	var times []float64
	for i := 0; ; i++ {
		runtime.GC()
		debug.FreeOSMemory()
		sub := filepath.Join(dir, "setup-"+strconv.Itoa(i))
		t, err := setup(ctx, cfg, in, sub, col)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, t.setupS)
		total := 0.0
		for _, x := range times {
			total += x
		}
		if i == p.setups-1 || (i >= 2 && total > setupBudget.Seconds()) {
			return t, times, nil
		}
		t.close()
		if err := os.RemoveAll(sub); err != nil {
			return nil, nil, err
		}
	}
}

// writer runs the update workload's WAL writer in the background; wait
// returns its error once it has finished.
type writer struct {
	wg  sync.WaitGroup
	err error
}

func startWriter(ctx context.Context, cfg config, p plan, t *tier, in *inputs, window time.Duration) *writer {
	w := &writer{}
	if t.upd == nil {
		return w
	}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		w.err = t.upd.write(ctx, newMutator(cfg.seed, in.prefs), p.batches, window)
	}()
	return w
}

func (w *writer) wait() error {
	w.wg.Wait()
	return w.err
}

// budgetTotal is the process ledger's finite ε.
func budgetTotal() float64 { return telemetry.Budget().Snapshot().TotalEpsilon }

// budgetGates checks that serving spent no ε and, on the update workload,
// that the updater made every decision and spent exactly one per-release ε
// per publish.
func budgetGates(rep *report, t *tier, p plan, before float64) {
	after := budgetTotal()
	// The ledger sums identical per-release ε values, so the totals must
	// match exactly.
	if t.upd == nil {
		//sociolint:ignore floateq exact ledger totals are the gate
		if after != before {
			rep.gate(gatef("serving changed the privacy ledger from %g to %g", before, after))
		}
		rep.linef("epsilon gate: ledger total %g before and %g after serving", before, after)
		return
	}
	// The WAL's and the updater's own counters must account for every
	// batch the writer synced, and agree with the decisions Advance returned.
	c := t.upd.counted()
	pubs := c.full + c.delta
	if appends, want := int(counter(t.upd.reg, "wal_appends_total")), p.batches*mutationsPerBatch; appends != want {
		rep.gate(gatef("the WAL counted %d appends, want %d", appends, want))
	}
	if pubs+c.held != p.batches {
		rep.gate(gatef("the updater counted %d decisions for %d WAL batches", pubs+c.held, p.batches))
	}
	if c != t.upd.tally {
		rep.gate(gatef("the updater counted %+v decisions but Advance returned %+v", c, t.upd.tally))
	}
	spent := float64(t.upd.upd.Spent())
	//sociolint:ignore floateq exact ledger totals are the gate
	if want := float64(pubs) * epsilon; spent != want {
		rep.gate(gatef("updater spent %g, want %d publishes x %g = %g", spent, pubs, epsilon, want))
	}
	//sociolint:ignore floateq exact ledger totals are the gate
	if after-before != spent {
		rep.gate(gatef("ledger grew by %g while the updater spent %g", after-before, spent))
	}
	rep.linef("epsilon gate: updater spent %g over %d publishes (%d full, %d delta, %d held); ledger grew by %g",
		spent, pubs, c.full, c.delta, c.held, after-before)
}

// verify runs the correctness gate over every served answer.
func verify(ctx context.Context, rep *report, t *tier, v *verifier, in *inputs) error {
	refs := staticRefs(t.ref)
	if t.upd != nil {
		refs = historyRefs(t.upd, in.social)
	}
	checked, mismatches, torn, err := v.check(ctx, refs)
	if err != nil {
		return err
	}
	rep.checked += checked
	rep.mismatches += mismatches
	rep.torn += torn
	return nil
}

func runUntraced(ctx context.Context, cfg config, in *inputs, dir string) (*report, error) {
	rep := newReport(cfg.wl.name)
	p := makePlan(cfg)
	t, setups, err := setupRepeated(ctx, cfg, p, in, dir, nil)
	if err != nil {
		return nil, err
	}
	defer t.close()
	rep.set("setup_s", "s", median(setups))
	rep.linef("setup: %d builds, seconds %v", len(setups), setups)
	before := budgetTotal()

	v := newVerifier(in, cfg.corrupt)
	tgt := &target{base: t.url, client: t.client, ver: t.ver}
	warm := schedule(cfg.seed*7919+1, p.rate, p.warmup, cfg.wl, in.tokens)
	v.add(warm, runPhase(tgt, warm, 1))

	// The nominal rate runs as nominalWindows windows. The latencies pool
	// the samples of the calmWindows windows in which the hypervisor stole
	// the least CPU: on a shared host, latency moves with steal far more
	// than with anything the program does, and steal comes and goes within
	// seconds.
	type window struct {
		steal         float64
		single, batch []float64
	}
	var wins []window
	var ps phaseStats
	var steals, p50s []float64
	w := startWriter(ctx, cfg, p, t, in, p.nominal)
	for i := 0; i < nominalWindows; i++ {
		arr := schedule(cfg.seed*7919+int64(2+i), p.rate, p.nominal/nominalWindows, cfg.wl, in.tokens)
		steal0, total0 := cpuTicks()
		outs := runPhase(tgt, arr, uint64(2+i))
		steal := stealSince(steal0, total0)
		v.add(arr, outs)
		st := summarize(arr, outs)
		wins = append(wins, window{steal: steal, single: st.single, batch: st.batch})
		ps.attempted += st.attempted
		ps.failed += st.failed
		steals, p50s = append(steals, steal), append(p50s, quantile(st.single, 0.5))
	}
	rep.linef("nominal: %.0f/s in %d windows of %v; steal %% by window %.1f; p50 ms by window %.3f",
		p.rate, nominalWindows, p.nominal/nominalWindows, steals, p50s)
	sort.SliceStable(wins, func(i, j int) bool { return wins[i].steal < wins[j].steal })
	var single, batch []float64
	for _, win := range wins[:calmWindows] {
		single, batch = append(single, win.single...), append(batch, win.batch...)
	}
	if err := w.wait(); err != nil {
		return nil, err
	}
	rep.set("rss_peak_mb", "MB", peakRSSMB())
	rep.set("p50_ms", "ms", quantile(single, 0.5))
	rep.linef("calm windows: steal at most %.1f%%, %d single and %d batch samples; not gated: p99 %.3f ms, batch p50 %.3f ms, batch p95 %.3f ms",
		wins[calmWindows-1].steal, len(single), len(batch), quantile(single, 0.99), quantile(batch, 0.5), quantile(batch, 0.95))
	rep.set("ok_ratio", "ratio", 1-float64(ps.failed)/float64(ps.attempted))
	rep.attempted, rep.failed = ps.attempted, ps.failed

	budgetGates(rep, t, p, before)
	t.close()
	if err := verify(ctx, rep, t, v, in); err != nil {
		return nil, err
	}
	return rep, nil
}

func runTraced(ctx context.Context, cfg config, in *inputs, dir string) (*report, error) {
	rep := newReport(cfg.wl.name)
	p := makePlan(cfg)
	p.setups = 1
	col := newCollector()
	t, _, err := setupRepeated(ctx, cfg, p, in, dir, col)
	if err != nil {
		return nil, err
	}
	defer t.close()
	if err := splitSetup(rep, in, t.rel); err != nil {
		return nil, err
	}
	for _, s := range []string{"save", "split", "save_sharded", "load_shard"} {
		rep.set("release."+s+"_s", "s", t.stages[s])
	}
	rep.set("release.shard_bytes", "bytes", t.stages["shard_bytes"])
	before := budgetTotal()

	v := newVerifier(in, cfg.corrupt)
	tgt := &target{base: t.url, client: t.client, ver: t.ver}
	warm := schedule(cfg.seed*7919+1, p.rate, p.warmup, cfg.wl, in.tokens)
	v.add(warm, runPhase(tgt, warm, 1))

	maxRPS, rates := capacity(tgt, in.tokens, cfg.seed, p.capacity, v.add)
	rep.set("capacity.max_rps", "1/s", maxRPS)
	rep.linef("capacity: %d clients, answers per second by window %.0f", maxOutstanding, rates)

	half := p.nominal / 2
	w := startWriter(ctx, cfg, p, t, in, 2*half)
	plain := schedule(cfg.seed*7919+2, p.rate, half, cfg.wl, in.tokens)
	plainOuts := runPhase(tgt, plain, 2)
	v.add(plain, plainOuts)

	c0 := t.counters()
	col.on.Store(true)
	traced := schedule(cfg.seed*7919+3, p.rate, half, cfg.wl, in.tokens)
	tracedOuts := runPhase(tgt, traced, 3)
	col.on.Store(false)
	c1 := t.counters()
	v.add(traced, tracedOuts)
	if err := w.wait(); err != nil {
		return nil, err
	}
	budgetGates(rep, t, p, before)
	t.close()

	psPlain, psTraced := summarize(plain, plainOuts), summarize(traced, tracedOuts)
	rep.attempted = psPlain.attempted + psTraced.attempted
	rep.failed = psPlain.failed + psTraced.failed
	rep.set("nominal.p99_ms", "ms", quantile(psPlain.single, 0.99))
	rep.set("nominal.batch_p50_ms", "ms", quantile(psPlain.batch, 0.5))
	rep.set("nominal.batch_p95_ms", "ms", quantile(psPlain.batch, 0.95))
	rep.set("loadgen.late_p99_ms", "ms", quantile(psPlain.late, 0.99))
	rep.set("loadgen.queue_p99_ms", "ms", quantile(psPlain.queue, 0.99))
	p50Plain, p50Traced := quantile(psPlain.single, 0.5), quantile(psTraced.single, 0.5)
	rep.set("bench.trace_overhead_pct", "%", 100*(p50Traced-p50Plain)/p50Plain)
	rep.set("router.shard_calls", "count", c1.shardCalls-c0.shardCalls)
	rep.set("router.retries", "count", c1.retries-c0.retries)
	rep.set("router.hedges", "count", c1.hedges-c0.hedges)
	rep.set("server.shed", "count", c1.shed-c0.shed)
	hits, misses := c1.cache.Hits-c0.cache.Hits, c1.cache.Misses-c0.cache.Misses
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	rep.set("simcache.hit_ratio", "ratio", ratio)
	rep.set("simcache.evictions", "count", float64(c1.cache.Evictions-c0.cache.Evictions))
	updateMetrics(rep, t)

	if err := layerMetrics(ctx, rep, t, in, col, traced, tracedOuts); err != nil {
		return nil, err
	}
	if err := verify(ctx, rep, t, v, in); err != nil {
		return nil, err
	}
	return rep, nil
}

// splitSetup repeats the engine build one layer at a time, with the seeds
// socialrec uses, and requires the same release bytes.
func splitSetup(rep *report, in *inputs, ref *release.Release) error {
	t0 := time.Now()
	clusters, _ := community.BestOf(in.social, 10, buildSeed, community.Options{})
	t1 := time.Now()
	eps := dp.Epsilon(epsilon)
	est, err := mechanism.NewCluster(clusters, in.prefs, eps, dp.SourceFor(eps, buildSeed+1))
	if err != nil {
		return err
	}
	t2 := time.Now()
	rep.set("community.louvain_s", "s", t1.Sub(t0).Seconds())
	rep.set("mechanism.laplace_release_s", "s", t2.Sub(t1).Seconds())
	split := &release.Release{Epsilon: epsilon, Measure: measure, Clusters: clusters,
		NumItems: in.prefs.NumItems(), Avg: est.Averages()}
	var a, b bytes.Buffer
	if err := release.Write(&a, split); err != nil {
		return err
	}
	if err := release.Write(&b, ref); err != nil {
		return err
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		rep.gate(gatef("layer-by-layer setup wrote a different release than socialrec.NewEngineFromGraphs"))
	}
	rep.linef("setup split: louvain %.3fs, laplace release %.3fs, release bytes identical: %v",
		t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), bytes.Equal(a.Bytes(), b.Bytes()))
	return nil
}

// counters is a snapshot of the tier's cumulative counters.
type counters struct {
	shardCalls, retries, hedges, shed float64
	cache                             simcache.Stats
}

func (t *tier) counters() counters {
	c := counters{
		shardCalls: counter(t.rtReg, "router_shard_attempts_total"),
		retries:    counter(t.rtReg, "router_retries_total"),
		hedges:     counter(t.rtReg, "router_hedges_total"),
		shed:       sumCounter(t.srvRegs, "http_shed_total"),
	}
	if t.upd != nil {
		c.cache = t.upd.cacheStats()
		return c
	}
	for _, e := range t.engines {
		if s, ok := e.CacheStats(); ok {
			c.cache.Hits += s.Hits
			c.cache.Misses += s.Misses
			c.cache.Evictions += s.Evictions
		}
	}
	return c
}

// updateMetrics reports the write side of the update workload (zero
// elsewhere: the serve workloads have no writer).
func updateMetrics(rep *report, t *tier) {
	u := t.upd
	if u == nil {
		u = &updateState{}
	}
	rep.set("release.delta_load_ms", "ms", quantile(u.deltaLoadMS, 0.5))
	rep.set("wal.append_sync_ms", "ms", quantile(u.appendSyncMS, 0.5))
	rep.set("dynamic.advance_p50_ms", "ms", quantile(u.advanceMS, 0.5))
	rep.set("dynamic.advance_max_ms", "ms", quantile(u.advanceMS, 1))
	c := u.counted()
	rep.set("dynamic.published_full", "count", float64(c.full))
	rep.set("dynamic.published_delta", "count", float64(c.delta))
	rep.set("dynamic.held", "count", float64(c.held))
	rep.set("server.reload_p50_ms", "ms", quantile(u.reloadMS, 0.5))
	rep.set("fresh_p50_s", "s", quantile(u.freshS, 0.5))
	rep.set("fresh_p90_s", "s", quantile(u.freshS, 0.9))
}

// layerMetrics turns the traced phase's spans into per-layer metrics,
// replays the engine calls, and prints the decomposition.
func layerMetrics(ctx context.Context, rep *report, t *tier, in *inputs, col *collector, arr []arrival, outs []outcome) error {
	col.mu.Lock()
	defer col.mu.Unlock()
	batchTrace := map[string]bool{}
	for i := range arr {
		if outs[i].traceID != "" {
			batchTrace[outs[i].traceID] = arr[i].batch
		}
	}
	engineByKey := map[spanKey]time.Duration{}
	var engUS []float64
	for _, c := range col.engine {
		engineByKey[c.key] += c.dur()
		engUS = append(engUS, us(c.dur()))
	}
	rep.set("engine.recommend_p50_us", "us", quantile(engUS, 0.5))
	rep.set("engine.recommend_p99_us", "us", quantile(append([]float64(nil), engUS...), 0.99))

	// Server self time: the server's span minus its engine calls.
	var srvSelf, srvBatchSelf []float64
	serverByTrace := map[string][]span{}
	for k, spans := range col.server {
		var total time.Duration
		for _, s := range spans {
			total += s.dur()
		}
		self := us(total - engineByKey[k])
		if batchTrace[k.trace] {
			srvBatchSelf = append(srvBatchSelf, self)
		} else {
			srvSelf = append(srvSelf, self)
		}
		serverByTrace[k.trace] = append(serverByTrace[k.trace], spans...)
	}
	rep.set("server.self_p50_us", "us", quantile(srvSelf, 0.5))
	rep.set("server.self_p99_us", "us", quantile(append([]float64(nil), srvSelf...), 0.99))
	rep.set("server.batch_self_p50_us", "us", quantile(srvBatchSelf, 0.5))

	// Router self time: the router's span minus the time any shard call
	// was being served (the router→shard transport stays in router self).
	var rtSelf []float64
	for id, sp := range col.router {
		rtSelf = append(rtSelf, us(sp.dur()-union(serverByTrace[id], sp)))
	}
	rep.set("router.self_p50_us", "us", quantile(rtSelf, 0.5))
	rep.set("router.self_p99_us", "us", quantile(append([]float64(nil), rtSelf...), 0.99))

	// Replay the engine calls per shard (or per served version).
	var rs replayStats
	groups, err := replayGroups(ctx, t, col.engine)
	if err != nil {
		return err
	}
	for _, g := range groups {
		if err := replay(g.calls, g.rel, in.social, &rs); err != nil {
			return err
		}
	}
	if rs.mismatches > 0 {
		rep.gate(gatef("%d of %d replayed lists differ from the served ones", rs.mismatches, rs.calls))
	}
	rep.linef("replay: %d engine calls replayed, %d differ", rs.calls, rs.mismatches)
	rep.set("similarity.p50_us", "us", quantile(append([]float64(nil), rs.simUS...), 0.5))
	rep.set("similarity.p99_us", "us", quantile(append([]float64(nil), rs.simUS...), 0.99))
	rep.set("similarity.set_size_mean", "users", mean(rs.setSize))
	rep.set("mechanism.cluster_average_p50_us", "us", quantile(append([]float64(nil), rs.avgUS...), 0.5))
	rep.set("mechanism.clusters_touched_mean", "clusters", mean(rs.touched))
	rep.set("core.top_n_p50_us", "us", quantile(append([]float64(nil), rs.topUS...), 0.5))
	rep.set("engine.residual_p50_us", "us", quantile(append([]float64(nil), rs.residUS...), 0.5))

	// Single-request decomposition, in means (which add up): client round
	// trip = net + router self + server self + engine + residual.
	var rtt, net, rself, sself, eng []float64
	for i := range arr {
		o := &outs[i]
		if arr[i].batch || o.status != 200 || o.traceID == "" {
			continue
		}
		srv := serverByTrace[o.traceID]
		if len(srv) == 0 {
			continue
		}
		outer, hasRouter := col.router[o.traceID]
		if !hasRouter {
			outer = srv[0]
		}
		var srvTotal time.Duration
		for _, s := range srv {
			srvTotal += s.dur()
		}
		var engTotal time.Duration
		for k, d := range engineByKey {
			if k.trace == o.traceID {
				engTotal += d
			}
		}
		rtt = append(rtt, us(o.done-o.sent))
		net = append(net, us(o.done-o.sent-outer.dur()))
		if hasRouter {
			rself = append(rself, us(outer.dur()-union(srv, outer)))
		} else {
			rself = append(rself, 0)
		}
		sself = append(sself, us(srvTotal-engTotal))
		eng = append(eng, us(engTotal))
	}
	rep.set("net.residual_p50_us", "us", quantile(append([]float64(nil), net...), 0.5))
	top := mean(net) + mean(rself) + mean(sself) + mean(eng)
	rep.linef("decomposition (%s, %d single requests, mean us): round trip %.1f = net %.1f + router self %.1f + server self %.1f + engine %.1f + residual %.1f",
		rep.wl, len(rtt), mean(rtt), mean(net), mean(rself), mean(sself), mean(eng), mean(rtt)-top)
	inner := mean(rs.simUS) + mean(rs.avgUS) + mean(rs.topUS)
	rep.linef("decomposition (%s, %d engine calls, mean us): engine %.1f = similarity %.1f + cluster_average %.1f + top_n %.1f + residual %.1f",
		rep.wl, len(engUS), mean(engUS), mean(rs.simUS), mean(rs.avgUS), mean(rs.topUS), mean(engUS)-inner)
	return nil
}

type replayGroup struct {
	calls []engineCall
	rel   *release.Release
}

// replayGroups splits the engine calls by the release that served them:
// per shard for the sharded tier, per installed version for the update
// workload (calls a reload may have raced are left out).
func replayGroups(ctx context.Context, t *tier, calls []engineCall) ([]replayGroup, error) {
	sorted := append([]engineCall(nil), calls...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].start < sorted[j].start })
	if t.upd == nil {
		groups := make([]replayGroup, len(t.shards))
		for i, sh := range t.shards {
			groups[i].rel = sh.Release
		}
		for _, c := range sorted {
			if !c.err {
				groups[c.key.shard].calls = append(groups[c.key.shard].calls, c)
			}
		}
		return groups, nil
	}
	byVersion := map[uint64][]engineCall{}
	for _, c := range sorted {
		if !c.err && c.vLo == c.vHi {
			byVersion[c.vLo] = append(byVersion[c.vLo], c)
		}
	}
	var groups []replayGroup
	for _, h := range t.upd.historyCopy() {
		cs := byVersion[h.version]
		if len(cs) == 0 {
			continue
		}
		rel, err := t.upd.releaseAt(ctx, h)
		if err != nil {
			return nil, err
		}
		groups = append(groups, replayGroup{calls: cs, rel: rel})
	}
	return groups, nil
}
