package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"socialrec"
	"socialrec/internal/dp"
	"socialrec/internal/dynamic"
	"socialrec/internal/release"
	"socialrec/internal/router"
	"socialrec/internal/server"
	"socialrec/internal/similarity"
	"socialrec/internal/telemetry"
	"socialrec/internal/trace"
	"socialrec/internal/wal"
)

// The engine configuration is cmd/recserve's flag defaults: -measure CN,
// -epsilon 1.0, -seed 1 (Louvain best of 10), -simcache -1 (4096 entries).
const (
	numShards = 3
	measure   = "CN"
	epsilon   = 1.0
	buildSeed = 1
	cacheCap  = 4096
)

var engineConfig = socialrec.Config{Measure: measure, Epsilon: epsilon, Seed: buildSeed}

// logger sends the tier's warnings to standard error; standard output is
// reserved for the report.
var logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn}))

func discardf(string, ...any) {}

// proc is one in-process HTTP "process" on a loopback listener.
type proc struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*proc, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	// The timeouts are cmd/recserve's and cmd/recrouter's.
	p := &proc{
		srv: &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second, ReadTimeout: 30 * time.Second,
			WriteTimeout: 30 * time.Second, IdleTimeout: 120 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(p.done)
		_ = p.srv.Serve(ln)
	}()
	return p, nil
}

func (p *proc) stop(ctx context.Context) {
	if err := p.srv.Shutdown(ctx); err != nil {
		_ = p.srv.Close()
	}
	<-p.done
}

// tier is a running serving tier.
type tier struct {
	url    string // where the generator sends requests
	client *http.Client

	ref     *socialrec.Engine // unsharded engine for the same release
	rel     *release.Release  // the full release built at setup
	shards  []*release.Shard  // per-shard releases (sharded tier)
	engines []cacheStatser    // serving engines, per shard
	rt      *router.Router
	rtReg   *telemetry.Registry
	srvRegs []*telemetry.Registry
	procs   []*proc
	stops   []func()
	closed  sync.Once
	ver     *versions
	upd     *updateState // update workload only

	setupS float64            // generated graphs in memory to first 200
	stages map[string]float64 // per-step setup seconds and sizes
}

type cacheStatser interface {
	CacheStats() (socialrec.CacheStats, bool)
}

// close stops every process of the tier and waits for them.
func (t *tier) close() { t.closed.Do(t.shutdown) }

func (t *tier) shutdown() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if t.rt != nil {
		_ = t.rt.Shutdown(ctx)
	}
	for _, p := range t.procs {
		p.stop(ctx)
	}
	for _, s := range t.stops {
		s()
	}
	if t.upd != nil {
		_ = t.upd.log.Close()
	}
	t.client.CloseIdleConnections()
}

// timed runs f and records its seconds under name.
func (t *tier) timed(name string, f func() error) error {
	t0 := time.Now()
	err := f()
	t.stages[name] += time.Since(t0).Seconds()
	return err
}

// newProcess returns the per-process tracer and registry, as each of
// cmd/recserve and cmd/recrouter configures at start.
func (t *tier) newProcess(name string) (*trace.Tracer, *telemetry.Registry) {
	reg := telemetry.NewRegistry()
	t.stops = append(t.stops, telemetry.StartRuntimeCollector(reg, 0))
	return trace.New(trace.Config{Capacity: 1024, HeadRate: 1, Process: name}), reg
}

// setupSharded builds the sharded tier the way `recserve -prefs ...
// -release-dir D -shards 3`, then `recserve -release-dir D -shard i` for
// each shard and `recrouter -store D -shard ...` build it. col, when
// non-nil, installs the benchmark's wrappers (off until a traced phase).
func setupSharded(ctx context.Context, in *inputs, dir string, col *collector) (*tier, error) {
	t := &tier{client: newClient(), stages: map[string]float64{}}
	t0 := time.Now()
	ok := false
	defer func() {
		if !ok {
			t.close()
		}
	}()

	// recserve -prefs -release-dir -shards 3: build, save, split, save the
	// sharded generation.
	eng, err := socialrec.NewEngineFromGraphs(in.social, in.prefs, engineConfig)
	if err != nil {
		return nil, err
	}
	rel, err := eng.Release()
	if err != nil {
		return nil, err
	}
	t.ref, t.rel = eng, rel
	buildReg := telemetry.NewRegistry()
	store, err := release.OpenStore(dir, release.StoreOptions{Metrics: buildReg, Logf: discardf})
	if err != nil {
		return nil, err
	}
	if err := t.timed("save", func() error { _, err := store.Save(rel); return err }); err != nil {
		return nil, err
	}
	var (
		manifest *release.Manifest
		shards   []*release.Shard
	)
	if err := t.timed("split", func() (err error) {
		manifest, shards, err = splitRelease(rel, in)
		return err
	}); err != nil {
		return nil, err
	}
	if err := t.timed("save_sharded", func() error {
		_, err := store.SaveSharded(ctx, manifest, shards)
		return err
	}); err != nil {
		return nil, err
	}
	t.stages["shard_bytes"] = float64(dirBytes(dir, "shard-"))

	// recserve -release-dir -shard i, one per shard.
	shardURLs := make([][]string, numShards)
	for i := 0; i < numShards; i++ {
		tr, reg := t.newProcess("shard_" + strconv.Itoa(i))
		st, err := release.OpenStore(dir, release.StoreOptions{Metrics: reg, Logf: discardf})
		if err != nil {
			return nil, err
		}
		var se *socialrec.ShardEngine
		if err := t.timed("load_shard", func() error {
			m, _, err := st.LoadManifest(ctx)
			if err != nil {
				return err
			}
			sh, err := st.LoadShard(ctx, m, i)
			if err != nil {
				return err
			}
			t.shards = append(t.shards, sh)
			se, err = socialrec.EngineFromShard(sh, in.social)
			return err
		}); err != nil {
			return nil, err
		}
		se.EnableSimilarityCache(cacheCap)
		hot := server.NewHot(se, manifest.Version)
		var engine server.Engine = hot
		if col != nil {
			engine = &tracedEngine{Hot: hot, col: col, shard: i}
		}
		srv, err := server.New(server.Config{Engine: engine, UserIDs: in.userIDs, Stats: in.stats,
			MaxN: 100, Logger: logger, Metrics: reg, Tracer: tr})
		if err != nil {
			return nil, err
		}
		var h http.Handler = srv
		if col != nil {
			h = col.wrapServer(i, srv)
		}
		p, err := listen(h)
		if err != nil {
			return nil, err
		}
		t.procs = append(t.procs, p)
		t.engines = append(t.engines, se)
		t.srvRegs = append(t.srvRegs, reg)
		shardURLs[i] = []string{p.url}
	}

	// recrouter -store D -shard <url> x3, with its flag defaults.
	tr, reg := t.newProcess("recrouter")
	st, err := release.OpenStore(dir, release.StoreOptions{Metrics: reg, Logf: discardf})
	if err != nil {
		return nil, err
	}
	m, _, err := st.LoadManifest(ctx)
	if err != nil {
		return nil, err
	}
	rt, err := router.New(router.Config{
		Manifest: m, UserIDs: in.userIDs, Shards: shardURLs,
		MaxAttempts: 3, PerTryTimeout: 2 * time.Second, RequestTimeout: 10 * time.Second,
		RetryBackoff: 10 * time.Millisecond, HedgeDelay: 0, ProbeInterval: 2 * time.Second,
		Breaker:  router.BreakerConfig{FailureThreshold: 5, OpenFor: 2 * time.Second},
		MaxBatch: 1000, Seed: 1, Logger: logger, Metrics: reg, Tracer: tr,
	})
	if err != nil {
		return nil, err
	}
	rt.Start()
	t.rt, t.rtReg = rt, reg
	var h http.Handler = rt
	if col != nil {
		h = col.wrapRouter(rt)
	}
	p, err := listen(h)
	if err != nil {
		return nil, err
	}
	t.procs = append(t.procs, p)
	t.url = p.url
	if err := t.firstOK(ctx, in); err != nil {
		return nil, err
	}
	t.setupS = time.Since(t0).Seconds()
	ok = true
	return t, nil
}

// splitRelease maps clusters to shards through the same consistent-hash
// ring cmd/recserve -shards uses and splits the release with the measure's
// hop horizon.
func splitRelease(rel *release.Release, in *inputs) (*release.Manifest, []*release.Shard, error) {
	m, err := similarity.ByName(rel.Measure)
	if err != nil {
		return nil, nil, err
	}
	names := make([]string, numShards)
	for i := range names {
		names[i] = fmt.Sprintf("shard_%d", i)
	}
	ring, err := router.NewRing(names, 0)
	if err != nil {
		return nil, nil, err
	}
	clusterShard := make([]int32, rel.Clusters.NumClusters())
	for c := range clusterShard {
		clusterShard[c] = int32(ring.NodeIndex("cluster:" + strconv.Itoa(c)))
	}
	return release.SplitRelease(rel, in.social, clusterShard, numShards, similarity.Horizon(m))
}

// setupSingle builds the update workload's tier: one server over a Hot slot
// serving the newest release of a store, the way `recserve -release-dir D`
// serves it, with the streaming updater consuming a mutation WAL beside it.
func setupSingle(ctx context.Context, in *inputs, dir string, col *collector) (*tier, error) {
	t := &tier{client: newClient(), stages: map[string]float64{}, ver: &versions{}}
	t0 := time.Now()
	ok := false
	defer func() {
		if !ok {
			t.close()
		}
	}()
	tr, reg := t.newProcess("recserve")
	eng, err := socialrec.NewEngineFromGraphs(in.social, in.prefs, engineConfig)
	if err != nil {
		return nil, err
	}
	rel, err := eng.Release()
	if err != nil {
		return nil, err
	}
	t.ref, t.rel = eng, rel
	store, err := release.OpenStore(filepath.Join(dir, "releases"), release.StoreOptions{Metrics: reg, Logf: discardf})
	if err != nil {
		return nil, err
	}
	if err := t.timed("save", func() error { _, err := store.Save(rel); return err }); err != nil {
		return nil, err
	}
	wlog, _, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{Metrics: reg, Logf: discardf})
	if err != nil {
		return nil, err
	}
	upd, err := dynamic.OpenUpdater(dynamic.UpdaterConfig{
		TotalBudget: dp.Epsilon(math.MaxInt32), PerRelease: dp.Epsilon(epsilon),
		Seed: buildSeed, JournalPath: filepath.Join(dir, "journal.bin"),
		WAL: wlog, Store: store, BaseSocial: in.social, BasePrefs: in.prefs,
		Metrics: reg, Logf: discardf,
	})
	if err != nil {
		_ = wlog.Close()
		return nil, err
	}
	t.upd = &updateState{upd: upd, log: wlog, store: store, social: in.social, ver: t.ver, reg: reg}

	// recserve -release-dir D: serve the newest lineage from the store.
	served, ln, _, err := store.LoadLatestContext(ctx)
	if err != nil {
		return nil, err
	}
	se, err := socialrec.EngineFromRelease(served, in.social)
	if err != nil {
		return nil, err
	}
	se.EnableSimilarityCache(cacheCap)
	hot := server.NewHot(se, ln.Version())
	t.ver.set(ln.Version())
	t.upd.hot = hot
	t.upd.history = []installed{{version: ln.Version(), lineage: ln}}
	var engine server.Engine = hot
	if col != nil {
		engine = &tracedEngine{Hot: hot, col: col, ver: t.ver}
	}
	srv, err := server.New(server.Config{Engine: engine, UserIDs: in.userIDs, Stats: in.stats,
		MaxN: 100, Logger: logger, Metrics: reg, Tracer: tr})
	if err != nil {
		return nil, err
	}
	var h http.Handler = srv
	if col != nil {
		h = col.wrapServer(0, srv)
	}
	p, err := listen(h)
	if err != nil {
		return nil, err
	}
	t.procs = append(t.procs, p)
	t.engines = []cacheStatser{se}
	t.srvRegs = []*telemetry.Registry{reg}
	t.url = p.url
	if err := t.firstOK(ctx, in); err != nil {
		return nil, err
	}
	t.setupS = time.Since(t0).Seconds()
	ok = true
	return t, nil
}

// firstOK polls until the tier answers a recommendation with 200.
func (t *tier) firstOK(ctx context.Context, in *inputs) error {
	url := t.url + "/recommend?user=" + in.tokens[0] + "&n=" + strconv.Itoa(listN)
	deadline := time.Now().Add(30 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return err
		}
		resp, err := t.client.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return errors.New("perfbench: tier never answered 200")
		}
		time.Sleep(time.Millisecond)
	}
}

// dirBytes sums the sizes of the files in dir whose names start with prefix.
func dirBytes(dir, prefix string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), prefix) {
			continue
		}
		if fi, err := e.Info(); err == nil {
			n += fi.Size()
		}
	}
	return n
}

// counter sums a registry counter over its labels.
func counter(reg *telemetry.Registry, name string) float64 {
	if reg == nil {
		return 0
	}
	var v float64
	for _, m := range reg.Snapshot().Counters {
		if m.Name == name {
			v += m.Value
		}
	}
	return v
}

func sumCounter(regs []*telemetry.Registry, name string) float64 {
	var v float64
	for _, r := range regs {
		v += counter(r, name)
	}
	return v
}
