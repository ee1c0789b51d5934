// Command recserve serves differentially private social recommendations
// over HTTP. The private release happens once at startup; every request is
// post-processing over the sanitized state, so serving consumes no further
// privacy budget no matter how many queries arrive.
//
// Usage:
//
//	recserve -social data/social.tsv -prefs data/preferences.tsv -epsilon 0.5 -addr :8080
//
// Endpoints (see internal/server):
//
//	GET  /healthz                         liveness probe (process up)
//	GET  /readyz                          readiness: release version, load time, degraded state
//	GET  /stats                           dataset + clustering summary
//	GET  /users?limit=N                   known user tokens
//	GET  /recommend?user=<id>&n=<count>   top-n list for one user
//	POST /recommend/batch                 {"users": [...], "n": 10}
//	POST /admin/reload                    hot-reload the release (also SIGHUP)
//	GET  /metrics                         telemetry (JSON; ?format=prometheus)
//	GET  /debug/vars                      expvar
//	GET  /debug/traces                    retained request traces (see internal/trace)
//
// Every request runs under a root trace span; an inbound W3C traceparent
// header is continued, the response always carries one back, and logs emit
// trace_id/span_id for correlation. -trace-sample sets the deterministic
// head-sampling rate; error and slow-tail traces are always retained and
// visible at /debug/traces regardless of the rate.
//
// With -release-dir releases live in a crash-safe versioned store
// (internal/release.Store): a build persists the new release there, and a
// serve-only start (no -prefs) recovers the newest valid version, skipping
// corrupt files. SIGHUP or POST /admin/reload hot-swaps the newest release
// into the serving path without dropping in-flight requests; a failed
// reload keeps the last-good release serving and marks /readyz degraded.
//
// With -debug-addr a second listener additionally serves net/http/pprof
// under /debug/pprof/ (and /debug/traces again). Profiles expose goroutine
// stacks and allocation sites, never user or preference data, but the
// endpoint is still kept off the public listener by default.
//
// -chaos arms deterministic fault injection on the request path (see
// internal/faults) for resilience testing; never set it in production.
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"syscall"
	"time"

	"socialrec"
	"socialrec/internal/dataset"
	"socialrec/internal/faults"
	"socialrec/internal/graph"
	"socialrec/internal/httpedge"
	"socialrec/internal/release"
	"socialrec/internal/router"
	"socialrec/internal/server"
	"socialrec/internal/similarity"
	"socialrec/internal/telemetry"
	"socialrec/internal/trace"
)

// logger is the process logger: text to stderr, with trace_id/span_id
// injected on any record logged with a request context.
var logger = slog.New(trace.NewSlogHandler(slog.NewTextHandler(os.Stderr, nil)))

// fatal logs at error level and exits. Package main owns process-exit
// policy (sociolint's fatalscope bars libraries from it).
func fatal(msg string, args ...any) {
	logger.Error(msg, args...)
	os.Exit(1)
}

func main() {
	var (
		socialPath = flag.String("social", "", "path to social edge TSV (required)")
		prefsPath  = flag.String("prefs", "", "path to preference edge TSV (required)")
		epsArg     = flag.String("epsilon", "1.0", "privacy budget ε, or 'inf'")
		measure    = flag.String("measure", "CN", "similarity measure: CN, GD, AA or KZ")
		addr       = flag.String("addr", ":8080", "listen address")
		seed       = flag.Int64("seed", 1, "seed for clustering order and noise")
		maxN       = flag.Int("max-n", 100, "largest list length a request may ask for")
		minWeight  = flag.Float64("min-weight", 1, "discard raw preference edges below this weight")
		releaseDir = flag.String("release-dir", "", "crash-safe versioned release store: builds save here; without -prefs the newest valid release is served from it")
		simCache   = flag.Int("simcache", -1, "similarity LRU cache capacity; 0 disables, -1 selects the default 4096")
		debugAddr  = flag.String("debug-addr", "", "optional second listen address for net/http/pprof and /debug/traces")
		chaosOn    = flag.Bool("chaos", false, "arm deterministic fault injection on the request path (testing only)")
		chaosSeed  = flag.Int64("chaos-seed", 1, "seed for the -chaos fault schedule")
		traceRate  = flag.Float64("trace-sample", 1, "head-sampling rate for request traces in [0, 1]; error and slow-tail traces are retained regardless")
		traceCap   = flag.Int("trace-capacity", 1024, "how many retained traces /debug/traces keeps before overwriting the oldest")
		numShards  = flag.Int("shards", 0, "with -prefs and -release-dir: additionally split the release into this many shards and persist the sharded generation")
		shardID    = flag.Int("shard", -1, "serve one shard of the newest sharded generation in -release-dir (shard servers refuse users other shards own with 421)")
	)
	flag.Parse()
	if *socialPath == "" || (*prefsPath == "" && *releaseDir == "") {
		fatal("recserve: -social and one of -prefs / -release-dir are required")
	}
	if *shardID >= 0 && (*prefsPath != "" || *releaseDir == "") {
		fatal("recserve: -shard serves from a sharded store generation; it requires -release-dir and excludes -prefs")
	}
	if *numShards > 0 && (*prefsPath == "" || *releaseDir == "") {
		fatal("recserve: -shards splits a freshly built release; it requires -prefs and -release-dir")
	}

	// Configure the process tracer before anything can start a span. The
	// process name stamps every exported trace so the fleet collector can
	// tell which shard a span came from when stitching across processes.
	process := "recserve"
	if *shardID >= 0 {
		process = "shard_" + strconv.Itoa(*shardID)
	}
	trace.SetDefault(trace.New(trace.Config{
		Capacity:     *traceCap,
		HeadRate:     *traceRate,
		HeadRateZero: *traceRate <= 0,
		Process:      process,
	}))

	eps := math.Inf(1)
	if *epsArg != "inf" {
		var err error
		eps, err = strconv.ParseFloat(*epsArg, 64)
		if err != nil {
			fatal("recserve: bad -epsilon", "value", *epsArg, "err", err)
		}
	}

	_, loadSpan := trace.Start(context.Background(), "graph_load")
	sf, err := os.Open(*socialPath)
	if err != nil {
		fatal("recserve: opening social graph", "err", err)
	}
	social, userIDs, err := dataset.ReadSocialTSV(sf)
	_ = sf.Close()
	if err != nil {
		fatal("recserve: parsing social graph", "path", *socialPath, "err", err)
	}
	loadSpan.End()

	var store *release.Store
	if *releaseDir != "" {
		store, err = release.OpenStore(*releaseDir, release.StoreOptions{
			Logf: func(format string, args ...any) {
				logger.Info(fmt.Sprintf(format, args...))
			},
		})
		if err != nil {
			fatal("recserve: opening release store", "err", err)
		}
	}

	cacheCap := -1
	if *simCache != 0 {
		cacheCap = *simCache
		if cacheCap < 0 {
			cacheCap = 0 // simcache.New maps < 1 to its default
		}
	}

	var (
		hot     *server.Hot
		itemTok []string
		stats   = dataset.Stats{Users: social.NumUsers(), SocialEdges: social.NumEdges()}
	)
	switch {
	case *shardID >= 0:
		// Serve one shard of the newest sharded generation: the raw
		// preference data never enters this process, and users owned by
		// other shards are refused with 421 instead of answered wrongly.
		shardEng, version, err := loadShardEngineStore(context.Background(), store, social, *shardID)
		if err != nil {
			fatal("recserve: loading shard from release store", "dir", store.Dir(), "shard", *shardID, "err", err)
		}
		logger.Info("recserve: serving stored shard", "shard", *shardID, "version", version, "dir", store.Dir())
		if cacheCap >= 0 {
			shardEng.EnableSimilarityCache(cacheCap)
		}
		hot = server.NewHot(shardEng, version)
	case *prefsPath != "":
		var engine *socialrec.Engine
		engine, itemTok, stats = buildEngine(social, userIDs, *prefsPath, *measure, eps, *seed, *minWeight)
		var version uint64 = 1
		if store != nil {
			rel, err := engine.Release()
			if err != nil {
				fatal("recserve: extracting release", "err", err)
			}
			version, err = store.Save(rel)
			if err != nil {
				fatal("recserve: saving release to store", "err", err)
			}
			//sociolint:ignore privflow version is the store's monotonic release counter, not preference data
			logger.Info("recserve: sanitized release saved", "dir", store.Dir(), "version", version)
			if *numShards > 0 {
				//sociolint:ignore privflow saveSharded logs only the store version and shard count; engine data flows to the release store, not to logs
				saveSharded(store, engine, social, *numShards)
			}
		}
		if cacheCap >= 0 {
			engine.EnableSimilarityCache(cacheCap)
		}
		hot = server.NewHot(engine, version)
	default:
		// Serve the newest valid full release plus its delta chain from
		// the store, recovering past any corrupt or torn artifacts: the
		// raw preference data never enters this process.
		hot, err = startFromStore(context.Background(), store, social, cacheCap)
		if err != nil {
			fatal("recserve: loading from release store", "dir", store.Dir(), "err", err)
		}
		st := hot.Status()
		//sociolint:ignore privflow versions and chain length are store metadata, not preference data
		logger.Info("recserve: serving stored release", "version", st.Version,
			"full_version", st.FullVersion, "deltas", len(st.Deltas), "dir", store.Dir())
	}

	reg := telemetry.Default()
	stopRuntime := telemetry.StartRuntimeCollector(reg, 0)
	defer stopRuntime()
	if cacheCap >= 0 {
		registerCacheGauges(reg, hot)
	}

	var freg *faults.Registry
	if *chaosOn {
		freg = faults.New(*chaosSeed)
		// Background chaos: a small fraction of requests fail with an
		// injected 500, a rarer fraction panic into the recovery
		// middleware, all firings add latency jitter.
		freg.Arm(faults.PointHandler, faults.Plan{Prob: 0.05, Delay: 2 * time.Millisecond})
		logger.Warn("recserve: CHAOS MODE armed — do not run in production",
			"points", fmt.Sprint(freg.Points()), "seed", *chaosSeed)
	}

	var reload func(context.Context) error
	if *shardID >= 0 {
		reload = makeShardReload(hot, store, social, *shardID, cacheCap)
	} else {
		reload = makeReload(hot, store, social, cacheCap)
	}

	srv, err := server.New(server.Config{
		Engine:     hot,
		UserIDs:    userIDs,
		ItemTokens: itemTok,
		Stats:      stats,
		MaxN:       *maxN,
		Logger:     logger,
		Metrics:    reg,
		Reload:     reload,
		Faults:     freg,
	})
	if err != nil {
		fatal("recserve: building server", "err", err)
	}

	mux := http.NewServeMux()
	mux.Handle("/", srv)
	mux.Handle("GET /metrics", telemetry.Handler(reg, telemetry.Stages(), telemetry.Budget()))
	mux.Handle("GET /debug/vars", expvar.Handler())
	mux.Handle("GET /debug/traces", trace.Handler(trace.Default()))
	mux.Handle("GET /debug/traces/{trace_id}", trace.LookupHandler(trace.Default()))

	if *debugAddr != "" {
		dbg := http.NewServeMux()
		dbg.HandleFunc("/debug/pprof/", pprof.Index)
		dbg.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dbg.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dbg.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dbg.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dbg.Handle("GET /debug/traces", trace.Handler(trace.Default()))
		dbg.Handle("GET /debug/traces/{trace_id}", trace.LookupHandler(trace.Default()))
		go func() {
			logger.Info("recserve: debug listener up", "addr", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, dbg); err != nil {
				logger.Error("recserve: debug listener", "err", err)
			}
		}()
	}

	if reload != nil {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				logger.Info("recserve: SIGHUP: reloading release")
				if err := reload(context.Background()); err != nil {
					logger.Error("recserve: reload failed (still serving last-good release)", "err", err)
				} else {
					//sociolint:ignore privflow release version is a monotonic counter, not preference data
					logger.Info("recserve: reloaded", "version", hot.Status().Version)
				}
			}
		}()
	}

	logger.Info("recserve: serving", "users", social.NumUsers(), "addr", *addr,
		//sociolint:ignore privflow cluster count and epsilon are public release parameters
		"clusters", hot.NumClusters(), "epsilon", hot.Epsilon())
	if err := httpedge.Serve(context.Background(), *addr, mux, nil); err != nil {
		fatal("recserve: serving", "err", err)
	}
	logger.Info("recserve: shut down")
	logger.Info("recserve: final privacy budget", "budget", telemetry.Budget().Snapshot().String())
	logger.Info("recserve: final stage timings", "table", telemetry.Stages().Table())
}

// buildEngine constructs a private engine from raw preference data.
func buildEngine(social *graph.Social, userIDs map[string]int, prefsPath, measure string,
	eps float64, seed int64, minWeight float64) (*socialrec.Engine, []string, dataset.Stats) {
	pf, err := os.Open(prefsPath)
	if err != nil {
		fatal("recserve: opening preferences", "err", err)
	}
	raw, itemIDs, err := dataset.ReadPreferenceTSV(pf, userIDs)
	_ = pf.Close()
	if err != nil {
		fatal("recserve: parsing preferences", "path", prefsPath, "err", err)
	}
	prefs, _, err := dataset.BuildPreferences(social.NumUsers(), len(itemIDs), raw, minWeight)
	if err != nil {
		fatal("recserve: building preference graph", "err", err)
	}
	engine, err := socialrec.NewEngineFromGraphs(social, prefs, socialrec.Config{
		Measure: measure, Epsilon: eps, Seed: seed,
	})
	if err != nil {
		fatal("recserve: building engine", "err", err)
	}
	itemTok := make([]string, len(itemIDs))
	for tok, id := range itemIDs {
		itemTok[id] = tok
	}
	ds := &dataset.Dataset{Name: "served", Social: social, Prefs: prefs}
	return engine, itemTok, ds.Summarize()
}

// loadLineageStore resolves the newest full generation plus its valid
// delta chain from the store and builds the engine serving the composed
// release. base is the bare full generation the chain was composed from,
// read once with it.
func loadLineageStore(ctx context.Context, store *release.Store, social *graph.Social) (*socialrec.Engine, *release.Release, release.Lineage, error) {
	rel, base, ln, skipped, err := store.LoadLineage(ctx)
	for _, sk := range skipped {
		logger.WarnContext(ctx, "recserve: release store skipped corrupt artifact",
			"file", sk.Name, "err", sk.Err)
	}
	if err != nil {
		return nil, nil, ln, err
	}
	engine, err := socialrec.EngineFromRelease(rel, social)
	if err != nil {
		return nil, nil, ln, err
	}
	return engine, base, ln, nil
}

// fullEngine returns the engine of ln's bare full generation, which the
// slot retains for rollback: engine itself when ln carries no deltas, else
// an engine over base, the full generation loadLineageStore read (no
// delta writes into it, so the engine can adopt its table). Only the paths
// that install a full generation call it (start-up and a new full
// generation in reloadFromStore); a longer chain on the served full needs
// neither.
func fullEngine(social *graph.Social, engine *socialrec.Engine, base *release.Release,
	ln release.Lineage) (*socialrec.Engine, error) {
	if len(ln.Deltas) == 0 {
		return engine, nil
	}
	return socialrec.EngineFromRelease(base, social)
}

// startFromStore builds the serving slot at start-up from the store's
// newest lineage, installing it through the same step as a reload that
// finds a new full generation (installFull), so the retained full
// generation is in memory from the first request on.
func startFromStore(ctx context.Context, store *release.Store, social *graph.Social, cacheCap int) (*server.Hot, error) {
	engine, base, ln, err := loadLineageStore(ctx, store, social)
	if err != nil {
		return nil, err
	}
	full, err := fullEngine(social, engine, base, ln)
	if err != nil {
		return nil, err
	}
	hot := new(server.Hot)
	if err := installFull(hot, engine, full, ln, cacheCap); err != nil {
		return nil, err
	}
	return hot, nil
}

// installFull installs a full generation and its delta chain in hot:
// engine serves the composed chain, and full is the bare full
// generation's engine (engine itself when the chain is empty), which the
// slot retains so a later corrupt delta rolls serving back to it instead
// of going dark. Both get the similarity cache (cacheCap < 0: none)
// before Swap, because once installed they serve, and a rollback then
// serves cached too. An error means the chain was refused after full was
// swapped in, so full is serving.
func installFull(hot *server.Hot, engine, full *socialrec.Engine, ln release.Lineage, cacheCap int) error {
	if cacheCap >= 0 {
		engine.EnableSimilarityCache(cacheCap)
		if full != engine {
			full.EnableSimilarityCache(cacheCap)
		}
	}
	hot.Swap(full, ln.Full)
	if len(ln.Deltas) == 0 {
		return nil
	}
	return hot.ApplyDelta(engine, ln.Full, ln.Deltas)
}

// makeReload builds the closure shared by POST /admin/reload and SIGHUP: it
// advances serving to the store's newest lineage (reloadFromStore). On
// failure the last-good engine keeps serving and the slot is marked
// degraded, which /readyz surfaces. The context is the triggering
// request's, so a reload's spans and budget events attach to its trace
// (SIGHUP passes Background). Returns nil without a store (the server then
// answers 501).
func makeReload(hot *server.Hot, store *release.Store, social *graph.Social, cacheCap int) func(context.Context) error {
	if store == nil {
		return nil
	}
	var mu sync.Mutex // serializes HTTP- and SIGHUP-triggered reloads
	return func(ctx context.Context) error {
		mu.Lock()
		defer mu.Unlock()
		return reloadFromStore(ctx, hot, store, social, cacheCap)
	}
}

// reloadFromStore advances the serving lineage to what the store resolves.
// A delta chain extending the one already applied swaps in through the
// validated delta path; a chain the store can no longer resolve past the
// serving version (a served delta went corrupt on disk) rolls serving back
// to the retained full generation — degraded, explicit, and still
// answering — instead of serving state with unverifiable provenance.
func reloadFromStore(ctx context.Context, hot *server.Hot, store *release.Store,
	social *graph.Social, cacheCap int) error {
	engine, base, ln, err := loadLineageStore(ctx, store, social)
	st := hot.Status()
	if err != nil {
		hot.Fail(err.Error())
		return err
	}
	newV := ln.Version()
	if ln.Full == st.FullVersion && newV == st.Version {
		return nil // already serving exactly this lineage
	}
	if ln.Full == st.FullVersion && newV < st.Version {
		v := hot.Rollback(fmt.Sprintf(
			"delta chain resolvable only to version %d (served %d); rolled back to full generation", newV, st.Version))
		//sociolint:ignore privflow versions are store metadata, not preference data
		logger.WarnContext(ctx, "recserve: served delta chain no longer resolvable; rolled back",
			"resolvable", newV, "was_serving", st.Version, "full_version", v)
		return fmt.Errorf("recserve: delta chain resolvable only to version %d (was serving %d); rolled back to full generation %d",
			newV, st.Version, v)
	}
	if ln.Full == st.FullVersion {
		// Same full generation, longer chain: validated delta application.
		if cacheCap >= 0 {
			engine.EnableSimilarityCache(cacheCap)
		}
		if err := hot.ApplyDelta(engine, st.Version, ln.Deltas); err != nil {
			v := hot.Rollback(err.Error())
			return fmt.Errorf("recserve: delta apply refused (%v); rolled back to full generation %d", err, v)
		}
		return nil
	}
	// New full generation, possibly with deltas already on top of it: the
	// only reload that installs, and so builds, a bare full generation.
	full, err := fullEngine(social, engine, base, ln)
	if err != nil {
		hot.Fail(err.Error())
		return err
	}
	if err := installFull(hot, engine, full, ln, cacheCap); err != nil {
		v := hot.Rollback(err.Error())
		return fmt.Errorf("recserve: delta apply refused (%v); serving full generation %d", err, v)
	}
	return nil
}

// saveSharded splits a freshly built release into n shards and persists
// the sharded generation (shard files first, manifest last — the manifest
// is the commit point). Clusters map to shards through a consistent-hash
// ring, so growing the fleet later moves ~1/n of the clusters instead of
// reshuffling everything; the halo radius comes from the similarity
// measure's hop horizon so every shard serves its owned users exactly.
func saveSharded(store *release.Store, engine *socialrec.Engine, social *graph.Social, n int) {
	rel, err := engine.Release()
	if err != nil {
		fatal("recserve: extracting release for sharding", "err", err)
	}
	m, err := similarity.ByName(rel.Measure)
	if err != nil {
		fatal("recserve: sharding release", "err", err)
	}
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("shard_%d", i)
	}
	ring, err := router.NewRing(names, 0)
	if err != nil {
		fatal("recserve: building shard ring", "err", err)
	}
	clusterShard := make([]int32, rel.Clusters.NumClusters())
	for c := range clusterShard {
		clusterShard[c] = int32(ring.NodeIndex("cluster:" + strconv.Itoa(c)))
	}
	manifest, shards, err := release.SplitRelease(rel, social, clusterShard, n, similarity.Horizon(m))
	if err != nil {
		fatal("recserve: splitting release", "err", err)
	}
	version, err := store.SaveSharded(context.Background(), manifest, shards)
	if err != nil {
		fatal("recserve: saving sharded generation", "err", err)
	}
	//sociolint:ignore privflow shard count and version are topology metadata, not preference data
	logger.Info("recserve: sharded generation saved", "dir", store.Dir(), "version", version, "shards", n)
}

// loadShardEngineStore loads one shard of the newest valid sharded
// generation and builds its serving engine.
func loadShardEngineStore(ctx context.Context, store *release.Store, social *graph.Social, id int) (*socialrec.ShardEngine, uint64, error) {
	m, skipped, err := store.LoadManifest(ctx)
	for _, sk := range skipped {
		logger.WarnContext(ctx, "recserve: release store skipped corrupt manifest",
			"file", sk.Name, "err", sk.Err)
	}
	if err != nil {
		return nil, 0, err
	}
	sh, err := store.LoadShard(ctx, m, id)
	if err != nil {
		return nil, 0, err
	}
	engine, err := socialrec.EngineFromShard(sh, social)
	if err != nil {
		return nil, 0, err
	}
	return engine, m.Version, nil
}

// makeShardReload is makeReload for shard serving: it re-resolves the
// newest sharded generation and swaps this shard's slice of it in. On
// failure the last-good shard engine keeps serving, marked degraded.
func makeShardReload(hot *server.Hot, store *release.Store, social *graph.Social,
	id, cacheCap int) func(context.Context) error {
	var mu sync.Mutex
	return func(ctx context.Context) error {
		mu.Lock()
		defer mu.Unlock()
		engine, version, err := loadShardEngineStore(ctx, store, social, id)
		if err != nil {
			hot.Fail(err.Error())
			return err
		}
		if cacheCap >= 0 {
			engine.EnableSimilarityCache(cacheCap)
		}
		hot.Swap(engine, version)
		return nil
	}
}

// cacheStatser is the similarity-cache surface both whole-population and
// shard engines expose.
type cacheStatser interface {
	CacheStats() (socialrec.CacheStats, bool)
}

// registerCacheGauges exposes similarity-cache statistics read through the
// hot slot, so the gauges keep following the serving engine across reloads.
// Cache counters describe which users' public similarity is resident,
// nothing protected.
func registerCacheGauges(reg *telemetry.Registry, hot *server.Hot) {
	stat := func(f func(socialrec.CacheStats) float64) func() float64 {
		return func() float64 {
			e, ok := hot.Engine().(cacheStatser)
			if !ok {
				return 0
			}
			st, ok := e.CacheStats()
			if !ok {
				return 0
			}
			return f(st)
		}
	}
	reg.NewGaugeFunc("simcache_hits_total", "similarity cache hits",
		stat(func(st socialrec.CacheStats) float64 { return float64(st.Hits) }))
	reg.NewGaugeFunc("simcache_misses_total", "similarity cache misses",
		stat(func(st socialrec.CacheStats) float64 { return float64(st.Misses) }))
	reg.NewGaugeFunc("simcache_evictions_total", "similarity cache evictions",
		stat(func(st socialrec.CacheStats) float64 { return float64(st.Evictions) }))
	reg.NewGaugeFunc("simcache_entries", "users whose similarity is cached (per-cluster mass, or the vector for exact engines)",
		stat(func(st socialrec.CacheStats) float64 { return float64(st.Len) }))
	reg.NewGaugeFunc("simcache_hit_ratio", "similarity cache hit ratio",
		stat(func(st socialrec.CacheStats) float64 { return st.HitRatio() }))
}
