// Command recrouter fronts a sharded recommendation serving tier (see
// cmd/recserve -shards / -shard): it routes each user to the shard that
// owns them, scatter/gathers batch requests across shards, and keeps
// answering through replica failures with health probing, per-replica
// circuit breakers, capped jittered retries and hedged reads.
//
// Usage:
//
//	recrouter -social data/social.tsv -store /var/lib/socialrec/releases \
//	  -shard http://10.0.0.1:8081,http://10.0.0.2:8081 \
//	  -shard http://10.0.0.3:8082 \
//	  -addr :8080
//
// Each -shard flag names one shard's replica URLs (comma-separated); the
// flags are positional — the first -shard serves shard 0 of the manifest,
// the second shard 1, and so on. The manifest comes from the newest valid
// sharded generation in -store.
//
// Endpoints:
//
//	GET  /healthz                         router liveness
//	GET  /readyz                          routability: per-shard replica health and breaker states
//	GET  /stats                           manifest + topology metadata
//	GET  /users?limit=N                   known user tokens (answered locally)
//	GET  /recommend?user=<id>&n=<count>   proxied to the owning shard (retries + hedging)
//	POST /recommend/batch                 scatter/gather; partial results are marked degraded
//	POST /admin/reload                    fan-out to every replica, exactly once each (no retries)
//	GET  /metrics                         telemetry (JSON; ?format=prometheus)
//	GET  /debug/traces                    retained request traces
//
// The router propagates W3C traceparent and a Request-Budget-Ms deadline
// hint on every proxied attempt, so one trace id spans router and shard
// and shard-side deadlines always fire before the router's.
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"strings"
	"time"

	"socialrec/internal/dataset"
	"socialrec/internal/faults"
	"socialrec/internal/httpedge"
	"socialrec/internal/release"
	"socialrec/internal/router"
	"socialrec/internal/telemetry"
	"socialrec/internal/trace"
)

var logger = slog.New(trace.NewSlogHandler(slog.NewTextHandler(os.Stderr, nil)))

// fatal logs at error level and exits. Package main owns process-exit
// policy (sociolint's fatalscope bars libraries from it).
func fatal(msg string, args ...any) {
	logger.Error(msg, args...)
	os.Exit(1)
}

// shardFlags collects repeated -shard flags: one occurrence per shard, in
// shard-id order, each a comma-separated replica URL list.
type shardFlags [][]string

func (s *shardFlags) String() string { return fmt.Sprint([][]string(*s)) }

func (s *shardFlags) Set(v string) error {
	var urls []string
	for _, u := range strings.Split(v, ",") {
		u = strings.TrimSpace(strings.TrimSuffix(u, "/"))
		if u == "" {
			continue
		}
		urls = append(urls, u)
	}
	if len(urls) == 0 {
		return fmt.Errorf("empty -shard value")
	}
	*s = append(*s, urls)
	return nil
}

func main() {
	var shards shardFlags
	var (
		socialPath  = flag.String("social", "", "path to social edge TSV (required; provides the user token map)")
		storeDir    = flag.String("store", "", "release store directory holding the sharded manifest (required)")
		addr        = flag.String("addr", ":8080", "listen address")
		maxAttempts = flag.Int("max-attempts", 3, "attempt cap per proxied call (first try + retries + hedges)")
		perTry      = flag.Duration("per-try-timeout", 2*time.Second, "timeout per proxied attempt")
		reqTimeout  = flag.Duration("request-timeout", 10*time.Second, "end-to-end routed request deadline")
		backoff     = flag.Duration("retry-backoff", 10*time.Millisecond, "base retry backoff (doubled per attempt, jittered)")
		hedgeDelay  = flag.Duration("hedge-delay", 0, "fixed hedge delay for single-user reads; 0 adapts to the shard's p99, negative disables hedging")
		probeEvery  = flag.Duration("probe-interval", 2*time.Second, "replica /readyz poll interval; negative disables probing")
		brkFails    = flag.Int("breaker-threshold", 5, "consecutive failures that open a replica's circuit breaker")
		brkOpenFor  = flag.Duration("breaker-open-for", 2*time.Second, "how long an open breaker rejects before probing half-open")
		maxBatch    = flag.Int("max-batch", 1000, "largest batch request the router accepts")
		seed        = flag.Int64("seed", 1, "seed for the retry-jitter stream")
		chaosOn     = flag.Bool("chaos", false, "arm deterministic fault injection on the router→shard hop (testing only)")
		chaosSeed   = flag.Int64("chaos-seed", 1, "seed for the -chaos fault schedule")
		traceRate   = flag.Float64("trace-sample", 1, "head-sampling rate for request traces in [0, 1]")
		traceCap    = flag.Int("trace-capacity", 1024, "retained trace capacity for /debug/traces")
	)
	flag.Var(&shards, "shard", "one shard's replica base URLs, comma-separated; repeat per shard in shard-id order (required)")
	flag.Parse()
	if *socialPath == "" || *storeDir == "" || len(shards) == 0 {
		fatal("recrouter: -social, -store and at least one -shard are required")
	}

	trace.SetDefault(trace.New(trace.Config{
		Capacity:     *traceCap,
		HeadRate:     *traceRate,
		HeadRateZero: *traceRate <= 0,
		Process:      "recrouter",
	}))

	sf, err := os.Open(*socialPath)
	if err != nil {
		fatal("recrouter: opening social graph", "err", err)
	}
	_, userIDs, err := dataset.ReadSocialTSV(sf)
	_ = sf.Close()
	if err != nil {
		fatal("recrouter: parsing social graph", "path", *socialPath, "err", err)
	}

	store, err := release.OpenStore(*storeDir, release.StoreOptions{
		Logf: func(format string, args ...any) {
			logger.Info(fmt.Sprintf(format, args...))
		},
	})
	if err != nil {
		fatal("recrouter: opening release store", "err", err)
	}
	manifest, skipped, err := store.LoadManifest(context.Background())
	for _, sk := range skipped {
		logger.Warn("recrouter: release store skipped corrupt manifest", "file", sk.Name, "err", sk.Err)
	}
	if err != nil {
		fatal("recrouter: loading sharded manifest", "dir", *storeDir, "err", err)
	}

	var freg *faults.Registry
	if *chaosOn {
		freg = faults.New(*chaosSeed)
		freg.Arm(faults.PointShardCall, faults.Plan{Prob: 0.05, Delay: 2 * time.Millisecond})
		logger.Warn("recrouter: CHAOS MODE armed — do not run in production",
			"points", fmt.Sprint(freg.Points()), "seed", *chaosSeed)
	}

	reg := telemetry.Default()
	stopRuntime := telemetry.StartRuntimeCollector(reg, 0)
	defer stopRuntime()

	rt, err := router.New(router.Config{
		Manifest:       manifest,
		UserIDs:        userIDs,
		Shards:         shards,
		MaxAttempts:    *maxAttempts,
		PerTryTimeout:  *perTry,
		RequestTimeout: *reqTimeout,
		RetryBackoff:   *backoff,
		HedgeDelay:     *hedgeDelay,
		ProbeInterval:  *probeEvery,
		Breaker: router.BreakerConfig{
			FailureThreshold: *brkFails,
			OpenFor:          *brkOpenFor,
		},
		MaxBatch: *maxBatch,
		Seed:     *seed,
		Logger:   logger,
		Metrics:  reg,
		Faults:   freg,
	})
	if err != nil {
		fatal("recrouter: building router", "err", err)
	}
	rt.Start()

	mux := http.NewServeMux()
	mux.Handle("/", rt)
	mux.Handle("GET /metrics", telemetry.Handler(reg, telemetry.Stages(), telemetry.Budget()))
	mux.Handle("GET /debug/vars", expvar.Handler())
	mux.Handle("GET /debug/traces", trace.Handler(trace.Default()))
	mux.Handle("GET /debug/traces/{trace_id}", trace.LookupHandler(trace.Default()))

	//sociolint:ignore privflow shard count and manifest version are topology metadata, not preference data
	logger.Info("recrouter: routing", "addr", *addr, "shards", manifest.NumShards,
		"users", manifest.NumUsers(), "manifest_version", manifest.Version)
	// Graceful drain: the router stops admitting serving requests and
	// cancels in-flight hedges, then the listener drains connections.
	if err := httpedge.Serve(context.Background(), *addr, mux, rt.Shutdown); err != nil {
		fatal("recrouter: serving", "err", err)
	}
	logger.Info("recrouter: shut down")
}
