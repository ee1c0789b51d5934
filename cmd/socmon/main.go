// Command socmon is the fleet observability collector (internal/obsagg):
// it scrapes /metrics, /debug/traces and /readyz from every configured
// router/shard/updater process and serves the unified fleet surface.
//
// Usage:
//
//	socmon -addr :9090 \
//	  -target router=router=http://127.0.0.1:8080 \
//	  -target shard_0=shard=http://127.0.0.1:8081 \
//	  -target shard_1=shard=http://127.0.0.1:8082 \
//	  -epsilon-budget 10 -alert-error-rate 0.05
//
// Each -target flag is name=role=url: a static identifier naming the
// target in the fleet view (it becomes a declared metric label), its
// role (router, shard or updater), and its base URL.
//
// Endpoints:
//
//	GET /fleet/metrics             merged fleet metrics (counters summed,
//	                               histograms merged exactly, p50/p99/p999)
//	GET /fleet/traces              fleet slow/error trace list
//	GET /fleet/traces/{trace_id}   one trace stitched across processes
//	GET /fleet/budget              ε burn-down, burn rate, exhaustion horizon
//	GET /fleet/alerts              alert rule states (hysteresis)
//	GET /healthz                   collector liveness
//	GET /readyz                    ready once the first scrape round completed
//	GET /metrics                   the collector's own telemetry
//
// A dead replica never turns the fleet view into an error page: its
// last-good data keeps contributing labeled "stale" (or "missing" if it
// never answered) and the replica_down_<name> alert fires after the
// configured number of consecutive failed scrapes.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"time"

	"socialrec/internal/httpedge"
	"socialrec/internal/obsagg"
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

// targetFlags collects repeated -target name=role=url flags.
type targetFlags []obsagg.Target

func (t *targetFlags) String() string { return fmt.Sprint([]obsagg.Target(*t)) }

func (t *targetFlags) Set(v string) error {
	parts := strings.SplitN(v, "=", 3)
	if len(parts) != 3 || parts[0] == "" || parts[1] == "" || parts[2] == "" {
		return fmt.Errorf("-target must be name=role=url")
	}
	*t = append(*t, obsagg.Target{
		Name: parts[0],
		Role: parts[1],
		URL:  strings.TrimSuffix(parts[2], "/"),
	})
	return nil
}

func main() {
	var targets targetFlags
	var (
		addr       = flag.String("addr", ":9090", "listen address")
		interval   = flag.Duration("scrape-interval", 2*time.Second, "scrape period")
		timeout    = flag.Duration("scrape-timeout", time.Second, "per-target scrape deadline")
		window     = flag.Duration("window", 5*time.Minute, "sliding window for burn rates")
		traceLimit = flag.Int("trace-limit", 100, "retained traces fetched per target per scrape")
		epsBudget  = flag.Float64("epsilon-budget", 0, "fleet ε budget for the exhaustion forecast; 0 disables")
		downAfter  = flag.Int("replica-down-after", 2, "consecutive failed scrapes that mark a target down")
		p99Ms      = flag.Float64("alert-p99-ms", 0, "fire when windowed fleet p99 latency exceeds this many ms; 0 disables")
		errRate    = flag.Float64("alert-error-rate", 0, "fire when the windowed fleet error fraction exceeds this; 0 disables")
		burnRate   = flag.Float64("alert-budget-burn", 0, "fire when fleet ε burn exceeds this per hour; 0 disables")
		fireAfter  = flag.Int("fire-after", 1, "consecutive breached evaluations before a rule fires")
		clearAfter = flag.Int("clear-after", 2, "consecutive clean evaluations before a firing rule clears")
		traceRate  = flag.Float64("trace-sample", 1, "head-sampling rate for the collector's own request traces")
		traceCap   = flag.Int("trace-capacity", 256, "retained trace capacity for the collector's own traces")
	)
	flag.Var(&targets, "target", "one scrape target as name=role=url; repeat per process (required)")
	flag.Parse()
	if len(targets) == 0 {
		fatal("socmon: at least one -target is required")
	}

	trace.SetDefault(trace.New(trace.Config{
		Capacity:     *traceCap,
		HeadRate:     *traceRate,
		HeadRateZero: *traceRate <= 0,
		Process:      "socmon",
	}))

	reg := telemetry.Default()
	stopRuntime := telemetry.StartRuntimeCollector(reg, 0)
	defer stopRuntime()

	coll, err := obsagg.New(obsagg.Config{
		Targets:        targets,
		ScrapeInterval: *interval,
		ScrapeTimeout:  *timeout,
		TraceLimit:     *traceLimit,
		Window:         *window,
		EpsilonBudget:  *epsBudget,
		Rules: obsagg.RuleConfig{
			ReplicaDownAfter:  *downAfter,
			FleetP99Ms:        *p99Ms,
			FleetErrorRate:    *errRate,
			BudgetBurnPerHour: *burnRate,
			FireAfter:         *fireAfter,
			ClearAfter:        *clearAfter,
		},
		Logger:  logger,
		Metrics: reg,
		Tracer:  trace.Default(),
	})
	if err != nil {
		fatal("socmon: building collector", "err", err)
	}

	// The scrape loop runs until the process exits.
	go coll.Run(context.Background())
	logger.Info("socmon: collecting", "addr", *addr, "targets", len(targets),
		"interval", interval.String())
	if err := httpedge.Serve(context.Background(), *addr, coll.Handler(), nil); err != nil {
		fatal("socmon: serving", "err", err)
	}
	logger.Info("socmon: shut down")
}
