package router

import (
	"fmt"

	"socialrec/internal/telemetry"
)

// shardLabel renders the static label value for shard i ("s0", "s1", ...).
// The full value set is fixed at router construction, which is what keeps
// the registry's closed-world invariant: a shard id is topology, never
// request data.
func shardLabel(i int) string { return fmt.Sprintf("s%d", i) }

// metrics holds the router's pre-resolved instruments (the per-endpoint
// router_* families are internal/httpedge's): every per-shard family is
// resolved to a slice indexed by shard id at construction, so the proxy
// hot path never performs a label lookup that could fail. Shard labels
// are the only label values the router feeds telemetry; user tokens and
// request payloads never reach the registry.
type metrics struct {
	attempts      []*telemetry.Counter   // proxied attempts, by shard
	failures      []*telemetry.Counter   // failed attempts, by shard
	retries       []*telemetry.Counter   // retry attempts, by shard
	hedges        []*telemetry.Counter   // hedged attempts launched, by shard
	hedgeWins     []*telemetry.Counter   // requests won by the hedge, by shard
	breakerOpens  []*telemetry.Counter   // breaker close/half-open → open, by shard
	breakerReject []*telemetry.Counter   // calls refused with every breaker open, by shard
	proxySeconds  []*telemetry.Histogram // attempt latency, by shard

	breakerState [][]*telemetry.Gauge // current breaker state, [shard][replica]
	replicaUp    [][]*telemetry.Gauge // readyz-probe health, [shard][replica]

	degraded   *telemetry.Counter
	misrouted  *telemetry.Counter
	drainShed  *telemetry.Counter
	chaosShard *telemetry.Counter
	draining   *telemetry.Gauge
}

func newMetrics(reg *telemetry.Registry, replicasPerShard []int) *metrics {
	numShards := len(replicasPerShard)
	labels := make([]string, numShards)
	for i := range labels {
		labels[i] = shardLabel(i)
	}
	m := &metrics{
		degraded: reg.NewCounter("router_degraded_total",
			"batch responses served partial because one or more shards were unavailable"),
		misrouted: reg.NewCounter("router_misdirected_total",
			"421 responses from shards that refused a user this router sent them (stale manifest)"),
		drainShed: reg.NewCounter("router_drain_shed_total",
			"requests rejected with 503 while the router was draining"),
		chaosShard: reg.NewCounter("router_chaos_injected_total",
			"shard attempts failed deliberately by fault injection at router.shard_call"),
		draining: reg.NewGauge("router_draining",
			"1 while the router is draining for shutdown"),
	}
	resolve := func(name, help string) []*telemetry.Counter {
		vec := reg.NewCounterVec(name, help, "shard", labels...)
		out := make([]*telemetry.Counter, numShards)
		for i := range out {
			out[i] = vec.MustWith(labels[i])
		}
		return out
	}
	m.attempts = resolve("router_shard_attempts_total",
		"attempts proxied to shard replicas, by shard")
	m.failures = resolve("router_shard_failures_total",
		"proxied attempts that failed (transport error or 5xx), by shard")
	m.retries = resolve("router_retries_total",
		"retry attempts after a failed proxied call, by shard")
	m.hedges = resolve("router_hedges_total",
		"hedged attempts launched after the hedge delay, by shard")
	m.hedgeWins = resolve("router_hedge_wins_total",
		"requests whose winning response came from a hedged attempt, by shard")
	m.breakerOpens = resolve("router_breaker_opens_total",
		"circuit breaker transitions into the open state, by shard")
	m.breakerReject = resolve("router_breaker_rejects_total",
		"calls refused because every replica breaker was open, by shard")
	latVec := reg.NewHistogramVec("router_shard_seconds",
		"proxied attempt latency, by shard", "shard", nil, labels...)
	m.proxySeconds = make([]*telemetry.Histogram, numShards)
	for i := range m.proxySeconds {
		m.proxySeconds[i] = latVec.MustWith(labels[i])
	}
	m.breakerState = make([][]*telemetry.Gauge, numShards)
	m.replicaUp = make([][]*telemetry.Gauge, numShards)
	for s, n := range replicasPerShard {
		m.breakerState[s] = make([]*telemetry.Gauge, n)
		m.replicaUp[s] = make([]*telemetry.Gauge, n)
		for r := 0; r < n; r++ {
			// Per-replica gauges get generated — but statically shaped —
			// names: the replica topology is fixed at construction, so the
			// name set is as closed as a label-vec's value set.
			m.breakerState[s][r] = reg.NewGauge(
				fmt.Sprintf("router_breaker_state_s%d_r%d", s, r),
				"circuit breaker state (0 closed, 1 open, 2 half-open)")
			m.replicaUp[s][r] = reg.NewGauge(
				fmt.Sprintf("router_replica_up_s%d_r%d", s, r),
				"1 while the replica's readyz probe answers")
			m.replicaUp[s][r].Set(1)
		}
	}
	return m
}
