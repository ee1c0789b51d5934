#!/usr/bin/env bash
# ci.sh — the repository's standing correctness gate.
#
# Runs, in order: formatting check, go vet, build, race-enabled tests, the
# sociolint privacy-invariant analyzers, the deterministic fault-injection
# suite (crash-safe store recovery, reload degradation, panic containment,
# load shedding — under -race), the crash/resume matrix for the
# checkpointed offline pipeline and the updater's intent journal (scripts/
# resume_chaos.sh), the crash/recovery matrix for the streaming update
# path (scripts/wal_chaos.sh), the router chaos smoke for the sharded
# serving tier (scripts/router_chaos.sh), a build and smoke test of the
# paper-scale benchmark module (perfbench/), and a short fuzz smoke over the
# dataset parsers, every release decoder and the traceparent parser. Every step must pass; the first failure aborts with a non-zero
# exit. `make ci` is the one-command entry point, locally and in any future
# pipeline.
set -euo pipefail
cd "$(dirname "$0")/.."

step() { printf '\n== %s ==\n' "$*"; }

step "gofmt (check only)"
# testdata fixtures are excluded: they are analyzer inputs, not sources.
unformatted=$(gofmt -l . | grep -v '/testdata/' || true)
if [[ -n "$unformatted" ]]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi
echo "ok"

step "go vet"
go vet ./...

step "go build"
go build ./...

step "go test -race"
go test -race ./...

step "sociolint (privacy invariants, flow-sensitive; stale baseline entries fail)"
# Hard gate: any finding not justified in .sociolint-baseline.json or by an
# inline //sociolint:ignore fails CI, and so does a baseline entry that no
# longer matches anything (-check-stale), so suppressions can only shrink
# truthfully.
go run ./cmd/sociolint -baseline .sociolint-baseline.json -check-stale -v ./...

step "fault injection (crash safety, reload degradation, panic containment, shedding)"
# The full ./... -race run above already includes these; re-running the
# failure-path suites by name keeps them un-skippable and makes this gate's
# coverage explicit even if package lists change.
#
# run_named <pattern> <pkg> runs the named tests under -race. `go test -run`
# passes with "[no tests to run]" when a pattern matches nothing, so a
# renamed or moved test would silently leave the gate: every |-alternative
# must first match a test that `go test -list` reports for the package.
run_named() {
    local pattern=$1 pkg=$2 listed alt
    listed=$(go test -list '.' "$pkg" | grep -E '^(Test|Fuzz|Example)' || true)
    IFS='|' read -ra alts <<< "$pattern"
    for alt in "${alts[@]}"; do
        if ! grep -Eq -- "$alt" <<< "$listed"; then
            echo "ci: -run alternative '$alt' matches no test in $pkg" >&2
            exit 1
        fi
    done
    go test -race -run "$pattern" "$pkg"
}
go test -race ./internal/faults
run_named 'TestStore|TestReadCorruptCorpus|TestDecodersBoundedAllocation' ./internal/release
run_named 'TestHot|TestFailedReload|TestReload|TestPanicRecovery|TestChaos|TestLimiterSheds|TestDeadline' ./internal/server
run_named 'TestPanicRecovery|TestDeadlineBudget|TestStatusCapture' ./internal/httpedge
run_named 'TestUpdaterCrashRecompute|TestUpdaterPublishFaultSweep|TestUpdaterBudgetExhaustion|TestUpdaterRefusesCorruptIntent' ./internal/dynamic

step "crash/resume matrix (checkpointed pipeline, updater intent journal)"
./scripts/resume_chaos.sh

step "wal chaos (streaming updates: crash anywhere, converge byte-identically)"
# Kills the WAL-driven streaming update path at filesystem fault points
# (journal rename, record write, sync) and asserts each resumed run
# converges to the byte-identical release store with Σε spent exactly
# once and zero quarantined-record loss.
./scripts/wal_chaos.sh

step "router chaos smoke (3 shards + router + loadgen, SIGKILL one shard)"
# Kills one of three shard servers under open-loop Zipf load and asserts
# the router keeps answering: bounded error rate, batch partials labeled
# degraded (silent truncation fails), breaker opens then re-closes after
# the shard restarts, and the capacity number lands in the CI log.
./scripts/router_chaos.sh

step "perfbench smoke (benchmark module built and tested against this tree)"
# perfbench/ is its own module, so the ./... steps above never build it;
# this keeps a change that breaks the benchmark from passing CI.
make perfbench-smoke

step "benchmark budget gate (ns/op >50% or ANY allocs/op growth vs BENCH_PR7.json fails)"
# Two quick passes against the recorded baseline. The ns/op threshold is
# deliberately generous — CI machines are noisy; that axis exists to catch
# order-of-magnitude mistakes (an accidental always-on sampler, a lock on
# the span hot path), not single-digit drift. allocs/op is the sharp axis:
# allocation counts are machine-independent, so the gate fails on any
# growth over the baseline even when ns/op is within threshold. `make
# benchdiff` with the defaults is the precise local check.
make benchdiff BENCH_COUNT=2 BENCH_THRESHOLD=50

step "fuzz smoke (10s per target)"
make fuzz-smoke

printf '\nci: all gates passed\n'
