#!/usr/bin/env bash
# resume_chaos.sh — crash/resume matrix for the checkpointed offline
# pipeline.
#
# Two layers:
#   1. Race-enabled test sweeps that kill the pipeline at every filesystem
#      fault-injection point (and on a panic or the run's deadline
#      mid-stage) and prove the resumed run converges to the byte-identical
#      release with each ε-spend journaled exactly once.
#      The experiment suite also runs TestOneRecipeOneRelease: the facade,
#      a fresh and a resumed pipeline and the updater's first full publish
#      must write one release. TestReleaseCheckpointsPinned pins the
#      checkpoint bytes and each fault point's call count, which the drill
#      below counts on. Each suite runs through run_named, so a renamed
#      test fails the step instead of leaving it.
#   2. A CLI-level drill through cmd/experiments: arm a fault, watch the
#      run die at the sixth checkpoint rename (the similarity stage's
#      receipt commit), resume, and assert the persisted release and the
#      durable ε ledger came out right — twice, so the second resume also
#      proves byte-identical idempotence (the release store refuses to
#      append a duplicate version).
set -euo pipefail
cd "$(dirname "$0")/.."
source scripts/run_named.sh

step() { printf '\n== %s ==\n' "$*"; }

step "fault-point sweep + crash/resume suites (-race)"
run_named 'TestFaultPointSweep|TestStagePanicMidRunThenResume|TestStageTimeoutThenResume|TestOpenStoreSweepsTempDebris|TestSpendPersistedExactlyOnce' ./internal/pipeline
run_named 'TestPipelineCrashMidPersistThenResume|TestPipelineResumeAndPersistIdempotent|TestOneRecipeOneRelease|TestReleaseCheckpointsPinned' ./internal/experiment
run_named 'TestUpdaterCrashRecompute|TestUpdaterPublishFaultSweep|TestUpdaterBudgetExhaustion|TestUpdaterRefusesCorruptIntent|TestManagerRestartCannotRespend|TestManagerCrashDuringJournalWrite|TestJournal' ./internal/dynamic
run_named 'TestWriteAtomic' ./internal/faults

step "CLI crash/resume drill (cmd/experiments -exp release)"
ckpt=$(mktemp -d)
reldir=$(mktemp -d)
cleanup() { rm -rf "$ckpt" "$reldir"; }
trap cleanup EXIT

args=(-exp release -preset tiny -sample 30 -runs 3 -seed 7
      -checkpoint-dir "$ckpt" -release-dir "$reldir")

echo "-- killing the run at fs.rename occurrence 6 --"
if go run ./cmd/experiments "${args[@]}" -faults fs.rename -fault-after 5 >/dev/null 2>&1; then
    echo "crash drill: the fault-armed run should have failed" >&2
    exit 1
fi

echo "-- resuming --"
out=$(go run ./cmd/experiments "${args[@]}")
echo "$out" | grep -q 'persisted as version 1 ' || {
    echo "resume did not persist version 1:" >&2; echo "$out" >&2; exit 1; }
echo "$out" | grep -q 'durable ε ledger: 1 record(s), Σε=0.5' || {
    echo "resume did not journal ε exactly once:" >&2; echo "$out" >&2; exit 1; }

echo "-- resuming again (idempotence: release must be byte-identical) --"
out2=$(go run ./cmd/experiments "${args[@]}")
echo "$out2" | grep -q 'persisted as version 1 ' || {
    echo "second resume appended a new version (release not byte-identical):" >&2
    echo "$out2" >&2; exit 1; }
echo "$out2" | grep -q 'stages: 0 run, ' || {
    echo "second resume re-ran stages instead of resuming:" >&2; echo "$out2" >&2; exit 1; }
echo "$out2" | grep -q 'durable ε ledger: 1 record(s), Σε=0.5' || {
    echo "second resume double-journaled ε:" >&2; echo "$out2" >&2; exit 1; }

printf '\nresume-chaos: all drills passed\n'
