#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-lastfm --seed 1 --seconds 30 --trace 0
#
# Every build and run artifact stays under .bench_build/ in the current
# directory: the Go build cache, the binary, and the run's release store and
# WAL (removed when the run ends).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .)

# The commit is known only inside a git checkout of the repository itself.
commit=unknown
if [ -e "$root/.git" ] && git -C "$root" rev-parse --verify -q HEAD >/dev/null 2>&1; then
	commit=$(git -C "$root" rev-parse HEAD)
fi
PERFBENCH_COMMIT=$commit exec "$out/perfbench" --workdir "$out" "$@"
