#!/usr/bin/env bash
# Builds cadd and the benchmark from this checkout, then runs one
# measurement. Run from the repository root:
#
#   bash pushbench/run.sh --workload trickle --seed 1 --seconds 15 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout (Go build cache included).
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/cadd || ! -d internal/service ]]; then
	echo "pushbench: run from the repository root (go.mod, cmd/cadd and internal/ are missing here)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gomod" "$out/tmp" "$out/work"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off

# The commit is provenance only; a checkout without .git reports unknown.
commit=unknown
if [[ -d .git ]]; then
	commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi

go build -o "$out/bin/cadd" ./cmd/cadd >&2
(cd pushbench && go build -o "$out/bin/pushbench" .) >&2

exec "$out/bin/pushbench" --cadd "$out/bin/cadd" --work-dir "$out/work" --commit "$commit" "$@"
