#!/usr/bin/env bash
# Builds hostbench from the source checkout it sits in and runs it with the
# given arguments, e.g.
#
#   bash hostbench/run.sh --workload fig7-pagein --seed 1 --seconds 22 --trace 0
#
# Run it from the repository root. The binary and the Go build cache live
# in .bench_build/ under the root, so nothing is written outside the
# checkout; the build needs no network (the module uses only the standard
# library and the repository itself).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# Host-speed figures depend on the collector's settings; run at the defaults.
unset GOGC GOMEMLIMIT GODEBUG GOMAXPROCS
(cd "$root/hostbench" && go build -o "$out/hostbench" .) >&2
exec "$out/hostbench" "$@"
