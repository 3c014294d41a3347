#!/usr/bin/env bash
# Builds figperf from the sources of the checkout this script sits in and
# runs it with the given arguments, from the checkout root:
#
#   bash bench/run.sh --workload solo-figcache --seed 1 --seconds 25 --trace 0
#
# The Go build cache, the binary and the run's scratch files all live under
# .bench_build/ at the checkout root, so nothing is written outside it.
# Without the simulator's sources next to bench/ the build fails and the
# script exits non-zero before any result is printed.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd "$root/bench" && go build -o "$out/figperf" ./figperf) >&2
cd "$root"
exec "$out/figperf" -workdir "$out/work" "$@"
