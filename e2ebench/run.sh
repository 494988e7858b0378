#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs
# one workload, passing every argument through:
#
#   bash e2ebench/run.sh --workload analyze-corpus --seed 1 --seconds 30 --trace 0
#
# The build writes only under .bench_build/ at the checkout's root: the
# Go build cache, module cache and tool configuration are all pointed
# there, and nothing is fetched (GOPROXY=off, GOTOOLCHAIN=local).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
