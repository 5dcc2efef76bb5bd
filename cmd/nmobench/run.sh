#!/usr/bin/env bash
# Builds nmobench from the checkout it is run in, then runs it with the
# given flags, e.g.
#
#   bash cmd/nmobench/run.sh --workload hot-read --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root: nmobench is a package of the
# repository's own module. The build cache, the binary and the
# benchmark's scratch files all stay under .bench_build/ there; nothing
# is fetched (the module has no dependencies outside the repository).
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off

go build -o "$out/bin/nmobench" ./cmd/nmobench
exec "$out/bin/nmobench" "$@"
