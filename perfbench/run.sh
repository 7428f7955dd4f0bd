#!/usr/bin/env bash
# Builds the repository's benchmark program (perfbench) and the two CLIs it
# measures from the checkout's own sources, then runs perfbench with this
# script's arguments. Run it from the root of a checkout:
#
#   bash perfbench/run.sh --workload regen-cold --seed 1 --seconds 30 --trace 0
#
# Everything it writes stays under .bench_build/ in the checkout: the Go build
# cache, the binaries and each run's scratch directories.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config"
# The toolchain's cache, temporary files, module path and its user config
# (the telemetry mode) all live under .bench_build; nothing is fetched.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off
# With telemetry on (its default, "local", included) the go command forks a
# detached upload process that outlives the build. "go telemetry off" starts
# none and switches it off for every later go command under this config.
go telemetry off
go build -o "$out/bin/" ./cmd/experiments ./cmd/sweepd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -root "$root" -bin "$out/bin" "$@"
