#!/bin/sh
# Builds the benchmark from source and runs it with the given flags. Run it
# from the repository root:
#
#	bash bench/run.sh -workload serve-detect -seed 7 -seconds 20 -trace 0
#
# Every build and cache file stays inside the checkout, under .bench_build,
# and nothing is downloaded: the benchmark needs only the local toolchain.
set -eu
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0
go build -C "$root/bench" -o "$build/samnet-bench" .
exec "$build/samnet-bench" "$@"
