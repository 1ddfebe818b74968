#!/usr/bin/env bash
# Builds layerbench from the checkout's sources and runs it. Run it from
# the repository root; every argument is passed on:
#
#   bash layerbench/run.sh --workload forest-a8 --seed 1 --seconds 30 --trace 0
#   bash layerbench/run.sh compare old.jsonl new.jsonl
#
# The Go build cache, temporary files and the binary stay under
# .bench_build in the current directory, and the build never touches the
# network: the module's only dependency is the repository itself.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=

(cd layerbench && go build -o "$build/bin/layerbench" .)
exec "$build/bin/layerbench" "$@"
