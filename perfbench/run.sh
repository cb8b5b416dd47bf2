#!/usr/bin/env bash
# Builds the benchmark binary from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload offload-stream --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every build product (the Go build cache,
# the binary, the traced run's spans) goes under $CARGO_TARGET_DIR, default
# .bench_build, so the run writes nothing outside the checkout.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$PWD/$build" ;;
esac
mkdir -p "$build/perfbench" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly

go -C perfbench build -trimpath -buildvcs=false -o "$build/perfbench/perfbench" .
exec "$build/perfbench/perfbench" -out "$build/perfbench" "$@"
