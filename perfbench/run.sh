#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in, then runs it with
# the given arguments. Run it from the checkout root:
#
#	bash perfbench/run.sh --workload thesis-2005 --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build): the Go build and module
# caches, the toolchain's config and telemetry, the binary, scratch
# journals and the span files.
set -euo pipefail

out="$(pwd)/${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/go/cache" "$out/go/tmp" "$out/go/config" "$out/go/path"
export GOCACHE="$out/go/cache" GOTMPDIR="$out/go/tmp" GOPATH="$out/go/path" \
	GOMODCACHE="$out/go/path/pkg/mod" XDG_CONFIG_HOME="$out/go/config" \
	GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off

go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" --out "$out/perfbench-run" "$@"
