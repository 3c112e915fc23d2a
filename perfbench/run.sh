#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#   bash perfbench/run.sh --workload cnn-qsgd-hub --seed 1 --seconds 30 --trace 0
# Build outputs, the Go build cache and the benchmark's span files stay in
# .bench_build/ at the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
# XDG_CONFIG_HOME keeps the go command's config and telemetry files inside
# the checkout as well.
export GOCACHE="$PWD/.bench_build/gocache" GOMODCACHE="$PWD/.bench_build/gomod" \
	GOPATH="$PWD/.bench_build/gopath" XDG_CONFIG_HOME="$PWD/.bench_build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly
go build -C perfbench -o ../.bench_build/perfbench . >&2
exec .bench_build/perfbench "$@"
