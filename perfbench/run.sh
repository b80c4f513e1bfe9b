#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Everything the build and the run write —
# Go build cache, binary, scratch databases, trace files — stays under
# .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod are required)" >&2
	exit 2
fi
if ! command -v go >/dev/null 2>&1; then
	echo "perfbench: the go toolchain is not on PATH" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-mod=readonly TMPDIR="$out/tmp"

go -C "$root/perfbench" build -o "$out/pkvbench" . >&2
exec "$out/pkvbench" --out "$out" "$@"
