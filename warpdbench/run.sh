#!/bin/bash
# Builds warpdbench from this checkout's sources and runs it with the
# given arguments.  Run from the repository root:
#
#   bash warpdbench/run.sh --workload paper-cold --seed 1 --seconds 20 --trace 0
#
# Build outputs and the Go build cache go to $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout; nothing is fetched or written
# elsewhere.
set -euo pipefail
dir=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -C "$dir" -o "$out/warpdbench" .
exec "$out/warpdbench" "$@"
