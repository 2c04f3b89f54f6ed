#!/usr/bin/env bash
# Cross-check the two execution backends over the example workloads.
#
# Single-array: `warpsim -crosscheck` compiles each built-in workload
# with verification, runs it on the cycle-accurate simulator AND the
# fast dataflow executor, and exits non-zero unless the modeled cycle
# counts agree exactly and every output word is bit-identical.  Both
# the list-scheduled and the software-pipelined schedules run, at the
# paper's sizes (colorseg is a 512x512 image on ten cells).
#
# The list-scheduled colorseg runs nearly 9M cycles per cell; an auto
# run of it must report the fast backend, proving plans carry no size
# cap that would send it back to the simulator.
#
# Fabric: each example problem spec is farmed across 1 and 4 arrays on
# the fast backend with -check, which stitches the tiles and compares
# every output element against the full-problem W2 interpreter; the
# summary line must name the fast backend, proving the farm actually
# took the fast path rather than silently falling back to sim.
set -euo pipefail
cd "$(dirname "$0")/.."

bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
go build -o "$bin/warpsim" ./cmd/warpsim

for w in matmul polynomial conv1d binop fft colorseg mandelbrot; do
    for flags in "" "-pipeline"; do
        echo "== crosscheck $w $flags =="
        "$bin/warpsim" -crosscheck $flags "$w" | grep "crosscheck: backends agree"
    done
done

echo "== auto backend for list-scheduled colorseg =="
"$bin/warpsim" -stats colorseg | grep "decision: backend fast (auto-verified)"

for spec in examples/fabric/*.json; do
    for arrays in 1 4; do
        echo "== fabric $spec on $arrays array(s), fast backend =="
        out=$("$bin/warpsim" -backend fast -arrays "$arrays" -check "$spec")
        echo "$out" | grep "fast backend"
        echo "$out" | grep "element-exact"
    done
done

echo "fastexec-check: PASS"
