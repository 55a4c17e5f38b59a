#!/usr/bin/env bash
# Builds the benchmark from source and runs it. From the repository root:
#
#   bash _perfbench/run.sh --workload fig11-ddr5 --seed 1 --seconds 32 --trace 0
#
# The binary, the Go build cache and the traced run's span files go under
# $CARGO_TARGET_DIR (default .bench_build), so a run reads and writes only
# inside the checkout. A failed build exits non-zero before anything runs.
set -euo pipefail

bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$bench")
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOMODCACHE=$out/gomod
export XDG_CONFIG_HOME=$out/config GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly

(cd "$bench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" -spans-dir "$out/spans" "$@"
