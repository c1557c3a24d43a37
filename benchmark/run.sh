#!/usr/bin/env bash
# The single entry point of the SEACMA-rs benchmark (BENCHMARK.json).
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run; the last line of standard output is the result object
#       (this is what the benchmark's driver calls)
#   benchmark/run.sh [--seed N] [--reps N] [--only WORKLOAD] [--trace] [--smoke]
#       a full set: every workload REPS times in fresh processes, medians
#       with min/max into benchmark/out/results.json; --trace adds one
#       traced run per workload (benchmark/out/trace-*.json,
#       trace-summary.json); --smoke runs every workload and every gate
#       at a reduced size in a few seconds
#   benchmark/run.sh compare A.json B.json
#       verdict per workload x end-to-end metric; exit 1 on a regression
#
# Builds the package first (offline, release) into CARGO_TARGET_DIR, by
# default the repository's own target/. Fails without printing a result
# when the repository's crates are not there to build against.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
repo="$(dirname "$here")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$repo/target}"
case "$CARGO_TARGET_DIR" in
    /*) ;;
    *) export CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;;
esac

# Both binaries in one invocation: `benchmark` (plain allocator, every
# end-to-end number) and `benchmark-traced` (counting allocator, spans).
# Cargo's own progress goes to stderr, so stdout stays the run's.
cargo build --release --offline --quiet --features trace \
    --manifest-path "$here/Cargo.toml" >&2

# Recorded with every run; the binary starts no process of its own for them.
export SEACMA_BENCH_COMMIT="$(GIT_CEILING_DIRECTORIES="$(dirname "$repo")" git -C "$repo" rev-parse HEAD 2>/dev/null || echo unknown)"
export SEACMA_BENCH_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"

bin="$CARGO_TARGET_DIR/release/benchmark"
case "${1:-}" in
    compare | manifest) exec "$bin" "$@" ;;
esac

# One traced run (`--trace 1`) goes to the traced binary; everything else
# (untraced runs, and sets, which start the traced binary themselves)
# goes to the plain one.
traced=0
prev=""
for arg in "$@"; do
    if [ "$prev" = "--trace" ] && [ "$arg" = "1" ]; then traced=1; fi
    prev="$arg"
done
case " $* " in
    *" --workload "*)
        if [ "$traced" = 1 ]; then bin="$CARGO_TARGET_DIR/release/benchmark-traced"; fi
        ;;
esac
exec "$bin" --out-dir "$here/out" "$@"
