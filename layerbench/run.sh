#!/usr/bin/env bash
# Build the benchmark and the tcmp-serve daemon from this checkout's
# sources, then run the benchmark with the given arguments, e.g.
#   bash layerbench/run.sh --workload fig6_sweep --seed 12648430 --seconds 20 --trace 0
# Build output goes to $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path layerbench/Cargo.toml >&2
cargo build --release --offline --quiet --manifest-path Cargo.toml -p tcmp-serve >&2
exec "$CARGO_TARGET_DIR/release/layerbench" "$@"
