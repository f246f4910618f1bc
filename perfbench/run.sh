#!/usr/bin/env bash
# Builds the program (the `repro` binary) and the benchmark from source, then
# runs one measurement. Run from the repository root:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to $CARGO_TARGET_DIR (default: target); stdout carries
# only the benchmark's result lines.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p bench --bin repro >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
# Not `exec`: getrusage(RUSAGE_CHILDREN) survives exec, so an exec'd
# benchmark would count the builds above in tsc-campaign's peak RSS.
"$CARGO_TARGET_DIR/release/perfbench" "$@" --repro "$CARGO_TARGET_DIR/release/repro"
