#!/bin/sh
# The `experiments` CI lane: run each of the thirteen exp_* binaries and
# diff what it prints against crates/bench/golden/<bin>.md. The tables are
# model quantities (rounds, messages, congestion, ratios to the theorems'
# formulas), the same on any host and at any CONGEST_PAR_THREADS, so any
# difference is a changed result; the file it changed in is named.
# `check_golden.sh --bless` rewrites the goldens instead.
set -eu
cd "$(dirname "$0")/../.."
cargo build --release -p congest-bench --bins
status=0
for src in crates/bench/src/bin/exp_*.rs; do
    bin=$(basename "$src" .rs)
    golden=crates/bench/golden/$bin.md
    if [ "${1:-}" = --bless ]; then
        cargo run --release -q -p congest-bench --bin "$bin" > "$golden"
    elif ! cargo run --release -q -p congest-bench --bin "$bin" | diff -u "$golden" -; then
        echo "experiment output changed: $golden" >&2
        status=1
    fi
done
exit $status
