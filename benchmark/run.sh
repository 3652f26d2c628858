#!/usr/bin/env bash
# The one command: builds the program and the benchmark, then runs it.
#
#   benchmark/run.sh --seed N                 all four workloads, end to end
#   benchmark/run.sh --seed N --trace 1       the traced runs (per-layer metrics, span files)
#   benchmark/run.sh --seed N --twice         two end-to-end sets and their differences
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Both builds go into one target directory (CARGO_TARGET_DIR, else the
# repository's target/), so `paris-server` sits beside `paris-benchmark`,
# where the socket backend looks for it.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

target="${CARGO_TARGET_DIR:-target}"
case "$target" in
    /*) ;;
    *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Build output goes to stderr: stdout carries only the benchmark's lines.
cargo build --release --offline -p paris-runtime --bin paris-server 1>&2
cargo build --release --offline --manifest-path benchmark/Cargo.toml 1>&2

exec "$target/release/paris-benchmark" "$@"
