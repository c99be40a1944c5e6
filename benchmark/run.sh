#!/usr/bin/env bash
# The benchmark's one command. Builds the benchmark package (and with it
# the simulator) in release mode, then hands every argument to it:
#
#   benchmark/run.sh [--seed N] [--out PATH]          all five workloads
#   benchmark/run.sh --compare A.json B.json          judge B against A
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#
# See benchmark/README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# Cargo resolves a relative CARGO_TARGET_DIR against the directory it is
# run from; pin it down before anything changes directory.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

# Build output goes to stderr: stdout carries results only.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/gbcr-benchmark" "$@"
