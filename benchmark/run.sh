#!/usr/bin/env bash
# Build the benchmark offline, then run it. Every argument goes to the
# binary; `benchmark/run.sh --help` lists them. Run from anywhere: paths
# are taken from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/pi2-benchmark" "$@"
