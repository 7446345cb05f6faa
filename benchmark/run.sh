#!/usr/bin/env bash
# Entry point named by /BENCHMARK.json: builds both benchmark binaries
# (a no-op when they are up to date) and hands the arguments to the
# runner. Run from anywhere; it works from the repository root.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/nezha-benchmark" "$@"
