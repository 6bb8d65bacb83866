#!/usr/bin/env bash
# Builds netart and the benchmark from this checkout, then runs one
# benchmark run. Arguments pass through to the `perfbench` binary:
#   bash perfbench/run.sh --workload paper|cells --seed N --seconds S --trace 0|1
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p netart-cli --bin netart >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/perfbench" --netart "$target/release/netart" --root "$root" \
    --out-dir "$target/perfbench" "$@"
