#!/usr/bin/env bash
# Build the server (`blitzsplit`) and the benchmark harness from source
# into one target directory, then run the harness with the given
# arguments, e.g.:
#
#   bash servicebench/run.sh --workload cold_exact --seed 1 --seconds 20 --trace 0
#
# The target directory is $CARGO_TARGET_DIR, default .bench_build at the
# repository root. Build output goes to stderr; the harness's last
# stdout line is its JSON result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/.bench_build}"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin blitzsplit >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bin service >&2
exec "$CARGO_TARGET_DIR/release/service" "$@"
