#!/usr/bin/env sh
# The benchmark package's own gate: format, lints, unit tests, then a smoke
# pass of every workload (sizes / 20, both the untraced and the traced run:
# every correctness check and every metric name, nothing timed). Offline;
# fails fast. The root ./ci.sh is separate and unchanged.
set -eu

cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --offline --all-targets -- -D warnings

echo "==> unit tests"
cargo test --offline -q

echo "==> smoke pass"
cargo run --offline --release --quiet -- --seed 42 --smoke

echo "benchmark: all green"
