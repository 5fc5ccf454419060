#!/usr/bin/env sh
# The full CI gate. Everything runs offline against the vendored deps.
# Fails fast: the first failing step aborts the run.
set -eu

cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> ctt-lint (R1-R5, R7 + R8, baseline diff, 5s budget)"
# Build first so --budget-ms measures the lint run, not compilation.
cargo build --offline -q -p ctt-lint
./target/debug/ctt-lint . \
    --json-out target/lint-report.json \
    --baseline lint-baseline.txt \
    --budget-ms 5000

echo "==> one SplitMix64 (its multiplier only in crates/core/src/rng.rs; frozen benchmark/ and vendor/ excluded)"
copies=$(grep -rEin --include='*.rs' --exclude-dir=.git --exclude-dir=target --exclude-dir=vendor \
    'bf58_?476d_?1ce4_?e5b9' . | grep -v -e '^\./crates/core/src/rng\.rs:' -e '^\./benchmark/' || true)
if [ -n "$copies" ]; then
    echo "$copies"
    echo "a copy of the SplitMix64 mixer: draw through ctt_core::rng with a salt instead" >&2
    exit 1
fi

echo "==> ctt-ingest off the data path (ctt_ingest only in crates/ingest/ and the frozen benchmark/)"
uses=$(grep -rn --include='*.rs' --exclude-dir=.git --exclude-dir=target --exclude-dir=vendor \
    'ctt_ingest' . | grep -v -e '^\./crates/ingest/' -e '^\./benchmark/' || true)
if [ -n "$uses" ]; then
    echo "$uses"
    echo "ctt_ingest outside its facade: write through ShardedTsdb::{register, append} instead" >&2
    exit 1
fi

echo "==> chaos soak (fault injection + loss-ledger conservation)"
cargo test --offline -q -p ctt-chaos

echo "==> cargo test"
cargo test --offline -q --workspace

echo "==> cargo test --release (optimised float codegen: NaN payloads and ±0.0 ties)"
cargo test --offline -q --release --workspace

echo "==> figures + examples (results/ is the standing golden: every SVG, CSV and profile export byte for byte)"
cargo run --offline -q --release -p ctt-bench --bin figures > /dev/null
# Two examples write results/example_*.svg, which figures does not; every
# example's stdout is pinned as results/example_<name>.txt.
for example in citizen_dashboard city_pilot network_monitoring quickstart urban_planning; do
    cargo run --offline -q --release --example "$example" > "results/example_$example.txt"
done
git diff --exit-code --stat -- results/

echo "==> obs smoke (two-city metrics snapshot + scheduling profile replay-identical)"
cargo test --offline -q -p ctt --test obs_profile

echo "==> criterion smoke benches (BENCH_ingest / BENCH_query / BENCH_query_multiuser / BENCH_obs / BENCH_overload)"
# cargo bench runs the bench binary with CWD = the package dir, so the
# report paths must be absolute to land in the repo root.
REPO_ROOT="$PWD"
# 20 interleaved pairs for each ratio gate: one interference burst moved a
# 10-pair median past its floor (EXPERIMENTS.md "Gate table").
CRITERION_SAMPLES=20 CRITERION_JSON="$REPO_ROOT/BENCH_ingest.json" \
    cargo bench --offline -q -p ctt-bench --bench ingest
CRITERION_SAMPLES=20 CRITERION_JSON="$REPO_ROOT/BENCH_query.json" \
    cargo bench --offline -q -p ctt-bench --bench query
CRITERION_SAMPLES=10 CRITERION_JSON="$REPO_ROOT/BENCH_query_multiuser.json" \
    cargo bench --offline -q -p ctt-bench --bench query_multiuser
CRITERION_SAMPLES=20 CRITERION_JSON="$REPO_ROOT/BENCH_obs.json" \
    cargo bench --offline -q -p ctt-bench --bench obs_overhead
CRITERION_SAMPLES=20 CRITERION_JSON="$REPO_ROOT/BENCH_overload.json" \
    cargo bench --offline -q -p ctt-bench --bench overload

echo "==> bench_check (the gate table; prints every gate with its measured value)"
cargo run --offline -q --release -p ctt-bench --bin bench_check "$REPO_ROOT"

echo "==> end-to-end benchmark gate (benchmark/run.sh: harness compiles against the root crate; solo == fleet and served == raw checks on a smoke pass)"
./benchmark/run.sh
# benchmark/ is frozen (BENCHMARK.json `paths`). Its Cargo.lock still names
# `crossbeam`, a vendored crate the workspace no longer has, and dependencies
# several crates dropped, so every harness build rewrites it: put it back,
# then fail on any other change under the frozen paths rather than let it be
# staged by accident.
git checkout -- benchmark/Cargo.lock
git diff --exit-code --stat -- benchmark/ BENCHMARK.json

echo "CI: all green"
