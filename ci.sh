#!/usr/bin/env sh
# The full CI gate. Everything runs offline against the vendored deps.
# Fails fast: the first failing step aborts the run.
set -eu

cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> ctt-lint (R1-R5 + R7, baseline diff, 5s budget)"
# Build first so --budget-ms measures the lint run, not compilation.
cargo build --offline -q -p ctt-lint
./target/debug/ctt-lint . \
    --json-out target/lint-report.json \
    --baseline lint-baseline.txt \
    --budget-ms 5000

echo "==> chaos soak (fault injection + loss-ledger conservation)"
cargo test --offline -q -p ctt-chaos

echo "==> cargo test"
cargo test --offline -q --workspace

echo "==> figures (results/ is the standing golden: every SVG, CSV and profile export byte for byte)"
cargo run --offline -q --release -p ctt-bench --bin figures > /dev/null
git diff --exit-code --stat -- results/

echo "==> obs smoke (two-city metrics snapshot + scheduling profile replay-identical)"
cargo test --offline -q -p ctt --test obs_profile

echo "==> criterion smoke benches (BENCH_ingest / BENCH_query / BENCH_query_multiuser / BENCH_scheduler / BENCH_obs)"
# The scheduler bench is the event queue against the old min-scan loop at
# 12, 200 and 2000 nodes.
# cargo bench runs the bench binary with CWD = the package dir, so the
# report paths must be absolute to land in the repo root.
REPO_ROOT="$PWD"
CRITERION_SAMPLES=10 CRITERION_JSON="$REPO_ROOT/BENCH_ingest.json" \
    cargo bench --offline -q -p ctt-bench --bench ingest_sharded
CRITERION_SAMPLES=5 CRITERION_JSON="$REPO_ROOT/BENCH_query.json" \
    cargo bench --offline -q -p ctt-bench --bench query_sharded
CRITERION_SAMPLES=10 CRITERION_JSON="$REPO_ROOT/BENCH_query_multiuser.json" \
    cargo bench --offline -q -p ctt-bench --bench query_multiuser
CRITERION_SAMPLES=10 CRITERION_JSON="$REPO_ROOT/BENCH_scheduler.json" \
    cargo bench --offline -q -p ctt-bench --bench scheduler
CRITERION_SAMPLES=10 CRITERION_JSON="$REPO_ROOT/BENCH_obs.json" \
    cargo bench --offline -q -p ctt-bench --bench obs_overhead
CRITERION_SAMPLES=10 CRITERION_JSON="$REPO_ROOT/BENCH_overload.json" \
    cargo bench --offline -q -p ctt-bench --bench overload

echo "==> bench_check (reports well-formed; ingest + query + multiuser + scheduler incl. 12-node and 2000-node gates + obs-overhead + overload)"
cargo run --offline -q --release -p ctt-bench --bin bench_check \
    BENCH_ingest.json BENCH_query.json BENCH_query_multiuser.json \
    BENCH_scheduler.json BENCH_obs.json BENCH_overload.json

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
