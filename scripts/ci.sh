#!/usr/bin/env bash
# Full local CI gate: release build, workspace tests, the pinned repro
# transcript, lints, formatting, the perfbench build, and the bench
# smoke gates.
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

# --workspace: the root package's tests plus every crate's own suite
# (exec pool, recorder, cache, server).
echo "==> cargo test -q --workspace"
cargo test -q --workspace

# The experiments are deterministic: repro's stdout must match the
# committed transcript byte for byte.
echo "==> repro (stdout pinned to repro_output.txt)"
cargo run --release -q -p seco-bench --bin repro | diff repro_output.txt -

# --all-targets: tests, benches, and examples are linted too.
echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

# perfbench is its own workspace (see BENCHMARK.json), so --workspace
# never builds it; build it here so engine API changes that break it
# fail CI.
echo "==> perfbench build"
cargo build --release --offline --manifest-path perfbench/Cargo.toml

# results/ is the single canonical home for benchmark reports; smoke
# runs overwrite them in place and the greps below gate on those files.
echo "==> fetch_bench --smoke"
cargo run --release -q -p seco-bench --bin fetch_bench -- --smoke

echo "==> join_bench --smoke"
cargo run --release -q -p seco-bench --bin join_bench -- --smoke
echo "==> rank join smoke summary (chunks fetched / time-to-kth)"
grep -E '"(chunks_fetched|chunks_saved|time_to_kth_us|chunk_fetch_reduction|time_to_kth_speedup)"' \
  results/BENCH_join.json
echo "==> parallel-vs-serial smoke gate (modeled speedup at 4 workers >= 1.3x)"
grep -E '"(modeled_speedup_at_4_workers|target|pass)"' results/BENCH_join.json
grep -q '"pass": true' results/BENCH_join.json

echo "==> optimizer_bench --smoke"
cargo run --release -q -p seco-bench --bin optimizer_bench -- --smoke

echo "==> adaptive_bench --smoke"
cargo run --release -q -p seco-bench --bin adaptive_bench -- --smoke
echo "==> adaptive smoke summary (convergence / ratio / replans)"
grep -E '"(converged|ratio_vs_informed|replans|epoch_invalidations)"' results/BENCH_adaptive.json
grep -q '"converged": true' results/BENCH_adaptive.json

echo "==> serve_bench --smoke"
cargo run --release -q -p seco-server --bin bencher -- --smoke
echo "==> serving smoke summary (aggregate cold vs warm p50, identity, p95 flatness)"
grep -E '"(aggregate_cold_p50_ms|aggregate_warm_p50_ms|warm_faster|concurrent_identical_to_serial|p95_flat_at_4x)"' \
  results/BENCH_serve.json
# The bencher itself asserts all three gates and exits non-zero
# otherwise; these greps pin the report format.
grep -q '"warm_faster": true' results/BENCH_serve.json
grep -q '"concurrent_identical_to_serial": true' results/BENCH_serve.json
grep -q '"p95_flat_at_4x": true' results/BENCH_serve.json

echo "CI OK"
