#!/usr/bin/env bash
# Tier-1 verification (see ROADMAP.md), pinned to --offline so a regression
# in the workspace's no-network guarantee fails loudly instead of silently
# reaching for crates.io. Run from the repo root:
#
#   scripts/verify.sh            # tier-1: release build + root-package tests
#   scripts/verify.sh --all      # additionally test every workspace crate
#                                # and the e2e harness's own unit tests
#   scripts/verify.sh --clippy   # additionally lint the workspace and the
#                                # e2e harness (warnings are errors)
#   scripts/verify.sh --smoke    # additionally run the five bounded smoke
#                                # profiles; each asserts its own invariants,
#                                # exits non-zero on a violation and writes
#                                # no BENCH_*.json:
#       db2rdf-serve --smoke     endpoint on an ephemeral port: JSON/TSV/
#                                400/healthz/stats
#       fuzz_differential        ~200 seeded fuzzed queries + ~150 updates
#                                through the differential oracle, bounded
#                                crash-point sweep — fixed seeds
#       bulk_load                ~100k streamed LUBM triples under a fixed
#                                peak-RSS ceiling
#       figures all              every paper table and figure, AQ1-8 on
#                                the three layouts and the executor's
#                                thread sweep, at small scale; each claim
#                                EXPERIMENTS.md makes is checked and
#                                printed PASS/FAIL/SKIP
#       e2e --smoke              the BENCHMARK.json harness: all four
#                                workloads over HTTP, traced and untraced;
#                                every reply checksummed, a warm mix never
#                                misses the plan cache, every update acks
#                                and the update counters balance
#
# Flags combine: `scripts/verify.sh --all --clippy --smoke` is what CI runs.
set -euo pipefail
cd "$(dirname "$0")/.."

run_all=false
run_clippy=false
run_smoke=false
for arg in "$@"; do
    case "$arg" in
        --all) run_all=true ;;
        --clippy) run_clippy=true ;;
        --smoke) run_smoke=true ;;
        *) echo "unknown flag: $arg" >&2; exit 2 ;;
    esac
done

echo "== cargo build --release --offline"
cargo build --release --offline

echo "== cargo test -q --offline"
cargo test -q --offline

if $run_all; then
    echo "== cargo test -q --workspace --offline"
    cargo test -q --workspace --offline
    # The benchmark harness is a package of its own, outside the workspace.
    echo "== cargo test -q --offline --manifest-path e2e/Cargo.toml"
    cargo test -q --offline --manifest-path e2e/Cargo.toml
fi

if $run_clippy; then
    echo "== cargo clippy --workspace --all-targets --offline -- -D warnings"
    cargo clippy --workspace --all-targets --offline -- -D warnings
    # The benchmark harness is a package of its own, outside the workspace.
    echo "== cargo clippy --offline --manifest-path e2e/Cargo.toml --all-targets -- -D warnings"
    cargo clippy --offline --manifest-path e2e/Cargo.toml --all-targets -- -D warnings
fi

if $run_smoke; then
    echo "== db2rdf-serve --smoke"
    cargo run --release --offline -p server --bin db2rdf-serve -- --smoke
    # <bench bin>:<the env var that selects its bounded profile>
    for pair in fuzz_differential:FUZZ_SMOKE bulk_load:BULK_LOAD_SMOKE \
        figures:FIGURES_SMOKE; do
        echo "== ${pair%%:*} (${pair##*:}=1)"
        env "${pair##*:}=1" cargo run --release --offline -p bench --bin "${pair%%:*}"
    done
    echo "== e2e --smoke"
    cargo run --release --offline --manifest-path e2e/Cargo.toml -- --smoke
fi

echo "verify: OK"
