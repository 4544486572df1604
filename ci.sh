#!/usr/bin/env bash
# The full local CI gate. Everything runs offline (vendor/README.md).
#
#   ./ci.sh          # the whole gate
#   ./ci.sh quick    # skip the release build (fmt, clippy, tests)
set -euo pipefail
cd "$(dirname "$0")"

step() { printf '\n\033[1m== %s ==\033[0m\n' "$*"; }

step "cargo fmt --check"
cargo fmt --check

step "cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

if [[ "${1:-}" != "quick" ]]; then
  step "cargo build --release"
  cargo build --release
fi

# The tier-1 gate (`cargo test -q`, umbrella package only) is a strict
# subset of the workspace run, so one invocation covers both.
step "cargo test --workspace -q (every crate: unit + integration + doctests)"
cargo test --workspace -q

# The socket path is load-bearing (Transport::Socket routes the whole
# agent/upcall protocol through the framed codec and the reactor), so its
# smoke suite gets a named step even though the workspace run above
# already includes it — a failure here points straight at the wire.
step "wire-transport socket smoke"
cargo test -q --test wire_transport

step "examples compile"
cargo build --examples --quiet

# Rustdoc gate: the doc surface (incl. crates/repl's missing_docs lint)
# builds clean with warnings promoted to errors.
step "cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

# Regression tooling can't rot: run every shipped scenario through the
# lab, the one evaluation harness (EXPERIMENTS.md "Writing a scenario").
# Each scenario declares its own assertions. The paper's own tables are
# `paper` scenarios gating its claims: t1 the observed control-mode matrix
# equals Table 1 plus the rfd/rdd rows, e1 a token SELECT under 3 ms, e2
# under 1 ms added per managed open, e3 the per-open cost amortizing with
# file size (under 1% at 16 MiB over the disk model), e4 rfd/rdd
# open-for-write within 2x, a1 zero UIP lost updates while CAU loses at
# most one per update, a2 3 upcalls per update session at any write
# count, a3 0 (rfd) vs 3 (rdd) upcalls per read open and an rdd
# open+close within 2x of the same three DLFM calls made directly, a4 exactly 2
# repository updates per read open for Sync tracking, a5 sync archiving
# >= 4x slower closes at 2 MiB, a6 every crash recovering the last
# committed bytes, a7 restore matching content to metadata, a8 0 vs 2
# upcalls per unlinked open for strict links. The system scenarios
# follow: a9 the commit-throughput speedups, a10 lag-drain +
# failover link preservation, a11 bounded WALs + delta catch-up, a12 the
# adaptive upcall pool and shared agent executor, a13 near-linear
# write-cycle scaling across DLFM namespace shards — and the fault
# scenarios cover crash-failover, standby stalls under freshness reads,
# link-churn storms, upcall-worker kills, ENOSPC write-fault bursts
# (disk_fault, repository- or host-targeted, its failed ops bounded by the
# WAL's dropped-commit counter), host-coordinator loss
# mid-burst with promotion of a host standby (kill_host_mid_burst, its
# flight-recorder span trail gated as lab_flight_* metrics) and a torn
# host-WAL tail at a crash boundary (host_wal_torn_tail). The lab exits
# non-zero on any failed assertion, then the just-written BENCH_*.json
# self-compare keeps the trajectory pipeline honest. Quick mode stays on
# the debug profile to avoid a release build it otherwise skips.
step "lab --quick scenarios/*.jsonl (declared assertions) + report --compare self-smoke"
profile_flag=""
if [[ "${1:-}" != "quick" ]]; then
  profile_flag="--release"
fi
bench_dir=$(mktemp -d)
trap 'rm -rf "$bench_dir"' EXIT
# shellcheck disable=SC2086  # $profile_flag is intentionally word-split
cargo run -p dl-bench $profile_flag --quiet --bin lab -- \
  --quick --json-dir "$bench_dir" scenarios/*.jsonl > /dev/null
cargo run -p dl-bench $profile_flag --quiet --bin report -- \
  --compare "$bench_dir" --current "$bench_dir"

# Wire throughput gate: the a14 wire churn (full 2PC cycles over real
# sockets) must hold a sane fraction of the same table's in-process
# baseline row, which runs the same churn shape over Transport::Local.
# Quick-mode release wire/local ratios on a 2-core machine, with sends
# written on the sending thread and no client reactor: 0.18-0.39 over 34
# runs (median ~0.30); the same runs with a client reactor and queued
# sends read 0.07-0.15. The 0.11 floor keeps ~1.6x headroom under the
# slowest run, fails on a ~2.7x collapse of the framed transport's round
# trips from the median, and stays insensitive to the machine's absolute
# numbers.
step "wire gate: a14 socket churn vs a14 in-process baseline"
cargo run -p dl-bench $profile_flag --quiet --bin report -- \
  --gate "$bench_dir/BENCH_a14.json::local baseline" \
         "$bench_dir/BENCH_a14.json::wire churn" \
  --column "ops/s" --min-ratio 0.11

# The repository benchmark (perfbench/, its own cargo workspace) builds
# against the system crates by path: run its unit tests so an API change
# in a system crate that breaks the benchmark fails here.
step "perfbench: build + unit tests"
cargo test --release --offline --locked --manifest-path perfbench/Cargo.toml

step "OK"
