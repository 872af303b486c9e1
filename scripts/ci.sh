#!/usr/bin/env bash
# Offline CI gate for the workspace. Everything here runs without
# network access: no crates.io dependencies, no rustup downloads.
#
#   scripts/ci.sh         # fmt + clippy + tests (debug) + perfbench
#                         # self-tests + determinism
#   scripts/ci.sh full    # ...plus release build, bench-harness check,
#                         # and a --smoke run of every figure binary
#   scripts/ci.sh smoke   # only the figure-binary smoke runs
#   scripts/ci.sh det     # only the determinism gate
set -euo pipefail
cd "$(dirname "$0")/.."

# Every experiment binary, run end to end at --smoke scale (one run,
# tiny packet counts, shrunken stores). Proves the figures still
# *execute* after a refactor; EXPERIMENTS.md records full-scale numbers.
smoke() {
    echo "==> figure-binary smoke runs (--smoke)"
    cargo build --release -q -p bench
    local bins=(
        table01_cachespec fig04_hash fig05_latency fig06_speedup
        fig07_ops fig08_kvs fig12_lowrate fig13_forward fig14_chain
        fig15_knee fig_knee_kvs fig16_table4_skylake fig17_isolation
        fig_tenants fig_scale_kvs ext_pipeline headroom_dist kvs_probe
        skylake_nfv calibrate
    )
    for bin in "${bins[@]}"; do
        echo "    -> ${bin}"
        "./target/release/${bin}" --smoke > /dev/null
    done
    # The §8 hot-set migration study: a skewed multi-core run that must
    # migrate (its golden pins hot-hit-rate above static Striped and a
    # non-zero migration-cycle ledger).
    echo "    -> fig08_kvs (migration study)"
    ./target/release/fig08_kvs --smoke --zipf=0.99 --migrate=4096 --cores=4 > /dev/null
    # The cost-aware migration churn study, with the acceptance
    # invariant pinned: the cost-aware controller
    # must execute ZERO swaps at a projected loss (its golden also pins
    # the full table, but this assertion survives golden re-records).
    echo "    -> fig08_kvs (churn study)"
    local churn_out
    churn_out="$(./target/release/fig08_kvs --smoke --zipf=0.99 --churn=4096 --cores=4 2>/dev/null)"
    if ! grep -q '^cost-aware swaps at a projected loss: 0 ' <<<"${churn_out}"; then
        echo "FAIL: cost-aware migration executed swaps at a projected loss" >&2
        grep 'projected loss' <<<"${churn_out}" >&2 || true
        exit 1
    fi
    # The overload chaos scenario: flash crowd + link flap + RX stall,
    # graceful degradation and recovery.
    echo "    -> fig_knee_kvs (chaos scenario)"
    ./target/release/fig_knee_kvs --smoke --chaos > /dev/null
}

# The engine has one execution path. Fail if the removed threaded-mode
# flag reappears in the figure binaries or the scripts that drive them.
# (The pattern is split so this file does not match itself.)
single_path() {
    echo "==> single execution path: no threaded-mode flag"
    local flag="--""parallel"
    if grep -rn -e "${flag}" scripts crates/bench/src run_all_experiments.sh; then
        echo "FAIL: ${flag} reappeared" >&2
        exit 1
    fi
}

# Determinism gate: the differential suite (repeated runs AND
# event-driven vs reference tick-stepper), a byte-level double-run diff
# of an engine-backed figure binary, a byte-level scheduler diff (the
# event-driven scheduler must print the same stdout as the retained
# tick-stepper), and the pinned epoch ceiling (the empty-epoch tax must
# stay dead).
det() {
    echo "==> determinism: differential suite (repeated runs + reference/event-driven)"
    cargo test -p engine --test differential -q
    # Same suite single-threaded: harness scheduling must not matter.
    cargo test -p engine --test differential -q -- --test-threads=1
    echo "==> determinism: double-run diff of fig08_kvs --smoke"
    cargo build --release -q -p bench
    local out_a out_b
    out_a="$(mktemp)"
    out_b="$(mktemp)"
    ./target/release/fig08_kvs --smoke --cores=4 > "$out_a"
    ./target/release/fig08_kvs --smoke --cores=4 > "$out_b"
    diff -u "$out_a" "$out_b"
    echo "==> determinism: scheduler diff of fig08_kvs --smoke (event vs reference)"
    ./target/release/fig08_kvs --smoke --cores=4 --scheduler=reference > "$out_b"
    ./target/release/fig08_kvs --smoke --cores=4 > "$out_a"
    diff -u "$out_b" "$out_a"
    # The multi-tenant controller study: the stateful isolation control
    # loop (streaks, cooldown, DDIO calm counter) must also be invisible
    # to scheduler choice, at the byte level.
    echo "==> determinism: scheduler diff of fig_tenants --smoke"
    ./target/release/fig_tenants --smoke > "$out_a"
    ./target/release/fig_tenants --smoke --scheduler=reference > "$out_b"
    diff -u "$out_a" "$out_b"
    # The scale study: streamed sketch quantiles, trace replay, and the
    # migrator must all be invisible to scheduler choice, at the byte
    # level.
    echo "==> determinism: scheduler diff of fig_scale_kvs --smoke"
    ./target/release/fig_scale_kvs --smoke > "$out_a"
    ./target/release/fig_scale_kvs --smoke --scheduler=reference > "$out_b"
    diff -u "$out_a" "$out_b"
    rm -f "$out_a" "$out_b"
    echo "==> scheduler: pinned epoch ceiling on fig08_kvs --smoke --cores=4"
    # The event-driven scheduler dispatches ~300 epochs here (one per
    # closed-loop round); the tick-stepper paid ~52k. The ceiling has
    # 2x headroom — above it, the empty-epoch tax is creeping back.
    local ceiling=600 sched dispatched
    sched="$(./target/release/fig08_kvs --smoke --cores=4 2>&1 >/dev/null | grep '^\[sched\]')"
    echo "    ${sched}"
    dispatched="$(sed -n 's/.*epochs_dispatched=\([0-9]*\).*/\1/p' <<<"${sched}")"
    if [[ -z "${dispatched}" ]] || (( dispatched == 0 || dispatched > ceiling )); then
        echo "FAIL: epochs_dispatched=${dispatched:-unparsed} outside (0, ${ceiling}]" >&2
        exit 1
    fi
}

if [[ "${1:-}" == "smoke" ]]; then
    smoke
    echo "CI OK"
    exit 0
fi

if [[ "${1:-}" == "det" ]]; then
    det
    echo "CI OK"
    exit 0
fi

single_path

echo "==> rustfmt (check only)"
cargo fmt --all --check

echo "==> clippy, all targets, warnings are errors"
cargo clippy --workspace --all-targets -q -- -D warnings

echo "==> tests (whole workspace)"
cargo test --workspace -q

# perfbench/ is its own package outside the workspace, so the line above
# never runs its self-tests (metric names vs BENCHMARK.json, wrapper
# bit-exactness, clock read-cost subtraction). Same target dir as run.py.
echo "==> perfbench self-tests"
CARGO_TARGET_DIR=.bench_build cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

det

if [[ "${1:-}" == "full" ]]; then
    echo "==> release build"
    cargo build --release -q
    echo "==> bench harness compiles (not run)"
    cargo clippy --workspace --all-targets --features bench-harness -q -- -D warnings
    cargo bench -p bench --features bench-harness --no-run -q
    smoke
fi

echo "CI OK"
