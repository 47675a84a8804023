#!/bin/sh
# Tier-1 gate for DeathStarBench-sim. Fully offline and hermetic: the
# workspace has no crates-io dependencies, so `--offline` always works
# from a clean checkout with no network and no vendored registry.
#
#   ./ci.sh            # build + test + fmt + clippy + doc + checked
#                      # self-tests + perfsuite + bench gates
#   ./ci.sh --bless    # regenerate all golden fixtures, then run the gate
#
# Golden fixtures live under tests/goldens/, plus the Fig. 18 call-graph
# exports under figures/. After an intentional change to the timing
# model, the analyzer or an app's call graph, run `./ci.sh --bless`
# locally and commit the diff. A bless cannot pin an analyzer finding on
# a built-in app: tests/analyzer_report.rs fails on one before it writes
# its fixture. The gate itself must never regenerate
# fixtures: if UPDATE_GOLDENS leaked into a CI environment, every golden
# test would silently rewrite its own expectation and pass.
#
# The test pass runs in release (the simulation-heavy suites are ~10x
# slower unoptimized) and is held to a hard wall-clock budget, guarding
# against slow-test regressions like the 190 s end_to_end suite fixed in
# PR 1. Per-suite times are printed so the offender is obvious.
set -eu

cd "$(dirname "$0")"

TEST_BUDGET_S=120

if [ "${1:-}" = "--bless" ]; then
    echo "==> regenerating golden fixtures (UPDATE_GOLDENS=1)"
    UPDATE_GOLDENS=1 cargo test -q --release --offline \
        --test goldens --test analyzer_report --test dsb_report --test chaos
    git --no-pager diff --stat -- tests/goldens/ figures/ || true
fi

if [ -n "${CI:-}" ] && [ -n "${UPDATE_GOLDENS:-}" ]; then
    echo "ci.sh: UPDATE_GOLDENS is set in a CI environment." >&2
    echo "Golden tests would overwrite their fixtures instead of checking" >&2
    echo "them. Unset it; regenerate locally with ./ci.sh --bless." >&2
    exit 1
fi

echo "==> cargo build --workspace --release --offline --all-targets"
# --all-targets prebuilds the test harnesses too, so the timed test pass
# below measures test runtime, not leftover compilation.
cargo build --workspace --release --offline --all-targets

echo "==> cargo test --workspace --release --offline (budget: ${TEST_BUDGET_S}s)"
# The parallel-conformance suite (tests/parallel_conformance.rs) rides
# inside this pass: any byte divergence between the serial and sharded
# engines fails its assertions, which fails the pass — that IS the
# hard-fail gate. That includes the chaos conformance run (two fault
# scenarios, workers 1/2/4/8, full timeline + JSONL byte-compared) and
# the chaos detection goldens (tests/chaos.rs, scorer held to
# precision = recall = 1.0). It appends per-run timings to this file,
# aggregated and printed after the pass; clear stale samples first.
conf_times="target/conformance_times.txt"
rm -f "$conf_times"
test_log=$(mktemp)
trap 'rm -f "$test_log"' EXIT
test_start=$(date +%s)
if ! cargo test --workspace --release --offline >"$test_log" 2>&1; then
    cat "$test_log"
    echo "ci.sh: test pass FAILED" >&2
    exit 1
fi
test_end=$(date +%s)
test_wall=$((test_end - test_start))
# Per-suite wall time, as reported by each test binary.
awk '
    / Running / {
        n = $0
        sub(/^.*\(/, "", n); sub(/\).*$/, "", n)
        sub(/^.*\//, "", n); sub(/-[0-9a-f]+$/, "", n)
        name = n
    }
    / Doc-tests / { name = "doc-tests " $2 }
    /^test result:/ {
        t = $0
        sub(/^.*finished in /, "", t); sub(/s$/, "", t)
        printf "    %-24s %7.2fs  (%s)\n", name, t + 0, $4
    }
' "$test_log"
if [ -f "$conf_times" ]; then
    echo "    parallel-conformance wall time by worker count:"
    sort "$conf_times" | awk '
        { w = $1; sub(/^workers=/, "", w)
          t = $2; sub(/^secs=/, "", t)
          secs[w] += t; runs[w] += 1 }
        END { for (w in secs)
                  printf "        workers=%s %7.2fs  (%d runs)\n", w, secs[w], runs[w] }
    ' | sort -t= -k2 -n
fi
echo "    test pass total: ${test_wall}s (budget ${TEST_BUDGET_S}s)"
if [ "$test_wall" -gt "$TEST_BUDGET_S" ]; then
    echo "ci.sh: tier-1 test pass took ${test_wall}s, over the" >&2
    echo "${TEST_BUDGET_S}s budget. Shrink or rescale the slow suite" >&2
    echo "(per-suite times above) instead of raising the budget." >&2
    exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets (warn-free, determinism bans, outside the budget)"
# Lints regress silently otherwise, one warning at a time. Every target
# of the workspace (tests, examples, binaries) is held to zero warnings.
# This step also enforces the determinism bans: clippy.toml bans hash
# containers, wall clocks, interior mutability, channels and threads by
# path, and -F unsafe-code rejects `static mut` (every access to one
# needs `unsafe`) with no exemption possible. An intended use carries an
# #[expect] at the item, which fails here once it goes stale, and
# crates/analyzer/tests/determinism_rules.rs fails here if a ban stops
# firing. -D clippy::iter_over_hash_type rejects every `for` loop over a
# HashMap/HashSet, so a hash container that an #[expect] lets back in
# still cannot feed an order-dependent loop, such as a float sum whose
# rounding would follow the hasher. perfsuite/ is a package of its own
# and is not linted here.
cargo clippy -q --release --offline --workspace --all-targets -- \
    -D warnings -F unsafe-code -D clippy::iter_over_hash_type

echo "==> cargo doc --workspace --no-deps --offline (warn-free)"
# rustdoc warnings (broken intra-doc links, bad code fences) regress
# silently otherwise; docs are a first-class deliverable here.
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps --offline

echo "==> engine self-checks: dsb-simcore + dsb-core + dsb-trace + dsb-telemetry + dsb-bench tests, the chaos, parallel conformance and determinism suites with debug assertions and overflow checks (outside the budget)"
# Every other step builds --release, where debug_assert! and integer
# overflow checks compile out, so the engine's own invariants (wheel
# order, lookahead floor, slot liveness, the shard tag of every span a
# trace sync places) would never run, and neither would the overflow
# checks on the metrics registry's integer window sums. Same release
# optimizations, checks switched back on, in a target dir of its own so
# the plain release artifacts above are not rebuilt. The dsb-bench
# tests run the fig22 kernel, the benchmark's own model, at workers 1
# and 4 under the epoch driver's assertions, at the 4 ms window its
# hops allow. The chaos suite (tests/chaos.rs) drives all five fault
# kinds, so the fault paths' assertions (the hop's lookahead floor, a
# cut request leaving from its caller's shard) run too. The
# conformance suite runs the epoch driver's, the wheel's and the trace
# sync's assertions under the real model at workers 2, 3, 4 and 8 (a
# host with fewer CPUs runs those on one thread per CPU). Its ms-fabric
# case is the one run whose epoch window exceeds the model lookahead,
# at a jitter that puts a third of all hops on their floor, so a window
# wider than the run's hops allow trips the epoch driver's `at > last`
# assertion there. The determinism suite's
# slicing_does_not_change_merged_views syncs the merged trace view
# hundreds of times (450 one-ms slices and 64 irregular ones, at workers
# 1 and 4), so the sync's shard-tag assertion and the overflow checks on
# the integer sums it hands over run on every one. About 100 s cold.
CARGO_PROFILE_RELEASE_DEBUG_ASSERTIONS=true \
    CARGO_PROFILE_RELEASE_OVERFLOW_CHECKS=true \
    CARGO_TARGET_DIR=target/checked \
    cargo test -q --release --offline -p dsb-simcore -p dsb-core -p dsb-trace \
    -p dsb-telemetry -p dsb-bench
CARGO_PROFILE_RELEASE_DEBUG_ASSERTIONS=true \
    CARGO_PROFILE_RELEASE_OVERFLOW_CHECKS=true \
    CARGO_TARGET_DIR=target/checked \
    cargo test -q --release --offline --test chaos --test parallel_conformance \
    --test determinism

echo "==> perfsuite: cargo test + fmt --check (own package, outside the budget)"
# perfsuite/ is a standalone package the workspace does not build, so a
# simulator API change could otherwise break the benchmark unnoticed
# until someone runs it. Its tests include the digest gate: every
# workload's deterministic digest must still match perfsuite/digests.txt.
# --locked: a [dependencies] edit in any crate perfsuite builds against
# fails here instead of silently rewriting perfsuite/Cargo.lock.
cargo test -q --release --offline --locked --manifest-path perfsuite/Cargo.toml
cargo fmt --check --manifest-path perfsuite/Cargo.toml

# Throughput watchdog over both bench metrics, against a committed
# baseline file. A fresh value more than 10% below the baseline prints
# a warning (shared CI machines are noisy); more than 25% below is
# treated as a real regression and fails the run. An *unparseable*
# metric is always a hard failure — a silent parse miss would turn the
# whole gate into a no-op, which is exactly how the old requests-only
# check rotted.
bench_gate() {
    bench_log=$1
    baseline=$2
    echo "    committed baseline (${baseline}):"
    sed 's/^/    /' "$baseline"
    for metric in requests_per_wall_second events_per_wall_second; do
        fresh=$(sed -n "s/.*\"${metric}\": \([0-9]*\).*/\1/p" "$bench_log" | head -n 1)
        base=$(sed -n "s/.*\"${metric}\": \([0-9]*\).*/\1/p" "$baseline" | head -n 1)
        if [ -z "$fresh" ] || [ -z "$base" ] || [ "$base" -le 0 ]; then
            echo "ci.sh: could not parse ${metric} from the fresh bench" >&2
            echo "output and/or ${baseline}; the perf gate cannot run." >&2
            rm -f "$bench_log"
            exit 1
        fi
        floor_warn=$((base * 9 / 10))
        floor_fail=$((base * 3 / 4))
        if [ "$fresh" -lt "$floor_fail" ]; then
            echo "ci.sh: ${metric} ${fresh} is >25% below the committed" >&2
            echo "baseline ${base} (hard floor ${floor_fail}). Find the" >&2
            echo "regression before re-baselining ${baseline}." >&2
            rm -f "$bench_log"
            exit 1
        elif [ "$fresh" -lt "$floor_warn" ]; then
            echo "ci.sh: WARNING: ${metric} ${fresh} is >10% below the" >&2
            echo "committed baseline ${base} (floor ${floor_warn})." >&2
            echo "If this reproduces on a quiet machine, find the" >&2
            echo "regression before re-baselining ${baseline}." >&2
        fi
    done
    rm -f "$bench_log"
}

echo "==> dsb-bench (perf baseline: fig17 two-tier kernel)"
# The committed BENCH_0.json is the baseline snapshot; the gate never
# overwrites it (that would defeat its purpose as a regression anchor),
# it re-runs the kernel and prints the fresh numbers next to it for
# eyeballing. Regenerate deliberately with:
#   cargo run --release -p dsb-bench --bin dsb-bench -- BENCH_0.json
if [ -f BENCH_0.json ]; then
    bench_log=$(mktemp)
    cargo run -q --release --offline -p dsb-bench --bin dsb-bench | tee "$bench_log"
    bench_gate "$bench_log" BENCH_0.json
else
    cargo run -q --release --offline -p dsb-bench --bin dsb-bench -- BENCH_0.json
fi

echo "==> dsb-bench --workers 4 (parallel baseline: fig22 sharded kernel)"
# BENCH_1 is the sharded engine's anchor: the event-dense fig22 kernel
# at workers=4, with the serial reference re-run in-process (the binary
# asserts identical events and completions, so a conformance break here
# fails before any number is printed). parallel_speedup is honest about
# host_cpus: on a 1-CPU CI box it reads < 1x, and the regression signal
# is events_per_wall_second.
if [ -f BENCH_1.json ]; then
    bench_log=$(mktemp)
    cargo run -q --release --offline -p dsb-bench --bin dsb-bench -- --workers 4 | tee "$bench_log"
    # Speedup expectations only mean something with real cores to run
    # the shards on: on a 1-CPU host the sharded engine cannot beat the
    # serial one, so stay quiet rather than print an expectation the
    # hardware cannot meet. The per-second throughput gates below run
    # unchanged either way.
    host_cpus=$(sed -n 's/.*"host_cpus": \([0-9]*\).*/\1/p' "$bench_log" | head -n 1)
    speedup=$(sed -n 's/.*"parallel_speedup": \([0-9.]*\).*/\1/p' "$bench_log" | head -n 1)
    if [ "${host_cpus:-1}" -gt 1 ]; then
        echo "    parallel_speedup ${speedup:-?}x on ${host_cpus} cpus (expected > 1x)"
    fi
    bench_gate "$bench_log" BENCH_1.json
else
    cargo run -q --release --offline -p dsb-bench --bin dsb-bench -- --workers 4 BENCH_1.json
fi

# The tier-1 differential sweep (64 seeds) rides inside the test pass
# above via tests/differential.rs. The extended sweep is opt-in:
#   DIFF_SEEDS=1000 cargo run --release -p dsb-gen --bin dsb-diff

echo "ci.sh: all green"
