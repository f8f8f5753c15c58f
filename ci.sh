#!/usr/bin/env sh
# Tier-1 gate, run exactly as CI runs it: fully offline against an empty
# registry. The workspace has zero external dependencies, so this must
# succeed on a clean checkout with no network.
set -eu

export CARGO_NET_OFFLINE=true

cargo build --release --offline
# The root manifest's default-members make this the whole workspace.
cargo test -q --offline
# Once more on one harness thread: tests must not depend on running
# concurrently, or on the order the parallel harness happens to pick.
cargo test -q --offline -- --test-threads=1
# Once more in a shuffled order: no test may rely on another having run
# first. The harness's shuffle is unstable, hence RUSTC_BOOTSTRAP.
RUSTC_BOOTSTRAP=1 cargo test -q --offline -- -Z unstable-options --shuffle-seed 8

# Routing exactness at paper scale: every (source, destination) route of
# the paper world, 31.9M pairs, must equal the whole-graph Dijkstra's
# (tests/routing_exactness.rs; tier-1 runs the same check on the small
# world). Release, since it takes minutes in debug.
cargo test -q --release --offline --test routing_exactness -- --ignored

# Lint gate: the workspace must be clippy-clean, warnings as errors.
cargo clippy --offline --workspace --all-targets -- -D warnings

# Every example must at least build; quickstart must actually run.
cargo build --release --examples --offline
cargo run -q --release --offline --example quickstart > /dev/null

# Reliability smoke: the audit under probe loss + landmark outages must
# stay deterministic and account for every proxy.
cargo test -q --offline --test fault_campaign

# Adversary smoke: active timing attacks must be caught (or provably
# harmless), and an armed, defended study must stay byte-deterministic
# across thread counts.
cargo test -q --offline --test adversary_campaign

# Parallelism determinism gate: the rendered study report — including
# the observability block and the full JSONL event trace — must be
# byte-identical whether the audit fans out over 1, 8, or 16 workers
# (16 oversubscribes every CI box, which is exactly the point: heavy
# preemption shakes out scheduling dependence). Any diff means a
# proxy's result (or its recorded trace) depended on scheduling — a
# bug, not noise.
report_dir="$(mktemp -d)"
trap 'rm -rf "$report_dir"' EXIT
for t in 1 8 16; do
    PV_THREADS=$t cargo run -q --release --offline -p bench --bin determinism_report \
        > "$report_dir/report-${t}thread.txt"
done
for t in 8 16; do
    cmp "$report_dir/report-1thread.txt" "$report_dir/report-${t}thread.txt" || {
        echo "FAIL: study report differs between PV_THREADS=1 and PV_THREADS=$t" >&2
        exit 1
    }
done

# Sharding determinism gate: the master/worker split must be just as
# invisible as the thread pool. The same report, run as 2 and 5 shards
# crossed with 1 and 8 workers, must be byte-identical to the
# monolithic 1-thread reference above — including the disk-cache
# counters (reconstructed exactly at merge time) and the JSONL trace.
for s in 2 5; do
    for t in 1 8; do
        PV_SHARDS=$s PV_THREADS=$t \
            cargo run -q --release --offline -p bench --bin determinism_report \
            > "$report_dir/report-${s}shard-${t}thread.txt"
        cmp "$report_dir/report-1thread.txt" \
            "$report_dir/report-${s}shard-${t}thread.txt" || {
            echo "FAIL: study report differs at PV_SHARDS=$s PV_THREADS=$t" >&2
            exit 1
        }
    done
done

# Verdict-store smoke: write a study epoch to disk, reopen the file
# cold, and answer the lookup/trend/false-rate queries without
# re-measurement (tests/verdict_store.rs).
cargo test -q --offline --test verdict_store

# Telemetry export gate (tests/ops_telemetry.rs is the in-process
# version; this is the shipped binary):
#  1. the deterministic subset of the OpenMetrics exposition must be
#     byte-identical at 1 and 8 worker threads — the determinism
#     contract extends to what an operator scrapes;
#  2. the full exposition must round-trip through the in-repo
#     OpenMetrics parser byte-for-byte and lint clean against the
#     metric-name registry;
#  3. the SLO mode must exit zero on a healthy run (it exits 1 when any
#     default rule fires — the release pipeline's alerting hook).
PV_THREADS=1 cargo run -q --release --offline -p bench --bin metrics_export \
    > "$report_dir/metrics-1thread.om"
PV_THREADS=8 cargo run -q --release --offline -p bench --bin metrics_export \
    > "$report_dir/metrics-8thread.om"
cmp "$report_dir/metrics-1thread.om" "$report_dir/metrics-8thread.om" || {
    echo "FAIL: deterministic metrics differ between PV_THREADS=1 and 8" >&2
    exit 1
}
cargo run -q --release --offline -p bench --bin metrics_export -- --check
cargo run -q --release --offline -p bench --bin metrics_export -- --slo

# Perf lab smoke (see EXPERIMENTS.md "Perf lab"):
#  1. the profiler must render a span tree for a full (small) audit;
#  2. the perf gate's comparator must catch a synthetic 2x regression
#     (machine-independent self-test);
#  3. the smoke suite must pass against the committed baseline. The
#     baseline was recorded on the reference machine; on other hardware
#     a miss here means "refresh with perf_gate --update", not "CI is
#     broken", so this step warns instead of failing.
cargo run -q --release --offline -p bench --bin figures -- profile --scale small \
    > /dev/null
PV_BENCH_SAMPLES=5 cargo run -q --release --offline -p bench --bin perf_gate -- --self-test
PV_BENCH_SAMPLES=10 cargo run -q --release --offline -p bench --bin perf_gate || {
    echo "WARN: perf gate exceeded tolerance vs the committed baseline" >&2
    echo "      (real regression, or a different machine: see perf_gate --update)" >&2
}
