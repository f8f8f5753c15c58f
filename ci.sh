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

# Probe exactness at paper scale: the audit's probe kinds over a slice of
# the paper fleet, clean and hostile, must match the discrete-event
# engine the probe walk replaced, probe by probe (tests/probe_exactness.rs;
# tier-1 runs the random-world property). Release, like the step above.
cargo test -q --release --offline --test probe_exactness -- --ignored

# Lint gate: the workspace must be clippy-clean, warnings as errors.
cargo clippy --offline --workspace --all-targets -- -D warnings

# Every example must at least build; quickstart must actually run.
cargo build --release --examples --offline
cargo run -q --release --offline --example quickstart > /dev/null

# Reliability smoke: the audit under probe loss + landmark outages must
# account for every proxy.
cargo test -q --offline --test fault_campaign

# Adversary smoke: active timing attacks must be caught (or provably
# harmless).
cargo test -q --offline --test adversary_campaign

# Determinism gate, in release: a plain, a faulted, and an armed,
# defended study must render the same contract bytes (reports, JSONL
# trace, snapshots, deterministic OpenMetrics subset, every record) at
# every shard x thread split as at one shard on one thread
# (crates/bench/tests/determinism.rs; tier-1 runs it in debug). Any
# diff means a result depended on scheduling: a bug, not noise.
cargo test -q --release --offline -p bench --test determinism

# Verdict-store smoke: write a study epoch to disk, reopen the file
# cold, and answer the lookup/trend/false-rate queries without
# re-measurement (tests/verdict_store.rs).
cargo test -q --offline --test verdict_store

# Telemetry export gate (tests/ops_telemetry.rs is the in-process
# version; this is the shipped binary):
#  1. the full exposition must round-trip through the in-repo
#     OpenMetrics parser byte-for-byte and lint clean against the
#     metric-name registry;
#  2. the SLO mode must exit zero on a healthy run (it exits 1 when any
#     default rule fires — the release pipeline's alerting hook).
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
