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
# engine the probe walk replaced, probe by probe, and the paper's anchor
# mesh must match the plain minimum-of-n loop bit for bit
# (tests/probe_exactness.rs; tier-1 runs the random-world properties).
# Release, like the step above.
cargo test -q --release --offline --test probe_exactness -- --ignored

# Lint gate: the workspace must be clippy-clean, warnings as errors.
cargo clippy --offline --workspace --all-targets -- -D warnings
# Format gate: the workspace (the root package and crates/) must be
# rustfmt-clean, so a `cargo fmt` run rewrites no code a change does not
# touch. perfbench/ is a package of its own, outside the workspace.
cargo fmt --all -- --check
# Doc gate: every intra-doc link must resolve, and no public doc may link
# a private item, so deleting or renaming an item cannot leave a
# dangling link behind.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

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

# Contract bytes against the committed digest, in release (about 5 s):
# the matrix above compares splits of one build with each other; this
# compares the build with the bytes the repository last agreed on, so a
# change that moves any contract byte fails here. A change that means to
# move them regenerates the digest with
#   cargo run -q --release --offline -p bench --bin determinism_report \
#       | sha256sum > crates/bench/determinism_report.sha256
# and says in CHANGES.md which bytes moved and why.
cargo run -q --release --offline -p bench --bin determinism_report \
    | sha256sum -c crates/bench/determinism_report.sha256

# Figure determinism, in release (about 5 s): two processes must render
# every small-scale figure to the same bytes. Each process draws its own
# hash keys, so a renderer that ranks ties in `HashMap` order fails here.
# Only the outputs that carry wall-clock time are left out: the span
# profile and the OpenMetrics and Perfetto sidecars of `ops`.
figs=$(mktemp -d)
trap 'rm -rf "$figs"' EXIT
for run in a b; do
    cargo run -q --release --offline -p bench --bin figures -- \
        --all --scale small --out "$figs/$run" 2> "$figs/$run.log" \
        || { cat "$figs/$run.log" >&2; exit 1; }
done
diff -r -x profile.txt -x ops.metrics.om -x ops.trace.json "$figs/a" "$figs/b"

# Committed figures, in release (about 20 s): the medium and paper sets
# must re-render to the bytes in bench_output/ and bench_output_paper/.
# Left out: the same wall-clock outputs, and the bench artifacts that
# `figures` does not write (BENCH_*.json, bench_parallel.txt).
for scale in medium paper; do
    case $scale in
        medium) committed=bench_output ;;
        paper) committed=bench_output_paper ;;
    esac
    cargo run -q --release --offline -p bench --bin figures -- \
        --all --scale "$scale" --out "$figs/$scale" 2> "$figs/$scale.log" \
        || { cat "$figs/$scale.log" >&2; exit 1; }
    diff -r -x profile.txt -x ops.metrics.om -x ops.trace.json \
        -x 'BENCH_*.json' -x bench_parallel.txt "$committed" "$figs/$scale"
done

# Benchmark smoke: perfbench/ is a package of its own, outside the
# workspace, that calls the audit's public API by signature and checks
# that its traced replay reproduces every proxy and the cache counters.
# Build it and run its smoke tests (every workload, traced and untraced,
# at small scale), so a workspace change cannot break the benchmark
# unseen.
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

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
#  3. the smoke suite against the committed baseline. On the 2-vCPU VM
#     that recorded it, plain runs of one unchanged build read from
#     about -46 % to +44 % of the baseline's medians (per entry:
#     EXPERIMENTS.md, "What the plain gate resolves"), wider than the
#     default +-30 % band. Only a ratio outside that swing is evidence
#     of a regression; inside it, or on other hardware, a miss means
#     "refresh with perf_gate --update". So this step warns instead of
#     failing, and the self-test above is the check with teeth.
cargo run -q --release --offline -p bench --bin figures -- profile --scale small \
    > /dev/null
PV_BENCH_SAMPLES=5 cargo run -q --release --offline -p bench --bin perf_gate -- --self-test
PV_BENCH_SAMPLES=10 cargo run -q --release --offline -p bench --bin perf_gate || {
    echo "WARN: perf gate exceeded tolerance vs the committed baseline." >&2
    echo "      One unchanged build reads -46 % to +44 % of it on the reference VM;" >&2
    echo "      only a ratio outside that swing is evidence of a regression" >&2
    echo "      (EXPERIMENTS.md, Perf lab). Otherwise: perf_gate --update." >&2
}
