//! Operational telemetry, end to end: a real (small) study run must
//! export a lint-clean OpenMetrics exposition that round-trips through
//! the in-repo parser, a Perfetto-loadable trace, a progress-snapshot
//! stream of valid JSON lines, and an ops dashboard that renders all of
//! it. The determinism matrix (`crates/bench/tests/determinism.rs`)
//! checks the snapshots and the deterministic subset of the exposition
//! at every shard and thread split.

use bench::determinism::{check_scenario, section, split, Scenario};
use proxy_verifier::obs::export::parse_exposition;
use proxy_verifier::obs::json::Json;
use proxy_verifier::vpnstudy::audit::StudyResults;
use proxy_verifier::vpnstudy::{ops, report, Study, StudyConfig};
use std::sync::OnceLock;

fn study() -> &'static StudyResults {
    static S: OnceLock<StudyResults> = OnceLock::new();
    S.get_or_init(|| {
        let mut study = Study::build(StudyConfig::small(2018));
        study.run_sharded(1, 4)
    })
}

/// Every counter, histogram, and wall counter a real run emits is in
/// the registry (`study_metrics` errors on the first unregistered raw
/// name), the exposition lints clean, and parse → render reproduces
/// the exact bytes.
#[test]
fn real_run_exports_a_round_trippable_exposition() {
    let set = ops::study_metrics(study()).expect("unregistered metric leaked into a run");
    assert!(set.lint_against_registry().is_empty());
    let text = set.render();
    let parsed = parse_exposition(&text).expect("exposition must parse");
    assert_eq!(parsed.render(), text, "round-trip drifted");
    // Spot-check both compartments made it out, run shape included.
    assert!(parsed.family("pv_probe_total").is_some());
    assert!(parsed.family("pv_span_seconds_total").is_some());
    assert_eq!(parsed.value("pv_audit_threads", &[]), Some(4.0));
    assert_eq!(parsed.value("pv_audit_shards", &[]), Some(1.0));
    assert!(parsed.value("pv_progress_proxies_done", &[]).unwrap() > 0.0);
}

/// The deterministic subset of the exposition is a pure function of the
/// seed: it is part of the contract bytes, which 1-thread and 8-thread
/// runs render byte-identically. (The full exposition differs — span
/// timings are wall-clock.)
#[test]
fn deterministic_exposition_subset_is_thread_invariant() {
    let reference = check_scenario(Scenario::Plain, &StudyConfig::small(909), &[split(1, 8)])
        .unwrap_or_else(|e| panic!("deterministic exposition subset diverged: {e}"));
    assert!(!section(&reference, "openmetrics").is_empty());
}

/// The Perfetto export is valid JSON in trace-event shape: a
/// `traceEvents` array of objects each carrying a phase, and at least
/// one complete (`X`) span from the profiler.
#[test]
fn perfetto_trace_is_loadable_json() {
    let trace = proxy_verifier::obs::perfetto::render_trace(&study().obs);
    let doc = Json::parse(&trace).expect("trace must be valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    assert!(
        events.len() > 10,
        "suspiciously small trace: {}",
        events.len()
    );
    let mut complete = 0usize;
    for e in events {
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .expect("every event has ph");
        if ph == "X" {
            complete += 1;
            assert!(e.get("dur").is_some(), "X event without dur");
        }
    }
    assert!(complete > 0, "no complete spans in the trace");
}

/// Snapshot JSONL: every line is valid JSON.
#[test]
fn snapshot_jsonl_parses_line_by_line() {
    let results = study();
    assert!(!results.snapshots.is_empty());
    for line in results.snapshots_jsonl().lines() {
        let doc = Json::parse(line).expect("snapshot line parses");
        assert!(doc.get("seq").is_some());
    }
}

/// The ops dashboard renders the whole picture: progress, quantiles,
/// and the SLO verdict (quiet here — a healthy run with no prior epoch
/// must not alert).
#[test]
fn ops_dashboard_renders_and_stays_quiet_on_a_healthy_run() {
    let results = study();
    let set = ops::study_metrics(results).expect("export");
    let alerts = ops::evaluate_slos(&set, None);
    let text = report::render_ops(results, &set, &alerts);
    assert!(text.contains("progress:"));
    assert!(text.contains("p99="));
    assert!(
        alerts.is_empty() && text.contains("no alerts fired"),
        "healthy run alerted: {text}"
    );
}
