//! Fault campaign: the audit pipeline under probe loss and landmark
//! outages must degrade *loudly* — every proxy accounted for, every
//! verdict backed by diagnostics — and deterministically. The
//! determinism matrix (`crates/bench/tests/determinism.rs`) runs the
//! same faults at every shard and thread split.
//!
//! Fault intensities are the campaign's stated operating envelope:
//! ~2.5 % per-hop loss (≈ 20 % end-to-end probe loss over the typical
//! simulated path) and 10 % of landmarks in permanent outage.

use bench::determinism::{check_scenario, Scenario, REFERENCE};
use proxy_verifier::netsim::NodeId;
use proxy_verifier::vpnstudy::{MeasureFailure, Study, StudyConfig, StudyResults};

const SEED: u64 = 4242;
const PER_HOP_LOSS: f64 = 0.025;
const OUTAGE_FRACTION: f64 = 0.10;

fn campaign_config() -> StudyConfig {
    let mut config = StudyConfig::small(SEED);
    config.total_proxies = 40;
    config
}

/// Build a study and knock out `fraction` of its landmarks (every k-th,
/// deterministically) plus a global per-hop loss rate, then run it.
fn run_with_faults(per_hop_loss: f64, outage_fraction: f64) -> (usize, StudyResults) {
    let mut study = Study::build(campaign_config());
    let total = study.providers.proxies.len();
    if outage_fraction > 0.0 {
        let nodes: Vec<NodeId> = study
            .constellation
            .landmarks()
            .iter()
            .map(|l| l.node)
            .collect();
        let stride = (1.0 / outage_fraction).round() as usize;
        let t0 = study.world.network_mut().now();
        for node in nodes.into_iter().step_by(stride.max(1)) {
            study
                .world
                .network_mut()
                .faults_mut()
                .add_permanent_outage(node, t0);
        }
    }
    study
        .world
        .network_mut()
        .faults_mut()
        .set_drop_chance(per_hop_loss);
    (total, study.run())
}

fn verdict_counts(results: &StudyResults) -> (usize, usize, usize) {
    results.counts(true)
}

#[test]
fn faulted_campaign_accounts_for_every_proxy_with_diagnostics() {
    let (total, faulted) = run_with_faults(PER_HOP_LOSS, OUTAGE_FRACTION);
    assert_eq!(
        faulted.records.len() + faulted.failures.len(),
        total,
        "a proxy was silently dropped"
    );
    assert_eq!(faulted.failures.len(), faulted.unmeasured);
    for r in &faulted.records {
        assert!(!r.diagnostics.is_empty(), "verdict without diagnostics");
    }
    for f in &faulted.failures {
        assert!(!f.diagnostics.is_empty(), "failure without diagnostics");
        assert!(matches!(
            f.failure,
            MeasureFailure::Unmeasurable | MeasureFailure::InsufficientData
        ));
    }
    // The faults actually bit: the reliability layer visibly worked.
    let summary = faulted.reliability_summary();
    assert!(summary.totals.retries > 0, "no retries under 20 % loss");
    assert!(
        summary.totals.dead_landmarks > 0,
        "no dead landmarks despite outages"
    );
}

#[test]
fn verdicts_stay_within_tolerance_of_the_fault_free_baseline() {
    let (total, baseline) = run_with_faults(0.0, 0.0);
    let (_, faulted) = run_with_faults(PER_HOP_LOSS, OUTAGE_FRACTION);

    // Retries + fallback keep the measured population close to baseline.
    assert!(
        faulted.records.len() * 10 >= baseline.records.len() * 8,
        "measured population collapsed: {} vs baseline {}",
        faulted.records.len(),
        baseline.records.len()
    );

    // Stated tolerance: each verdict class moves by at most
    // max(5, 25 % of the fleet) relative to the fault-free run.
    let (cb, ub, fb) = verdict_counts(&baseline);
    let (cf, uf, ff) = verdict_counts(&faulted);
    let tolerance = (total / 4).max(5);
    for (label, b, f) in [
        ("credible", cb, cf),
        ("uncertain", ub, uf),
        ("false", fb, ff),
    ] {
        assert!(
            b.abs_diff(f) <= tolerance,
            "{label} verdicts drifted: {b} → {f} (tolerance {tolerance})"
        );
    }
}

/// Two fresh builds of this campaign under its faults (the harness's
/// faulted scenario installs the same ones as `run_with_faults`: every
/// 10th landmark down, 2.5 % per-hop loss) render the same contract
/// bytes.
#[test]
fn faulted_campaign_is_deterministic() {
    check_scenario(Scenario::Faulted, &campaign_config(), &[REFERENCE])
        .unwrap_or_else(|e| panic!("faulted campaign not reproducible: {e}"));
}

/// The SLO alert engine sees the faults: with 10 % of landmarks dark,
/// every proxy burns its retry budget against them, so the default
/// `retry_exhaustion` rule (`pv_retry_exhaustion_total > 10`) must trip
/// — and the fault-free run must stay quiet on the same ruleset.
#[test]
fn faulted_campaign_trips_the_default_slo_rules() {
    use proxy_verifier::vpnstudy::ops;

    let (_, faulted) = run_with_faults(PER_HOP_LOSS, OUTAGE_FRACTION);
    let set = ops::study_metrics(&faulted).expect("faulted run exports cleanly");
    let alerts = ops::evaluate_slos(&set, None);
    assert!(
        alerts.iter().any(|a| a.rule == "retry_exhaustion"),
        "outages exhausted no retry budgets: {alerts:?}"
    );
    for a in &alerts {
        assert!(
            a.render_line().starts_with("ALERT "),
            "{:?}",
            a.render_line()
        );
    }

    let (_, clean) = run_with_faults(0.0, 0.0);
    let clean_set = ops::study_metrics(&clean).expect("clean run exports cleanly");
    assert!(
        ops::evaluate_slos(&clean_set, None).is_empty(),
        "fault-free campaign tripped the SLO rules"
    );
}

#[test]
fn total_blackout_degrades_loudly_not_silently() {
    let mut config = campaign_config();
    config.total_proxies = 12;
    let mut study = Study::build(config);
    let total = study.providers.proxies.len();
    study.world.network_mut().faults_mut().set_drop_chance(1.0);
    let results = study.run();
    assert!(results.records.is_empty(), "verdicts issued in a blackout");
    assert_eq!(results.failures.len(), total);
    for f in &results.failures {
        assert_eq!(f.failure, MeasureFailure::Unmeasurable);
        assert!(!f.diagnostics.is_empty());
    }
    let summary = results.reliability_summary();
    assert_eq!(summary.unmeasurable, total);
    assert_eq!(summary.measured, 0);
}
