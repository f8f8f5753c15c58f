//! Operational telemetry for a finished study: the OpenMetrics
//! exposition, the Perfetto trace, and the SLO alert evaluation that
//! `report::render_ops` / `figures ops` surface and CI gates on.
//!
//! Everything here is *derived* — the results already hold the
//! counters, histograms, spans, and snapshots; this module maps them
//! into registered `pv_*` families ([`study_metrics`]), folds in the
//! verdict store's staleness picture ([`store_metrics`]), and runs the
//! default SLO ruleset ([`default_rules`], grammar in [`obs::alert`])
//! over the result. Run time is the `audit.run` span's
//! `pv_span_seconds_total`; no other gauge restates it.
//!
//! Compartments survive the mapping: a family registered as
//! deterministic in [`obs::registry`] carries only seed-pure values, so
//! [`obs::export::MetricSet::render_filtered`] over
//! [`obs::export::deterministic_family`] is byte-identical for any
//! shard × thread split — that rendering is part of what the
//! determinism matrix (`crates/bench/tests/determinism.rs`) compares.

use crate::audit::StudyResults;
use crate::store::{RevalidationPriority, VerdictStore};
use geoloc::assess::Assessment;
use obs::alert::{evaluate, parse_rules, Alert, Rule};
use obs::export::{recorder_metrics, MetricSet};
use obs::registry;

/// The default SLO ruleset (one rule per line; see [`obs::alert`] for
/// the grammar). Thresholds are the study's stated operating envelope:
/// more than 30 % probe loss, a pile of landmarks whose retry budget
/// ran dry, a provider's suspicious-verdict rate doubling against the
/// prior epoch, or any urgent verdict sitting stale in the store.
pub const DEFAULT_RULES: &str = "\
# Fraction of sent probes that never completed.
probe_loss: pv_probe_loss_rate > 0.3
# Landmarks abandoned after the full retry budget.
retry_exhaustion: pv_retry_exhaustion_total > 10
# Per-provider False/Suspicious rate doubling vs the prior store epoch.
suspicious_spike: pv_suspicious_rate{provider} spikes x2 vs prior
# Refuted/withheld verdicts overdue for revalidation.
stale_urgent: pv_stale_urgent_verdicts > 0
";

/// Parse [`DEFAULT_RULES`].
pub fn default_rules() -> Vec<Rule> {
    parse_rules(DEFAULT_RULES).expect("default SLO ruleset must parse")
}

/// Set a gauge whose family is registered in [`obs::registry`], pulling
/// the `# HELP` text from the registry so exposition and registry can
/// never drift apart.
fn gauge(set: &mut MetricSet, family: &str, labels: &[(&str, &str)], value: f64) {
    let help = registry::family(family)
        .unwrap_or_else(|| panic!("gauge {family:?} not in obs::registry"))
        .help;
    set.set_gauge(family, help, labels, value);
}

fn counter(set: &mut MetricSet, family: &str, labels: &[(&str, &str)], value: u64) {
    let help = registry::family(family)
        .unwrap_or_else(|| panic!("counter {family:?} not in obs::registry"))
        .help;
    set.add_counter(family, help, labels, value);
}

/// Per-provider fraction of audited proxies whose refined verdict was
/// withheld or refuted (`False` or `Suspicious`), provider-indexed.
/// This is the quantity the `suspicious_spike` rule watches.
pub fn suspicious_rates(results: &StudyResults) -> Vec<(usize, f64)> {
    let mut per: Vec<(usize, usize)> = Vec::new(); // (flagged, total) by provider
    for r in &results.records {
        if per.len() <= r.proxy.provider {
            per.resize(r.proxy.provider + 1, (0, 0));
        }
        let e = &mut per[r.proxy.provider];
        e.1 += 1;
        if matches!(
            r.refined.assessment,
            Assessment::False | Assessment::Suspicious
        ) {
            e.0 += 1;
        }
    }
    per.into_iter()
        .enumerate()
        .filter(|(_, (_, total))| *total > 0)
        .map(|(p, (flagged, total))| (p, flagged as f64 / total as f64))
        .collect()
}

/// Build the full metric set for a finished study: every recorder
/// counter/histogram/span family via [`obs::export::recorder_metrics`],
/// plus the derived gauges — probe loss rate, per-provider suspicious
/// rates, progress totals (deterministic compartment), and the run
/// shape (wall compartment).
pub fn study_metrics(results: &StudyResults) -> Result<MetricSet, String> {
    let mut set = recorder_metrics(&results.obs)?;

    // Deterministic derived gauges.
    let sent = results.obs.counter("net.probe.sent");
    let completed = results.obs.counter("net.probe.completed");
    let loss = if sent == 0 {
        0.0
    } else {
        sent.saturating_sub(completed) as f64 / sent as f64
    };
    gauge(&mut set, "pv_probe_loss_rate", &[], loss);
    for (provider, rate) in suspicious_rates(results) {
        let label = provider.to_string();
        gauge(
            &mut set,
            "pv_suspicious_rate",
            &[("provider", label.as_str())],
            rate,
        );
    }
    let done = (results.records.len() + results.failures.len()) as f64;
    gauge(&mut set, "pv_progress_proxies_done", &[], done);
    gauge(&mut set, "pv_progress_proxies_total", &[], done);
    counter(
        &mut set,
        "pv_progress_snapshots_total",
        &[],
        results.snapshots.len() as u64,
    );

    // Wall-compartment gauges: the run shape.
    gauge(&mut set, "pv_audit_threads", &[], results.threads as f64);
    gauge(&mut set, "pv_audit_shards", &[], results.shards as f64);
    Ok(set)
}

/// Fold the verdict store's staleness picture into a metric set:
/// recorded epochs and the count of urgent-priority stale verdicts
/// under the caller's clock and TTL (the `stale_urgent` rule's input).
pub fn store_metrics(set: &mut MetricSet, store: &VerdictStore, now_ms: u64, ttl_ms: u64) {
    gauge(set, "pv_store_epochs", &[], store.epochs().len() as f64);
    let urgent = store
        .revalidation_queue(now_ms, ttl_ms)
        .iter()
        .filter(|(_, p)| *p == RevalidationPriority::Urgent)
        .count();
    gauge(set, "pv_stale_urgent_verdicts", &[], urgent as f64);
}

/// Per-provider suspicious rates of one stored epoch, rendered as a
/// prior-epoch metric set for the `suspicious_spike` rule. `None` when
/// the store has no such epoch.
pub fn epoch_suspicious_metrics(store: &VerdictStore, epoch: u64) -> Option<MetricSet> {
    if epoch as usize >= store.epochs().len() {
        return None;
    }
    let mut per: Vec<(usize, usize)> = Vec::new();
    for v in store.verdicts().iter().filter(|v| v.epoch == epoch) {
        if per.len() <= v.provider {
            per.resize(v.provider + 1, (0, 0));
        }
        let e = &mut per[v.provider];
        e.1 += 1;
        if matches!(v.refined, Assessment::False | Assessment::Suspicious) {
            e.0 += 1;
        }
    }
    let mut set = MetricSet::new();
    for (provider, (flagged, total)) in per.into_iter().enumerate() {
        if total == 0 {
            continue;
        }
        let label = provider.to_string();
        gauge(
            &mut set,
            "pv_suspicious_rate",
            &[("provider", label.as_str())],
            flagged as f64 / total as f64,
        );
    }
    Some(set)
}

/// Evaluate the default SLO ruleset over a study's metrics, with an
/// optional prior-epoch metric set for the spike rule.
pub fn evaluate_slos(current: &MetricSet, prior: Option<&MetricSet>) -> Vec<Alert> {
    evaluate(&default_rules(), current, prior)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::Study;
    use crate::config::StudyConfig;
    use obs::export::parse_exposition;
    use std::sync::OnceLock;

    fn metrics() -> &'static (StudyResults, MetricSet) {
        static M: OnceLock<(StudyResults, MetricSet)> = OnceLock::new();
        M.get_or_init(|| {
            let mut cfg = StudyConfig::small(41);
            cfg.total_proxies = 24;
            let mut study = Study::build(cfg);
            let results = study.run_sharded(1, 2);
            let set = study_metrics(&results).expect("every emitted metric is registered");
            (results, set)
        })
    }

    #[test]
    fn study_metrics_render_and_round_trip() {
        let (_, set) = metrics();
        assert!(set.lint_against_registry().is_empty());
        let text = set.render();
        let parsed = parse_exposition(&text).expect("exposition parses");
        assert_eq!(parsed.render(), text, "round-trip must be byte-exact");
        assert!(parsed.family("pv_probe_total").is_some());
        assert!(parsed.value("pv_progress_proxies_done", &[]).unwrap() > 0.0);
    }

    #[test]
    fn loss_rate_and_suspicious_rates_are_probabilities() {
        let (results, set) = metrics();
        let loss = set.value("pv_probe_loss_rate", &[]).unwrap();
        assert!((0.0..=1.0).contains(&loss));
        for (p, rate) in suspicious_rates(results) {
            assert!((0.0..=1.0).contains(&rate), "provider {p} rate {rate}");
        }
    }

    #[test]
    fn default_ruleset_parses_and_is_quiet_on_a_healthy_run() {
        let (_, set) = metrics();
        assert_eq!(default_rules().len(), 4);
        // A clean small study must not trip loss/exhaustion/staleness;
        // the spike rule has no prior here and suspicious defaults 0.
        let alerts = evaluate_slos(set, None);
        let loud: Vec<&str> = alerts.iter().map(|a| a.rule.as_str()).collect();
        assert!(
            !loud.contains(&"probe_loss") && !loud.contains(&"stale_urgent"),
            "healthy run tripped: {loud:?}"
        );
    }

    #[test]
    fn store_metrics_count_urgent_staleness() {
        let (results, _) = metrics();
        let dir = std::env::temp_dir().join(format!("pv-ops-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut store = VerdictStore::open(dir.join("v.jsonl")).unwrap();
        store.append_epoch(results, 1_000).unwrap();
        let mut set = MetricSet::new();
        // Everything fresh: no urgent staleness.
        store_metrics(&mut set, &store, 1_500, 10_000);
        assert_eq!(set.value("pv_stale_urgent_verdicts", &[]), Some(0.0));
        assert_eq!(set.value("pv_store_epochs", &[]), Some(1.0));
        // Far past the TTL: every refuted/withheld verdict turns urgent,
        // and the stale_urgent rule fires iff any exist.
        store_metrics(&mut set, &store, 10_000_000, 10);
        let urgent = set.value("pv_stale_urgent_verdicts", &[]).unwrap();
        let refuted = results
            .records
            .iter()
            .filter(|r| {
                matches!(
                    r.refined.assessment,
                    Assessment::False | Assessment::Suspicious
                )
            })
            .count();
        assert_eq!(urgent as usize, refuted);
        let alerts = evaluate_slos(&set, None);
        assert_eq!(
            alerts.iter().any(|a| a.rule == "stale_urgent"),
            refuted > 0
        );
    }

    #[test]
    fn suspicious_spike_fires_against_a_calmer_prior_epoch() {
        let (results, set) = metrics();
        if suspicious_rates(results).iter().all(|(_, r)| *r == 0.0) {
            return; // nothing to spike against in this seed
        }
        // Prior epoch where every provider was clean: any nonzero
        // current rate is a spike (prior 0 → fires iff current > 0).
        let mut prior = MetricSet::new();
        for (p, _) in suspicious_rates(results) {
            let label = p.to_string();
            gauge(
                &mut prior,
                "pv_suspicious_rate",
                &[("provider", label.as_str())],
                0.0,
            );
        }
        let alerts = evaluate_slos(set, Some(&prior));
        assert!(alerts.iter().any(|a| a.rule == "suspicious_spike"));
    }

    #[test]
    fn epoch_suspicious_metrics_read_back_the_store() {
        let (results, _) = metrics();
        let dir = std::env::temp_dir().join(format!("pv-ops-epoch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut store = VerdictStore::open(dir.join("v.jsonl")).unwrap();
        store.append_epoch(results, 1_000).unwrap();
        let prior = epoch_suspicious_metrics(&store, 0).unwrap();
        for (p, rate) in suspicious_rates(results) {
            let label = p.to_string();
            let got = prior
                .value("pv_suspicious_rate", &[("provider", label.as_str())])
                .unwrap();
            assert!((got - rate).abs() < 1e-12);
        }
        assert!(epoch_suspicious_metrics(&store, 5).is_none());
    }
}
