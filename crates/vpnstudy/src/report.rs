//! Plain-text rendering of the study's headline tables.
//!
//! The bench harness regenerates each figure's *data*; these renderers
//! produce the human-readable summary a release would print.

use crate::audit::{Study, StudyResults};
use crate::confusion::ConfusionMatrix;
use crate::ipdb::paper_databases;
use geoloc::assess::Assessment;
use std::fmt::Write as _;

/// The four-way verdict tally every consumer of study records needs:
/// the overall report, the campaign scorer, and the verdict store's
/// trend and false-claim-rate queries all count the same way, so the
/// counting lives here exactly once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerdictTally {
    /// Claims the pipeline backs (`Assessment::Credible`).
    pub credible: usize,
    /// Claims it could neither back nor refute.
    pub uncertain: usize,
    /// Claims it refuted.
    pub false_claims: usize,
    /// Verdicts withheld on defense evidence (`Assessment::Suspicious`).
    pub suspicious: usize,
}

impl VerdictTally {
    /// Tally a stream of assessments.
    pub fn tally(assessments: impl IntoIterator<Item = Assessment>) -> VerdictTally {
        let mut t = VerdictTally::default();
        for a in assessments {
            t.add(a);
        }
        t
    }

    /// Count one assessment.
    pub fn add(&mut self, a: Assessment) {
        match a {
            Assessment::Credible => self.credible += 1,
            Assessment::Uncertain => self.uncertain += 1,
            Assessment::False => self.false_claims += 1,
            Assessment::Suspicious => self.suspicious += 1,
        }
    }

    /// Fold another tally in (the store merges per-epoch tallies).
    pub fn absorb(&mut self, other: &VerdictTally) {
        self.credible += other.credible;
        self.uncertain += other.uncertain;
        self.false_claims += other.false_claims;
        self.suspicious += other.suspicious;
    }

    /// Total verdicts counted.
    pub fn total(&self) -> usize {
        self.credible + self.uncertain + self.false_claims + self.suspicious
    }

    /// The classic 3-way split `(credible, uncertain, false)` —
    /// suspicious verdicts are withheld, not part of it.
    pub fn three_way(&self) -> (usize, usize, usize) {
        (self.credible, self.uncertain, self.false_claims)
    }

    /// Fraction of counted claims refuted outright (`0.0` when empty) —
    /// the store's per-country false-claim rate.
    pub fn false_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.false_claims as f64 / self.total() as f64
        }
    }
}

/// Tally a study's records under a verdict selector (`refined` picks the
/// post-disambiguation/defense verdict, else the raw CBG++ one).
pub fn tally_records(results: &StudyResults, refined: bool) -> VerdictTally {
    VerdictTally::tally(results.records.iter().map(|r| {
        if refined {
            r.refined.assessment
        } else {
            r.verdict.assessment
        }
    }))
}

/// The Fig. 17-style overall assessment block.
pub fn render_overall(study: &Study, results: &StudyResults) -> String {
    let _prof = results.obs.profile_span("report.overall");
    let mut out = String::new();
    let (c0, u0, f0) = results.counts(false);
    let (c1, u1, f1) = results.counts(true);
    let total = results.records.len();
    let _ = writeln!(
        out,
        "proxies measured: {total} (unmeasured: {})",
        results.unmeasured
    );
    if let Some(eta) = &results.eta {
        let _ = writeln!(
            out,
            "eta = {:.3} (R² = {:.4}, {} pingable proxies)",
            eta.eta(),
            eta.r_squared,
            eta.samples
        );
    }
    let _ = writeln!(
        out,
        "assessment (no DCs): credible {c0}  uncertain {u0}  false {f0}"
    );
    let _ = writeln!(
        out,
        "assessment (final) : credible {c1}  uncertain {u1}  false {f1}"
    );
    let suspicious = results.suspicious(true);
    if suspicious > 0 {
        let _ = writeln!(
            out,
            "verdicts withheld as suspicious (defense evidence): {suspicious}"
        );
    }
    let cats = results.fig17_categories();
    let labels = [
        "credible",
        "country uncertain, continent credible",
        "country and continent uncertain",
        "country false, continent credible",
        "country false, continent uncertain",
        "continent false",
    ];
    for (label, count) in labels.iter().zip(cats) {
        let _ = writeln!(out, "  {label:<40} {count:>6}");
    }
    let _ = writeln!(
        out,
        "ground-truth honesty (hidden from pipeline): {:.1} %",
        study.providers.ground_truth_honesty() * 100.0
    );
    out
}

/// The per-study reliability block: measurement effort, failures with
/// their reasons, and degradation counts. This is the ledger proving the
/// audit never silently dropped a proxy.
pub fn render_reliability(results: &StudyResults) -> String {
    let _prof = results.obs.profile_span("report.reliability");
    let s = results.reliability_summary();
    let mut out = String::new();
    let total = s.measured + s.insufficient + s.unmeasurable;
    let _ = writeln!(
        out,
        "proxies: {total} total = {} measured + {} insufficient-data + {} unmeasurable",
        s.measured, s.insufficient, s.unmeasurable
    );
    let _ = writeln!(
        out,
        "probes: {} attempts ({} retries, {} timeouts, {} corrupt readings discarded)",
        s.totals.attempts, s.totals.retries, s.totals.timeouts, s.totals.corrupt_readings
    );
    let _ = writeln!(
        out,
        "landmarks: {} measured, {} dead, {} recovered via method fallback",
        s.totals.landmarks_measured, s.totals.dead_landmarks, s.totals.fallbacks
    );
    if s.totals.infeasible_readings > 0 {
        let _ = writeln!(
            out,
            "physically impossible corrected readings clamped: {}",
            s.totals.infeasible_readings
        );
    }
    let _ = writeln!(
        out,
        "phase 1: {}/{} anchors responsive; {} runs quorum-degraded to all-continent sweep",
        s.totals.phase1_responsive, s.totals.phase1_total, s.quorum_degraded
    );
    out
}

/// Performance telemetry: the run's shape (worker and shard counts),
/// landmark disk-cache effectiveness, the routing work (core trees and
/// routes built), and the calibration's round trips at set-up (drawn,
/// settled from their bounds, transformed). The cache counts are exact
/// for any split, but the shape is a choice of the caller and the work
/// counts are meant to fall, so the determinism matrix leaves this block
/// out.
pub fn render_perf_telemetry(study: &Study, results: &StudyResults) -> String {
    let mut out = String::new();
    let c = results.cache_stats();
    let _ = writeln!(out, "threads: {}", results.threads);
    let _ = writeln!(out, "shards: {}", results.shards);
    let _ = writeln!(
        out,
        "disk cache: {} hits / {} misses ({:.1} % hit rate), {} cached disks",
        c.hits,
        c.misses,
        c.hit_rate() * 100.0,
        c.entries
    );
    let r = results.routing;
    let _ = writeln!(
        out,
        "routing: {} core trees ({} per anchor, {} per climb offset), {} routes built",
        r.trees(),
        r.shared_trees,
        r.offset_trees,
        r.routes
    );
    let w = study.calibration_work;
    let pairs: usize = (0..study.calibration.len())
        .map(|i| study.calibration.for_anchor(i).len())
        .sum();
    let _ = writeln!(
        out,
        "calibration: {} round trips drawn, {} settled from their bounds, {} transformed ({:.2} per pair over {} pairs)",
        w.drawn,
        w.settled(),
        w.transformed,
        w.transformed as f64 / pairs.max(1) as f64,
        pairs
    );
    out
}

/// The hierarchical span profile of the study: set-up's `build.*` spans
/// beside the run's tree of every profiled stage (phase-1/phase-2
/// probing, retries, disk intersection, cache lookups, report
/// rendering), with per-path call counts and self/cumulative wall time.
/// The timings are **wall-clock telemetry** — never part of determinism
/// diffs.
pub fn render_profile(study: &Study, results: &StudyResults) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# span profile ({} threads): self = cum - time in child spans; wall-clock, machine-dependent",
        results.threads
    );
    let mut spans = study.build_profile.profile();
    spans.extend(results.obs.profile());
    let tree = obs::render_profile_from(&spans);
    if tree.is_empty() {
        let _ = writeln!(out, "(no profile spans recorded — obs level Off?)");
    } else {
        let _ = write!(out, "{tree}");
    }
    out
}

/// The deterministic observability block: every counter and histogram
/// the layers emitted during the run, identical for any shard and
/// thread split (the profile tree is deliberately excluded — it lives
/// in [`render_profile`]).
pub fn render_observability(results: &StudyResults) -> String {
    // A wall-side profile span around rendering the deterministic block
    // is safe: the span changes nothing in the bytes rendered here.
    let _prof = results.obs.profile_span("report.observability");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "observability: level {:?}, {} events recorded",
        results.obs.level(),
        results.obs.events_len()
    );
    let _ = write!(out, "{}", results.obs.render_deterministic());
    out
}

/// The Fig. 21 comparison table: per provider, agreement of CBG++
/// (generous/strict), ICLab, and the five IP databases with the
/// provider's claims.
pub fn render_fig21(study: &Study, results: &StudyResults) -> String {
    let _prof = results.obs.profile_span("report.fig21");
    let mut out = String::new();
    let names: Vec<char> = study.providers.profiles.iter().map(|p| p.name).collect();
    let _ = write!(out, "{:<18}", "method");
    for n in &names {
        let _ = write!(out, "{n:>7}");
    }
    let _ = writeln!(out);
    let mut row = |label: &str, f: &dyn Fn(usize) -> f64| {
        let _ = write!(out, "{label:<18}");
        for p in 0..names.len() {
            let _ = write!(out, "{:>6.0}%", f(p) * 100.0);
        }
        let _ = writeln!(out);
    };
    row("CBG++ (generous)", &|p| results.cbgpp_agreement(p, true));
    row("CBG++ (strict)", &|p| results.cbgpp_agreement(p, false));
    row("ICLab", &|p| results.iclab_agreement(p));
    for db in paper_databases() {
        let db2 = db.clone();
        row(db.name, &move |p| {
            let (mut agree, mut total) = (0usize, 0usize);
            for r in &results.records {
                if r.proxy.provider != p {
                    continue;
                }
                total += 1;
                if db2.agrees_with_claim(&r.proxy) {
                    agree += 1;
                }
            }
            if total == 0 {
                0.0
            } else {
                agree as f64 / total as f64
            }
        });
    }
    out
}

/// Per-provider, per-country honesty table (Figs. 18–19 data): for each
/// provider and claimed country, the fraction of that provider's claims
/// there that CBG++ backs up at least partially (credible or uncertain).
pub fn render_provider_country_honesty(
    study: &Study,
    results: &StudyResults,
    max_countries: usize,
) -> String {
    let atlas = study.world.atlas();
    // Most-claimed countries first (by server count across providers),
    // ties by country id.
    let mut claims: std::collections::BTreeMap<usize, usize> = Default::default();
    for r in &results.records {
        *claims.entry(r.proxy.claimed).or_default() += 1;
    }
    let mut order: Vec<usize> = claims.keys().copied().collect();
    order.sort_by_key(|c| std::cmp::Reverse(claims[c]));
    order.truncate(max_countries);

    let mut out = String::new();
    let _ = write!(out, "{:<10}", "provider");
    for &c in &order {
        let _ = write!(out, "{:>5}", atlas.country(c).iso2());
    }
    let _ = writeln!(out);
    for (pidx, profile) in study.providers.profiles.iter().enumerate() {
        let _ = write!(out, "{:<10}", profile.name);
        for &c in &order {
            let (mut ok, mut total) = (0usize, 0usize);
            for r in &results.records {
                if r.proxy.provider == pidx && r.proxy.claimed == c {
                    total += 1;
                    if r.refined.assessment != Assessment::False {
                        ok += 1;
                    }
                }
            }
            if total == 0 {
                let _ = write!(out, "{:>5}", "-");
            } else {
                let _ = write!(out, "{:>4.0}%", 100.0 * ok as f64 / total as f64);
            }
        }
        let _ = writeln!(out);
    }
    out
}

/// Render a confusion matrix as an aligned text table (trimmed to
/// non-empty axes, capped at `max_axis` labels for readability).
pub fn render_confusion(matrix: &ConfusionMatrix, max_axis: usize) -> String {
    let m = matrix.trimmed();
    let n = m.n().min(max_axis);
    let mut out = String::new();
    let _ = write!(out, "{:<24}", "");
    for j in 0..n {
        let _ = write!(out, "{:>7}", truncate(&m.labels[j], 6));
    }
    let _ = writeln!(out);
    for i in 0..n {
        let _ = write!(out, "{:<24}", truncate(&m.labels[i], 23));
        for j in 0..n {
            let _ = write!(out, "{:>7}", m.at(i, j));
        }
        let _ = writeln!(out);
    }
    out
}

/// The operations dashboard: run progress, latency/retry quantiles,
/// and the SLO alert verdict. `metrics` is the study's exposition (see
/// [`crate::ops::study_metrics`]) and `alerts` the result of evaluating
/// the SLO ruleset over it. Quantiles come from the power-of-two
/// histograms, so they are deterministic.
pub fn render_ops(
    results: &StudyResults,
    metrics: &obs::export::MetricSet,
    alerts: &[obs::alert::Alert],
) -> String {
    let mut out = String::new();
    let done = results.records.len() + results.failures.len();
    let _ = writeln!(
        out,
        "progress: {done} proxies audited in {} snapshots (every {} proxies)",
        results.snapshots.len(),
        results
            .snapshots
            .first()
            .map_or(0, |s| s.proxies_done.max(1)),
    );
    let loss = metrics.value("pv_probe_loss_rate", &[]).unwrap_or(0.0);
    let _ = writeln!(out, "probe loss rate: {:.2} %", loss * 100.0);

    let _ = writeln!(out, "latency/effort quantiles (deterministic):");
    for (raw, hist) in results.obs.hists() {
        let family = obs::registry::hist(raw).map_or(raw, |d| d.family);
        let (p50, p90, p99) = (
            hist.quantile(0.50).unwrap_or(0),
            hist.quantile(0.90).unwrap_or(0),
            hist.quantile(0.99).unwrap_or(0),
        );
        let _ = writeln!(
            out,
            "  {family:<32} n={:<8} p50={p50} p90={p90} p99={p99}",
            hist.count
        );
    }

    if alerts.is_empty() {
        let _ = writeln!(out, "SLO: ok — no alerts fired");
    } else {
        let _ = writeln!(out, "SLO: {} alert(s) fired", alerts.len());
        for a in alerts {
            let _ = writeln!(out, "  {}", a.render_line());
        }
    }
    out
}

fn truncate(s: &str, n: usize) -> String {
    s.chars().take(n).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncate_respects_char_boundaries() {
        assert_eq!(truncate("ålandia", 3), "åla");
        assert_eq!(truncate("ab", 6), "ab");
    }

    #[test]
    fn render_confusion_formats() {
        let m = ConfusionMatrix {
            labels: vec!["Europe".into(), "Africa".into()],
            counts: vec![5, 2, 2, 3],
        };
        let s = render_confusion(&m, 10);
        assert!(s.contains("Europe"));
        assert!(s.contains('5'));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3); // header + 2 rows
    }

    // The study-level renderers are exercised by the integration test
    // and the figures binary, which build a full (small) study.
}
