//! The untraced run: the end-to-end metrics a user of the verifier sees.
//!
//! A run is one process. It first builds a `Study` and audits it once
//! with `run_sharded(1, 1)`, untimed: that audit warms the process. It
//! takes every page of its disk cache from the kernel, one minor fault
//! at a time, and on a shared virtual machine those faults cost seconds
//! that vary from run to run. The warm-up's results are checked,
//! persisted to a verdict store, reopened cold and served (`store.rs`).
//! Then the run builds a fresh `Study` and audits it again, timed, for
//! as long as `--seconds` lasts and at least twice; each timed audit
//! must reach the warm-up's conclusions. `audit_s` is the median timed
//! audit and `setup_s` the median of every build.

use crate::checks::{
    check_ledger, check_results, render_counters, science_digest, Checks, Ledger, WorkCounters,
};
use crate::host::{self, median};
use crate::store::StoreBench;
use crate::workload::{Workload, HOSTILE_STRENGTH};
use crate::{Args, Metric, Outcome};
use geoloc::Assessment;
use std::time::{Duration, Instant};
use vpnstudy::campaign::{score_cell, AdversaryModel};
use vpnstudy::{Study, StudyResults};

/// Timed audits per run, at least.
const MIN_TIMED_AUDITS: usize = 2;

/// Run one workload untraced and report its end-to-end metrics.
pub fn run(args: &Args) -> Outcome {
    let workload = args.workload;
    let config = workload.config(args.scale, args.seed);
    let mut checks = Checks::default();
    let mut ledger = Ledger::open(args.scale.name(), args.seed);
    let mut ref_ms = vec![host::ref_kernel_ms()];
    let started = Instant::now();
    let cpu_started = host::cpu_seconds();

    // The warm-up: one build and one audit, as a fresh process runs them.
    let (mut study, secs) = timed(|| Study::build(config.clone()));
    let mut setup_s = vec![secs];
    let (_plan, targets) = workload.arm(&mut study);
    ref_ms.push(host::ref_kernel_ms());
    let (cpu, faults) = (host::cpu_seconds(), host::minor_faults());
    let (results, warmup_s) = timed(|| study.run_sharded(1, 1));
    let warmup_cpu_s = host::cpu_seconds() - cpu;
    let warmup_faults = host::minor_faults() - faults;
    ref_ms.push(host::ref_kernel_ms());

    check_results(&mut checks, &study, &results);
    let digest = science_digest(&results);
    check_ledger(
        &mut checks,
        &mut ledger,
        &format!("digest.{}", workload.world()),
        &digest,
    );
    let counters = work_counters(&results);
    check_ledger(
        &mut checks,
        &mut ledger,
        &format!("counters.{}.untraced", workload.name()),
        &render_counters(&counters),
    );

    let quality = Quality::of(&results);
    if workload == Workload::HostileAudit {
        let cell = score_cell(
            AdversaryModel::FullShaping,
            HOSTILE_STRENGTH,
            &targets,
            &results,
        );
        checks.check(
            "detection matches the campaign score",
            (cell.detection_rate() * 100.0 - quality.detection_pct).abs() < 1e-9,
            || {
                format!(
                    "score_cell {} vs {}",
                    cell.detection_rate() * 100.0,
                    quality.detection_pct
                )
            },
        );
    }
    // One store phase, for its checks: the store's timings are per-layer
    // metrics of the traced run.
    let mut bench = StoreBench::new(&study, &results);
    bench.run(&mut checks, 1, Duration::ZERO);
    let store = bench.finish();
    let fleet = study.providers.proxies.len() as u64;
    let unmeasured = results.failures.len() as u64;
    let quality_note = format!(
        "{{\"record\":\"quality\",\"measured\":{},\"unmeasured\":{unmeasured},\"false_verdicts\":{},\"false_on_true_claims\":{},\"lying_measured\":{},\"lying_caught\":{},\"lying_credible\":{}}}",
        results.records.len(),
        quality.false_verdicts,
        quality.false_on_true,
        quality.lying,
        quality.caught,
        quality.forged_credible,
    );
    // The timed audits' peak memory is then one audit's, as the warm-up's.
    drop(results);
    drop(study);

    // The timed audits: a fresh study each, in the warmed process. Another
    // starts while the last one's round predicts it ends within
    // `--seconds`.
    let mut audit_s = Vec::new();
    let mut audit_cpu_s = Vec::new();
    let mut audit_faults = Vec::new();
    let mut last_round_s = 0.0;
    while audit_s.len() < MIN_TIMED_AUDITS
        || started.elapsed().as_secs_f64() + last_round_s < args.seconds
    {
        let round = Instant::now();
        let (mut study, secs) = timed(|| Study::build(config.clone()));
        setup_s.push(secs);
        workload.arm(&mut study);
        let (cpu, faults) = (host::cpu_seconds(), host::minor_faults());
        let (results, secs) = timed(|| study.run_sharded(1, 1));
        audit_s.push(secs);
        audit_cpu_s.push(host::cpu_seconds() - cpu);
        audit_faults.push(host::minor_faults() - faults);
        ref_ms.push(host::ref_kernel_ms());
        check_results(&mut checks, &study, &results);
        checks.check(
            "timed audit reaches the warm-up's conclusions",
            science_digest(&results) == digest,
            || format!("timed audit {} has another science digest", audit_s.len()),
        );
        let again = work_counters(&results);
        checks.check(
            "timed audit does the warm-up's work",
            again == counters,
            || {
                format!(
                    "timed audit {} counted {}, the warm-up {}",
                    audit_s.len(),
                    render_counters(&again),
                    render_counters(&counters)
                )
            },
        );
        drop(results);
        drop(study);
        last_round_s = round.elapsed().as_secs_f64();
    }
    if let Some(ledger) = &ledger {
        ledger.save();
    }

    let metrics = vec![
        Metric::new("setup_s", median(&setup_s), "s"),
        Metric::new("audit_s", median(&audit_s), "s"),
        Metric::new("peak_rss_mb", host::peak_rss_mb(), "MB"),
        Metric::new("measured_pct", quality.measured_pct, "%"),
        Metric::new("coverage_pct", quality.coverage_pct, "%"),
        Metric::new(
            "honest_not_refuted_pct",
            quality.honest_not_refuted_pct,
            "%",
        ),
        Metric::new("detection_pct", quality.detection_pct, "%"),
        Metric::new("forgery_refused_pct", quality.forgery_refused_pct, "%"),
    ];
    let notes = vec![
        format!(
            "{{\"record\":\"samples\",\"setup_s\":{setup_s:?},\"audit_s\":{audit_s:?},\"store_file_bytes\":{}}}",
            store.file_bytes
        ),
        format!(
            "{{\"record\":\"host\",\"wall_s\":{},\"cpu_s\":{},\"warmup_audit_s\":{warmup_s},\"warmup_cpu_s\":{warmup_cpu_s},\"warmup_minor_faults\":{warmup_faults},\"audit_cpu_s\":{audit_cpu_s:?},\"audit_minor_faults\":{audit_faults:?},\"ref_ms\":{},\"ref_ms_samples\":{ref_ms:?}}}",
            started.elapsed().as_secs_f64(),
            host::cpu_seconds() - cpu_started,
            median(&ref_ms),
        ),
        format!("{{\"record\":\"counters\",\"counters\":\"{}\"}}", render_counters(&counters)),
        quality_note,
    ];
    Outcome {
        checks,
        attempted: fleet,
        unmeasured,
        metrics,
        notes,
    }
}

/// Run `f` and time it, seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// The machine-independent work an untraced run can read off its
/// results. Cache and event counts are zero at obs level `Off`.
fn work_counters(results: &StudyResults) -> WorkCounters {
    let s = results.reliability_summary();
    let cache = results.cache_stats();
    WorkCounters::from([
        ("probe_attempts", s.totals.attempts as u64),
        ("retries", s.totals.retries as u64),
        ("fallbacks", s.totals.fallbacks as u64),
        ("dead_landmarks", s.totals.dead_landmarks as u64),
        (
            "observations",
            results
                .records
                .iter()
                .map(|r| r.observations.len() as u64)
                .sum(),
        ),
        ("events", results.obs.events_len() as u64),
        ("disk_lookups", cache.hits + cache.misses),
        ("rasterizations", cache.misses),
    ])
}

/// What the verifier concluded, scored against the ground truth.
struct Quality {
    measured_pct: f64,
    coverage_pct: f64,
    honest_not_refuted_pct: f64,
    detection_pct: f64,
    forgery_refused_pct: f64,
    false_verdicts: usize,
    false_on_true: usize,
    lying: usize,
    caught: usize,
    forged_credible: usize,
}

impl Quality {
    fn of(results: &StudyResults) -> Quality {
        let fleet = results.records.len() + results.failures.len();
        let refuted: Vec<_> = results
            .records
            .iter()
            .filter(|r| r.refined.assessment == Assessment::False)
            .collect();
        let honest = results
            .records
            .iter()
            .filter(|r| r.proxy.claimed == r.proxy.true_country)
            .count();
        let false_on_true = refuted
            .iter()
            .filter(|r| r.proxy.claimed == r.proxy.true_country)
            .count();
        let lying: Vec<_> = results
            .records
            .iter()
            .filter(|r| r.proxy.claimed != r.proxy.true_country)
            .collect();
        let caught = lying
            .iter()
            .filter(|r| {
                matches!(
                    r.refined.assessment,
                    Assessment::False | Assessment::Suspicious
                )
            })
            .count();
        let forged_credible = lying
            .iter()
            .filter(|r| r.refined.assessment == Assessment::Credible)
            .count();
        Quality {
            measured_pct: pct(results.records.len(), fleet),
            coverage_pct: results.coverage_of_truth() * 100.0,
            honest_not_refuted_pct: pct(honest - false_on_true, honest),
            detection_pct: pct(caught, lying.len()),
            forgery_refused_pct: pct(lying.len() - forged_credible, lying.len()),
            false_verdicts: refuted.len(),
            false_on_true,
            lying: lying.len(),
            caught,
            forged_credible,
        }
    }
}

fn pct(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        100.0 * num as f64 / den as f64
    }
}
