//! The determinism contract, checked in one place.
//!
//! A study is a pure function of its seed: however the audit splits its
//! proxies over shards and worker threads, every deterministic output
//! comes out byte-identical. This module renders those outputs — the
//! **contract bytes** of one run ([`contract_bytes`]) — and checks them
//! with one matrix: each [`Scenario`] runs from a fresh [`Study::build`]
//! at every split of [`THREAD_SPLITS`], [`SHARD_SPLITS`] and
//! [`EMPTY_SHARD_SPLITS`] and is compared with its `run_sharded(1, 1)`
//! reference ([`check`]). [`check_scenario`] runs the same comparison
//! for one scenario at any configuration, so a campaign test can check
//! its own study with this harness instead of a fingerprint of its own.
//!
//! `crates/bench/tests/determinism.rs` runs the matrix, one test per
//! group of splits, and `ci.sh` runs that test again in release. The
//! `determinism_report` binary prints each scenario's reference bytes,
//! so two commits can be compared by diffing its output.

use std::fmt::Write as _;
use vpnstudy::audit::{Study, StudyResults};
use vpnstudy::campaign::{shaping_plan, AdversaryModel};
use vpnstudy::{ops, report, StudyConfig};

/// One study set-up the matrix runs at every split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// The small study as shipped.
    Plain,
    /// 40 proxies under 2.5 % per-hop loss, with every 10th landmark
    /// permanently down.
    Faulted,
    /// The plain study with the full-shaping adversary armed on 66 % of
    /// the proxies and the Byzantine defense on.
    ArmedDefended,
}

impl Scenario {
    /// Every scenario, in report order.
    pub const ALL: [Scenario; 3] = [Scenario::Plain, Scenario::Faulted, Scenario::ArmedDefended];

    /// A short name for reports and failure messages.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::Plain => "plain",
            Scenario::Faulted => "faulted",
            Scenario::ArmedDefended => "armed+defended",
        }
    }

    /// The seed the matrix runs this scenario at.
    pub fn seed(self) -> u64 {
        match self {
            Scenario::Plain | Scenario::ArmedDefended => 0xd1ff,
            Scenario::Faulted => 4242,
        }
    }

    /// Counters the scenario's reference run must drive above zero, so
    /// that a set-up that silently stopped working (nothing measured, no
    /// faults, no adversary) fails the matrix instead of passing it
    /// vacuously.
    pub fn witnesses(self) -> &'static [&'static str] {
        match self {
            Scenario::Plain => &["audit.measured"],
            Scenario::Faulted => &["net.loss.drop", "rel.dead_landmark"],
            Scenario::ArmedDefended => &["net.adv.hold", "def.suspicious"],
        }
    }

    /// The small study at `seed`, with 40 proxies when faulted.
    pub fn config(self, seed: u64) -> StudyConfig {
        let mut config = StudyConfig::small(seed);
        if self == Scenario::Faulted {
            config.total_proxies = 40;
        }
        config
    }

    /// A freshly built study of `config` with this scenario's faults or
    /// adversary installed, not yet run.
    pub fn build(self, config: StudyConfig) -> Study {
        let mut study = Study::build(config);
        match self {
            Scenario::Plain => {}
            Scenario::Faulted => {
                let landmarks: Vec<_> = study
                    .constellation
                    .landmarks()
                    .iter()
                    .map(|l| l.node)
                    .collect();
                let net = study.world.network_mut();
                let t0 = net.now();
                for node in landmarks.into_iter().step_by(10) {
                    net.faults_mut().add_permanent_outage(node, t0);
                }
                net.faults_mut().set_drop_chance(0.025);
            }
            Scenario::ArmedDefended => {
                study.config.defense.enabled = true;
                let (plan, _) = shaping_plan(&study, AdversaryModel::FullShaping, 0.66);
                *study.world.network_mut().adversary_mut() = plan;
            }
        }
        study
    }
}

/// How many shards one split runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shards {
    /// Exactly this many.
    Count(usize),
    /// Seven more than the study has proxies, so some shards are empty.
    PastProxies,
}

/// One `(shards, threads)` split of the audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Split {
    /// Shard count.
    pub shards: Shards,
    /// Total worker threads.
    pub threads: usize,
}

/// `threads` workers over `shards` shards.
pub const fn split(shards: usize, threads: usize) -> Split {
    Split {
        shards: Shards::Count(shards),
        threads,
    }
}

/// The split every other split is compared with.
pub const REFERENCE: Split = split(1, 1);

/// 2, 4, 8 and 16 threads on one shard (16 oversubscribes any small
/// machine, which is the point).
pub const THREAD_SPLITS: [Split; 4] = [split(1, 2), split(1, 4), split(1, 8), split(1, 16)];

/// 2 and 5 shards at 1 and 8 threads.
pub const SHARD_SPLITS: [Split; 4] = [split(2, 1), split(2, 8), split(5, 1), split(5, 8)];

/// More shards than proxies at 4 threads, so some shards are empty.
pub const EMPTY_SHARD_SPLITS: [Split; 1] = [Split {
    shards: Shards::PastProxies,
    threads: 4,
}];

/// Build a fresh study of `scenario` from `config` and audit it at
/// `split`.
pub fn audit(scenario: Scenario, config: &StudyConfig, split: Split) -> (Study, StudyResults) {
    let mut study = scenario.build(config.clone());
    let shards = match split.shards {
        Shards::Count(n) => n,
        Shards::PastProxies => study.providers.proxies.len() + 7,
    };
    let results = study.run_sharded(shards, split.threads);
    (study, results)
}

/// The contract bytes of one finished run, in labelled sections: the
/// overall, reliability, Fig. 21 and observability reports; the
/// deterministic progress snapshots and the JSONL event trace; the
/// deterministic OpenMetrics subset (or the export's error in its
/// place); and the `Debug` rendering of every record, every failure and
/// the η estimate.
pub fn contract_bytes(study: &Study, results: &StudyResults) -> String {
    let metrics = match ops::study_metrics(results) {
        Ok(set) => set.render_filtered(obs::export::deterministic_family),
        Err(err) => format!("export error: {err}\n"),
    };
    let mut out = String::new();
    for (label, text) in [
        ("overall", report::render_overall(study, results)),
        ("reliability", report::render_reliability(results)),
        ("fig21", report::render_fig21(study, results)),
        ("observability", report::render_observability(results)),
        ("snapshots", results.snapshots_jsonl()),
        ("trace", results.trace_jsonl()),
        ("openmetrics", metrics),
    ] {
        let _ = writeln!(out, "--- {label} ---");
        out.push_str(&text);
    }
    let _ = writeln!(out, "--- results ---");
    for r in &results.records {
        let _ = writeln!(out, "{r:?}");
    }
    for f in &results.failures {
        let _ = writeln!(out, "{f:?}");
    }
    let _ = writeln!(out, "{:?}", results.eta);
    out
}

/// The text of one labelled section of [`contract_bytes`] (empty if
/// `bytes` has no such section).
pub fn section<'a>(bytes: &'a str, label: &str) -> &'a str {
    let header = format!("--- {label} ---\n");
    let Some(start) = bytes.find(&header).map(|at| at + header.len()) else {
        return "";
    };
    let rest = &bytes[start..];
    let end = rest.find("\n--- ").map_or(rest.len(), |at| at + 1);
    &rest[..end]
}

/// Run `splits` across the matrix: [`check_scenario`] for every
/// scenario at its seed. The error joins every scenario's problems.
pub fn check(splits: &[Split]) -> Result<(), String> {
    let problems: Vec<String> = Scenario::ALL
        .into_iter()
        .filter_map(|scenario| {
            check_scenario(scenario, &scenario.config(scenario.seed()), splits).err()
        })
        .collect();
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

/// Audit `scenario` built from `config` at [`REFERENCE`] and at each of
/// `splits`, each from a fresh build, and return the reference's
/// contract bytes. The error names a reference whose metrics do not
/// export (an unregistered counter), that recorded no event or
/// snapshot, or that left one of its [`Scenario::witnesses`] at zero,
/// and every split whose contract bytes differ from the reference's,
/// with the first line that differs.
pub fn check_scenario(
    scenario: Scenario,
    config: &StudyConfig,
    splits: &[Split],
) -> Result<String, String> {
    let name = scenario.name();
    let mut problems = Vec::new();
    let (study, results) = audit(scenario, config, REFERENCE);
    if let Err(err) = ops::study_metrics(&results) {
        problems.push(format!("{name}: metrics export: {err}"));
    }
    if results.obs.events_len() == 0 || results.snapshots.is_empty() {
        problems.push(format!(
            "{name}: the reference recorded no event or snapshot"
        ));
    }
    for witness in scenario.witnesses() {
        if results.obs.counter(witness) == 0 {
            problems.push(format!("{name}: the reference never counted {witness}"));
        }
    }
    let reference = contract_bytes(&study, &results);
    drop((study, results));
    for &split in splits {
        let (study, results) = audit(scenario, config, split);
        let bytes = contract_bytes(&study, &results);
        if let Some(diff) = first_difference(&reference, &bytes) {
            problems.push(format!("{name} at {split:?}: {diff}"));
        }
    }
    if problems.is_empty() {
        Ok(reference)
    } else {
        Err(problems.join("\n"))
    }
}

/// The first line where `b` departs from `a`, if they differ at all.
fn first_difference(a: &str, b: &str) -> Option<String> {
    if a == b {
        return None;
    }
    let (mut left, mut right) = (a.lines(), b.lines());
    let mut line = 1;
    loop {
        match (left.next(), right.next()) {
            (Some(x), Some(y)) if x == y => line += 1,
            (x, y) => {
                return Some(format!(
                    "line {line}: expected {:?}, got {:?}",
                    x.unwrap_or("<end>"),
                    y.unwrap_or("<end>")
                ))
            }
        }
    }
}
