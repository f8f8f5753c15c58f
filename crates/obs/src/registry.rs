//! The metric-name registry: the single source of truth mapping every
//! raw [`Recorder`](crate::Recorder) counter and histogram emitted
//! anywhere in the workspace onto a stable, linted OpenMetrics family
//! name with fixed labels.
//!
//! Adding a new `rec.count("sub.thing", …)` call site anywhere in the
//! workspace requires registering the name here:
//! [`crate::export::recorder_metrics`] returns an error on an
//! unregistered name. That error only surfaces for names some run
//! actually emits and exports, so a counter that no test drives stays
//! unchecked; the determinism matrix (`crates/bench/tests/determinism.rs`)
//! exports a plain, a faulted and an armed, defended study for exactly
//! this reason. The lint test below rejects duplicate, ill-formed, or
//! cardinality-exploding registrations outright. Metric names are API,
//! and silent drift breaks every dashboard scraping them.
//!
//! Every raw counter and histogram is deterministic: a pure function of
//! the study seed, whatever the shard and thread split. Families whose
//! label values are only known at export time ([`DYNAMIC`]) carry a
//! [`Compartment`]: `Wall` ones (profile-span timings, run shape, the
//! verdict store's state) legitimately vary run to run and stay out of
//! every determinism check.

use crate::export::{lint_metric_name, MetricKind};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Which determinism compartment a family belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Compartment {
    /// Pure function of the study seed; checked by the determinism
    /// matrix.
    Deterministic,
    /// Run machinery (wall timings, run shape); excluded from checks.
    Wall,
}

/// One registered raw recorder name and its exported identity. Every
/// raw name is deterministic.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// The raw name passed to `Recorder::count`/`record`.
    pub raw: &'static str,
    /// The exported OpenMetrics family.
    pub family: &'static str,
    /// Fixed labels attached to this raw name's samples.
    pub labels: &'static [(&'static str, &'static str)],
    /// Exposition kind.
    pub kind: MetricKind,
    /// `# HELP` text.
    pub help: &'static str,
}

/// A family whose label *values* are only known at export time (span
/// paths, provider names). Cardinality stays bounded by construction:
/// span paths by the static span inventory, providers by the study's
/// provider table.
#[derive(Debug, Clone, Copy)]
pub struct DynamicDef {
    /// The exported OpenMetrics family.
    pub family: &'static str,
    /// Exposition kind.
    pub kind: MetricKind,
    /// The label keys samples may carry (at most one by lint rule).
    pub label_keys: &'static [&'static str],
    /// Determinism compartment.
    pub compartment: Compartment,
    /// `# HELP` text.
    pub help: &'static str,
}

/// Deterministic counters: every `Recorder::count` name in the
/// workspace. Most export as counters; a name whose value is a level
/// rather than a running total (the cache's entry count) exports as a
/// gauge.
pub const COUNTERS: &[MetricDef] = &[
    def(
        "net.probe.sent",
        "pv_probe_total",
        &[("outcome", "sent")],
        PROBE_HELP,
    ),
    def(
        "net.probe.completed",
        "pv_probe_total",
        &[("outcome", "completed")],
        PROBE_HELP,
    ),
    def(
        "net.probe.timeout",
        "pv_probe_total",
        &[("outcome", "timeout")],
        PROBE_HELP,
    ),
    def(
        "net.probe.unroutable",
        "pv_probe_total",
        &[("outcome", "unroutable")],
        PROBE_HELP,
    ),
    def(
        "net.loss.outage",
        "pv_probe_loss_total",
        &[("cause", "outage")],
        LOSS_HELP,
    ),
    def(
        "net.loss.drop",
        "pv_probe_loss_total",
        &[("cause", "drop")],
        LOSS_HELP,
    ),
    def(
        "net.loss.link",
        "pv_probe_loss_total",
        &[("cause", "link")],
        LOSS_HELP,
    ),
    def(
        "net.loss.rate_limit",
        "pv_probe_loss_total",
        &[("cause", "rate_limit")],
        LOSS_HELP,
    ),
    def(
        "net.loss.filtered",
        "pv_probe_loss_total",
        &[("cause", "filtered")],
        LOSS_HELP,
    ),
    def(
        "net.adv.collude",
        "pv_adversary_collusion_total",
        &[],
        "Probe answers shaped by colluding adversary nodes.",
    ),
    def(
        "net.adv.hold",
        "pv_adversary_actions_total",
        &[("action", "hold")],
        ADVERSARY_HELP,
    ),
    def(
        "net.adv.timeout",
        "pv_adversary_actions_total",
        &[("action", "timeout")],
        ADVERSARY_HELP,
    ),
    def(
        "net.adv.self_ping_pad",
        "pv_adversary_actions_total",
        &[("action", "self_ping_pad")],
        ADVERSARY_HELP,
    ),
    def(
        "rel.retry",
        "pv_retry_total",
        &[],
        "Probe retries scheduled by the reliability layer.",
    ),
    def(
        "rel.corrupt_reading",
        "pv_reading_rejected_total",
        &[("reason", "corrupt")],
        READING_HELP,
    ),
    def(
        "rel.infeasible_reading",
        "pv_reading_rejected_total",
        &[("reason", "infeasible")],
        READING_HELP,
    ),
    def(
        "rel.fallback",
        "pv_scheduler_fallback_total",
        &[],
        "Reliability-layer fallbacks to a degraded probing strategy.",
    ),
    def(
        "rel.dead_landmark",
        "pv_retry_exhaustion_total",
        &[],
        "Landmarks declared dead after exhausting every probe retry.",
    ),
    def(
        "tp.phase1_responsive",
        "pv_phase1_landmarks_total",
        &[("state", "responsive")],
        PHASE1_HELP,
    ),
    def(
        "tp.phase1_total",
        "pv_phase1_landmarks_total",
        &[("state", "probed")],
        PHASE1_HELP,
    ),
    def(
        "tp.observations",
        "pv_observations_total",
        &[],
        "Accepted (landmark, RTT) observations entering geolocation.",
    ),
    def(
        "tp.quorum_degraded",
        "pv_quorum_degraded_total",
        &[],
        "Measurements that proceeded below the landmark quorum.",
    ),
    def(
        "def.runs",
        "pv_defense_events_total",
        &[("kind", "run")],
        DEFENSE_HELP,
    ),
    def(
        "def.flagged",
        "pv_defense_events_total",
        &[("kind", "flagged")],
        DEFENSE_HELP,
    ),
    def(
        "def.conflict_pairs",
        "pv_defense_events_total",
        &[("kind", "conflict_pair")],
        DEFENSE_HELP,
    ),
    def(
        "def.trimmed",
        "pv_defense_events_total",
        &[("kind", "trimmed")],
        DEFENSE_HELP,
    ),
    def(
        "def.quorum_fail",
        "pv_defense_events_total",
        &[("kind", "quorum_fail")],
        DEFENSE_HELP,
    ),
    def(
        "def.suspicious",
        "pv_defense_events_total",
        &[("kind", "suspicious")],
        DEFENSE_HELP,
    ),
    def(
        "alg.empty_region",
        "pv_geo_fallback_total",
        &[("kind", "empty_region")],
        GEO_HELP,
    ),
    def(
        "alg.bestline_dropped",
        "pv_geo_fallback_total",
        &[("kind", "bestline_dropped")],
        GEO_HELP,
    ),
    def(
        "alg.baseline_fallback",
        "pv_geo_fallback_total",
        &[("kind", "baseline_fallback")],
        GEO_HELP,
    ),
    def(
        "audit.measured",
        "pv_audit_proxies_total",
        &[("outcome", "measured")],
        AUDIT_HELP,
    ),
    def(
        "audit.insufficient",
        "pv_audit_proxies_total",
        &[("outcome", "insufficient")],
        AUDIT_HELP,
    ),
    def(
        "audit.unmeasurable",
        "pv_audit_proxies_total",
        &[("outcome", "unmeasurable")],
        AUDIT_HELP,
    ),
    def(
        "cache.disk.hits",
        "pv_cache_lookup_total",
        &[("result", "hit")],
        CACHE_HELP,
    ),
    def(
        "cache.disk.misses",
        "pv_cache_lookup_total",
        &[("result", "miss")],
        CACHE_HELP,
    ),
    MetricDef {
        raw: "cache.disk.entries",
        family: "pv_cache_entries",
        labels: &[],
        kind: MetricKind::Gauge,
        help: "Entries resident in the fill-once disk cache.",
    },
];

/// Deterministic histograms: every `Recorder::record` name.
pub const HISTS: &[MetricDef] = &[
    hist_def(
        "net.probe.rtt_us",
        "pv_probe_rtt_microseconds",
        "Completed probe round-trip times, microseconds.",
    ),
    hist_def(
        "rel.backoff_us",
        "pv_retry_backoff_microseconds",
        "Reliability-layer retry backoff delays, microseconds.",
    ),
    hist_def(
        "rel.attempts_per_landmark",
        "pv_landmark_attempts",
        "Measurement attempts spent per landmark, successful or not \
         (the retry-depth distribution).",
    ),
    hist_def(
        "alg.baseline_cells",
        "pv_geo_baseline_cells",
        "Grid cells surviving the CBG++ baseline intersection.",
    ),
    hist_def(
        "alg.region_cells",
        "pv_geo_region_cells",
        "Grid cells in the final feasible region.",
    ),
];

/// Families whose label values are only known at export time.
pub const DYNAMIC: &[DynamicDef] = &[
    dyn_def(
        "pv_span_calls_total",
        MetricKind::Counter,
        &["path"],
        Compartment::Wall,
        "Completed profile spans by tree path.",
    ),
    dyn_def(
        "pv_span_seconds_total",
        MetricKind::Gauge,
        &["path"],
        Compartment::Wall,
        "Cumulative profile span time by tree path.",
    ),
    dyn_def(
        "pv_span_self_seconds_total",
        MetricKind::Gauge,
        &["path"],
        Compartment::Wall,
        "Self (non-child) profile span time by tree path.",
    ),
    dyn_def(
        "pv_progress_proxies_done",
        MetricKind::Gauge,
        &[],
        Compartment::Deterministic,
        "Proxies audited, global deterministic order.",
    ),
    dyn_def(
        "pv_progress_proxies_total",
        MetricKind::Gauge,
        &[],
        Compartment::Deterministic,
        "Proxies the study set out to audit.",
    ),
    dyn_def(
        "pv_progress_snapshots_total",
        MetricKind::Counter,
        &[],
        Compartment::Deterministic,
        "Progress snapshots the audit folded in fleet order.",
    ),
    dyn_def(
        "pv_probe_loss_rate",
        MetricKind::Gauge,
        &[],
        Compartment::Deterministic,
        "Fraction of sent probes that never completed.",
    ),
    dyn_def(
        "pv_suspicious_rate",
        MetricKind::Gauge,
        &["provider"],
        Compartment::Deterministic,
        "Fraction of a provider's audited proxies judged False or Suspicious.",
    ),
    dyn_def(
        "pv_stale_urgent_verdicts",
        MetricKind::Gauge,
        &[],
        Compartment::Wall,
        "Urgent-priority verdicts overdue for revalidation in the store.",
    ),
    dyn_def(
        "pv_store_epochs",
        MetricKind::Gauge,
        &[],
        Compartment::Wall,
        "Study epochs recorded in the verdict store.",
    ),
    dyn_def(
        "pv_audit_threads",
        MetricKind::Gauge,
        &[],
        Compartment::Wall,
        "Worker threads the audit fanned out over.",
    ),
    dyn_def(
        "pv_audit_shards",
        MetricKind::Gauge,
        &[],
        Compartment::Wall,
        "Network lineages the audit split the fleet into.",
    ),
];

const PROBE_HELP: &str = "Probes by terminal outcome.";
const LOSS_HELP: &str = "Probe losses by injected cause.";
const READING_HELP: &str = "RTT readings rejected before geolocation, by reason.";
const PHASE1_HELP: &str = "Phase-1 landmark probing tallies by state.";
const DEFENSE_HELP: &str = "Byzantine-defense pipeline events by kind.";
const GEO_HELP: &str = "Geolocation algorithm fallbacks by kind.";
const AUDIT_HELP: &str = "Audited proxies by measurement outcome.";
const ADVERSARY_HELP: &str = "Adversary timing actions applied to probes, by action.";
const CACHE_HELP: &str = "Fill-once disk cache lookups by result.";

const fn def(
    raw: &'static str,
    family: &'static str,
    labels: &'static [(&'static str, &'static str)],
    help: &'static str,
) -> MetricDef {
    MetricDef {
        raw,
        family,
        labels,
        kind: MetricKind::Counter,
        help,
    }
}

const fn hist_def(raw: &'static str, family: &'static str, help: &'static str) -> MetricDef {
    MetricDef {
        raw,
        family,
        labels: &[],
        kind: MetricKind::Histogram,
        help,
    }
}

const fn dyn_def(
    family: &'static str,
    kind: MetricKind,
    label_keys: &'static [&'static str],
    compartment: Compartment,
    help: &'static str,
) -> DynamicDef {
    DynamicDef {
        family,
        kind,
        label_keys,
        compartment,
        help,
    }
}

/// The registered identity of the deterministic counter `raw`, if any.
pub fn counter(raw: &str) -> Option<&'static MetricDef> {
    COUNTERS.iter().find(|d| d.raw == raw)
}

/// The registered identity of the deterministic histogram `raw`, if any.
pub fn hist(raw: &str) -> Option<&'static MetricDef> {
    HISTS.iter().find(|d| d.raw == raw)
}

/// Aggregated, family-level view of the registry.
#[derive(Debug, Clone)]
pub struct FamilyInfo {
    /// Exposition kind.
    pub kind: MetricKind,
    /// Label keys samples of this family may carry.
    pub label_keys: Vec<&'static str>,
    /// Determinism compartment.
    pub compartment: Compartment,
    /// `# HELP` text.
    pub help: &'static str,
}

fn family_map() -> &'static BTreeMap<&'static str, FamilyInfo> {
    static MAP: OnceLock<BTreeMap<&'static str, FamilyInfo>> = OnceLock::new();
    MAP.get_or_init(|| {
        let mut map: BTreeMap<&'static str, FamilyInfo> = BTreeMap::new();
        for d in COUNTERS.iter().chain(HISTS) {
            let info = map.entry(d.family).or_insert_with(|| FamilyInfo {
                kind: d.kind,
                label_keys: Vec::new(),
                compartment: Compartment::Deterministic,
                help: d.help,
            });
            for (k, _) in d.labels {
                if !info.label_keys.contains(k) {
                    info.label_keys.push(k);
                }
            }
        }
        for d in DYNAMIC {
            map.entry(d.family).or_insert_with(|| FamilyInfo {
                kind: d.kind,
                label_keys: d.label_keys.to_vec(),
                compartment: d.compartment,
                help: d.help,
            });
        }
        map
    })
}

/// The family-level registry entry for `name`, if registered.
pub fn family(name: &str) -> Option<&'static FamilyInfo> {
    family_map().get(name)
}

/// All registered family names, sorted.
pub fn family_names() -> Vec<&'static str> {
    family_map().keys().copied().collect()
}

/// Lint the whole registry. Returns every violation (empty = clean);
/// the unit test below turns any violation into a build failure.
///
/// Rules enforced:
/// 1. every family name is `pv_`-prefixed lowercase snake_case;
/// 2. raw recorder names are globally unique across the counter and
///    histogram tables;
/// 3. no two static defs collide on `(family, labels)`;
/// 4. a family never mixes kinds or label-key sets;
/// 5. label cardinality stays sane: at most one label key per family
///    and at most 16 statically registered values for it;
/// 6. every entry has help text.
pub fn lint() -> Vec<String> {
    let mut problems = Vec::new();
    let statics: Vec<&MetricDef> = COUNTERS.iter().chain(HISTS).collect();

    let mut raws = BTreeMap::new();
    for d in &statics {
        if let Some(prev) = raws.insert(d.raw, d.family) {
            problems.push(format!(
                "raw name {:?} registered twice ({} and {})",
                d.raw, prev, d.family
            ));
        }
    }

    let mut series = BTreeMap::new();
    for d in &statics {
        let key = (d.family, d.labels);
        if series.insert(key, d.raw).is_some() {
            problems.push(format!(
                "duplicate series {}{:?} (second raw: {:?})",
                d.family, d.labels, d.raw
            ));
        }
    }

    #[derive(PartialEq)]
    struct Shape {
        kind: MetricKind,
        keys: Vec<&'static str>,
    }
    let mut shapes: BTreeMap<&str, Shape> = BTreeMap::new();
    let mut value_counts: BTreeMap<&str, usize> = BTreeMap::new();
    for d in &statics {
        let keys: Vec<&'static str> = d.labels.iter().map(|(k, _)| *k).collect();
        let shape = Shape { kind: d.kind, keys };
        match shapes.get(d.family) {
            None => {
                shapes.insert(d.family, shape);
            }
            Some(prev) if *prev != shape => {
                problems.push(format!("family {:?} mixes kinds or label keys", d.family));
            }
            Some(_) => {}
        }
        *value_counts.entry(d.family).or_insert(0) += 1;
        if d.labels.len() > 1 {
            problems.push(format!(
                "family {:?}: more than one label key invites cardinality explosions",
                d.family
            ));
        }
        if d.help.is_empty() {
            problems.push(format!("raw {:?} has no help text", d.raw));
        }
    }
    for (family, n) in value_counts {
        if n > 16 {
            problems.push(format!(
                "family {family:?} registers {n} series — cardinality explosion"
            ));
        }
    }

    let mut dynamic_names = BTreeMap::new();
    for d in DYNAMIC {
        if dynamic_names.insert(d.family, ()).is_some() {
            problems.push(format!("dynamic family {:?} registered twice", d.family));
        }
        if shapes.contains_key(d.family) {
            problems.push(format!("family {:?} is both static and dynamic", d.family));
        }
        if d.label_keys.len() > 1 {
            problems.push(format!(
                "dynamic family {:?}: more than one label key invites cardinality explosions",
                d.family
            ));
        }
        if d.help.is_empty() {
            problems.push(format!("dynamic family {:?} has no help text", d.family));
        }
    }

    for name in family_names() {
        if let Err(e) = lint_metric_name(name) {
            problems.push(e);
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The build-breaking registry lint: any duplicate, ill-formed, or
    /// cardinality-exploding registration fails here.
    #[test]
    fn registry_is_lint_clean() {
        let problems = lint();
        assert!(
            problems.is_empty(),
            "registry lint failures:\n{}",
            problems.join("\n")
        );
    }

    #[test]
    fn every_known_raw_name_resolves() {
        for d in COUNTERS {
            assert!(counter(d.raw).is_some(), "{}", d.raw);
            assert!(hist(d.raw).is_none(), "{} is not a histogram", d.raw);
        }
        for d in HISTS {
            assert!(hist(d.raw).is_some(), "{}", d.raw);
        }
        assert!(counter("no.such.counter").is_none());
    }

    #[test]
    fn family_view_aggregates_label_keys() {
        let probe = family("pv_probe_total").unwrap();
        assert_eq!(probe.kind, MetricKind::Counter);
        assert_eq!(probe.label_keys, ["outcome"]);
        assert_eq!(probe.compartment, Compartment::Deterministic);
        let cache = family("pv_cache_lookup_total").unwrap();
        assert_eq!(cache.compartment, Compartment::Deterministic);
        let spans = family("pv_span_seconds_total").unwrap();
        assert_eq!(spans.label_keys, ["path"]);
        assert_eq!(spans.compartment, Compartment::Wall);
        assert!(family("pv_never_registered").is_none());
    }
}
