//! The Byzantine-defense layer: catching *actively shaped* measurements.
//!
//! The baseline pipeline (CBG++ → [`assess_claim`](crate::assess)) is
//! sound against passive lying — a proxy that claims the wrong country
//! but measures honestly. It is **not** sound against the
//! `netsim::adversary` threat model: a proxy that holds chosen replies,
//! starves inconvenient landmarks, inflates its self-ping, or colludes
//! with landmarks can manufacture a mutually-consistent set of wrong
//! readings that CBG++ happily intersects into a credible-looking fake
//! region. This module is the countermeasure stack, run *after* a
//! measurement but *before* a verdict is trusted:
//!
//! 1. **Pairwise speed-of-light consistency** over baseline disks
//!    ([`pairwise_infeasible_flags`]): disjoint honest baseline disks
//!    are impossible, so any conflict is named evidence and the flagged
//!    observations are excluded from the robust re-location.
//! 2. **Trimmed robust subset** ([`robust_max_consistent_subset`]):
//!    the subset search over the unflagged baseline disks, with every
//!    discarded constraint named rather than silently dropped.
//! 3. **Disjoint-subset quorum**: the observation set is split into
//!    disjoint groups (canonical geometric order, round-robin — no RNG)
//!    and each group located independently with CBG++. Honest data
//!    agrees from any subset of landmarks; shaped data that leans on a
//!    few poisoned readings does not survive their separation.
//! 4. **Side-channel evidence** from
//!    [`MeasurementDiagnostics`](crate::reliability::MeasurementDiagnostics):
//!    physically impossible corrected RTTs (negative tunnel-leg
//!    subtraction — the self-ping-inflation signature) and an
//!    implausible excess of dead landmarks (the selective-timeout
//!    signature).
//!
//! Any evidence degrades the verdict to
//! [`Assessment::Suspicious`](crate::assess::Assessment::Suspicious):
//! the pipeline refuses to certify rather than being silently fooled.
//! Everything here is deterministic and order-invariant: pure geometry
//! and arithmetic, no RNG, no clocks — the defense slots into the
//! byte-identical determinism contract unchanged.

use crate::algorithms::CbgPlusPlus;
use crate::delay_model::CbgModel;
use crate::multilateration::constraint::grid_slack_km;
use crate::multilateration::{
    pairwise_infeasible_flags, robust_max_consistent_subset, DiskCache, RingConstraint,
};
use crate::observation::Observation;
use crate::reliability::MeasurementDiagnostics;
use geokit::Region;

/// Defense knobs. Disabled by default: the baseline pipeline (and every
/// pinned determinism fingerprint) is untouched unless a study opts in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DefenseConfig {
    /// Master switch. Off = the defense never runs and costs nothing.
    pub enabled: bool,
    /// Disjoint landmark groups for the quorum check.
    pub quorum_groups: usize,
    /// Minimum observations per quorum group; with fewer total
    /// observations than `quorum_groups * min_group_size` the group
    /// count shrinks, and below two groups the quorum is vacuous.
    pub min_group_size: usize,
    /// Dead landmarks above this fraction of contacted landmarks count
    /// as evidence (selective-timeout signature).
    pub max_dead_fraction: f64,
    /// Corrected readings clamped from negative above this count are
    /// evidence (self-ping-inflation signature). A couple can happen
    /// honestly when a landmark sits nearly on top of the proxy.
    pub max_infeasible_readings: usize,
    /// Tolerance for the direct-ping cross-check on pingable proxies.
    /// Honest tunnels satisfy `η·C ≈ D` (that relation *defines* η —
    /// Fig. 13); a reported self-ping with `η·C > tolerance × D` means
    /// the tunnel claims to be much longer than the wire says it is.
    /// Above 1.0 to absorb routing asymmetry between the two minima.
    pub self_ping_tolerance: f64,
    /// Quorum groups only count as *disagreeing* when their regions are
    /// disjoint **and** their centroids sit at least this far apart
    /// (km). Honest disjoint-subset regions can narrowly miss each
    /// other through bestline underestimation, but they still hug the
    /// same spot; shaped quorums split at continent scale.
    pub quorum_split_km: f64,
    /// Fraction of the full constellation the audit re-probes as a
    /// *challenge sweep* before judging (0 = off). The two-phase path
    /// only probes landmarks the (possibly shaped) phase-1 guess
    /// selects — exactly the readings an active adversary rehearses.
    /// A deterministic stride across every continent yields readings
    /// the adversary did not expect to need, and one unrehearsed
    /// honest reading contradicts the whole shaped story.
    pub challenge_fraction: f64,
}

impl Default for DefenseConfig {
    fn default() -> Self {
        DefenseConfig {
            enabled: false,
            quorum_groups: 3,
            min_group_size: 4,
            max_dead_fraction: 0.25,
            max_infeasible_readings: 2,
            self_ping_tolerance: 1.5,
            quorum_split_km: 1000.0,
            challenge_fraction: 0.25,
        }
    }
}

impl DefenseConfig {
    /// The default knob set with the master switch on.
    pub fn enabled() -> DefenseConfig {
        DefenseConfig {
            enabled: true,
            ..DefenseConfig::default()
        }
    }
}

/// The tunnel-timing inputs to the direct-ping cross-check: what the
/// proxy *reported* about its own tunnel vs what the verifier measured
/// on the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TunnelPings {
    /// The proxy-reported tunnel self-ping C (ms).
    pub self_ping_ms: f64,
    /// Directly measured client<->proxy RTT D (ms), when the proxy
    /// answers pings outside the tunnel. `None` = check unavailable.
    pub direct_ping_ms: Option<f64>,
    /// The tunnel-leg subtraction coefficient eta in use.
    pub eta: f64,
}

/// What the defense found for one proxy: flags, quorum outcome, and the
/// named evidence that (if non-empty) degrades the verdict to
/// `Suspicious`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DefenseReport {
    /// Observation indices flagged by the pairwise consistency check.
    pub flagged: Vec<usize>,
    /// Mutually-infeasible landmark pairs found (before resolution).
    pub conflict_pairs: usize,
    /// Unflagged baseline disks the robust subset search still had to
    /// discard.
    pub trimmed: usize,
    /// Disjoint groups the quorum check actually located (0 or 1 =
    /// vacuous — too few observations to split).
    pub quorum_groups_checked: usize,
    /// Whether every located group's region overlapped every other's.
    pub quorum_agree: bool,
    /// Physically impossible corrected readings, copied from
    /// diagnostics.
    pub infeasible_readings: usize,
    /// Dead landmarks as a fraction of contacted landmarks.
    pub dead_fraction: f64,
    /// The named evidence lines. Empty = no tampering detected.
    pub evidence: Vec<&'static str>,
}

impl DefenseReport {
    /// True when any evidence of tampering was found.
    pub fn suspicious(&self) -> bool {
        !self.evidence.is_empty()
    }
}

/// Evidence labels (stable identifiers — they appear in reports,
/// JSONL traces, and EXPERIMENTS.md tables).
pub mod evidence {
    /// Two landmarks' baseline disks are disjoint: at least one lies.
    pub const PAIRWISE_CONFLICT: &str = "pairwise_sol_conflict";
    /// Disjoint landmark subsets place the proxy in incompatible places.
    pub const QUORUM_DISAGREEMENT: &str = "quorum_disagreement";
    /// Corrected RTTs went negative (tunnel-leg subtraction overshot).
    pub const INFEASIBLE_RTT: &str = "infeasible_corrected_rtt";
    /// Too many landmarks never answered through this tunnel.
    pub const DEAD_LANDMARK_EXCESS: &str = "dead_landmark_excess";
    /// The reported tunnel self-ping is far larger than the directly
    /// measured client↔proxy RTT allows (`η·C ≫ D` on a pingable
    /// proxy): the self-ping-inflation signature.
    pub const SELF_PING_MISMATCH: &str = "self_ping_direct_mismatch";
}

/// Baseline (pure-physics) disks for a set of observations, inflated by
/// the grid slack exactly as CBG++'s baseline stage builds them.
pub fn baseline_disks(observations: &[Observation], mask: &Region) -> Vec<RingConstraint> {
    let slack = grid_slack_km(mask.grid());
    observations
        .iter()
        .map(|o| {
            RingConstraint::disk(o.landmark, CbgModel::baseline_distance_km(o.one_way_ms))
                .inflated(slack)
        })
        .collect()
}

/// A canonical, input-order-independent sort key for an observation.
fn canonical_key(o: &Observation) -> (u64, u64, u64) {
    (
        o.landmark.lat().to_bits(),
        o.landmark.lon().to_bits(),
        o.one_way_ms.to_bits(),
    )
}

/// Run the full defense stack over one proxy's observations.
///
/// Deterministic and order-invariant: the report depends only on the
/// *set* of observations and the diagnostics, never on their order or
/// on any RNG. `rec` receives `def.*` counters and (at event level)
/// `defense` events in the per-proxy deterministic compartment, and
/// times the run as `defense.run` with the pairwise check
/// (`defense.pairwise`), the robust search's discard check
/// (`defense.trim`) and the quorum (`defense.quorum`) as children.
pub fn run_defense(
    observations: &[Observation],
    diagnostics: &MeasurementDiagnostics,
    pings: TunnelPings,
    mask: &Region,
    cache: Option<&DiskCache>,
    rec: &obs::Recorder,
    cfg: &DefenseConfig,
) -> DefenseReport {
    let _span = rec.profile_span("defense.run");
    let mut report = DefenseReport {
        quorum_agree: true,
        ..DefenseReport::default()
    };

    // 1. Pairwise speed-of-light conflicts over baseline disks.
    let pairwise_span = rec.profile_span("defense.pairwise");
    let disks = baseline_disks(observations, mask);
    let pairwise = pairwise_infeasible_flags(&disks);
    drop(pairwise_span);
    report.conflict_pairs = pairwise.conflicts.len();
    report.flagged = pairwise
        .flagged
        .iter()
        .enumerate()
        .filter_map(|(i, &f)| f.then_some(i))
        .collect();
    if !report.flagged.is_empty() {
        report.evidence.push(evidence::PAIRWISE_CONFLICT);
    }

    // 2. Trimmed robust subset over the unflagged disks: anything the
    // subset search *still* discards is named (but on its own it is the
    // ordinary underestimation CBG++ tolerates, not evidence).
    let robust = robust_max_consistent_subset(&disks, &pairwise.flagged, mask, cache, rec);
    report.trimmed = robust.discarded.len();

    // 3. Disjoint-subset quorum over the unflagged observations.
    let quorum_span = rec.profile_span("defense.quorum");
    let kept: Vec<&Observation> = observations
        .iter()
        .enumerate()
        .filter(|(i, _)| !pairwise.flagged[*i])
        .map(|(_, o)| o)
        .collect();
    let groups = match kept.len().checked_div(cfg.min_group_size) {
        None => cfg.quorum_groups,
        Some(fit) => cfg.quorum_groups.min(fit),
    };
    if groups >= 2 {
        // Canonical order, then round-robin: deterministic, independent
        // of the measurement order, and geographically interleaved so
        // every group spans the constellation.
        let mut order: Vec<&Observation> = kept.clone();
        order.sort_by_key(|o| canonical_key(o));
        let mut parts: Vec<Vec<Observation>> = vec![Vec::new(); groups];
        for (i, o) in order.into_iter().enumerate() {
            parts[i % groups].push(o.clone());
        }
        let regions: Vec<Region> = parts
            .iter()
            .map(|p| CbgPlusPlus.locate_traced(p, mask, cache, rec).region)
            .collect();
        report.quorum_groups_checked = regions.len();
        'pairs: for i in 0..regions.len() {
            for j in (i + 1)..regions.len() {
                if regions[i].intersects(&regions[j]) {
                    continue;
                }
                // Disjoint — but honest subsets can narrowly miss each
                // other (bestline underestimation), so only a
                // continent-scale split counts as disagreement.
                if let (Some(a), Some(b)) = (regions[i].centroid(), regions[j].centroid()) {
                    if a.distance_km(&b) >= cfg.quorum_split_km {
                        report.quorum_agree = false;
                        break 'pairs;
                    }
                }
            }
        }
        if !report.quorum_agree {
            report.evidence.push(evidence::QUORUM_DISAGREEMENT);
        }
    }
    drop(quorum_span);

    // 4. Direct-ping cross-check (pingable proxies only): the η factor
    // is *defined* by `η·C ≈ D` over pingable tunnels (Fig. 13), so a
    // self-ping whose tunnel-leg estimate `η·C` wildly exceeds the
    // directly measured client↔proxy RTT is reporting a tunnel longer
    // than the wire — the self-ping-inflation signature, visible even
    // when the adversary holds every landmark reading consistent. (No
    // self-ping invariant exists against the landmark minimum alone:
    // honest tunnels routinely see `B < C` when a landmark sits closer
    // to the proxy than the client does.)
    if let Some(direct) = pings.direct_ping_ms {
        if direct > 0.0
            && pings.self_ping_ms.is_finite()
            && pings.self_ping_ms > 0.0
            && pings.eta > 0.0
        {
            let implied_leg = pings.eta * pings.self_ping_ms;
            if implied_leg > cfg.self_ping_tolerance * direct + 2.0 {
                report.evidence.push(evidence::SELF_PING_MISMATCH);
            }
        }
    }

    // 5. Side-channel evidence from the measurement diagnostics.
    report.infeasible_readings = diagnostics.infeasible_readings;
    if diagnostics.infeasible_readings > cfg.max_infeasible_readings {
        report.evidence.push(evidence::INFEASIBLE_RTT);
    }
    let contacted = diagnostics.landmarks_measured + diagnostics.dead_landmarks;
    report.dead_fraction = if contacted == 0 {
        0.0
    } else {
        diagnostics.dead_landmarks as f64 / contacted as f64
    };
    if contacted > 0 && report.dead_fraction > cfg.max_dead_fraction {
        report.evidence.push(evidence::DEAD_LANDMARK_EXCESS);
    }

    if rec.counters_enabled() {
        rec.count("def.runs", 1);
        rec.count("def.flagged", report.flagged.len() as u64);
        rec.count("def.conflict_pairs", report.conflict_pairs as u64);
        rec.count("def.trimmed", report.trimmed as u64);
        if !report.quorum_agree {
            rec.count("def.quorum_fail", 1);
        }
        if report.suspicious() {
            rec.count("def.suspicious", 1);
        }
        if rec.events_enabled() {
            rec.event(
                "defense",
                "report",
                [
                    ("flagged", report.flagged.len().into()),
                    ("conflict_pairs", report.conflict_pairs.into()),
                    ("trimmed", report.trimmed.into()),
                    ("quorum_groups", report.quorum_groups_checked.into()),
                    ("quorum_agree", report.quorum_agree.into()),
                    ("infeasible", report.infeasible_readings.into()),
                ],
            );
            for kind in &report.evidence {
                rec.event("defense", "evidence", [("kind", (*kind).into())]);
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas::CalibrationSet;
    use geokit::{GeoGrid, GeoPoint};

    fn calib() -> CalibrationSet {
        CalibrationSet::from_points(
            (1..=50)
                .map(|i| {
                    let d = f64::from(i) * 200.0;
                    (d, d / 100.0 + 0.2 + f64::from(i % 5))
                })
                .collect(),
        )
    }

    fn honest_observations(truth: GeoPoint, landmarks: &[(f64, f64)]) -> Vec<Observation> {
        landmarks
            .iter()
            .map(|&(lat, lon)| {
                let lm = GeoPoint::new(lat, lon);
                Observation::new(lm, lm.distance_km(&truth) / 100.0 + 0.4, calib())
            })
            .collect()
    }

    const LANDMARKS: [(f64, f64); 9] = [
        (52.0, 4.0),
        (45.0, 12.0),
        (55.0, 16.0),
        (40.0, 2.0),
        (51.0, 0.0),
        (48.0, 16.5),
        (43.0, 6.0),
        (53.5, 10.0),
        (47.0, 2.5),
    ];

    #[test]
    fn honest_measurements_raise_no_evidence() {
        let mask = Region::full(GeoGrid::new(1.0));
        let obs = honest_observations(GeoPoint::new(48.0, 11.0), &LANDMARKS);
        let diag = MeasurementDiagnostics {
            landmarks_measured: obs.len(),
            ..Default::default()
        };
        let report = run_defense(
            &obs,
            &diag,
            TunnelPings {
                self_ping_ms: 8.0,
                direct_ping_ms: None,
                eta: 0.5,
            },
            &mask,
            None,
            &obs::Recorder::off(),
            &DefenseConfig::enabled(),
        );
        assert!(!report.suspicious(), "evidence: {:?}", report.evidence);
        assert!(report.flagged.is_empty());
        assert!(report.quorum_agree);
        assert!(report.quorum_groups_checked >= 2);
    }

    #[test]
    fn colluding_landmark_is_flagged_by_pairwise_check() {
        let mask = Region::full(GeoGrid::new(1.0));
        let mut obs = honest_observations(GeoPoint::new(48.0, 11.0), &LANDMARKS);
        // A colluder under-reports so hard its baseline disk (a few
        // hundred km around Lisbon) cannot reach any honest disk's
        // coverage of the truth… make it truly disjoint: tiny reading
        // from a far-away landmark.
        obs.push(Observation::new(GeoPoint::new(-33.9, 18.4), 0.3, calib()));
        let diag = MeasurementDiagnostics {
            landmarks_measured: obs.len(),
            ..Default::default()
        };
        let report = run_defense(
            &obs,
            &diag,
            TunnelPings {
                self_ping_ms: 8.0,
                direct_ping_ms: None,
                eta: 0.5,
            },
            &mask,
            None,
            &obs::Recorder::off(),
            &DefenseConfig::enabled(),
        );
        assert_eq!(report.flagged, vec![LANDMARKS.len()]);
        assert!(report.evidence.contains(&evidence::PAIRWISE_CONFLICT));
        assert!(report.suspicious());
    }

    #[test]
    fn infeasible_readings_and_dead_excess_are_evidence() {
        let mask = Region::full(GeoGrid::new(1.0));
        let obs = honest_observations(GeoPoint::new(48.0, 11.0), &LANDMARKS);
        let diag = MeasurementDiagnostics {
            landmarks_measured: obs.len(),
            dead_landmarks: obs.len() * 2, // most landmarks starved
            infeasible_readings: 5,
            ..Default::default()
        };
        let report = run_defense(
            &obs,
            &diag,
            TunnelPings {
                self_ping_ms: 8.0,
                direct_ping_ms: None,
                eta: 0.5,
            },
            &mask,
            None,
            &obs::Recorder::off(),
            &DefenseConfig::enabled(),
        );
        assert!(report.evidence.contains(&evidence::INFEASIBLE_RTT));
        assert!(report.evidence.contains(&evidence::DEAD_LANDMARK_EXCESS));
    }

    #[test]
    fn report_is_order_invariant() {
        let mask = Region::full(GeoGrid::new(1.0));
        let mut obs = honest_observations(GeoPoint::new(48.0, 11.0), &LANDMARKS);
        obs.push(Observation::new(GeoPoint::new(-33.9, 18.4), 0.3, calib()));
        let diag = MeasurementDiagnostics {
            landmarks_measured: obs.len(),
            ..Default::default()
        };
        let cfg = DefenseConfig::enabled();
        let rec = obs::Recorder::off();
        let forward = run_defense(
            &obs,
            &diag,
            TunnelPings {
                self_ping_ms: 8.0,
                direct_ping_ms: None,
                eta: 0.5,
            },
            &mask,
            None,
            &rec,
            &cfg,
        );
        let mut rev = obs.clone();
        rev.reverse();
        let backward = run_defense(
            &rev,
            &diag,
            TunnelPings {
                self_ping_ms: 8.0,
                direct_ping_ms: None,
                eta: 0.5,
            },
            &mask,
            None,
            &rec,
            &cfg,
        );
        // Flags are indices into different orders; compare by identity.
        let pick = |r: &DefenseReport, o: &[Observation]| -> Vec<(u64, u64)> {
            let mut v: Vec<(u64, u64)> = r
                .flagged
                .iter()
                .map(|&i| (o[i].landmark.lat().to_bits(), o[i].landmark.lon().to_bits()))
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(pick(&forward, &obs), pick(&backward, &rev));
        assert_eq!(forward.evidence, backward.evidence);
        assert_eq!(forward.quorum_agree, backward.quorum_agree);
        assert_eq!(forward.trimmed, backward.trimmed);
    }

    #[test]
    fn inflated_self_ping_fails_direct_ping_cross_check() {
        let mask = Region::full(GeoGrid::new(1.0));
        let obs = honest_observations(GeoPoint::new(48.0, 11.0), &LANDMARKS);
        let diag = MeasurementDiagnostics {
            landmarks_measured: obs.len(),
            ..Default::default()
        };
        // Honest tunnel: direct ping D = 4 ms, self-ping C = 8 ms ->
        // eta*C = 4 ~ D: fine. Inflated: the proxy reports C = 40 ms but
        // the wire still answers in 4 ms -> eta*C = 20 >> 1.5*D + 2.
        let honest = run_defense(
            &obs,
            &diag,
            TunnelPings {
                self_ping_ms: 8.0,
                direct_ping_ms: Some(4.0),
                eta: 0.5,
            },
            &mask,
            None,
            &obs::Recorder::off(),
            &DefenseConfig::enabled(),
        );
        assert!(!honest.evidence.contains(&evidence::SELF_PING_MISMATCH));
        let inflated = run_defense(
            &obs,
            &diag,
            TunnelPings {
                self_ping_ms: 40.0,
                direct_ping_ms: Some(4.0),
                eta: 0.5,
            },
            &mask,
            None,
            &obs::Recorder::off(),
            &DefenseConfig::enabled(),
        );
        assert!(inflated.evidence.contains(&evidence::SELF_PING_MISMATCH));
        assert!(inflated.suspicious());
        // Unpingable proxies: the check is unavailable, not evidence.
        let blind = run_defense(
            &obs,
            &diag,
            TunnelPings {
                self_ping_ms: 40.0,
                direct_ping_ms: None,
                eta: 0.5,
            },
            &mask,
            None,
            &obs::Recorder::off(),
            &DefenseConfig::enabled(),
        );
        assert!(!blind.evidence.contains(&evidence::SELF_PING_MISMATCH));
    }

    #[test]
    fn quorum_is_vacuous_with_too_few_observations() {
        let mask = Region::full(GeoGrid::new(1.0));
        let obs = honest_observations(GeoPoint::new(48.0, 11.0), &LANDMARKS[..3]);
        let diag = MeasurementDiagnostics::default();
        let report = run_defense(
            &obs,
            &diag,
            TunnelPings {
                self_ping_ms: 8.0,
                direct_ping_ms: None,
                eta: 0.5,
            },
            &mask,
            None,
            &obs::Recorder::off(),
            &DefenseConfig::enabled(),
        );
        assert_eq!(report.quorum_groups_checked, 0);
        assert!(report.quorum_agree);
        assert!(!report.suspicious());
    }
}
