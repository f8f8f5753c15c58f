//! The adversarial campaign: active delay-shaping attacks vs the
//! Byzantine defense, measured as detection rate over adversary
//! strength.
//!
//! Each cell of the campaign grid builds a fresh (deterministic) study,
//! arms every *lying* proxy with one attack model at one strength, runs
//! the audit with the defense enabled, and scores two questions per
//! attacked proxy:
//!
//! * **deceived** — did the *baseline* pipeline (raw CBG++ verdict plus
//!   data-center disambiguation, no defense) call the false claim
//!   `Credible`?
//! * **caught** — did the *defended* pipeline refuse or refute it
//!   (`Suspicious` or `False`)?
//!
//! The attack models compose the four [`netsim::AdversaryPlan`] tactics.
//! Their expected physics differ in a way the campaign demonstrates
//! empirically:
//!
//! * Delay-only attacks (holds, timeouts) can *add* delay but never
//!   subtract it, so every shaped disk still contains the true location
//!   — CBG's upper-bound constraints make forging `Credible` from pure
//!   inflation impossible (the region keeps covering the truth). The
//!   grid records this as a near-zero deception rate.
//! * Attacks that *deflate* readings — an inflated self-ping corrupting
//!   the tunnel-leg subtraction, or colluding landmarks answering
//!   early — can exclude the truth and forge a tight fake region, and
//!   these are what the defense layer's evidence checks catch.
//!
//! Determinism: plan construction is pure arithmetic over the floor
//! RTT matrix and sorted landmark lists (no RNG, no maps iterated in
//! hash order), so a campaign cell is byte-reproducible at any
//! `PV_THREADS`.

use crate::audit::{Study, StudyResults};
use crate::config::StudyConfig;
use crate::report::VerdictTally;
use geokit::GeoPoint;
use geoloc::assess::Assessment;
use geoloc::disambiguate::Disambiguation;
use geoloc::proxy::DEFAULT_ETA;
use netsim::{AdversaryPlan, NodeId};
use std::fmt::Write as _;
use worldmap::CountryId;

/// Shaping speed, km/ms: the fake one-way RTT claimed for distance `d`
/// is `d / SHAPE_SPEED`. Slightly slower than the simulated network's
/// effective path speed, so shaped disks cover the fake coordinate with
/// margin under the bestline calibration.
pub const SHAPE_SPEED_KM_PER_MS: f64 = 110.0;

/// Floor on a shaped corrected RTT (ms): never ask for a literally-zero
/// reading, even when impersonating a spot on top of a landmark.
const MIN_DESIRED_A_MS: f64 = 1.0;

/// An attack model: which adversary tactics a lying proxy combines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdversaryModel {
    /// Targeted delay only: hold replies toward landmarks whose honest
    /// RTT is *below* the fake coordinate's. Inconvenient landmarks
    /// (which would need a faster-than-honest reply) stay honest.
    DelayShaping,
    /// Targeted delay plus selective timeouts: inconvenient landmarks
    /// are starved instead of left honest.
    DelayTimeout,
    /// Inflated self-ping plus targeted delay: pad the tunnel self-ping
    /// until the `A = B − η·C` subtraction subsidizes every shaped
    /// reading, realizing readings below the honest floor.
    SelfPingInflation,
    /// Colluding landmarks plus targeted delay: compromised landmarks
    /// near the fake coordinate deflate their readings to match it.
    Collusion,
    /// Everything at once: shape what it can, collude where subsidy
    /// falls short, and time out whatever it cannot control.
    FullShaping,
}

impl AdversaryModel {
    /// Every model, in campaign-grid order.
    pub const ALL: [AdversaryModel; 5] = [
        AdversaryModel::DelayShaping,
        AdversaryModel::DelayTimeout,
        AdversaryModel::SelfPingInflation,
        AdversaryModel::Collusion,
        AdversaryModel::FullShaping,
    ];

    /// Stable label for tables and traces.
    pub fn label(self) -> &'static str {
        match self {
            AdversaryModel::DelayShaping => "delay-shaping",
            AdversaryModel::DelayTimeout => "delay+timeout",
            AdversaryModel::SelfPingInflation => "self-ping-inflation",
            AdversaryModel::Collusion => "collusion",
            AdversaryModel::FullShaping => "full-shaping",
        }
    }
}

/// One campaign cell: one model at one strength, over every attacked
/// (lying) proxy of a fresh study.
#[derive(Debug, Clone)]
pub struct CampaignCell {
    /// The attack model.
    pub model: AdversaryModel,
    /// Fraction of the constellation the adversary controls (nearest to
    /// the fake coordinate first).
    pub strength: f64,
    /// Lying proxies armed with the attack.
    pub attacked: usize,
    /// Attacked proxies that produced a verdict at all.
    pub measured: usize,
    /// Baseline pipeline fooled: raw CBG++ (+ DC disambiguation) called
    /// the false claim `Credible`.
    pub baseline_deceived: usize,
    /// Defended pipeline still fooled: refined verdict `Credible`.
    pub defended_deceived: usize,
    /// Defended pipeline caught it: refined verdict `Suspicious` or
    /// `False`.
    pub caught: usize,
    /// Of those, verdicts explicitly withheld as `Suspicious`.
    pub suspicious: usize,
}

impl CampaignCell {
    /// Fraction of attacked-and-measured proxies the defense caught.
    pub fn detection_rate(&self) -> f64 {
        rate(self.caught, self.measured)
    }
}

fn rate(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The grid a campaign sweeps.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Study configuration each cell starts from (the campaign enables
    /// the defense itself).
    pub study: StudyConfig,
    /// Attack models to sweep.
    pub models: Vec<AdversaryModel>,
    /// Adversary strengths to sweep (fraction of landmarks controlled).
    pub strengths: Vec<f64>,
}

impl CampaignConfig {
    /// A CI-sized campaign: small study, every model, three strengths.
    pub fn small(seed: u64) -> CampaignConfig {
        let mut study = StudyConfig::small(seed);
        study.total_proxies = 28;
        CampaignConfig {
            study,
            models: AdversaryModel::ALL.to_vec(),
            strengths: vec![0.33, 0.66, 1.0],
        }
    }
}

/// The fake coordinate a lying proxy impersonates for its claimed
/// country: the location of a landmark *inside* the claim if one exists
/// (the smart play — a tight region right next to a trusted landmark),
/// else the claimed country's capital.
pub fn fake_coordinate(study: &Study, claimed: CountryId) -> GeoPoint {
    let mut best: Option<(NodeId, GeoPoint)> = None;
    for lm in study.constellation.landmarks() {
        if lm.country == claimed && best.is_none_or(|(n, _)| lm.node < n) {
            best = Some((lm.node, lm.location));
        }
    }
    match best {
        Some((_, loc)) => loc,
        None => study.world.atlas().country(claimed).capital(),
    }
}

/// Build the adversary plan arming every lying proxy of `study` with
/// `model` at `strength`. Returns the plan and the attacked proxy nodes
/// (in deployment order). Pure arithmetic over the floor-RTT matrix —
/// deterministic, no RNG.
pub fn shaping_plan(
    study: &Study,
    model: AdversaryModel,
    strength: f64,
) -> (AdversaryPlan, Vec<NodeId>) {
    let strength = strength.clamp(0.0, 1.0);
    let net = study.world.network();
    let landmarks = study.constellation.landmarks();
    let mut plan = AdversaryPlan::new();
    let mut targets = Vec::new();

    for proxy in &study.providers.proxies {
        if proxy.claimed == proxy.true_country {
            continue;
        }
        targets.push(proxy.node);
        let fake = fake_coordinate(study, proxy.claimed);
        // Direct client→proxy RTT floor; the honest tunnel self-ping
        // traverses that leg twice, so C_floor ≈ 2R and η·C ≈ R.
        let Some(r_cp) = net.floor_rtt_ms(study.client, proxy.node) else {
            continue;
        };

        // Per landmark: the honest corrected-RTT floor (the pure
        // proxy↔landmark leg) and the corrected RTT the fake coordinate
        // demands. Sorted nearest-to-fake first: with budget `strength`
        // the adversary shapes the landmarks that matter most for a
        // tight fake region.
        let mut rows: Vec<(NodeId, f64, f64)> = landmarks
            .iter()
            .filter_map(|lm| {
                let a_floor = net.floor_rtt_ms(proxy.node, lm.node)?;
                let desired = (2.0 * lm.location.distance_km(&fake) / SHAPE_SPEED_KM_PER_MS)
                    .max(MIN_DESIRED_A_MS);
                Some((lm.node, a_floor, desired))
            })
            .collect();
        rows.sort_by(|a, b| a.2.total_cmp(&b.2).then(a.0.cmp(&b.0)));
        let controlled = ((rows.len() as f64) * strength).ceil() as usize;
        let (shaped, honest) = rows.split_at(controlled.min(rows.len()));

        // The self-ping subsidy (models that use it): pad C by Δ so the
        // η·C subtraction covers the worst deficit among controlled
        // landmarks, making every shaped reading achievable by holds.
        let max_deficit = shaped
            .iter()
            .map(|&(_, a_floor, desired)| a_floor - desired)
            .fold(0.0_f64, f64::max);
        let delta = max_deficit / DEFAULT_ETA;

        let tactic = plan.tactic_mut(proxy.node);
        match model {
            AdversaryModel::DelayShaping | AdversaryModel::DelayTimeout => {
                for &(lm, a_floor, desired) in shaped {
                    if desired >= a_floor {
                        tactic.hold_reply(lm, desired - a_floor);
                    } else if model == AdversaryModel::DelayTimeout {
                        tactic.timeout_landmark(lm);
                    }
                }
            }
            AdversaryModel::SelfPingInflation => {
                // Engine pads each of the two self-ping traversals, so
                // half Δ per traversal inflates C by Δ.
                tactic.inflate_self_ping(delta / 2.0);
                for &(lm, a_floor, desired) in shaped {
                    tactic.hold_reply(lm, desired + DEFAULT_ETA * delta - a_floor);
                }
            }
            AdversaryModel::Collusion => {
                for &(lm, a_floor, desired) in shaped {
                    if desired >= a_floor {
                        tactic.hold_reply(lm, desired - a_floor);
                    } else {
                        // A compromised landmark answers early: deflate
                        // the measured B = R + A_floor down to the
                        // reading the fake coordinate demands.
                        let factor = (desired + r_cp) / (r_cp + a_floor);
                        tactic.add_colluder(lm, factor.clamp(f64::MIN_POSITIVE, 1.0));
                    }
                }
            }
            AdversaryModel::FullShaping => {
                // Subsidize modestly, collude past the cap, starve the
                // uncontrolled remainder.
                let delta = delta.min(40.0);
                tactic.inflate_self_ping(delta / 2.0);
                for &(lm, a_floor, desired) in shaped {
                    let subsidized = desired + DEFAULT_ETA * delta;
                    if subsidized >= a_floor {
                        tactic.hold_reply(lm, subsidized - a_floor);
                    } else {
                        let factor = (subsidized + r_cp) / (r_cp + a_floor);
                        tactic.add_colluder(lm, factor.clamp(f64::MIN_POSITIVE, 1.0));
                    }
                }
                for &(lm, _, _) in honest {
                    tactic.timeout_landmark(lm);
                }
            }
        }
    }
    (plan, targets)
}

/// The baseline (defense-blind) verdict for a record: the raw CBG++
/// assessment upgraded by data-center disambiguation exactly as the
/// pre-defense pipeline would have done.
fn baseline_assessment(r: &crate::audit::ProxyRecord) -> Assessment {
    r.dc_country
        .map_or(Disambiguation::Unresolved, Disambiguation::Resolved)
        .refine(r.verdict.assessment, r.proxy.claimed)
}

/// Score one finished study against the attacked-proxy list. The
/// verdict counting itself is [`VerdictTally`] — the same helper the
/// overall report and the verdict store use — applied twice: once to
/// the baseline (defense-blind) assessments and once to the defended
/// ones.
pub fn score_cell(
    model: AdversaryModel,
    strength: f64,
    targets: &[NodeId],
    results: &StudyResults,
) -> CampaignCell {
    let attacked: Vec<&crate::audit::ProxyRecord> = results
        .records
        .iter()
        .filter(|r| targets.contains(&r.proxy.node))
        .collect();
    let baseline = VerdictTally::tally(attacked.iter().map(|r| baseline_assessment(r)));
    let defended = VerdictTally::tally(attacked.iter().map(|r| r.refined.assessment));
    CampaignCell {
        model,
        strength,
        attacked: targets.len(),
        measured: defended.total(),
        baseline_deceived: baseline.credible,
        defended_deceived: defended.credible,
        // "Caught" = refused or refuted: the defended pipeline either
        // proved the claim false or withheld the verdict as suspicious.
        caught: defended.false_claims + defended.suspicious,
        suspicious: defended.suspicious,
    }
}

/// Run one campaign cell: fresh study, armed plan, defended audit.
pub fn run_cell(config: &StudyConfig, model: AdversaryModel, strength: f64) -> CampaignCell {
    let mut study = Study::build(config.clone());
    study.config.defense.enabled = true;
    let (plan, targets) = shaping_plan(&study, model, strength);
    *study.world.network_mut().adversary_mut() = plan;
    let results = study.run();
    score_cell(model, strength, &targets, &results)
}

/// Sweep the whole grid.
pub fn run_campaign(cfg: &CampaignConfig) -> Vec<CampaignCell> {
    let mut cells = Vec::with_capacity(cfg.models.len() * cfg.strengths.len());
    for &model in &cfg.models {
        for &strength in &cfg.strengths {
            cells.push(run_cell(&cfg.study, model, strength));
        }
    }
    cells
}

/// Plain-text detection-rate table (the `figures adversary` renderer and
/// the EXPERIMENTS.md section both print this).
pub fn render_campaign(cells: &[CampaignCell]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<20} {:>8} {:>9} {:>9} {:>10} {:>10} {:>8} {:>10}",
        "model", "strength", "attacked", "measured", "deceived", "defended", "caught", "detection"
    );
    for c in cells {
        let _ = writeln!(
            out,
            "{:<20} {:>8.2} {:>9} {:>9} {:>10} {:>10} {:>8} {:>9.0}%",
            c.model.label(),
            c.strength,
            c.attacked,
            c.measured,
            c.baseline_deceived,
            c.defended_deceived,
            c.caught,
            c.detection_rate() * 100.0,
        );
    }
    out
}
