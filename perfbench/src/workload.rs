//! The three workloads and the study each one audits.
//!
//! All three are closed loops: one worker on one shard measures the
//! fleet proxy after proxy, so every layer blocks the result.

use atlas::Landmark;
use geoloc::DefenseConfig;
use netsim::{AdversaryPlan, Network, NodeId};
use vpnstudy::campaign::{shaping_plan, AdversaryModel};
use vpnstudy::{Study, StudyConfig};

/// Fleet size of `hostile_audit` at paper scale, chosen so a run lasts
/// about as long as `paper_audit`.
const HOSTILE_FLEET_PAPER: usize = 480;
/// Fleet size of `hostile_audit` at smoke scale.
const HOSTILE_FLEET_SMALL: usize = 28;
/// Per-hop probe loss on the hostile network.
const HOSTILE_DROP_CHANCE: f64 = 0.01;
/// Every this-many-th landmark is down for the whole hostile run.
const HOSTILE_OUTAGE_STRIDE: usize = 10;
/// Share of the constellation each lying proxy's adversary controls.
pub const HOSTILE_STRENGTH: f64 = 0.66;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's audit at obs level `Events`, then persisted to and
    /// served from the verdict store.
    PaperAudit,
    /// The same audit with observability off.
    PaperAuditQuiet,
    /// A smaller fleet on a lossy network with dead landmarks, lying
    /// proxies shaping their timing, and the Byzantine defense on.
    HostileAudit,
}

impl Workload {
    /// Every workload the command line accepts. `BENCHMARK.json` lists
    /// all but `paper_audit_quiet`, in this order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperAudit,
        Workload::PaperAuditQuiet,
        Workload::HostileAudit,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperAudit => "paper_audit",
            Workload::PaperAuditQuiet => "paper_audit_quiet",
            Workload::HostileAudit => "hostile_audit",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The world the workload audits. Workloads that share a world must
    /// reach identical conclusions, whatever their obs level.
    pub fn world(self) -> &'static str {
        match self {
            Workload::PaperAudit | Workload::PaperAuditQuiet => "paper",
            Workload::HostileAudit => "hostile",
        }
    }

    /// The study configuration for `seed` at `scale`.
    pub fn config(self, scale: Scale, seed: u64) -> StudyConfig {
        let mut config = match scale {
            Scale::Paper => StudyConfig::paper(),
            Scale::Small => StudyConfig::small(seed),
        };
        config.seed = seed;
        match self {
            Workload::PaperAudit => {}
            Workload::PaperAuditQuiet => config.obs_level = obs::Level::Off,
            Workload::HostileAudit => {
                config.total_proxies = match scale {
                    Scale::Paper => HOSTILE_FLEET_PAPER,
                    Scale::Small => HOSTILE_FLEET_SMALL,
                };
                config.defense = DefenseConfig::enabled();
            }
        }
        config
    }

    /// Install the workload's network conditions on a freshly built
    /// study. Returns the attack plan and the attacked (lying) proxies;
    /// both are empty on the clean paper network.
    pub fn arm(self, study: &mut Study) -> (AdversaryPlan, Vec<NodeId>) {
        if self != Workload::HostileAudit {
            return (AdversaryPlan::new(), Vec::new());
        }
        let (plan, targets) = shaping_plan(study, AdversaryModel::FullShaping, HOSTILE_STRENGTH);
        install_hostility(
            study.world.network_mut(),
            study.constellation.landmarks(),
            &plan,
        );
        (plan, targets)
    }
}

/// Put the hostile conditions on `network`: probe loss, every tenth
/// landmark down from now on, and the lying proxies' attack `plan`.
pub fn install_hostility(network: &mut Network, landmarks: &[Landmark], plan: &AdversaryPlan) {
    let t0 = network.now();
    for lm in landmarks.iter().step_by(HOSTILE_OUTAGE_STRIDE) {
        network.faults_mut().add_permanent_outage(lm.node, t0);
    }
    network.faults_mut().set_drop_chance(HOSTILE_DROP_CHANCE);
    *network.adversary_mut() = plan.clone();
}

/// How big a study the workloads audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// `StudyConfig::paper()`: 2269 proxies, 250 anchors, 0.5° grid.
    Paper,
    /// `StudyConfig::small()`: a seconds-long smoke run for the
    /// benchmark's own tests.
    Small,
}

impl Scale {
    /// Parse `paper` or `small`.
    pub fn parse(name: &str) -> Option<Scale> {
        match name {
            "paper" => Some(Scale::Paper),
            "small" => Some(Scale::Small),
            _ => None,
        }
    }

    /// The scale's name.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Paper => "paper",
            Scale::Small => "small",
        }
    }
}
