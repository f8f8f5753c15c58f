//! The active-adversary layer: a proxy that *shapes its own delays*.
//!
//! The paper's lying proxies are passive — they claim a wrong country
//! but leave the measurements honest. A provider that knows it is being
//! geolocated can do better (§8; VerLoc and BFT-PoLoc formalize the
//! threat model): it controls the tunnel endpoint, so it can hold
//! replies, swallow probes, and pad its own self-ping; and it may
//! collude with a minority of landmarks. [`AdversaryPlan`] models four
//! such tactics per adversarial proxy:
//!
//! * **targeted delay** — hold tunnel replies coming back from chosen
//!   landmarks by a fixed per-landmark amount, shaping the client's
//!   observed RTTs to match distances from a *faked* coordinate;
//! * **selective timeout** — silently swallow tunnel connects toward
//!   "inconvenient" landmarks whose constraints would expose the true
//!   location (the adversary can only *add* delay, so landmarks that
//!   would need a faster-than-honest reply are starved instead);
//! * **inflated self-ping** — pad the tunnel self-ping legs so the
//!   client's `A = B − η·C` correction subtracts too much, shifting
//!   *every* corrected RTT down by the same amount (combined with
//!   targeted delay this realizes arbitrary shaping, including readings
//!   faster than the honest floor);
//! * **colluding landmarks** — a compromised landmark answers the
//!   proxy's probe before it physically could (pre-sent replies),
//!   modelled as a deterministic deflation of the completed reading,
//!   the same reading-level hook [`FaultPlan`](crate::FaultPlan) uses
//!   for corruption.
//!
//! Design contract (mirrors [`crate::fault`]):
//!
//! * **Deterministic.** Every hook is a pure function of the plan and
//!   the packet — no randomness at all, so an adversarial run is exactly
//!   reproducible and thread-count-invariant.
//! * **RNG-neutral when disabled.** An empty plan consumes zero RNG
//!   draws and changes zero behaviour: adversary-off runs are
//!   byte-identical to runs before this layer existed.
//! * **Copy-on-write on fork.** The plan holds no interior-mutable
//!   state, so [`Network::fork`](crate::Network::fork) always
//!   `Arc`-shares it.

use crate::time::SimDuration;
use crate::NodeId;
use std::collections::HashMap;

/// One adversarial proxy's delay-shaping tactic.
///
/// All landmark keys are netsim node ids (the adversary knows where the
/// landmarks are — RIPE Atlas anchor locations are public).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProxyTactic {
    /// Landmark → extra milliseconds to hold that landmark's tunnel
    /// reply at the proxy before relaying it to the client.
    hold_reply_ms: HashMap<NodeId, f64>,
    /// Landmarks whose tunnel connects the proxy silently swallows.
    timeouts: HashMap<NodeId, ()>,
    /// Extra milliseconds added per self-ping traversal of the proxy
    /// (two traversals per self-ping, so the measured `C` grows by twice
    /// this value).
    self_ping_extra_ms: f64,
    /// Colluding landmark → multiplicative deflation (in `(0, 1]`)
    /// applied to completed readings that measured that landmark
    /// through this proxy.
    colluders: HashMap<NodeId, f64>,
}

impl ProxyTactic {
    /// Hold replies from `landmark` by `extra_ms` (clamped at ≥ 0).
    pub fn hold_reply(&mut self, landmark: NodeId, extra_ms: f64) -> &mut Self {
        assert!(extra_ms.is_finite(), "non-finite hold {extra_ms}");
        self.hold_reply_ms.insert(landmark, extra_ms.max(0.0));
        self
    }

    /// Silently swallow tunnel connects toward `landmark`.
    pub fn timeout_landmark(&mut self, landmark: NodeId) -> &mut Self {
        self.timeouts.insert(landmark, ());
        self
    }

    /// Pad each self-ping traversal of the proxy by `extra_ms`.
    pub fn inflate_self_ping(&mut self, extra_ms: f64) -> &mut Self {
        assert!(
            extra_ms.is_finite() && extra_ms >= 0.0,
            "bad self-ping inflation {extra_ms}"
        );
        self.self_ping_extra_ms = extra_ms;
        self
    }

    /// Register `landmark` as colluding: completed readings toward it
    /// are multiplied by `factor` (clamped into `(0, 1]`).
    pub fn add_colluder(&mut self, landmark: NodeId, factor: f64) -> &mut Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "bad collusion factor {factor}"
        );
        self.colluders.insert(landmark, factor.min(1.0));
        self
    }
}

/// The full adversary configuration: which proxies play dirty, and how.
///
/// Disabled (empty) by default — the audit and every existing test run
/// with no adversary and are bit-identical to the pre-adversary
/// pipeline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdversaryPlan {
    /// Adversarial proxy node → its tactic.
    tactics: HashMap<NodeId, ProxyTactic>,
}

/// Tally of adversary interventions during one probe, mirroring
/// [`LossTally`](crate::engine::LossTally): the walk counts, the
/// [`Network`](crate::Network) facade turns counts into `net.adv.*`
/// observability counters after the probe. (Collusion deflates the
/// finished reading, so the facade counts `net.adv.collude` itself.)
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdversaryTally {
    /// Tunnel replies held (targeted delay applied).
    pub held_replies: u32,
    /// Tunnel connects swallowed (selective timeout).
    pub timeouts: u32,
    /// Self-ping legs padded at an adversarial proxy.
    pub self_ping_padded: u32,
}

impl AdversaryTally {
    /// Total interventions, all tactics.
    pub fn total(&self) -> u32 {
        self.held_replies + self.timeouts + self.self_ping_padded
    }
}

impl AdversaryPlan {
    /// An empty (inactive) plan.
    pub fn new() -> AdversaryPlan {
        AdversaryPlan::default()
    }

    /// Mutable access to the tactic for `proxy`, creating an empty one.
    pub fn tactic_mut(&mut self, proxy: NodeId) -> &mut ProxyTactic {
        self.tactics.entry(proxy).or_default()
    }

    /// True if no proxy has a tactic — the fast-path check every hook
    /// makes first, so a disabled plan costs one branch per packet.
    pub fn is_active(&self) -> bool {
        !self.tactics.is_empty()
    }

    // --- engine hooks ---------------------------------------------------

    /// Extra hold applied at `proxy` before relaying a tunnel reply that
    /// came back from `landmark` (zero when unconfigured).
    pub fn hold_ms(&self, proxy: NodeId, landmark: NodeId) -> f64 {
        if self.tactics.is_empty() {
            return 0.0;
        }
        self.tactics
            .get(&proxy)
            .and_then(|t| t.hold_reply_ms.get(&landmark))
            .copied()
            .unwrap_or(0.0)
    }

    /// True if `proxy` swallows tunnel connects toward `target`.
    pub fn times_out(&self, proxy: NodeId, target: NodeId) -> bool {
        if self.tactics.is_empty() {
            return false;
        }
        self.tactics
            .get(&proxy)
            .is_some_and(|t| t.timeouts.contains_key(&target))
    }

    /// Extra delay per self-ping traversal of `proxy` (zero when
    /// unconfigured).
    pub fn self_ping_extra_ms(&self, proxy: NodeId) -> f64 {
        if self.tactics.is_empty() {
            return 0.0;
        }
        self.tactics
            .get(&proxy)
            .map_or(0.0, |t| t.self_ping_extra_ms)
    }

    /// The collusion deflation for a reading measured through `proxy`
    /// toward `landmark`, if that pair colludes.
    pub fn collusion_factor(&self, proxy: NodeId, landmark: NodeId) -> Option<f64> {
        if self.tactics.is_empty() {
            return None;
        }
        self.tactics
            .get(&proxy)
            .and_then(|t| t.colluders.get(&landmark))
            .copied()
    }

    /// Apply collusion to a completed reading: the deflated duration,
    /// or the original when the pair does not collude.
    pub fn collude_reading(
        &self,
        proxy: NodeId,
        landmark: NodeId,
        rtt: SimDuration,
    ) -> (SimDuration, bool) {
        match self.collusion_factor(proxy, landmark) {
            Some(f) => (SimDuration::from_ms(rtt.as_ms() * f), true),
            None => (rtt, false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_inert() {
        let plan = AdversaryPlan::new();
        assert!(!plan.is_active());
        assert_eq!(plan.hold_ms(1, 2), 0.0);
        assert!(!plan.times_out(1, 2));
        assert_eq!(plan.self_ping_extra_ms(1), 0.0);
        assert!(plan.collusion_factor(1, 2).is_none());
        let (rtt, hit) = plan.collude_reading(1, 2, SimDuration::from_ms(10.0));
        assert_eq!(rtt.as_ms(), 10.0);
        assert!(!hit);
    }

    #[test]
    fn tactics_are_per_proxy_and_per_landmark() {
        let mut plan = AdversaryPlan::new();
        plan.tactic_mut(7).hold_reply(3, 25.0).timeout_landmark(4);
        plan.tactic_mut(9)
            .inflate_self_ping(12.0)
            .add_colluder(3, 0.4);
        assert!(plan.is_active());
        assert_eq!(plan.hold_ms(7, 3), 25.0);
        assert_eq!(plan.hold_ms(9, 3), 0.0);
        assert!(plan.times_out(7, 4));
        assert!(!plan.times_out(9, 4));
        assert_eq!(plan.self_ping_extra_ms(9), 12.0);
        assert_eq!(plan.self_ping_extra_ms(7), 0.0);
        assert_eq!(plan.collusion_factor(9, 3), Some(0.4));
        assert_eq!(plan.collusion_factor(7, 3), None);
        let (rtt, hit) = plan.collude_reading(9, 3, SimDuration::from_ms(100.0));
        assert!((rtt.as_ms() - 40.0).abs() < 1e-9);
        assert!(hit);
    }

    #[test]
    fn negative_hold_clamps_to_zero() {
        let mut plan = AdversaryPlan::new();
        plan.tactic_mut(1).hold_reply(2, -5.0);
        assert_eq!(plan.hold_ms(1, 2), 0.0);
    }

    #[test]
    fn collusion_factor_clamps_at_one() {
        let mut plan = AdversaryPlan::new();
        plan.tactic_mut(1).add_colluder(2, 3.0);
        assert_eq!(plan.collusion_factor(1, 2), Some(1.0));
    }
}
