//! Fault injection: random loss, added delay, landmark outages, reply
//! rate-limiting, measurement corruption, and adversarial proxies.
//!
//! Follows the fault-injection design of event-driven network stacks
//! (random drop/delay knobs exercised by tests), plus the paper's §8
//! threat model: a hostile proxy can selectively delay packets, and —
//! because it terminates the TCP handshake it forwards — it can forge
//! early SYN-ACKs without guessing sequence numbers, shifting the
//! predicted region arbitrarily.
//!
//! The reliability layer (§4.2–§4.3 conditions) adds the substrate
//! failures the paper's pipeline survives in the wild:
//!
//! * **outage windows** — a landmark that is down (or flapping) for
//!   intervals of simulation time swallows every packet it would have
//!   forwarded or answered;
//! * **per-link loss** — a lossy cable drops packets independently of
//!   node behaviour;
//! * **reply rate-limiting** — a node answers at most N probes per
//!   sliding window of sim time and silently drops the excess (the
//!   "unusual ports are rate-limited" behaviour of §4.2);
//! * **measurement corruption** — a completed reading is replaced with
//!   garbage (NaN, a spike, or a deflated value) with some probability,
//!   modelling broken middleboxes and clock bugs. Downstream code must
//!   tolerate non-finite RTTs without panicking.

use crate::time::{SimDuration, SimTime};
use crate::{LinkId, NodeId};
use geokit::sampling;
use simrng::{Rng, RngExt};
use std::collections::HashMap;
use std::sync::Mutex;

/// An interval of simulation time during which a node is dark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutageWindow {
    /// First instant of the outage (inclusive).
    pub start: SimTime,
    /// First instant after the outage (exclusive). Use a far-future time
    /// for a permanent outage.
    pub end: SimTime,
}

impl OutageWindow {
    /// Does the window cover `at`?
    pub fn covers(&self, at: SimTime) -> bool {
        self.start <= at && at < self.end
    }
}

/// Reply rate-limit: at most `max_replies` answered probes per sliding
/// `window` of simulation time; the excess is silently dropped.
#[derive(Debug, Clone, Copy)]
pub struct RateLimit {
    /// Replies allowed per window.
    pub max_replies: usize,
    /// Sliding window length.
    pub window: SimDuration,
}

/// Per-run fault configuration. Default: no faults.
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// Probability that any forwarding node drops a packet.
    drop_chance: f64,
    /// Per-node extra forwarding delay: (mean_ms, jitter_ms).
    added_delay: HashMap<NodeId, (f64, f64)>,
    /// Proxies that forge SYN-ACKs for tunnelled connections.
    forge_synack: HashMap<NodeId, bool>,
    /// Per-node outage windows in absolute sim time.
    outages: HashMap<NodeId, Vec<OutageWindow>>,
    /// Per-link independent drop probability.
    link_loss: HashMap<LinkId, f64>,
    /// Probability that a completed RTT reading is corrupted.
    corrupt_chance: f64,
    /// Per-node reply rate limits.
    rate_limits: HashMap<NodeId, RateLimit>,
    /// Sliding-window state for rate limiting: recent reply times per
    /// node. Interior-mutable because the walk holds the plan by
    /// shared reference; updates are driven purely by sim time, so
    /// determinism is unaffected (the simulator is single-threaded —
    /// the `Mutex` only exists to keep `FaultPlan: Sync`).
    rate_state: Mutex<HashMap<NodeId, Vec<SimTime>>>,
}

impl Clone for FaultPlan {
    fn clone(&self) -> FaultPlan {
        FaultPlan {
            drop_chance: self.drop_chance,
            added_delay: self.added_delay.clone(),
            forge_synack: self.forge_synack.clone(),
            outages: self.outages.clone(),
            link_loss: self.link_loss.clone(),
            corrupt_chance: self.corrupt_chance,
            rate_limits: self.rate_limits.clone(),
            rate_state: Mutex::new(self.rate_state.lock().expect("fault state").clone()),
        }
    }
}

impl FaultPlan {
    /// Remove every configured fault, returning to the default
    /// (faultless) plan. Tests sharing a long-lived network use this to
    /// restore a clean slate.
    pub fn clear(&mut self) {
        *self = FaultPlan::default();
    }

    /// Set the global random-drop probability (clamped to `[0, 1]`).
    pub fn set_drop_chance(&mut self, p: f64) {
        self.drop_chance = p.clamp(0.0, 1.0);
    }

    /// Add a constant-plus-jitter delay at a node's forwarding path —
    /// the "selective added delay" attack of Gill et al. discussed in §8.
    pub fn set_added_delay(&mut self, node: NodeId, mean_ms: f64, jitter_ms: f64) {
        assert!(mean_ms >= 0.0 && jitter_ms >= 0.0, "negative delay");
        self.added_delay.insert(node, (mean_ms, jitter_ms));
    }

    /// Make a proxy forge immediate SYN-ACKs for tunnelled connections
    /// (the RTT-deflation attack of Abdou et al. discussed in §8).
    pub fn set_forge_synack(&mut self, proxy: NodeId, forge: bool) {
        self.forge_synack.insert(proxy, forge);
    }

    /// Take a node down for `[start, end)` of simulation time. Multiple
    /// windows accumulate (a flapping node is a sequence of windows).
    pub fn add_outage(&mut self, node: NodeId, start: SimTime, end: SimTime) {
        assert!(start <= end, "outage window ends before it starts");
        self.outages
            .entry(node)
            .or_default()
            .push(OutageWindow { start, end });
    }

    /// Take a node down permanently from `start` onwards.
    pub fn add_permanent_outage(&mut self, node: NodeId, start: SimTime) {
        self.add_outage(node, start, SimTime::FAR_FUTURE);
    }

    /// Make a node flap: starting at `first_down`, alternate `down` and
    /// `up` intervals for `cycles` cycles.
    pub fn add_flapping(
        &mut self,
        node: NodeId,
        first_down: SimTime,
        down: SimDuration,
        up: SimDuration,
        cycles: usize,
    ) {
        let mut start = first_down;
        for _ in 0..cycles {
            let end = start + down;
            self.add_outage(node, start, end);
            start = end + up;
        }
    }

    /// Set an independent drop probability on one link (clamped to
    /// `[0, 1]`), applied each time a packet traverses it.
    pub fn set_link_loss(&mut self, link: LinkId, p: f64) {
        self.link_loss.insert(link, p.clamp(0.0, 1.0));
    }

    /// Set the probability that a completed RTT reading is replaced with
    /// garbage (clamped to `[0, 1]`).
    pub fn set_corrupt_chance(&mut self, p: f64) {
        self.corrupt_chance = p.clamp(0.0, 1.0);
    }

    /// Rate-limit a node's replies: at most `max_replies` per sliding
    /// `window` of sim time; excess probes are silently dropped.
    pub fn set_rate_limit(&mut self, node: NodeId, max_replies: usize, window: SimDuration) {
        self.rate_limits.insert(
            node,
            RateLimit {
                max_replies,
                window,
            },
        );
        self.rate_state.lock().expect("fault state").remove(&node);
    }

    /// True if any node has a reply rate limit configured. Rate limits
    /// are the plan's only state that mutates through `&FaultPlan`
    /// (the sliding window advances as replies are sent), so a plan
    /// without them is safe to share read-only across forks.
    pub fn has_rate_limits(&self) -> bool {
        !self.rate_limits.is_empty()
    }

    /// Does the forwarding node drop the packet now? (Random loss is the
    /// same at every node.)
    pub fn drops_packet<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        self.drop_chance > 0.0 && sampling::coin(rng, self.drop_chance)
    }

    /// Does this link drop the packet now?
    pub fn drops_on_link<R: Rng + ?Sized>(&self, link: LinkId, rng: &mut R) -> bool {
        match self.link_loss.get(&link) {
            None => false,
            Some(&p) => p > 0.0 && sampling::coin(rng, p),
        }
    }

    /// Is the node inside one of its outage windows at `at`?
    pub fn is_down(&self, node: NodeId, at: SimTime) -> bool {
        self.outages
            .get(&node)
            .is_some_and(|ws| ws.iter().any(|w| w.covers(at)))
    }

    /// Would a reply from this node at `at` exceed its rate limit? A
    /// `false` answer *consumes* one slot of the window (the reply is
    /// about to be sent); state advances with sim time only.
    pub fn rate_limited(&self, node: NodeId, at: SimTime) -> bool {
        let Some(limit) = self.rate_limits.get(&node) else {
            return false;
        };
        let mut state = self.rate_state.lock().expect("fault state");
        let recent = state.entry(node).or_default();
        recent.retain(|&t| at < t + limit.window);
        if recent.len() >= limit.max_replies {
            return true;
        }
        recent.push(at);
        false
    }

    /// Extra forwarding delay at this node, ms.
    pub fn added_delay_ms<R: Rng + ?Sized>(&self, node: NodeId, rng: &mut R) -> f64 {
        match self.added_delay.get(&node) {
            None => 0.0,
            Some(&(mean, jitter)) => {
                if jitter > 0.0 {
                    (mean + sampling::normal(rng, 0.0, jitter)).max(0.0)
                } else {
                    mean
                }
            }
        }
    }

    /// Does this proxy forge SYN-ACKs?
    pub fn forges_synack(&self, proxy: NodeId) -> bool {
        self.forge_synack.get(&proxy).copied().unwrap_or(false)
    }

    /// Apply measurement corruption to a completed RTT reading. With
    /// probability `corrupt_chance` the reading becomes garbage: NaN
    /// (a broken reading), a large spike (a stalled middlebox), or a
    /// deflated value (a clock bug). Consumes no randomness when the
    /// corrupt chance is zero, preserving byte-identical RNG streams in
    /// fault-free runs.
    pub fn corrupt_rtt_ms<R: Rng + ?Sized>(&self, ms: f64, rng: &mut R) -> f64 {
        if self.corrupt_chance <= 0.0 || !sampling::coin(rng, self.corrupt_chance) {
            return ms;
        }
        let which = rng.random_range(0.0..3.0);
        if which < 1.0 {
            f64::NAN
        } else if which < 2.0 {
            ms * rng.random_range(5.0..50.0)
        } else {
            ms * rng.random_range(0.0..0.2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrng::rngs::StdRng;
    use simrng::SeedableRng;

    #[test]
    fn default_is_faultless() {
        let f = FaultPlan::default();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(!f.drops_packet(&mut rng));
        assert_eq!(f.added_delay_ms(0, &mut rng), 0.0);
        assert!(!f.forges_synack(0));
        assert!(!f.drops_on_link(0, &mut rng));
        assert!(!f.is_down(0, SimTime::ZERO));
        assert!(!f.rate_limited(0, SimTime::ZERO));
        assert_eq!(f.corrupt_rtt_ms(12.0, &mut rng), 12.0);
    }

    #[test]
    fn drop_chance_statistics() {
        let mut f = FaultPlan::default();
        f.set_drop_chance(0.25);
        let mut rng = StdRng::seed_from_u64(2);
        let drops = (0..10_000).filter(|_| f.drops_packet(&mut rng)).count();
        assert!((2200..2800).contains(&drops), "drops {drops}");
    }

    #[test]
    fn added_delay_is_nonnegative() {
        let mut f = FaultPlan::default();
        f.set_added_delay(3, 2.0, 5.0);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            assert!(f.added_delay_ms(3, &mut rng) >= 0.0);
        }
        assert_eq!(f.added_delay_ms(4, &mut rng), 0.0);
    }

    #[test]
    fn clamp_out_of_range_drop() {
        let mut f = FaultPlan::default();
        f.set_drop_chance(7.0);
        let mut rng = StdRng::seed_from_u64(4);
        assert!(f.drops_packet(&mut rng));
    }

    #[test]
    fn outage_windows_cover_their_interval() {
        let mut f = FaultPlan::default();
        let t = |ms| SimTime::ZERO + SimDuration::from_ms(ms);
        f.add_outage(5, t(10.0), t(20.0));
        assert!(!f.is_down(5, t(9.9)));
        assert!(f.is_down(5, t(10.0)));
        assert!(f.is_down(5, t(19.9)));
        assert!(!f.is_down(5, t(20.0)));
        assert!(!f.is_down(6, t(15.0)));
        f.add_permanent_outage(6, t(5.0));
        assert!(f.is_down(6, t(1e12)));
    }

    #[test]
    fn flapping_alternates_windows() {
        let mut f = FaultPlan::default();
        let t = |ms| SimTime::ZERO + SimDuration::from_ms(ms);
        // Down 10 ms, up 10 ms, three cycles, starting at t=0.
        f.add_flapping(
            1,
            SimTime::ZERO,
            SimDuration::from_ms(10.0),
            SimDuration::from_ms(10.0),
            3,
        );
        assert!(f.is_down(1, t(5.0)));
        assert!(!f.is_down(1, t(15.0)));
        assert!(f.is_down(1, t(25.0)));
        assert!(!f.is_down(1, t(35.0)));
        assert!(f.is_down(1, t(45.0)));
        assert!(!f.is_down(1, t(65.0))); // after the last cycle
    }

    #[test]
    fn link_loss_statistics() {
        let mut f = FaultPlan::default();
        f.set_link_loss(3, 0.5);
        let mut rng = StdRng::seed_from_u64(5);
        let drops = (0..10_000).filter(|_| f.drops_on_link(3, &mut rng)).count();
        assert!((4600..5400).contains(&drops), "drops {drops}");
        // Other links unaffected.
        assert!(!f.drops_on_link(4, &mut rng));
    }

    #[test]
    fn rate_limit_sliding_window() {
        let mut f = FaultPlan::default();
        f.set_rate_limit(9, 2, SimDuration::from_ms(100.0));
        let t = |ms| SimTime::ZERO + SimDuration::from_ms(ms);
        assert!(!f.rate_limited(9, t(0.0)));
        assert!(!f.rate_limited(9, t(10.0)));
        assert!(f.rate_limited(9, t(20.0)), "third reply in window");
        // Window slides: the t=0 slot expires at t=100.
        assert!(!f.rate_limited(9, t(105.0)));
        // Unlimited node never limited.
        for i in 0..100 {
            assert!(!f.rate_limited(8, t(i as f64)));
        }
    }

    #[test]
    fn corruption_produces_garbage_at_expected_rate() {
        let mut f = FaultPlan::default();
        f.set_corrupt_chance(0.5);
        let mut rng = StdRng::seed_from_u64(6);
        let mut corrupted = 0usize;
        let mut saw_nan = false;
        for _ in 0..4000 {
            let v = f.corrupt_rtt_ms(10.0, &mut rng);
            if v.to_bits() != (10.0f64).to_bits() {
                corrupted += 1;
                if v.is_nan() {
                    saw_nan = true;
                }
            }
        }
        assert!((1700..2300).contains(&corrupted), "corrupted {corrupted}");
        assert!(saw_nan, "NaN corruption never drawn");
    }

    #[test]
    fn zero_corrupt_chance_consumes_no_rng() {
        let f = FaultPlan::default();
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let _ = f.corrupt_rtt_ms(5.0, &mut a);
        // `a` must still agree with the untouched stream `b`.
        use simrng::RngExt;
        assert_eq!(a.random_range(0..u64::MAX), b.random_range(0..u64::MAX));
    }
}
