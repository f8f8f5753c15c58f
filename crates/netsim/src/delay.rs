//! The delay model: how long a packet takes to traverse links and routers.
//!
//! One-way delay along a path decomposes as
//!
//! ```text
//!   Σ_links  propagation (cable length / 200 km·ms⁻¹)      — deterministic
//! + Σ_links  serialization / per-hop processing             — small, fixed
//! + Σ_nodes  queueing draw × node congestion factor         — stochastic
//! + endpoint stack latency                                  — small
//! ```
//!
//! The queueing draw is lognormal (usually tens of microseconds) with a
//! rare Pareto spike (congestion events, bufferbloat). This produces
//! exactly the scatter shape the geolocation algorithms calibrate against
//! (paper Fig. 2): a hard linear floor set by propagation, a dense band
//! just above it, and a long upper tail — and it makes *minimum*-of-many
//! measurements approach the floor, which is what CBG's bestline exploits.
//!
//! A queueing draw is two steps: its uniforms, then their transform.
//! The probe walk and the closed-form sampler share both. The sampler's
//! minimum of many round trips also reads each draw's uniforms as
//! integers first (`QueueBins`) and bounds the draw from both sides
//! through certified tables (`QueueBounds`), so that it transforms only
//! the round trips that can set the minimum.

use crate::topology::Topology;
use crate::{LinkId, NodeId};
use geokit::sampling;
use simrng::{Rng, RngExt};
use std::f64::consts::PI;

/// Tunable parameters of the delay model.
#[derive(Debug, Clone)]
pub struct DelayModel {
    /// Per-hop serialization + processing, ms.
    pub per_hop_fixed_ms: f64,
    /// Lognormal queueing: log-mean (of ms).
    pub queue_mu_log: f64,
    /// Lognormal queueing: log-std.
    pub queue_sigma_log: f64,
    /// Probability of a congestion spike per node visit.
    pub spike_probability: f64,
    /// Pareto scale (minimum) of a spike, ms.
    pub spike_scale_ms: f64,
    /// Pareto shape of a spike (smaller = heavier tail).
    pub spike_shape: f64,
    /// Endpoint network-stack latency per endpoint, ms.
    pub endpoint_ms: f64,
    /// VPN forwarding overhead: lognormal log-mean of the extra
    /// processing a proxy adds per tunnelled packet it handles, ms
    /// (encryption, user-space forwarding — §5.3's "extra noise and
    /// queueing delays" for through-proxy measurements).
    pub vpn_forward_mu_log: f64,
    /// VPN forwarding overhead: lognormal log-std.
    pub vpn_forward_sigma_log: f64,
}

impl Default for DelayModel {
    fn default() -> Self {
        DelayModel {
            per_hop_fixed_ms: 0.05,
            // exp(-2.6) ≈ 0.074 ms median per-hop queueing.
            queue_mu_log: -2.6,
            queue_sigma_log: 1.0,
            spike_probability: 0.02,
            spike_scale_ms: 3.0,
            spike_shape: 1.6,
            endpoint_ms: 0.15,
            // exp(-1.0) ≈ 0.37 ms median per tunnelled packet.
            vpn_forward_mu_log: -1.0,
            vpn_forward_sigma_log: 0.6,
        }
    }
}

impl DelayModel {
    /// One VPN-forwarding overhead draw, in ms.
    pub fn vpn_forward_draw_ms<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        sampling::lognormal(rng, self.vpn_forward_mu_log, self.vpn_forward_sigma_log)
    }

    /// One queueing draw at a node with the given congestion factor, in
    /// ms: a lognormal base plus, now and then, a Pareto spike, scaled by
    /// the congestion factor.
    pub fn queue_draw_ms<R: Rng + ?Sized>(&self, congestion: f64, rng: &mut R) -> f64 {
        self.queue_transform_ms(congestion, self.queue_uniforms(congestion, rng))
    }

    /// The uniforms of one queueing draw, taken from the RNG in the
    /// draw's order: `u1` (again until non-zero), `u2`, the spike coin
    /// (probability `spike_probability × min(congestion, 3)`), and the
    /// Pareto uniform (again until non-zero) when the coin lands.
    #[inline]
    pub(crate) fn queue_uniforms<R: Rng + ?Sized>(
        &self,
        congestion: f64,
        rng: &mut R,
    ) -> QueueUniforms {
        let u1 = open_unit(rng);
        let u2 = rng.random();
        let p = self.spike_chance(congestion);
        let spike = (rng.random::<f64>() < p).then(|| open_unit(rng));
        QueueUniforms { u1, u2, spike }
    }

    /// The spike coin's probability at a node with the given congestion
    /// factor.
    #[inline]
    fn spike_chance(&self, congestion: f64) -> f64 {
        (self.spike_probability * congestion.min(3.0)).clamp(0.0, 1.0)
    }

    /// The spike coin as an integer test: the coin lands on the uniform
    /// `k·2⁻⁵³` exactly when `k` is below this. `k·2⁻⁵³ < p` is
    /// `k < p·2⁵³` (scaling by a power of two is exact), which for an
    /// integer `k` is `k < ⌈p·2⁵³⌉`; a NaN `p` lands no coin either way.
    pub(crate) fn spike_threshold(&self, congestion: f64) -> u64 {
        (self.spike_chance(congestion) * UNIT_SCALE).ceil() as u64
    }

    /// The queueing delay, in ms, that `u` gives at a node with the given
    /// congestion factor: Box–Muller and `exp` for the lognormal base,
    /// the inverse CDF for a spike (the arithmetic of
    /// `geokit::sampling`'s `lognormal` and `pareto`).
    #[inline]
    pub(crate) fn queue_transform_ms(&self, congestion: f64, u: QueueUniforms) -> f64 {
        let sigma = self.queue_sigma_log;
        assert!(
            sigma >= 0.0,
            "normal sigma must be non-negative, got {sigma}"
        );
        let base = (self.queue_mu_log + sigma * (radius(u.u1) * unit_cos(u.u2))).exp();
        let spike = match u.spike {
            Some(v) => {
                let (scale, shape) = (self.spike_scale_ms, self.spike_shape);
                assert!(scale > 0.0, "pareto scale must be positive, got {scale}");
                assert!(shape > 0.0, "pareto shape must be positive, got {shape}");
                scale / v.powf(1.0 / shape)
            }
            None => 0.0,
        };
        (base + spike) * congestion
    }

    /// Stochastic one-way delay along a routed path, in ms. Queueing is
    /// drawn at every *intermediate* node (routers forward; endpoints pay
    /// the stack cost instead).
    pub fn one_way_ms<R: Rng + ?Sized>(&self, path: &PathDelays, rng: &mut R) -> f64 {
        let mut total = path.propagation_ms
            + self.per_hop_fixed_ms * path.hops.len() as f64
            + 2.0 * self.endpoint_ms;
        for hop in path.hops.iter().skip(1) {
            total += self.queue_draw_ms(hop.congestion, rng);
        }
        total
    }

    /// The hard floor of the one-way delay for a path: propagation +
    /// fixed overheads, no queueing. No measurement can beat this.
    pub fn floor_one_way_ms(&self, path: &PathDelays) -> f64 {
        path.propagation_ms
            + self.per_hop_fixed_ms * path.hops.len() as f64
            + 2.0 * self.endpoint_ms
    }
}

/// A uniform in (0, 1), drawn as `geokit::sampling` draws one: again
/// until it is non-zero.
#[inline]
fn open_unit<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.random();
        if u > 0.0 {
            return u;
        }
    }
}

/// Box–Muller's radius `sqrt(−2 ln u1)`.
#[inline]
fn radius(u1: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt()
}

/// Box–Muller's angle term `cos(2π u2)`.
#[inline]
fn unit_cos(u2: f64) -> f64 {
    (2.0 * PI * u2).cos()
}

/// The uniforms one queueing draw consumes (see
/// [`DelayModel::queue_uniforms`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueueUniforms {
    /// Box–Muller's first uniform, in (0, 1).
    pub u1: f64,
    /// Box–Muller's second uniform, in [0, 1).
    pub u2: f64,
    /// The Pareto uniform, in (0, 1), when the spike coin landed.
    pub spike: Option<f64>,
}

/// `2⁵³`: the RNG's float uniforms are `k·2⁻⁵³` for the 53-bit integer
/// `k = next_u64() >> 11`.
const UNIT_SCALE: f64 = (1u64 << 53) as f64;

/// The 53-bit integer `k` of the next uniform `k·2⁻⁵³` the RNG yields.
#[inline]
fn unit_bits<R: Rng + ?Sized>(rng: &mut R) -> u64 {
    rng.next_u64() >> 11
}

/// [`open_unit`] as an integer: again until it is non-zero.
#[inline]
fn open_unit_bits<R: Rng + ?Sized>(rng: &mut R) -> u64 {
    loop {
        let k = unit_bits(rng);
        if k != 0 {
            return k;
        }
    }
}

/// What the bounds of one queueing draw read of its uniforms: the `u1`
/// and `u2` bins and whether the spike coin landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct QueueBins {
    /// The `u1` bin, an index into [`QueueBounds`]' radius table.
    pub radius: usize,
    /// The `u2` bin, an index into its cosine table.
    pub cos: usize,
    /// Whether the spike coin landed.
    pub spike: bool,
}

impl QueueBins {
    /// Take one queueing draw from the RNG as
    /// [`DelayModel::queue_uniforms`] does, reading each uniform as its
    /// integer `k` and converting none to a float: `u1`'s bin from `k`'s
    /// leading zeros and next six bits, `u2`'s from `k >> 44`, the coin
    /// as `k < spike_below` (see [`DelayModel::spike_threshold`]).
    /// `open_unit`'s test `u > 0` is `k ≠ 0`, so the RNG ends where the
    /// float draw leaves it.
    #[inline]
    pub(crate) fn draw<R: Rng + ?Sized>(rng: &mut R, spike_below: u64) -> QueueBins {
        let radius = radius_bin(open_unit_bits(rng));
        // `u2·512 = k·2⁻⁴⁴` is exact, so its floor is `k >> 44`.
        let cos = (unit_bits(rng) >> 44) as usize;
        let spike = unit_bits(rng) < spike_below;
        if spike {
            open_unit_bits(rng);
        }
        QueueBins { radius, cos, spike }
    }
}

/// The bin of `u1 = k·2⁻⁵³` (`k ≠ 0`): bin `i` holds the `u1` whose
/// exponent and top six mantissa bits, `u1.to_bits() >> 46`, are
/// `RADIUS_TOP_KEY − i`. `k`'s leading one sits `lz − 11` octaves below
/// ½ and the mantissa's top bits are `k`'s next six, so that key is
/// `RADIUS_TOP_KEY − ((lz − 11)·64 + 63 − top)`.
#[inline]
fn radius_bin(k: u64) -> usize {
    let lz = k.leading_zeros() as usize;
    let top = ((k << lz) >> 57) as usize & 63;
    ((lz - 11) * 64 + 63 - top).min(RADIUS_BINS - 1)
}

/// `u1` bins: 64 per octave over the 20 octaves below 1, then one bin
/// for everything below 2⁻²⁰.
const RADIUS_BINS: usize = 20 * 64 + 1;
/// `u1.to_bits() >> 46` (the exponent and top six mantissa bits) of the
/// highest bin, `[1 − 2⁻⁷, 1)`. Bin `i` holds the key `RADIUS_TOP_KEY − i`.
const RADIUS_TOP_KEY: u64 = (1022 << 6) | 63;
/// The least uniform `open_unit` yields: the RNG's floats are multiples
/// of 2⁻⁵³.
const LEAST_UNIFORM: f64 = 1.0 / UNIT_SCALE;
/// `u2` bins, each `1/512` wide.
const COS_BINS: usize = 512;
/// Steps of the `exp` tables per unit of `z`.
const EXP_STEPS: f64 = 128.0;
/// The `exp` tables' index of `z = 0`, before [`INDEX_SLACK`]. It puts
/// the tables' first step below the least `z` bound, `−r(2⁻⁵³) ≈ −8.572`.
const EXP_ZERO: usize = 1100;
/// `exp` table entries: `z` from about −8.59 to 8.59, above the greatest
/// `z` bound, `r(2⁻⁵³)`.
const EXP_LEN: usize = 2 * EXP_ZERO;
/// How far, in steps, each `exp` table entry sits outside its grid
/// point. The index `(z·128 + EXP_ZERO) as u32` rounds the sum to
/// nearest first, which can move it by at most 2⁻⁴² either way (the sum
/// stays below 4096), so entry `k` of the lower table must cover
/// `z ≥ (k − EXP_ZERO − 2⁻⁴²) / 128`, and of the upper table
/// `z < (k + 1 − EXP_ZERO + 2⁻⁴²) / 128`.
const INDEX_SLACK: f64 = 1.0 / (1u64 << 23) as f64;
/// Outward rounding of every table entry, relative (absolute for the
/// cosine, which is at most 1). `ln`, `sqrt`, `cos` and `exp` are each
/// within 1 ulp (2⁻⁵² relative) of the true function, so an entry
/// evaluated at its bin's worst corner is within a few ulps of every
/// value the same call yields inside the bin; 2⁻⁴⁰ is 4096 ulps.
const MARGIN: f64 = 1.0 / (1u64 << 40) as f64;

/// Certified bounds on queueing draws, read from their bins alone.
/// Built from one [`DelayModel`]'s parameters;
/// [`fits`](QueueBounds::fits) tells whether a model still has them.
///
/// For uniforms `u` with bins `b` and congestion `c` finite and `≥ 0`,
/// `hop_ms(c, b) ≤ model.queue_transform_ms(c, u) ≤ hop_max_ms(c, b)`
/// bit for bit:
/// - `r = sqrt(−2 ln u1)` lies in its `u1` bin's `[rmin, rmax]`, and
///   `cos(2π u2)` in its `u2` bin's `[cmin, cmax]`, each end the same
///   libm call at the bin's worst corner, rounded outward by [`MARGIN`];
/// - so `z = r·cos` is at least `rmin·cmin` when `cmin ≥ 0` and
///   `rmax·cmin` otherwise, and at most `rmax·cmax` when `cmax ≥ 0` and
///   `rmin·cmax` otherwise (floating-point products are monotone);
/// - `exp(μ + σz)` (σ ≥ 0) is at least the lower `exp` table's entry at
///   the grid point below the least `z`, rounded down by [`MARGIN`] (or
///   0 where it would be subnormal), and at most the upper table's entry
///   at the grid point above the greatest `z`, rounded up by [`MARGIN`]
///   (or `2·f64::MIN_POSITIVE` where it would be subnormal);
/// - a spike, `scale / v^(1/shape)` with `v^(1/shape) ≤ 1`, adds at
///   least `spike_scale_ms` and has no finite upper bound;
/// - the sum and the product by `c` are monotone.
#[derive(Debug)]
pub(crate) struct QueueBounds {
    /// The bits of `(μ, σ, spike scale, spike shape)` it was built from.
    params: [u64; 4],
    /// Per `u1` bin: `[rmin, rmax]`, picked by the sign of the cosine
    /// bound.
    radius: Box<[[f64; 2]; RADIUS_BINS]>,
    /// Per `u2` bin: `[cmin, cmax]`.
    cos: Box<[[f64; 2]; COS_BINS]>,
    /// Entry `k`: a lower bound on `exp(μ + σz)` for every
    /// `z ≥ (k − EXP_ZERO − INDEX_SLACK) / 128`.
    exp_min: Box<[f64; EXP_LEN]>,
    /// Entry `k`: an upper bound on `exp(μ + σz)` for every
    /// `z < (k + 1 − EXP_ZERO + INDEX_SLACK) / 128`; the last is +∞, so
    /// an index clamped to it still bounds.
    exp_max: Box<[f64; EXP_LEN]>,
    /// What a spike adds at least: `spike_scale_ms`, or NaN (a bound
    /// that never settles a round trip) when the Pareto parameters are
    /// ones `queue_transform_ms` rejects.
    spike_min: f64,
}

impl QueueBounds {
    /// Build the tables for `model`.
    pub(crate) fn new(model: &DelayModel) -> QueueBounds {
        let radii = (0..RADIUS_BINS).map(|i| {
            let (lo, hi) = radius_bin_edges(i);
            [radius(hi) * (1.0 - MARGIN), radius(lo) * (1.0 + MARGIN)]
        });
        // cos(2πu2) falls to u2 = ½, a bin edge, and rises after it, so
        // its least and greatest values in a bin are at the bin's edges.
        let cosines = (0..COS_BINS).map(|j| {
            let lo = unit_cos(j as f64 / COS_BINS as f64);
            let hi = unit_cos((j + 1) as f64 / COS_BINS as f64);
            [lo.min(hi) - MARGIN, lo.max(hi) + MARGIN]
        });
        let (mu, sigma) = (model.queue_mu_log, model.queue_sigma_log);
        // The tables lean on μ + σz rising with z; when it does not, they
        // hold NaN, a bound that never settles a round trip.
        let rising = sigma >= 0.0;
        let exp_at = |z: f64| (mu + sigma * z).exp();
        let exps_below = (0..EXP_LEN).map(|k| {
            let e = exp_at(exp_grid(k, -INDEX_SLACK)) * (1.0 - MARGIN);
            // Below the normal range `exp` is accurate only in absolute
            // terms, so the bound drops to 0 there.
            if !rising {
                f64::NAN
            } else if e < f64::MIN_POSITIVE {
                0.0
            } else {
                e
            }
        });
        let exps_above = (0..EXP_LEN).map(|k| {
            let e = exp_at(exp_grid(k + 1, INDEX_SLACK)) * (1.0 + MARGIN);
            // And rises to just above every subnormal there.
            if !rising {
                f64::NAN
            } else if k == EXP_LEN - 1 {
                f64::INFINITY
            } else if e < 2.0 * f64::MIN_POSITIVE {
                2.0 * f64::MIN_POSITIVE
            } else {
                e
            }
        });
        let (scale, shape) = (model.spike_scale_ms, model.spike_shape);
        QueueBounds {
            params: QueueBounds::key(model),
            radius: boxed(radii),
            cos: boxed(cosines),
            exp_min: boxed(exps_below),
            exp_max: boxed(exps_above),
            spike_min: if scale > 0.0 && shape > 0.0 {
                scale
            } else {
                f64::NAN
            },
        }
    }

    fn key(model: &DelayModel) -> [u64; 4] {
        [
            model.queue_mu_log.to_bits(),
            model.queue_sigma_log.to_bits(),
            model.spike_scale_ms.to_bits(),
            model.spike_shape.to_bits(),
        ]
    }

    /// True when these tables were built from `model`'s parameters.
    pub(crate) fn fits(&self, model: &DelayModel) -> bool {
        self.params == QueueBounds::key(model)
    }

    /// A lower bound on the queueing delay of a draw with bins `b` at a
    /// node with congestion factor `congestion` (finite and ≥ 0),
    /// without a transcendental function.
    #[inline]
    pub(crate) fn hop_ms(&self, congestion: f64, b: QueueBins) -> f64 {
        // Both bins are in range; the mask and the `min` only spare the
        // bounds checks.
        let c = self.cos[b.cos & (COS_BINS - 1)][0];
        // rmin when cmin ≥ 0, rmax when it is negative: by the sign bit,
        // not a branch, which would go either way half the time.
        let z = self.radius[b.radius.min(RADIUS_BINS - 1)][usize::from(c.is_sign_negative())] * c;
        let spike = if b.spike { self.spike_min } else { 0.0 };
        (self.exp_min[exp_step(z)] + spike) * congestion
    }

    /// An upper bound on the same delay: +∞ when the spike coin landed.
    #[inline]
    pub(crate) fn hop_max_ms(&self, congestion: f64, b: QueueBins) -> f64 {
        if b.spike {
            return f64::INFINITY;
        }
        let c = self.cos[b.cos & (COS_BINS - 1)][1];
        // rmax when cmax ≥ 0, rmin when it is negative.
        let z = self.radius[b.radius.min(RADIUS_BINS - 1)][usize::from(!c.is_sign_negative())] * c;
        self.exp_max[exp_step(z)] * congestion
    }
}

/// The `exp` tables' entry for a `z` bound: the lower table's entry
/// there covers `z` from below, the upper table's from above (see
/// [`INDEX_SLACK`]).
#[inline]
fn exp_step(z: f64) -> usize {
    ((z * EXP_STEPS + EXP_ZERO as f64) as u32 as usize).min(EXP_LEN - 1)
}

/// The `z` of grid point `k`, moved by `slack` steps.
fn exp_grid(k: usize, slack: f64) -> f64 {
    (k as f64 - EXP_ZERO as f64 + slack) / EXP_STEPS
}

/// The `[lo, hi)` range of `u1` bin `i`; the lowest bin starts at the
/// least uniform the RNG yields.
fn radius_bin_edges(i: usize) -> (f64, f64) {
    let key = RADIUS_TOP_KEY - i as u64;
    let hi = f64::from_bits((key + 1) << 46);
    if i == RADIUS_BINS - 1 {
        (LEAST_UNIFORM, hi)
    } else {
        (f64::from_bits(key << 46), hi)
    }
}

/// Collect exactly `N` values into a boxed array.
fn boxed<T: std::fmt::Debug, const N: usize>(values: impl Iterator<Item = T>) -> Box<[T; N]> {
    let v: Vec<T> = values.collect();
    v.into_boxed_slice().try_into().expect("table length")
}

/// One hop of a routed path: a node and the link it sends the packet on,
/// with the delay facts of both fixed when the route is built.
#[derive(Debug, Clone, Copy)]
pub struct Hop {
    /// The sending node: the path's source, then each router it crosses.
    pub node: NodeId,
    /// The link to the next node (the first of the node's links that
    /// leads there, in adjacency order).
    pub link: LinkId,
    /// That link's one-way propagation delay, ms.
    pub propagation_ms: f64,
    /// The node's queueing scale factor (`Node::congestion`).
    pub congestion: f64,
}

/// A routed path with its delay facts resolved: what the probe walk
/// crosses hop by hop and what the closed-form sampler sums.
#[derive(Debug, Clone)]
pub struct PathDelays {
    /// The source.
    pub src: NodeId,
    /// The destination.
    pub dst: NodeId,
    /// One hop per link traversed, from the source; empty for the path
    /// from a node to itself.
    pub hops: Vec<Hop>,
    /// Sum of link propagation delays, ms (one way), added in path order.
    pub propagation_ms: f64,
}

impl PathDelays {
    /// Build from an explicit node path using the topology's links, each
    /// found by scanning the sender's adjacency for the first link to the
    /// next node. The router builds its routes without the scan
    /// (`Router::route`); this is the reference its hops are checked
    /// against.
    ///
    /// # Panics
    /// Panics if the path is empty or consecutive path nodes are not
    /// adjacent.
    pub fn from_node_path(topo: &Topology, path: &[NodeId]) -> PathDelays {
        let (&src, &dst) = path.first().zip(path.last()).expect("path needs a node");
        let mut propagation_ms = 0.0;
        let hops = path
            .windows(2)
            .map(|w| {
                let link = topo
                    .neighbours(w[0])
                    .iter()
                    .find(|&&(_, n)| n == w[1])
                    .map(|&(l, _)| l)
                    .unwrap_or_else(|| panic!("no link {} → {}", w[0], w[1]));
                let hop = Hop {
                    node: w[0],
                    link,
                    propagation_ms: topo.link(link).propagation_ms,
                    congestion: topo.node(w[0]).congestion,
                };
                propagation_ms += hop.propagation_ms;
                hop
            })
            .collect();
        PathDelays {
            src,
            dst,
            hops,
            propagation_ms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{plain_node, NodeKind};
    use geokit::GeoPoint;
    use simrng::prop::prelude::*;
    use simrng::rngs::StdRng;
    use simrng::SeedableRng;

    fn line_topology() -> (Topology, Vec<NodeId>) {
        let mut t = Topology::new();
        let ids: Vec<NodeId> = (0..4)
            .map(|i| {
                t.add_node(plain_node(
                    NodeKind::Ixp,
                    GeoPoint::new(0.0, f64::from(i) * 5.0),
                ))
            })
            .collect();
        for w in ids.windows(2) {
            t.add_link(w[0], w[1], 3.0);
        }
        (t, ids)
    }

    #[test]
    fn path_delays_accumulate() {
        let (t, ids) = line_topology();
        let p = PathDelays::from_node_path(&t, &ids);
        assert_eq!((p.src, p.dst), (ids[0], ids[3]));
        assert_eq!(p.hops.len(), 3);
        assert_eq!(p.propagation_ms, 9.0);
        let senders: Vec<NodeId> = p.hops.iter().map(|h| h.node).collect();
        assert_eq!(senders, ids[..3]);
        assert_eq!(p.hops[1].link, 1);
        assert_eq!(p.hops[1].congestion, 1.0);
    }

    #[test]
    fn one_way_never_beats_floor() {
        let (t, ids) = line_topology();
        let p = PathDelays::from_node_path(&t, &ids);
        let m = DelayModel::default();
        let floor = m.floor_one_way_ms(&p);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..5000 {
            let d = m.one_way_ms(&p, &mut rng);
            assert!(d >= floor, "{d} < floor {floor}");
        }
    }

    #[test]
    fn min_of_many_approaches_floor() {
        let (t, ids) = line_topology();
        let p = PathDelays::from_node_path(&t, &ids);
        let m = DelayModel::default();
        let floor = m.floor_one_way_ms(&p);
        let mut rng = StdRng::seed_from_u64(2);
        let min = (0..2000)
            .map(|_| m.one_way_ms(&p, &mut rng))
            .fold(f64::INFINITY, f64::min);
        // Two intermediate routers at median ~0.07 ms each: the min of
        // 2000 draws should sit within a few hundred µs of the floor.
        assert!(min - floor < 0.3, "min {min} vs floor {floor}");
    }

    #[test]
    fn delay_has_heavy_upper_tail() {
        let (t, ids) = line_topology();
        let p = PathDelays::from_node_path(&t, &ids);
        let m = DelayModel::default();
        let mut rng = StdRng::seed_from_u64(3);
        let samples: Vec<f64> = (0..20_000).map(|_| m.one_way_ms(&p, &mut rng)).collect();
        let med = geokit::stats::median(&samples).unwrap();
        let p999 = geokit::stats::Ecdf::new(samples).quantile(0.999).unwrap();
        // The 99.9th percentile should be far above the median — the
        // congestion-spike regime.
        assert!(p999 > med + 4.0, "p999 {p999} vs median {med}");
    }

    /// `x` and its neighbours up to two ulps away.
    fn around(x: f64) -> impl Iterator<Item = f64> {
        let b = x.to_bits();
        [b.wrapping_sub(2), b.wrapping_sub(1), b, b + 1, b + 2]
            .into_iter()
            .map(f64::from_bits)
    }

    /// Every `u1` bin's edges ±2 ulps, from the least uniform the RNG
    /// yields, 2⁻⁵³, up to 1.
    fn edge_u1s() -> Vec<f64> {
        (0..RADIUS_BINS)
            .flat_map(|i| {
                let (lo, hi) = radius_bin_edges(i);
                around(lo).chain(around(hi))
            })
            .filter(|&u| (LEAST_UNIFORM..1.0).contains(&u))
            .collect()
    }

    /// Every `u2` bin's edges ±2 ulps; ¼, ½ and ¾, where the cosine
    /// crosses zero or bottoms out, are edges.
    fn edge_u2s() -> Vec<f64> {
        (0..=COS_BINS)
            .flat_map(|j| around(j as f64 / COS_BINS as f64))
            .filter(|&u| (0.0..1.0).contains(&u))
            .collect()
    }

    /// The bins of float uniforms, read from the floats' bits: the
    /// reference for [`QueueBins::draw`]'s integer reading.
    fn float_bins(u: &QueueUniforms) -> QueueBins {
        QueueBins {
            radius: (RADIUS_TOP_KEY.saturating_sub(u.u1.to_bits() >> 46) as usize)
                .min(RADIUS_BINS - 1),
            cos: (u.u2 * COS_BINS as f64) as u32 as usize & (COS_BINS - 1),
            spike: u.spike.is_some(),
        }
    }

    /// `hop_ms ≤ queue_transform_ms ≤ hop_max_ms`, bit for bit.
    fn assert_brackets(
        bounds: &QueueBounds,
        model: &DelayModel,
        congestion: f64,
        u: QueueUniforms,
    ) {
        let bins = float_bins(&u);
        let lower = bounds.hop_ms(congestion, bins);
        let exact = model.queue_transform_ms(congestion, u);
        let upper = bounds.hop_max_ms(congestion, bins);
        assert!(
            lower <= exact && exact <= upper,
            "{u:?} at {congestion}: {lower} ≤ {exact} ≤ {upper} fails"
        );
    }

    /// The models the bound tests cover: the default, a wider and slower
    /// lognormal with a small spike floor, σ = 0, and a spiky one.
    fn bound_models() -> [DelayModel; 4] {
        [
            DelayModel::default(),
            DelayModel {
                queue_mu_log: 0.5,
                queue_sigma_log: 2.0,
                spike_scale_ms: 0.25,
                ..DelayModel::default()
            },
            DelayModel {
                queue_sigma_log: 0.0,
                ..DelayModel::default()
            },
            DelayModel {
                spike_probability: 0.3,
                ..DelayModel::default()
            },
        ]
    }

    /// The lower tables never exceed the transform and the upper ones
    /// never fall below it, at every bin edge.
    #[test]
    fn table_bounds_never_exceed_the_transform() {
        let tail = 1.0 - f64::EPSILON / 2.0;
        let some_u1s = [LEAST_UNIFORM, 1e-9, 2f64.powi(-20), 0.3, 0.5, tail];
        let some_u2s = [0.0, 1e-12, 0.25, 0.2500001, 0.5, 0.7499999, 0.75, tail];
        let pairs: Vec<(f64, f64)> = edge_u1s()
            .into_iter()
            .flat_map(|u1| some_u2s.map(|u2| (u1, u2)))
            .chain(
                edge_u2s()
                    .into_iter()
                    .flat_map(|u2| some_u1s.map(|u1| (u1, u2))),
            )
            .collect();
        for model in &bound_models()[..3] {
            let bounds = QueueBounds::new(model);
            // The factors one by one: the radius and the cosine inside
            // their bins' ranges.
            for u1 in edge_u1s() {
                let [rmin, rmax] = bounds.radius[float_bins(&QueueUniforms {
                    u1,
                    u2: 0.0,
                    spike: None,
                })
                .radius];
                assert!(rmin <= radius(u1) && radius(u1) <= rmax, "u1 {u1:e}");
            }
            for u2 in edge_u2s() {
                let [cmin, cmax] = bounds.cos[(u2 * COS_BINS as f64) as usize];
                assert!(cmin <= unit_cos(u2) && unit_cos(u2) <= cmax, "u2 {u2}");
            }
            // And the whole hop.
            for &(u1, u2) in &pairs {
                for spike in [None, Some(LEAST_UNIFORM), Some(0.5), Some(tail)] {
                    for congestion in [0.0, -0.0, 0.5, 1.0, 2.2, 5.0] {
                        assert_brackets(
                            &bounds,
                            model,
                            congestion,
                            QueueUniforms { u1, u2, spike },
                        );
                    }
                }
            }
        }
    }

    // Random draws, and random draws with one uniform moved to an edge:
    // a bin edge, `u1 = 2⁻⁵³`, or `u2` just below 1.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn table_bounds_bracket_random_draws(
            seed in 0u64..u64::MAX,
            model in 0usize..4,
            congestion in 0usize..7,
            edge in 0usize..4096,
        ) {
            let model = &bound_models()[model];
            // Zero, the world's factors, and past the spike coin's cap of 3.
            let congestion = [0.0, 0.5, 1.0, 2.2, 3.0, 5.0, 40.0][congestion];
            let bounds = QueueBounds::new(model);
            let (u1s, u2s) = (edge_u1s(), edge_u2s());
            let mut rng = StdRng::seed_from_u64(seed);
            for i in 0..64 {
                let mut u = model.queue_uniforms(congestion, &mut rng);
                match i % 4 {
                    0 => {}
                    1 => u.u1 = u1s[(edge + i) % u1s.len()],
                    2 => u.u2 = u2s[(edge + i) % u2s.len()],
                    _ => (u.u1, u.u2) = (LEAST_UNIFORM, 1.0 - f64::EPSILON / 2.0),
                }
                let bins = float_bins(&u);
                let lower = bounds.hop_ms(congestion, bins);
                let exact = model.queue_transform_ms(congestion, u);
                let upper = bounds.hop_max_ms(congestion, bins);
                prop_assert!(lower <= exact, "{:?} at {}: {} > {}", u, congestion, lower, exact);
                prop_assert!(exact <= upper, "{:?} at {}: {} > {}", u, congestion, exact, upper);
            }
        }
    }

    #[test]
    fn exp_steps_never_pass_their_z() {
        // Around every grid point (zero from both sides) and half-step,
        // where rounding the index's sum could carry it to the next entry.
        for k in 1..EXP_LEN {
            let grid = (k as f64 - EXP_ZERO as f64) / EXP_STEPS;
            let zs = around(grid)
                .chain(around(-grid))
                .chain(around(grid - 0.5 / EXP_STEPS));
            for z in zs.filter(|z| z.is_finite()) {
                let step = exp_step(z);
                assert!(exp_grid(step, -INDEX_SLACK) <= z, "z {z:e}: entry {step}");
                assert!(z < exp_grid(step + 1, INDEX_SLACK), "z {z:e}: entry {step}");
            }
        }
    }

    /// An RNG that yields a script, then one non-zero value.
    struct Script(std::vec::IntoIter<u64>);

    impl Rng for Script {
        fn next_u64(&mut self) -> u64 {
            self.0.next().unwrap_or(0x9e37_79b9_7f4a_7c15)
        }
    }

    #[test]
    fn integer_bins_and_coin_equal_the_float_ones() {
        let unit = |k: u64| k as f64 / UNIT_SCALE;
        // The u1 bin over every exponent class of k·2⁻⁵³: each class's
        // least and greatest k, and its first and last k for each value
        // of the six bits after the leading one.
        for lz in 11..64 {
            let lead = 1u64 << (63 - lz);
            let mut ks = vec![lead, (lead << 1) - 1];
            if lead >= 64 {
                let step = lead >> 6;
                ks.extend((0..64).flat_map(|t| [lead + t * step, lead + (t + 1) * step - 1]));
            }
            for k in ks {
                let u = QueueUniforms {
                    u1: unit(k),
                    u2: unit(k),
                    spike: None,
                };
                assert_eq!(radius_bin(k), float_bins(&u).radius, "k {k}");
                assert_eq!((k >> 44) as usize, float_bins(&u).cos, "k {k}");
            }
        }
        // The coin at and beside its threshold, for probabilities with
        // and without an exact k, and NaN.
        for p in [
            0.0,
            1e-300,
            0.02,
            0.06,
            0.5,
            0.9,
            1.0 - f64::EPSILON,
            1.0,
            f64::NAN,
        ] {
            let model = DelayModel {
                spike_probability: p,
                ..DelayModel::default()
            };
            let below = model.spike_threshold(1.0);
            let ks = [
                0,
                1,
                below.saturating_sub(1),
                below,
                below + 1,
                (1 << 53) - 1,
            ];
            for k in ks.into_iter().filter(|&k| k < 1 << 53) {
                assert_eq!(k < below, unit(k) < p, "p {p}, k {k}");
            }
        }
        // Whole draws, integer against float, with the RNG left in the
        // same place: scripts with zero uniforms for `open_unit` to skip,
        // and a seeded stream.
        let zero = 0x7ff; // below 2¹¹: k = 0
        let script = vec![
            zero,
            u64::MAX,
            zero,
            0,
            1 << 11,
            1 << 63,
            5,
            zero,
            42 << 11,
            7,
        ];
        for congestion in [0.0, 1.0, 5.0, f64::NAN] {
            for model in bound_models() {
                let (mut ints, mut floats) = (
                    Script(script.clone().into_iter()),
                    Script(script.clone().into_iter()),
                );
                let below = model.spike_threshold(congestion);
                for _ in 0..3 {
                    let u = model.queue_uniforms(congestion, &mut floats);
                    assert_eq!(QueueBins::draw(&mut ints, below), float_bins(&u));
                    assert_eq!(ints.0.len(), floats.0.len());
                }
                let mut ints = StdRng::seed_from_u64(congestion.to_bits());
                let mut floats = ints.clone();
                for _ in 0..20_000 {
                    let u = model.queue_uniforms(congestion, &mut floats);
                    assert_eq!(
                        QueueBins::draw(&mut ints, below),
                        float_bins(&u),
                        "{model:?}"
                    );
                }
                assert_eq!(ints.next_u64(), floats.next_u64());
            }
        }
    }

    #[test]
    fn bounds_fit_only_the_model_they_were_built_from() {
        let model = DelayModel::default();
        let bounds = QueueBounds::new(&model);
        assert!(bounds.fits(&model));
        // Parameters the tables do not depend on leave them fit.
        let busier = DelayModel {
            spike_probability: 0.5,
            per_hop_fixed_ms: 1.0,
            ..DelayModel::default()
        };
        assert!(bounds.fits(&busier));
        for edited in [
            DelayModel {
                queue_mu_log: -2.5,
                ..DelayModel::default()
            },
            DelayModel {
                queue_sigma_log: 1.1,
                ..DelayModel::default()
            },
            DelayModel {
                spike_scale_ms: 2.0,
                ..DelayModel::default()
            },
            DelayModel {
                spike_shape: 1.5,
                ..DelayModel::default()
            },
        ] {
            assert!(!bounds.fits(&edited), "{edited:?}");
        }
    }

    #[test]
    fn congestion_scales_queueing() {
        let (mut t, ids) = line_topology();
        let m = DelayModel::default();
        let p = PathDelays::from_node_path(&t, &ids);
        let mut rng = StdRng::seed_from_u64(1);
        let calm: f64 = (0..4000).map(|_| m.one_way_ms(&p, &mut rng)).sum();
        for id in &ids {
            t.node_mut(*id).congestion = 5.0;
        }
        // A path's hops carry the congestion they were built with.
        let p = PathDelays::from_node_path(&t, &ids);
        let mut rng = StdRng::seed_from_u64(1);
        let congested: f64 = (0..4000).map(|_| m.one_way_ms(&p, &mut rng)).sum();
        assert!(congested > calm * 1.5, "congested {congested} calm {calm}");
    }
}
