//! Proxy adaptation (§5.3, Figs. 12–13).
//!
//! A measurement *through* a proxy observes
//! `B = RTT(client↔proxy) + RTT(proxy↔landmark)`; to locate the proxy we
//! need `A = RTT(proxy↔landmark) = B − RTT(client↔proxy)`. Proxies won't
//! answer direct pings, so the client↔proxy leg is estimated from `C`,
//! the *tunnel self-ping* (a ping to the client's own tunnel address,
//! which crosses the tunnel twice): `A = B − η·C`, with η the robust
//! slope of direct-vs-indirect RTTs over the proxies that happen to be
//! pingable both ways — almost exactly ½ (Fig. 13).

use geokit::regress::{theil_sen, Line};
use netsim::{Network, NodeId};

/// The canonical η when no estimate is available: exactly half.
pub const DEFAULT_ETA: f64 = 0.5;

/// Estimated η (slope of direct RTT as a function of tunnel self-ping
/// RTT) plus fit quality.
#[derive(Debug, Clone, Copy)]
pub struct EtaEstimate {
    /// The fitted robust line (slope = η).
    pub line: Line,
    /// R² of the fit over the sample.
    pub r_squared: f64,
    /// Number of (indirect, direct) pairs used.
    pub samples: usize,
}

impl EtaEstimate {
    /// The η factor itself.
    pub fn eta(&self) -> f64 {
        self.line.slope
    }
}

/// Estimate η from the proxies that answer *both* a direct ping and a
/// tunnel self-ping, taking the minimum of `attempts` tries for each
/// quantity (§5.3 uses robust regression because a minority of tunnels
/// see pathological routing).
pub fn estimate_eta(
    network: &mut Network,
    client: NodeId,
    proxies: &[NodeId],
    attempts: usize,
) -> Option<EtaEstimate> {
    let mut pairs: Vec<(f64, f64)> = Vec::new();
    for &proxy in proxies {
        let direct = min_of(attempts, || network.ping(client, proxy).map(|d| d.as_ms()));
        let indirect = min_of(attempts, || {
            network
                .self_ping_via_proxy_rtt(client, proxy)
                .map(|d| d.as_ms())
        });
        if let (Some(d), Some(i)) = (direct, indirect) {
            pairs.push((i, d));
        }
    }
    let line = theil_sen(&pairs)?;
    let r2 = geokit::regress::r_squared(&pairs, |x| line.eval(x));
    Some(EtaEstimate {
        line,
        r_squared: r2,
        samples: pairs.len(),
    })
}

fn min_of<F: FnMut() -> Option<f64>>(attempts: usize, mut f: F) -> Option<f64> {
    let mut best: Option<f64> = None;
    for _ in 0..attempts {
        if let Some(v) = f() {
            best = Some(best.map_or(v, |b: f64| b.min(v)));
        }
    }
    best
}

/// Correct a through-proxy RTT to an estimated proxy↔landmark RTT:
/// `A = B − η·C`, floored at zero. A non-finite input stays non-finite
/// (`f64::max` would silently turn NaN into 0.0 — the tightest possible
/// constraint — so a corrupted reading must survive to be filtered
/// upstream, not be laundered into fake precision).
pub fn correct_indirect_rtt(measured_ms: f64, self_ping_ms: f64, eta: f64) -> f64 {
    correct_indirect_rtt_checked(measured_ms, self_ping_ms, eta).0
}

/// [`correct_indirect_rtt`] plus an *infeasibility flag*: true when the
/// subtraction went negative, i.e. the tunnel leg `η·C` claims to be
/// longer than the whole through-proxy path `B`. Physically impossible
/// for an honest proxy (light doesn't go backwards) — exactly what an
/// adversary inflating its self-ping produces — so the caller should
/// count it in `MeasurementDiagnostics::infeasible_readings` rather than
/// silently accept the clamped 0 ms (the tightest possible constraint).
pub fn correct_indirect_rtt_checked(measured_ms: f64, self_ping_ms: f64, eta: f64) -> (f64, bool) {
    let corrected = measured_ms - eta * self_ping_ms;
    if !corrected.is_finite() {
        return (f64::NAN, false);
    }
    (corrected.max(0.0), corrected < 0.0)
}

/// Everything needed to measure landmarks *through* one proxy: the
/// client, the proxy, its minimum self-ping, and the η in force.
#[derive(Debug, Clone, Copy)]
pub struct ProxyContext {
    /// Measurement client (the paper used one host in Frankfurt).
    pub client: NodeId,
    /// The proxy under investigation.
    pub proxy: NodeId,
    /// Minimum observed tunnel self-ping RTT, ms.
    pub self_ping_ms: f64,
    /// The η correction factor.
    pub eta: f64,
}

impl ProxyContext {
    /// Build a context by self-pinging the proxy `attempts` times.
    /// Returns `None` if the tunnel never answers.
    pub fn establish(
        network: &mut Network,
        client: NodeId,
        proxy: NodeId,
        eta: f64,
        attempts: usize,
    ) -> Option<ProxyContext> {
        let self_ping_ms = min_of(attempts, || {
            network
                .self_ping_via_proxy_rtt(client, proxy)
                .map(|d| d.as_ms())
        })?;
        Some(ProxyContext {
            client,
            proxy,
            self_ping_ms,
            eta,
        })
    }

    /// Measure one landmark through the tunnel on `port` (minimum of
    /// `attempts`), returning the corrected proxy↔landmark RTT estimate
    /// in ms and the infeasibility flag from
    /// [`correct_indirect_rtt_checked`] — true when the tunnel-leg
    /// subtraction went negative and the reading was clamped to zero.
    /// The reliability layer falls back to port 443 when port 80 gets no
    /// answer.
    pub fn measure_landmark_port_checked(
        &self,
        network: &mut Network,
        landmark: NodeId,
        port: u16,
        attempts: usize,
    ) -> Option<(f64, bool)> {
        let raw = min_of(attempts, || {
            network
                .tcp_connect_via_proxy_rtt(self.client, self.proxy, landmark, port)
                .map(|d| d.as_ms())
        })?;
        Some(correct_indirect_rtt_checked(
            raw,
            self.self_ping_ms,
            self.eta,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::topology::{plain_node, NodeKind, Topology};
    use netsim::FilterPolicy;

    /// client — A ——— B — {proxies, landmark}, with varying B-side spurs.
    fn net(n_proxies: usize) -> (Network, NodeId, Vec<NodeId>, NodeId) {
        let mut topo = Topology::new();
        let a = topo.add_node(plain_node(NodeKind::Ixp, geokit::GeoPoint::new(50.0, 8.0)));
        let b = topo.add_node(plain_node(NodeKind::Ixp, geokit::GeoPoint::new(48.0, 2.0)));
        topo.add_link(a, b, 4.0);
        let client = topo.add_node(plain_node(NodeKind::Host, geokit::GeoPoint::new(50.1, 8.7)));
        topo.add_link(client, a, 0.4);
        let mut proxies = Vec::new();
        for i in 0..n_proxies {
            let p = topo.add_node(plain_node(
                NodeKind::Host,
                geokit::GeoPoint::new(48.5 + 0.1 * i as f64, 2.2),
            ));
            topo.add_link(p, b, 0.3 + 0.25 * i as f64);
            proxies.push(p);
        }
        let lm = topo.add_node(plain_node(NodeKind::Host, geokit::GeoPoint::new(47.9, 1.9)));
        topo.add_link(lm, b, 0.2);
        (Network::new(topo, 77), client, proxies, lm)
    }

    #[test]
    fn eta_is_about_half() {
        let (mut network, client, proxies, _) = net(8);
        let est = estimate_eta(&mut network, client, &proxies, 12).unwrap();
        assert_eq!(est.samples, 8);
        assert!(
            (est.eta() - 0.5).abs() < 0.05,
            "η = {} (expected ≈ 0.5)",
            est.eta()
        );
        assert!(est.r_squared > 0.95, "R² = {}", est.r_squared);
    }

    #[test]
    fn eta_skips_unpingable_proxies() {
        let (mut network, client, proxies, _) = net(6);
        // Make half the proxies drop pings: they can't contribute pairs.
        for &p in proxies.iter().take(3) {
            network.topology_mut().node_mut(p).policy = FilterPolicy::vpn_server();
        }
        let est = estimate_eta(&mut network, client, &proxies, 10).unwrap();
        assert_eq!(est.samples, 3);
    }

    #[test]
    fn corrected_rtt_matches_direct_leg() {
        let (mut network, client, proxies, lm) = net(3);
        let proxy = proxies[0];
        let ctx = ProxyContext::establish(&mut network, client, proxy, 0.5, 20).unwrap();
        let (corrected, infeasible) = ctx
            .measure_landmark_port_checked(&mut network, lm, 80, 20)
            .unwrap();
        assert!(!infeasible);
        let direct_floor = network.floor_rtt_ms(proxy, lm).unwrap();
        assert!(
            (corrected - direct_floor).abs() < 2.0,
            "corrected {corrected} vs direct floor {direct_floor}"
        );
    }

    #[test]
    fn correction_never_goes_negative() {
        assert_eq!(correct_indirect_rtt(5.0, 100.0, 0.5), 0.0);
        assert_eq!(correct_indirect_rtt(30.0, 20.0, 0.5), 20.0);
    }

    #[test]
    fn checked_correction_flags_impossible_readings() {
        // Negative after subtraction: clamped to zero AND flagged.
        assert_eq!(correct_indirect_rtt_checked(5.0, 100.0, 0.5), (0.0, true));
        // Feasible: passed through, not flagged.
        assert_eq!(correct_indirect_rtt_checked(30.0, 20.0, 0.5), (20.0, false));
        // NaN survives unflagged — corrupted, not physically impossible;
        // the scheduler's sanitation discards it.
        let (ms, flag) = correct_indirect_rtt_checked(f64::NAN, 20.0, 0.5);
        assert!(ms.is_nan() && !flag);
    }

    #[test]
    fn context_fails_on_dead_tunnel() {
        let (mut network, client, proxies, _) = net(1);
        let p = proxies[0];
        // Unreachable proxy: detach by filtering everything is not
        // possible at this level, but a 100 % drop fault plan is.
        network.faults_mut().set_drop_chance(1.0);
        assert!(ProxyContext::establish(&mut network, client, p, 0.5, 3).is_none());
    }
}
