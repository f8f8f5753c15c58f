//! The two measurement tools and their noise models (§4.2–§4.3).
//!
//! **CLI tool** — POSIX `connect()` to TCP port 80; returns as soon as the
//! second handshake packet (SYN-ACK *or* RST) arrives: exactly one round
//! trip, with negligible client-side overhead. Used for all proxy
//! measurements.
//!
//! **Web tool** — runs in a browser, so it can only issue `fetch()`es. It
//! requests `https://…:80/`, which fails after **one** round trip if the
//! landmark's port 80 is closed (RST) but after **two** if it is open
//! (SYN-ACK, then the TLS ClientHello triggers a protocol error on the
//! second round trip) — and the tool cannot know which it got (Fig. 7).
//! On Windows the measurements are much noisier and a browser-dependent
//! population of "high outliers" appears, hundreds of milliseconds to
//! seconds above anything distance can explain (Figs. 5–6). These
//! upward-biased errors are exactly why minimum-taking CBG survives
//! crowdsourced data better than Octant/Spotter (§5).

use geokit::sampling;
use netsim::{Network, NodeId};
use simrng::Rng;

/// One measured landmark RTT, as delivered to a geolocation algorithm.
#[derive(Debug, Clone, Copy)]
pub struct RttSample {
    /// The landmark's node.
    pub landmark: NodeId,
    /// The observed round-trip time, ms — possibly covering one *or* two
    /// actual round trips, possibly inflated by client-side noise.
    pub rtt_ms: f64,
    /// How many true round trips the sample covered (ground truth, not
    /// visible to the algorithms; used by the tool-validation figures).
    pub true_round_trips: u8,
}

/// The command-line measurement tool.
#[derive(Debug, Clone, Copy, Default)]
pub struct CliTool;

impl CliTool {
    /// Measure one TCP-connect RTT from `client` to `landmark`. `None`
    /// if filtered/unreachable (the CLI tool discards errors other than
    /// "connection refused", §4.2).
    pub fn measure(
        &self,
        network: &mut Network,
        client: NodeId,
        landmark: NodeId,
    ) -> Option<RttSample> {
        let rtt = network.tcp_connect_rtt(client, landmark, 80)?;
        Some(RttSample {
            landmark,
            rtt_ms: rtt.as_ms(),
            true_round_trips: 1,
        })
    }
}

/// Client operating system for the Web tool (§4.3: Windows measurements
/// are far noisier than Linux ones).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeasurementOs {
    /// Clean timings.
    Linux,
    /// Noisy timings plus browser-dependent high outliers.
    Windows,
}

/// Browser running the Web tool. The high-outlier magnitude is
/// browser-dependent (Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Browser {
    /// Chrome 68-era behaviour.
    Chrome,
    /// Firefox 52-era behaviour.
    FirefoxEsr,
    /// Firefox 61-era behaviour.
    Firefox,
    /// Edge 17-era behaviour.
    Edge,
}

impl Browser {
    /// All modelled browsers.
    pub const ALL: [Browser; 4] = [
        Browser::Chrome,
        Browser::FirefoxEsr,
        Browser::Firefox,
        Browser::Edge,
    ];

    /// (probability, mean ms, sd ms) of a Windows high-outlier event for
    /// this browser — values chosen to reproduce the Fig. 6 spread where
    /// outlier magnitude depends primarily on the browser.
    fn outlier_profile(self) -> (f64, f64, f64) {
        match self {
            Browser::Chrome => (0.05, 700.0, 150.0),
            Browser::FirefoxEsr => (0.08, 1500.0, 300.0),
            Browser::Firefox => (0.06, 1000.0, 200.0),
            Browser::Edge => (0.10, 2300.0, 400.0),
        }
    }

    /// Per-measurement jitter scale on Windows, ms.
    fn windows_jitter_ms(self) -> f64 {
        match self {
            Browser::Chrome => 12.0,
            Browser::FirefoxEsr => 18.0,
            Browser::Firefox => 15.0,
            Browser::Edge => 22.0,
        }
    }
}

/// The browser-based measurement tool.
#[derive(Debug, Clone, Copy)]
pub struct WebTool {
    /// Client OS.
    pub os: MeasurementOs,
    /// Browser in use.
    pub browser: Browser,
}

impl WebTool {
    /// Measure one fetch-failure time from `client` to `landmark`.
    ///
    /// Needs to know whether the landmark listens on port 80 to simulate
    /// the 1-vs-2-round-trip split — the *tool* doesn't get to see that
    /// bit (it is not in the returned sample's `rtt_ms`), but the figure
    /// harness does, via `true_round_trips`.
    pub fn measure<R: Rng + ?Sized>(
        &self,
        network: &mut Network,
        client: NodeId,
        landmark: NodeId,
        rng: &mut R,
    ) -> Option<RttSample> {
        let first = network.tcp_connect_rtt(client, landmark, 80)?;
        let port_80_open = network
            .topology()
            .node(landmark)
            .policy
            .open_tcp_ports
            .contains(&80);
        let (mut rtt_ms, round_trips) = if port_80_open {
            // SYN-ACK, then the ClientHello must travel out and the
            // error back: a second full round trip.
            let second = network.sample_rtt_ms(client, landmark)?;
            (first.as_ms() + second, 2u8)
        } else {
            (first.as_ms(), 1u8)
        };

        // Client-side overhead: small on Linux, substantial on Windows,
        // plus the Windows high-outlier population.
        match self.os {
            MeasurementOs::Linux => {
                rtt_ms += sampling::lognormal(rng, 0.3, 0.5); // ~1.3 ms typical
            }
            MeasurementOs::Windows => {
                rtt_ms += sampling::lognormal(rng, 1.8, 0.7); // ~6 ms typical
                rtt_ms += sampling::normal(rng, 0.0, self.browser.windows_jitter_ms()).abs();
                let (p, mean, sd) = self.browser.outlier_profile();
                if sampling::coin(rng, p) {
                    rtt_ms += sampling::normal(rng, mean, sd).max(100.0);
                }
            }
        }
        Some(RttSample {
            landmark,
            rtt_ms,
            true_round_trips: round_trips,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::topology::{plain_node, NodeKind, Topology};
    use netsim::FilterPolicy;
    use simrng::rngs::StdRng;
    use simrng::SeedableRng;

    /// client — IXP — two landmarks (one with port 80 open, one closed).
    fn net() -> (Network, NodeId, NodeId, NodeId) {
        let mut topo = Topology::new();
        let ixp = topo.add_node(plain_node(NodeKind::Ixp, geokit::GeoPoint::new(50.0, 8.0)));
        let client = topo.add_node(plain_node(NodeKind::Host, geokit::GeoPoint::new(50.1, 8.7)));
        let mut open = plain_node(NodeKind::Host, geokit::GeoPoint::new(48.0, 2.0));
        open.policy = FilterPolicy::landmark(true);
        let mut closed = plain_node(NodeKind::Host, geokit::GeoPoint::new(52.0, 13.0));
        closed.policy = FilterPolicy::landmark(false);
        let open = topo.add_node(open);
        let closed = topo.add_node(closed);
        topo.add_link(client, ixp, 0.4);
        topo.add_link(open, ixp, 3.2);
        topo.add_link(closed, ixp, 2.8);
        (Network::new(topo, 11), client, open, closed)
    }

    #[test]
    fn cli_measures_one_round_trip() {
        let (mut net, client, open, closed) = net();
        let a = CliTool.measure(&mut net, client, open).unwrap();
        let b = CliTool.measure(&mut net, client, closed).unwrap();
        assert_eq!(a.true_round_trips, 1);
        assert_eq!(b.true_round_trips, 1); // RST also measures one RTT
        let floor_open = net.floor_rtt_ms(client, open).unwrap();
        assert!(a.rtt_ms >= floor_open);
    }

    #[test]
    fn web_tool_round_trip_split() {
        let (mut net, client, open, closed) = net();
        let tool = WebTool {
            os: MeasurementOs::Linux,
            browser: Browser::Chrome,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let a = tool.measure(&mut net, client, open, &mut rng).unwrap();
        let b = tool.measure(&mut net, client, closed, &mut rng).unwrap();
        assert_eq!(a.true_round_trips, 2);
        assert_eq!(b.true_round_trips, 1);
    }

    #[test]
    fn two_round_trips_take_about_twice_as_long() {
        let (mut net, client, open, _) = net();
        let tool = WebTool {
            os: MeasurementOs::Linux,
            browser: Browser::Chrome,
        };
        let mut rng = StdRng::seed_from_u64(2);
        let cli_min = (0..30)
            .filter_map(|_| CliTool.measure(&mut net, client, open))
            .map(|s| s.rtt_ms)
            .fold(f64::INFINITY, f64::min);
        let web_min = (0..30)
            .filter_map(|_| tool.measure(&mut net, client, open, &mut rng))
            .map(|s| s.rtt_ms)
            .fold(f64::INFINITY, f64::min);
        let ratio = web_min / cli_min;
        assert!(
            (1.7..2.6).contains(&ratio),
            "web/cli ratio {ratio} (web {web_min}, cli {cli_min})"
        );
    }

    #[test]
    fn windows_is_noisier_than_linux() {
        let (mut net, client, open, _) = net();
        let mut rng = StdRng::seed_from_u64(3);
        let mut spread = |os| {
            let tool = WebTool {
                os,
                browser: Browser::Firefox,
            };
            let samples: Vec<f64> = (0..300)
                .filter_map(|_| tool.measure(&mut net, client, open, &mut rng))
                .map(|s| s.rtt_ms)
                .collect();
            geokit::stats::std_dev(&samples)
        };
        let linux = spread(MeasurementOs::Linux);
        let windows = spread(MeasurementOs::Windows);
        assert!(
            windows > 3.0 * linux,
            "windows sd {windows} vs linux sd {linux}"
        );
    }

    #[test]
    fn windows_high_outliers_exist_and_depend_on_browser() {
        let (mut net, client, open, _) = net();
        let mut rng = StdRng::seed_from_u64(4);
        let mut high = |browser: Browser| {
            let tool = WebTool {
                os: MeasurementOs::Windows,
                browser,
            };
            let samples: Vec<f64> = (0..800)
                .filter_map(|_| tool.measure(&mut net, client, open, &mut rng))
                .map(|s| s.rtt_ms)
                .collect();
            let outliers: Vec<f64> = samples.iter().copied().filter(|&v| v > 300.0).collect();
            assert!(
                !outliers.is_empty(),
                "{browser:?}: no high outliers in 800 samples"
            );
            geokit::stats::mean(&outliers)
        };
        let chrome = high(Browser::Chrome);
        let edge = high(Browser::Edge);
        assert!(
            edge > chrome + 500.0,
            "outlier magnitude should be browser-dependent: chrome {chrome}, edge {edge}"
        );
    }

    #[test]
    fn filtered_landmark_yields_none() {
        let (mut net, client, open, _) = net();
        net.topology_mut().node_mut(open).policy.filtered_tcp_ports = vec![80];
        assert!(CliTool.measure(&mut net, client, open).is_none());
        let tool = WebTool {
            os: MeasurementOs::Linux,
            browser: Browser::Chrome,
        };
        let mut rng = StdRng::seed_from_u64(5);
        assert!(tool.measure(&mut net, client, open, &mut rng).is_none());
    }
}
