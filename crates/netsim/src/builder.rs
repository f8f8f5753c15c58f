//! Build the world network from the world atlas.
//!
//! Topology recipe (all seeded, all deterministic):
//!
//! * one IXP (core router) per hub city of every country;
//! * domestic links: a country's IXPs star to its first hub;
//! * regional links: every IXP connects to its `k` nearest foreign IXPs;
//! * long-haul cables: a hand-picked set of world *major hubs* (Frankfurt,
//!   London, Ashburn, Singapore, Tokyo, São Paulo, …) are meshed with
//!   submarine/terrestrial trunks, and every country's primary IXP uplinks
//!   to its nearest major — this is what makes small-island paths detour
//!   through distant hubs, the effect the paper sees in its Fig. 23 tail
//!   ("neighboring countries or islands … not being connected directly,
//!   only through a more developed hub");
//! * every link's propagation delay is great-circle distance × a sampled
//!   circuitousness factor ÷ 200 km/ms, so no path can beat the fibre
//!   floor but typical effective speeds land near the ~90–100 km/ms the
//!   paper's CBG calibration measures;
//! * per-node congestion scales queueing by continent (heavier outside
//!   Europe/North America, §2's observation about China and similar
//!   regions).
//!
//! Hosts (landmarks, proxies, clients, volunteers) are attached afterwards
//! with [`WorldNet::attach_host`]: one access link to the nearest IXP.

use crate::network::Network;
use crate::policy::FilterPolicy;
use crate::topology::{Node, NodeKind, Topology};
use crate::NodeId;
use geokit::GeoPoint;
use simrng::rngs::StdRng;
use simrng::{RngExt, SeedableRng};
use std::sync::Arc;
use worldmap::{Continent, WorldAtlas};

/// How many nearest foreign IXPs each IXP peers with.
const KNN_LINKS: usize = 3;
/// Range of per-link circuitousness factors (cable length ÷ great-circle
/// distance).
const CIRCUITOUSNESS: std::ops::Range<f64> = 1.7..2.3;

/// Configuration for world-network construction.
#[derive(Debug, Clone)]
pub struct WorldNetConfig {
    /// Master seed: drives link circuitousness, congestion jitter, and the
    /// network's measurement RNG.
    pub seed: u64,
}

impl Default for WorldNetConfig {
    fn default() -> Self {
        WorldNetConfig { seed: 0x9e01 }
    }
}

/// Per-continent congestion multiplier (queueing scale). Europe and North
/// America run clean networks; other regions see heavier queueing — the
/// regime in which the paper finds simple delay models win (§2, §5).
fn continent_congestion(c: Continent) -> f64 {
    match c {
        Continent::Europe => 1.0,
        Continent::NorthAmerica => 1.05,
        Continent::Australia => 1.3,
        Continent::Asia => 2.2,
        Continent::Oceania => 2.0,
        Continent::SouthAmerica => 2.0,
        Continent::CentralAmerica => 1.8,
        Continent::Africa => 2.8,
    }
}

/// World major hubs: (country ISO, hub city) — meshed with trunk cables.
const MAJOR_HUBS: &[(&str, &str)] = &[
    ("de", "Frankfurt"),
    ("gb", "London"),
    ("nl", "Amsterdam"),
    ("fr", "Paris"),
    ("us", "Ashburn"),
    ("us", "San Jose"),
    ("us", "Miami"),
    ("br", "Sao Paulo"),
    ("za", "Johannesburg"),
    ("ae", "Dubai"),
    ("in", "Mumbai"),
    ("sg", "Singapore"),
    ("jp", "Tokyo"),
    ("hk", "Hong Kong"),
    ("au", "Sydney"),
    ("ru", "Moscow"),
];

/// The built world network plus its atlas bookkeeping.
pub struct WorldNet {
    network: Network,
    atlas: Arc<WorldAtlas>,
    /// All IXP node ids, in creation order.
    ixps: Vec<NodeId>,
    /// RNG for post-build attachment decisions (distinct stream from the
    /// network's measurement RNG).
    attach_rng: StdRng,
}

impl WorldNet {
    /// Build the world.
    pub fn build(atlas: Arc<WorldAtlas>, config: WorldNetConfig) -> WorldNet {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut topo = Topology::new();
        let mut ixps: Vec<NodeId> = Vec::new();
        let mut ixp_meta: Vec<(usize, usize)> = Vec::new();

        // 1. IXPs at every hub.
        for (cid, country) in atlas.countries().iter().enumerate() {
            let base_congestion = continent_congestion(country.continent());
            for (hid, hub) in country.hubs().iter().enumerate() {
                let node = Node {
                    kind: NodeKind::Ixp,
                    location: GeoPoint::new(hub.lat, hub.lon),
                    as_number: 1000 + (cid as u32) * 8 + hid as u32,
                    ip: 0,
                    policy: FilterPolicy::default(),
                    congestion: base_congestion * rng.random_range(0.8..1.3),
                };
                ixps.push(topo.add_node(node));
                ixp_meta.push((cid, hid));
            }
        }

        let link = |topo: &mut Topology, rng: &mut StdRng, a: NodeId, b: NodeId| {
            if a == b || topo.neighbours(a).iter().any(|&(_, n)| n == b) {
                return;
            }
            let dist = topo.node(a).location.distance_km(&topo.node(b).location);
            let inflation = rng.random_range(CIRCUITOUSNESS);
            // Even a metro link pays some minimum path length.
            let cable_km = (dist * inflation).max(20.0);
            topo.add_link(a, b, cable_km / geokit::FIBER_SPEED_KM_PER_MS);
        };

        // 2. Domestic star to the primary hub.
        {
            let mut primary_of: Vec<Option<NodeId>> = vec![None; atlas.num_countries()];
            for (i, &(cid, hid)) in ixp_meta.iter().enumerate() {
                if hid == 0 {
                    primary_of[cid] = Some(ixps[i]);
                }
            }
            for (i, &(cid, hid)) in ixp_meta.iter().enumerate() {
                if hid != 0 {
                    let primary = primary_of[cid].expect("hub 0 exists for every country");
                    link(&mut topo, &mut rng, ixps[i], primary);
                }
            }
        }

        // 3. k-nearest-neighbour peering across countries.
        for (i, &a) in ixps.iter().enumerate() {
            let mut dists: Vec<(f64, NodeId)> = ixps
                .iter()
                .enumerate()
                .filter(|&(j, _)| ixp_meta[j].0 != ixp_meta[i].0)
                .map(|(_, &b)| (topo.node(a).location.distance_km(&topo.node(b).location), b))
                .collect();
            dists.sort_by(|x, y| x.0.partial_cmp(&y.0).expect("finite").then(x.1.cmp(&y.1)));
            for &(_, b) in dists.iter().take(KNN_LINKS) {
                link(&mut topo, &mut rng, a, b);
            }
        }

        // 4. Major-hub trunk mesh + uplinks.
        let majors: Vec<NodeId> = MAJOR_HUBS
            .iter()
            .filter_map(|&(iso, city)| {
                let cid = atlas.country_by_iso2(iso)?;
                let hid = atlas
                    .country(cid)
                    .hubs()
                    .iter()
                    .position(|h| h.name == city)?;
                ixp_meta
                    .iter()
                    .position(|&(c, h)| c == cid && h == hid)
                    .map(|i| ixps[i])
            })
            .collect();
        assert_eq!(
            majors.len(),
            MAJOR_HUBS.len(),
            "major hub missing from atlas"
        );
        for (i, &a) in majors.iter().enumerate() {
            for &b in &majors[i + 1..] {
                link(&mut topo, &mut rng, a, b);
            }
        }
        // Every country's primary IXP uplinks to its nearest major.
        for (i, &a) in ixps.iter().enumerate() {
            if ixp_meta[i].1 != 0 {
                continue;
            }
            let nearest = majors
                .iter()
                .copied()
                .min_by(|&x, &y| {
                    let dx = topo.node(a).location.distance_km(&topo.node(x).location);
                    let dy = topo.node(a).location.distance_km(&topo.node(y).location);
                    dx.partial_cmp(&dy).expect("finite").then(x.cmp(&y))
                })
                .expect("majors nonempty");
            link(&mut topo, &mut rng, a, nearest);
        }

        let network = Network::new(topo, config.seed.wrapping_mul(0x9E3779B97F4A7C15));
        WorldNet {
            network,
            atlas,
            ixps,
            attach_rng: StdRng::seed_from_u64(config.seed ^ 0xA77AC4E3),
        }
    }

    /// The measurement network.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Mutable network access.
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.network
    }

    /// The atlas this world was built from.
    pub fn atlas(&self) -> &Arc<WorldAtlas> {
        &self.atlas
    }

    /// The IXP nearest to a location; of equally near ones, the lowest
    /// id. Each IXP's distance is computed once.
    pub fn nearest_ixp(&self, location: &GeoPoint) -> NodeId {
        let topo = self.network.topology();
        self.ixps
            .iter()
            .map(|&id| (topo.node(id).location.distance_km(location), id))
            .min_by(|a, b| a.0.partial_cmp(&b.0).expect("finite").then(a.1.cmp(&b.1)))
            .expect("world has IXPs")
            .1
    }

    /// Attach a host behind its own first-hop gateway router: the
    /// topology becomes `host — gateway — nearest IXP`, with the gateway
    /// carrying its own filter policy. This models VPN data-center
    /// gateways: "90 % of the default gateways for VPN tunnels … ignore
    /// ping requests and do not send time-exceeded packets" (§4.2), which
    /// is what blinds traceroute one hop before the server.
    pub fn attach_host_via_gateway(
        &mut self,
        location: GeoPoint,
        host_policy: FilterPolicy,
        gateway_policy: FilterPolicy,
    ) -> (NodeId, NodeId) {
        let ixp = self.nearest_ixp(&location);
        let topo = self.network.topology_mut();
        let ixp_node = topo.node(ixp).clone();
        let dist = ixp_node.location.distance_km(&location);
        let gateway = topo.add_node(Node {
            kind: NodeKind::Ixp,
            location,
            as_number: ixp_node.as_number,
            ip: 0,
            policy: gateway_policy,
            congestion: ixp_node.congestion,
        });
        let host = topo.add_node(Node {
            kind: NodeKind::Host,
            location,
            as_number: ixp_node.as_number,
            ip: 0,
            policy: host_policy,
            congestion: ixp_node.congestion * self.attach_rng.random_range(0.9..1.4),
        });
        let inflation = self.attach_rng.random_range(1.2f64..2.2);
        let last_mile_ms = self.attach_rng.random_range(0.1..0.8);
        let prop_ms = (dist * inflation).max(2.0) / geokit::FIBER_SPEED_KM_PER_MS + last_mile_ms;
        topo.add_link(gateway, ixp, prop_ms);
        // The rack-internal hop: short and fixed.
        topo.add_link(host, gateway, 0.05);
        (host, gateway)
    }

    /// Attach a host at a location: one access link to the nearest IXP,
    /// with last-mile circuitousness and a small fixed last-mile delay.
    /// The host inherits the IXP's congestion and AS (unless overridden
    /// later via the topology).
    pub fn attach_host(&mut self, location: GeoPoint, policy: FilterPolicy) -> NodeId {
        let ixp = self.nearest_ixp(&location);
        let topo = self.network.topology_mut();
        let ixp_node = topo.node(ixp).clone();
        let dist = ixp_node.location.distance_km(&location);
        let host = topo.add_node(Node {
            kind: NodeKind::Host,
            location,
            as_number: ixp_node.as_number,
            ip: 0,
            policy,
            congestion: ixp_node.congestion * self.attach_rng.random_range(0.9..1.4),
        });
        let inflation = self.attach_rng.random_range(1.2f64..2.2);
        let last_mile_ms = self.attach_rng.random_range(0.1..0.8);
        let prop_ms = (dist * inflation).max(2.0) / geokit::FIBER_SPEED_KM_PER_MS + last_mile_ms;
        topo.add_link(host, ixp, prop_ms);
        host
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::plain_node;
    use geokit::GeoGrid;
    use std::sync::OnceLock;

    /// The country of an IXP, read back from the AS number the build
    /// gives the country's hubs.
    fn ixp_country(net: &Network, ixp: NodeId) -> usize {
        (net.topology().node(ixp).as_number as usize - 1000) / 8
    }

    fn world() -> &'static WorldNet {
        static W: OnceLock<WorldNet> = OnceLock::new();
        W.get_or_init(|| {
            let atlas = Arc::new(WorldAtlas::new(GeoGrid::new(1.0)));
            WorldNet::build(atlas, WorldNetConfig::default())
        })
    }

    #[test]
    fn world_has_hundreds_of_ixps() {
        let w = world();
        assert!(w.ixps.len() > 250, "only {} IXPs", w.ixps.len());
    }

    #[test]
    fn backbone_is_fully_connected() {
        let w = world();
        let net = w.network();
        let frankfurt = w.ixps[0]; // Germany hub 0 is the first country's first hub
        let mut reachable = 0;
        for &ixp in &w.ixps {
            if ixp == frankfurt || net.floor_rtt_ms(frankfurt, ixp).is_some() {
                reachable += 1;
            }
        }
        assert_eq!(reachable, w.ixps.len(), "unreachable IXPs in the backbone");
    }

    #[test]
    fn effective_speed_is_subluminal_and_plausible() {
        // For well-separated IXP pairs, path propagation must be strictly
        // slower than the fibre floor over the great circle (circuitous)
        // but not absurdly slow.
        let w = world();
        let net = w.network();
        let pairs = [(0usize, 60usize), (10, 120), (5, 200), (30, 250), (70, 150)];
        for (i, j) in pairs {
            let (a, b) = (w.ixps[i], w.ixps[j]);
            let node = |id| net.topology().node(id).location;
            let gc = node(a).distance_km(&node(b));
            if gc < 1500.0 {
                continue;
            }
            let floor = net.floor_rtt_ms(a, b).unwrap();
            let speed = 2.0 * gc / floor; // km per ms, round-trip adjusted
            assert!(
                speed <= geokit::FIBER_SPEED_KM_PER_MS + 1e-9,
                "pair {i},{j}: speed {speed}"
            );
            assert!(speed > 30.0, "pair {i},{j}: speed {speed} implausibly slow");
        }
    }

    #[test]
    fn attach_host_and_measure() {
        let atlas = Arc::new(WorldAtlas::new(GeoGrid::new(1.0)));
        let mut w = WorldNet::build(atlas, WorldNetConfig::default());
        let a = w.attach_host(GeoPoint::new(50.0, 8.6), FilterPolicy::default());
        let b = w.attach_host(GeoPoint::new(48.9, 2.3), FilterPolicy::default());
        let rtt = w.network_mut().tcp_connect_rtt(a, b, 80).unwrap();
        // Frankfurt–Paris ≈ 480 km: RTT floor ≥ 4.8 ms; with detours and
        // last mile it should still be well under 60 ms.
        assert!(rtt.as_ms() > 4.0, "{rtt}");
        assert!(rtt.as_ms() < 60.0, "{rtt}");
    }

    #[test]
    fn remote_island_routes_through_major_hub() {
        let atlas = Arc::new(WorldAtlas::new(GeoGrid::new(1.0)));
        let w = WorldNet::build(atlas, WorldNetConfig::default());
        // Pitcairn's IXP reaches the world, at a high floor.
        let pn = w.atlas().country_by_iso2("pn").unwrap();
        let pn_hub = w
            .ixps
            .iter()
            .copied()
            .find(|&id| ixp_country(w.network(), id) == pn)
            .unwrap();
        let frankfurt = w.ixps[0];
        let floor = w.network().floor_rtt_ms(pn_hub, frankfurt).unwrap();
        assert!(floor > 120.0, "Pitcairn→Frankfurt floor {floor} too low");
    }

    /// `nearest_ixp` as it was: both distances recomputed at every
    /// comparison.
    fn nearest_ixp_reference(w: &WorldNet, location: &GeoPoint) -> NodeId {
        let topo = w.network().topology();
        w.ixps
            .iter()
            .copied()
            .min_by(|&a, &b| {
                let da = topo.node(a).location.distance_km(location);
                let db = topo.node(b).location.distance_km(location);
                da.partial_cmp(&db).expect("finite").then(a.cmp(&b))
            })
            .expect("world has IXPs")
    }

    #[test]
    fn nearest_ixp_matches_the_pairwise_comparator() {
        let w = world();
        let mut rng = StdRng::seed_from_u64(0x1c5);
        let random = (0..2000).map(|_| {
            GeoPoint::new(
                rng.random_range(-90.0..90.0),
                rng.random_range(-180.0..180.0),
            )
        });
        let edges = [
            (90.0, 0.0),
            (-90.0, 0.0),
            (89.999, 45.0),
            (-89.999, -135.0),
            (0.0, 180.0),
            (0.0, -180.0),
            (-17.5, 179.999),
            (-17.5, -179.999),
            (65.0, 180.0),
        ]
        .map(|(lat, lon)| GeoPoint::new(lat, lon));
        let ixp_sites = w
            .ixps
            .iter()
            .map(|&id| w.network().topology().node(id).location);
        for p in random.chain(edges).chain(ixp_sites) {
            assert_eq!(w.nearest_ixp(&p), nearest_ixp_reference(w, &p), "{p:?}");
        }
        // A point equidistant from two IXPs (mirror images across its
        // meridian) takes the lower id, whichever comes first in the list.
        for flip in [false, true] {
            let mut topo = Topology::new();
            let east = topo.add_node(plain_node(NodeKind::Ixp, GeoPoint::new(10.0, 20.0)));
            let west = topo.add_node(plain_node(NodeKind::Ixp, GeoPoint::new(10.0, 0.0)));
            let ixps = if flip {
                vec![west, east]
            } else {
                vec![east, west]
            };
            let tie = WorldNet {
                network: Network::new(topo, 1),
                atlas: Arc::clone(w.atlas()),
                ixps,
                attach_rng: StdRng::seed_from_u64(1),
            };
            let mid = GeoPoint::new(40.0, 10.0);
            let node = |id| tie.network().topology().node(id).location;
            assert_eq!(node(east).distance_km(&mid), node(west).distance_km(&mid));
            assert_eq!(tie.nearest_ixp(&mid), east.min(west));
            assert_eq!(tie.nearest_ixp(&mid), nearest_ixp_reference(&tie, &mid));
        }
    }

    #[test]
    fn congestion_reflects_continent() {
        let w = world();
        let topo = w.network().topology();
        let de = w.atlas().country_by_iso2("de").unwrap();
        let ng = w.atlas().country_by_iso2("ng").unwrap();
        let avg = |cid: usize| {
            let (sum, n) = w
                .ixps
                .iter()
                .filter(|&&id| ixp_country(w.network(), id) == cid)
                .fold((0.0, 0usize), |(s, n), &id| {
                    (s + topo.node(id).congestion, n + 1)
                });
            sum / n as f64
        };
        assert!(avg(ng) > avg(de) * 1.5, "ng {} de {}", avg(ng), avg(de));
    }
}
