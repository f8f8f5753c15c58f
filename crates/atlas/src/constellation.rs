//! Placement of the landmark constellation.
//!
//! The paper's Fig. 3 shows the RIPE Atlas geography: anchors are mostly
//! European, North America is well represented, Asia and South America
//! thinner, Africa sparse. That geometry matters — "the most difficult
//! case for active geolocation is when all of the landmarks are far away
//! from the target, in the same direction" — so the constellation
//! reproduces it with per-continent quotas.

use geokit::GeoPoint;
use netsim::{FilterPolicy, NodeId, WorldNet};
use simrng::rngs::StdRng;
use simrng::SeedableRng;
use worldmap::{Continent, CountryId};

/// Index of a landmark within its [`Constellation`].
pub type LandmarkId = usize;

/// One landmark host.
#[derive(Debug, Clone)]
pub struct Landmark {
    /// The attached network node.
    pub node: NodeId,
    /// Where the landmark physically is (documented location — for
    /// anchors the paper trusts these, and so do we).
    pub location: GeoPoint,
    /// Country the landmark sits in.
    pub country: CountryId,
    /// Anchor (dedicated, meshed, calibrated) vs stable probe.
    pub is_anchor: bool,
    /// Whether the node software listens on TCP port 80 — varies by
    /// version and is *not known in advance* to the Web tool (§4.2).
    pub port_80_open: bool,
}

/// Fraction of landmarks listening on port 80.
const PORT_80_FRACTION: f64 = 0.6;

/// Constellation size and placement parameters.
#[derive(Debug, Clone)]
pub struct ConstellationConfig {
    /// Seed for placement and port-80 coin flips.
    pub seed: u64,
    /// Anchor quota per continent, in [`Continent::ALL`] order
    /// (Europe, Africa, Asia, Oceania, NA, CA, SA, Australia).
    pub anchors_per_continent: [usize; 8],
    /// Probe quota per continent, same order.
    pub probes_per_continent: [usize; 8],
}

impl Default for ConstellationConfig {
    /// The paper-scale constellation: 250 anchors, ~600 stable probes,
    /// majority in Europe and North America (Fig. 3).
    fn default() -> Self {
        ConstellationConfig {
            seed: 0xA7145,
            //                      EU  AF  AS  OC  NA  CA  SA  AU
            anchors_per_continent: [140, 8, 25, 6, 55, 2, 12, 2],
            probes_per_continent: [300, 20, 70, 15, 150, 10, 30, 5],
        }
    }
}

impl ConstellationConfig {
    /// A small constellation for fast tests: same shape, ~1/5 the size.
    pub fn small(seed: u64) -> ConstellationConfig {
        ConstellationConfig {
            seed,
            anchors_per_continent: [28, 2, 5, 2, 11, 1, 3, 1],
            probes_per_continent: [60, 4, 14, 3, 30, 2, 6, 1],
        }
    }
}

/// The placed constellation.
#[derive(Debug)]
pub struct Constellation {
    landmarks: Vec<Landmark>,
    n_anchors: usize,
}

impl Constellation {
    /// Place landmarks into the world and attach them to the network.
    /// Anchors come first in the landmark list.
    pub fn place(world: &mut WorldNet, config: &ConstellationConfig) -> Constellation {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut landmarks = Vec::new();

        for (is_anchor, quotas) in [
            (true, &config.anchors_per_continent),
            (false, &config.probes_per_continent),
        ] {
            for (ci, &quota) in quotas.iter().enumerate() {
                let continent = Continent::ALL[ci];
                // Countries of this continent, weighted by hosting ease
                // (infrastructure density) with a floor so poor regions
                // still get some landmarks.
                let candidates: Vec<(CountryId, f64)> = world
                    .atlas()
                    .countries()
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| c.continent() == continent)
                    .map(|(id, c)| (id, c.hosting() + 0.03))
                    .collect();
                assert!(
                    !candidates.is_empty(),
                    "no countries on continent {continent}"
                );
                let weights: Vec<f64> = candidates.iter().map(|&(_, w)| w).collect();
                for _ in 0..quota {
                    let pick = geokit::sampling::weighted_index(&mut rng, &weights);
                    let country = candidates[pick].0;
                    // Anchors are dedicated hosts in data centers near the
                    // metro hubs; probes are scattered residential-ish
                    // hosts with longer last miles.
                    let jitter_km = if is_anchor { 45.0 } else { 150.0 };
                    let location = world
                        .atlas()
                        .sample_point_in_country(country, jitter_km, &mut rng);
                    let port_80_open = geokit::sampling::coin(&mut rng, PORT_80_FRACTION);
                    let node = world.attach_host(location, FilterPolicy::landmark(port_80_open));
                    landmarks.push(Landmark {
                        node,
                        location,
                        country,
                        is_anchor,
                        port_80_open,
                    });
                }
            }
        }
        let n_anchors: usize = config.anchors_per_continent.iter().sum();
        Constellation {
            landmarks,
            n_anchors,
        }
    }

    /// All landmarks (anchors first).
    pub fn landmarks(&self) -> &[Landmark] {
        &self.landmarks
    }

    /// Anchor slice.
    pub fn anchors(&self) -> &[Landmark] {
        &self.landmarks[..self.n_anchors]
    }

    /// Number of anchors.
    pub fn num_anchors(&self) -> usize {
        self.n_anchors
    }

    /// Landmark ids on a given continent (anchors and probes).
    pub fn on_continent(
        &self,
        atlas: &worldmap::WorldAtlas,
        continent: Continent,
    ) -> Vec<LandmarkId> {
        self.landmarks
            .iter()
            .enumerate()
            .filter(|(_, lm)| atlas.country(lm.country).continent() == continent)
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geokit::GeoGrid;
    use netsim::WorldNetConfig;
    use std::sync::{Arc, OnceLock};
    use worldmap::WorldAtlas;

    fn setup() -> &'static (WorldNet, Constellation) {
        static S: OnceLock<(WorldNet, Constellation)> = OnceLock::new();
        S.get_or_init(|| {
            let atlas = Arc::new(WorldAtlas::new(GeoGrid::new(1.0)));
            let mut world = WorldNet::build(atlas, WorldNetConfig::default());
            let c = Constellation::place(&mut world, &ConstellationConfig::small(99));
            (world, c)
        })
    }

    #[test]
    fn quotas_are_respected() {
        let (_, c) = setup();
        let cfg = ConstellationConfig::small(99);
        assert_eq!(c.num_anchors(), cfg.anchors_per_continent.iter().sum());
        assert_eq!(
            c.landmarks().len() - c.num_anchors(),
            cfg.probes_per_continent.iter().sum()
        );
    }

    #[test]
    fn europe_dominates() {
        let (world, c) = setup();
        let eu = c.on_continent(world.atlas(), Continent::Europe).len();
        let af = c.on_continent(world.atlas(), Continent::Africa).len();
        assert!(eu > 5 * af, "EU {eu} vs AF {af}");
    }

    #[test]
    fn anchors_are_reachable_hosts() {
        let (world, c) = setup();
        let net = world.network();
        let first = c.anchors()[0].node;
        for lm in c.anchors().iter().skip(1).take(10) {
            assert!(net.floor_rtt_ms(first, lm.node).is_some());
        }
    }

    #[test]
    fn landmark_country_matches_location() {
        // At coarse grids, sub-cell microstates can shadow each other
        // (Guernsey and Jersey share a 1° cell), so allow a mismatch only
        // when the painted owner's capital is a near neighbour of the
        // labelled country's capital.
        let (world, c) = setup();
        let atlas = world.atlas();
        for lm in c.landmarks().iter().take(50) {
            let painted = atlas.country_of_point(&lm.location);
            if painted == Some(lm.country) {
                continue;
            }
            let painted =
                painted.unwrap_or_else(|| panic!("landmark at {} painted as ocean", lm.location));
            let gap = atlas
                .country(painted)
                .capital()
                .distance_km(&atlas.country(lm.country).capital());
            assert!(
                gap < 150.0,
                "landmark at {} labeled {} but painted {} ({} km apart)",
                lm.location,
                atlas.country(lm.country).iso2(),
                atlas.country(painted).iso2(),
                gap
            );
        }
    }

    #[test]
    fn port_80_mix() {
        let (_, c) = setup();
        let open = c.landmarks().iter().filter(|l| l.port_80_open).count();
        let frac = open as f64 / c.landmarks().len() as f64;
        assert!((0.4..0.8).contains(&frac), "port-80 fraction {frac}");
    }

    #[test]
    fn placement_is_deterministic() {
        let atlas = Arc::new(WorldAtlas::new(GeoGrid::new(1.0)));
        let build = || {
            let mut world = WorldNet::build(Arc::clone(&atlas), WorldNetConfig::default());
            Constellation::place(&mut world, &ConstellationConfig::small(7))
                .landmarks()
                .iter()
                .map(|l| (l.node, l.country, l.port_80_open))
                .collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }
}
