//! The landmark server: the coordination piece of §4.1.
//!
//! The paper runs "a server that retrieves the list of anchors and probes
//! from RIPE's database every day, selects the probes to be used as
//! landmarks, and updates a delay–distance model for each landmark". The
//! measurement tools ask it which landmarks to use in each phase:
//!
//! * **phase 1** — three anchors per continent; the continent whose
//!   anchors answer fastest is taken as the target's continent;
//! * **phase 2** — 25 landmarks drawn at random from the anchors *and*
//!   stable probes of that continent ("random selection … spreads out
//!   the load", §4.1).

use crate::calibration::CalibrationDb;
use crate::constellation::{Constellation, LandmarkId};
use simrng::Rng;
use worldmap::{Continent, WorldAtlas};

/// Number of anchors per continent used in phase 1.
pub const PHASE1_ANCHORS_PER_CONTINENT: usize = 3;

/// Number of landmarks used in phase 2.
pub const PHASE2_LANDMARKS: usize = 25;

/// The landmark coordination server.
///
/// Construction precomputes everything that is a pure function of the
/// constellation — the continent index, the phase-1 anchor set, each
/// landmark's continent, and each probe's calibration anchor — so the
/// audit can stand the server up **once** and share it read-only across
/// every worker instead of rebuilding it per proxy.
pub struct LandmarkServer<'a> {
    constellation: &'a Constellation,
    calibration: &'a CalibrationDb,
    atlas: &'a WorldAtlas,
    /// continent index → landmark ids on that continent.
    by_continent: Vec<Vec<LandmarkId>>,
    /// The fixed phase-1 anchor set (up to three per continent).
    phase1: Vec<LandmarkId>,
    /// landmark id → its continent.
    continents: Vec<Continent>,
    /// landmark id → the anchor whose calibration it uses (itself for
    /// anchors, the nearest calibrated anchor for probes).
    calibration_anchor: Vec<LandmarkId>,
}

impl<'a> LandmarkServer<'a> {
    /// Stand up the server over a constellation and its calibration.
    pub fn new(
        constellation: &'a Constellation,
        calibration: &'a CalibrationDb,
        atlas: &'a WorldAtlas,
    ) -> LandmarkServer<'a> {
        let by_continent: Vec<Vec<LandmarkId>> = Continent::ALL
            .iter()
            .map(|&c| constellation.on_continent(atlas, c))
            .collect();
        let landmarks = constellation.landmarks();
        let continents = landmarks
            .iter()
            .map(|lm| atlas.country(lm.country).continent())
            .collect();
        let calibration_anchor = landmarks
            .iter()
            .enumerate()
            .map(|(id, lm)| {
                if lm.is_anchor {
                    return id;
                }
                // Nearest anchor by great-circle distance — the paper's
                // server assigns probes "the most recent mesh data of
                // nearby anchors".
                constellation
                    .anchors()
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| {
                        let da = a.location.distance_km(&lm.location);
                        let db = b.location.distance_km(&lm.location);
                        da.total_cmp(&db)
                    })
                    .map(|(i, _)| i)
                    .expect("constellation has anchors")
            })
            .collect();
        let phase1 = phase1_selection(constellation, &by_continent);
        LandmarkServer {
            constellation,
            calibration,
            atlas,
            by_continent,
            phase1,
            continents,
            calibration_anchor,
        }
    }

    /// The constellation being served.
    pub fn constellation(&self) -> &Constellation {
        self.constellation
    }

    /// The calibration database.
    pub fn calibration(&self) -> &CalibrationDb {
        self.calibration
    }

    /// The world atlas in use.
    pub fn atlas(&self) -> &WorldAtlas {
        self.atlas
    }

    /// Phase-1 landmark set: up to three anchors per continent (fewer on
    /// continents that simply have fewer anchors), chosen to be spread
    /// out (first, middle, last of the continent's anchor list).
    /// Precomputed at construction — every proxy probes the same set.
    pub fn phase1_landmarks(&self) -> &[LandmarkId] {
        &self.phase1
    }

    /// The continent a landmark sits on (precomputed at construction).
    pub fn continent_of(&self, landmark: LandmarkId) -> Continent {
        self.continents[landmark]
    }

    /// Phase-2 landmark set: `PHASE2_LANDMARKS` drawn uniformly without
    /// replacement from all landmarks (anchors + stable probes) on the
    /// given continent. Returns fewer if the continent is small.
    pub fn phase2_landmarks<R: Rng + ?Sized>(
        &self,
        continent: Continent,
        rng: &mut R,
    ) -> Vec<LandmarkId> {
        let pool = &self.by_continent[continent.index()];
        sample_without_replacement(pool, PHASE2_LANDMARKS, rng)
    }

    /// All landmarks on a continent (used by the iterative-refinement
    /// extension and the landmark-effectiveness analysis).
    pub fn continent_landmarks(&self, continent: Continent) -> &[LandmarkId] {
        &self.by_continent[continent.index()]
    }

    /// Calibration set for a landmark, if it is a calibrated anchor.
    /// Probes are uncalibrated: the paper's server assigns them a model
    /// from the most recent mesh data of nearby anchors — we implement
    /// that as "nearest calibrated anchor's model", resolved once at
    /// construction so the per-observation path is a table lookup.
    pub fn calibration_for(&self, landmark: LandmarkId) -> &crate::CalibrationSet {
        self.calibration
            .for_anchor(self.calibration_anchor[landmark])
    }
}

/// The fixed phase-1 selection: first, middle, and last anchor of each
/// continent's anchor list (all of them when a continent has three or
/// fewer).
fn phase1_selection(
    constellation: &Constellation,
    by_continent: &[Vec<LandmarkId>],
) -> Vec<LandmarkId> {
    let mut out = Vec::new();
    for ids in by_continent {
        let anchors: Vec<LandmarkId> = ids
            .iter()
            .copied()
            .filter(|&id| constellation.landmarks()[id].is_anchor)
            .collect();
        match anchors.len() {
            0 => {}
            n if n <= PHASE1_ANCHORS_PER_CONTINENT => out.extend(anchors),
            n => {
                out.push(anchors[0]);
                out.push(anchors[n / 2]);
                out.push(anchors[n - 1]);
            }
        }
    }
    out
}

/// Uniform sample of `k` distinct elements (Fisher–Yates prefix).
fn sample_without_replacement<R: Rng + ?Sized>(
    pool: &[LandmarkId],
    k: usize,
    rng: &mut R,
) -> Vec<LandmarkId> {
    use simrng::RngExt;
    let mut v: Vec<LandmarkId> = pool.to_vec();
    let k = k.min(v.len());
    for i in 0..k {
        let j = rng.random_range(i..v.len());
        v.swap(i, j);
    }
    v.truncate(k);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constellation::ConstellationConfig;
    use geokit::GeoGrid;
    use netsim::{WorldNet, WorldNetConfig};
    use simrng::rngs::StdRng;
    use simrng::SeedableRng;
    use std::sync::{Arc, OnceLock};

    struct Fixture {
        world: WorldNet,
        constellation: Constellation,
        calibration: CalibrationDb,
    }

    fn fixture() -> &'static Fixture {
        static S: OnceLock<Fixture> = OnceLock::new();
        S.get_or_init(|| {
            let atlas = Arc::new(worldmap::WorldAtlas::new(GeoGrid::new(1.0)));
            let mut world = WorldNet::build(atlas, WorldNetConfig::default());
            let constellation = Constellation::place(&mut world, &ConstellationConfig::small(11));
            let calibration = CalibrationDb::collect(world.network_mut(), &constellation, 8);
            Fixture {
                world,
                constellation,
                calibration,
            }
        })
    }

    #[test]
    fn phase1_covers_every_continent_with_anchors() {
        let f = fixture();
        let server = LandmarkServer::new(&f.constellation, &f.calibration, f.world.atlas());
        let p1 = server.phase1_landmarks();
        // Our small config gives every continent ≥1 anchor, so 8
        // continents × up to 3.
        assert!(p1.len() >= 8, "phase1 too small: {}", p1.len());
        assert!(p1.len() <= 24);
        for &id in p1 {
            assert!(f.constellation.landmarks()[id].is_anchor);
        }
        // No duplicates.
        let mut sorted = p1.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), p1.len());
    }

    #[test]
    fn continent_table_matches_atlas() {
        let f = fixture();
        let server = LandmarkServer::new(&f.constellation, &f.calibration, f.world.atlas());
        for (id, lm) in f.constellation.landmarks().iter().enumerate() {
            assert_eq!(
                server.continent_of(id),
                f.world.atlas().country(lm.country).continent()
            );
        }
    }

    #[test]
    fn phase2_draws_from_right_continent() {
        let f = fixture();
        let server = LandmarkServer::new(&f.constellation, &f.calibration, f.world.atlas());
        let mut rng = StdRng::seed_from_u64(3);
        let p2 = server.phase2_landmarks(Continent::Europe, &mut rng);
        assert_eq!(p2.len(), PHASE2_LANDMARKS);
        for &id in &p2 {
            let lm = &f.constellation.landmarks()[id];
            assert_eq!(
                f.world.atlas().country(lm.country).continent(),
                Continent::Europe
            );
        }
        let mut sorted = p2.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), p2.len(), "duplicates in phase-2 draw");
    }

    #[test]
    fn phase2_varies_by_draw() {
        let f = fixture();
        let server = LandmarkServer::new(&f.constellation, &f.calibration, f.world.atlas());
        let mut rng = StdRng::seed_from_u64(4);
        let a = server.phase2_landmarks(Continent::Europe, &mut rng);
        let b = server.phase2_landmarks(Continent::Europe, &mut rng);
        assert_ne!(a, b, "random landmark selection should vary");
    }

    #[test]
    fn small_continent_returns_what_it_has() {
        let f = fixture();
        let server = LandmarkServer::new(&f.constellation, &f.calibration, f.world.atlas());
        let mut rng = StdRng::seed_from_u64(5);
        let p2 = server.phase2_landmarks(Continent::Australia, &mut rng);
        assert!(!p2.is_empty());
        assert!(p2.len() <= PHASE2_LANDMARKS);
    }

    #[test]
    fn probe_calibration_falls_back_to_nearest_anchor() {
        let f = fixture();
        let server = LandmarkServer::new(&f.constellation, &f.calibration, f.world.atlas());
        let probe_id = f.constellation.num_anchors(); // first probe
        let set = server.calibration_for(probe_id);
        assert!(!set.is_empty());
    }
}
