//! The anchor-mesh calibration database.
//!
//! RIPE Atlas anchors "continuously ping each other and upload the
//! round-trip times to a publicly accessible database"; the paper's
//! landmark server recalibrates every landmark's delay–distance model
//! from "the most recent two weeks of ping measurements" (§4.1). Here,
//! two weeks of mesh pings are summarized the way every algorithm in the
//! paper consumes them: per anchor pair, the *minimum* observed RTT
//! (halved to one-way), paired with the pair's great-circle distance.
//!
//! The server's per-landmark model is refreshed with the data, not per
//! measurement: a [`CalibrationSet`] fits its CBG++ bestline once, when it
//! is built, and every clone shares both the scatter and that fit.

use crate::constellation::Constellation;
use geokit::hull::line_below;
use geokit::regress::Line;
use geokit::{BASELINE_SLOPE_MS_PER_KM, SLOWLINE_SLOPE_MS_PER_KM};
use netsim::Network;
use std::sync::Arc;

/// Delay–distance calibration data for one landmark: `(distance_km,
/// one_way_ms)` per peer anchor, and the CBG++ bestline fitted to it.
///
/// Immutable once built. Cloning only bumps a reference count, so every
/// observation of a landmark shares its anchor's scatter.
#[derive(Debug, Clone)]
pub struct CalibrationSet {
    points: Arc<[(f64, f64)]>,
    bestline: Line,
}

impl Default for CalibrationSet {
    /// No calibration data; the bestline falls back to the baseline.
    fn default() -> Self {
        CalibrationSet::from_points(Vec::new())
    }
}

impl CalibrationSet {
    /// Build from raw points and fit the CBG++ bestline to them.
    pub fn from_points(points: Vec<(f64, f64)>) -> CalibrationSet {
        assert!(
            points
                .iter()
                .all(|&(d, t)| d.is_finite() && t.is_finite() && d >= 0.0 && t >= 0.0),
            "calibration points must be finite and non-negative"
        );
        let bestline = line_below(&points, BASELINE_SLOPE_MS_PER_KM, SLOWLINE_SLOPE_MS_PER_KM);
        CalibrationSet {
            points: points.into(),
            bestline,
        }
    }

    /// The `(distance_km, one_way_ms)` scatter.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// The CBG++ bestline (§5.1): the line below every point with the
    /// least total residual, its slope held between the baseline and the
    /// slowline. Fitted once, when the set was built; with no points it
    /// is the baseline itself.
    pub fn bestline(&self) -> Line {
        self.bestline
    }

    /// Number of calibration points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if no calibration data is available.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// The calibration database: one [`CalibrationSet`] per anchor, built
/// from the anchor↔anchor mesh.
#[derive(Debug)]
pub struct CalibrationDb {
    /// Indexed by anchor position within the constellation's anchor list.
    sets: Vec<CalibrationSet>,
}

impl CalibrationDb {
    /// Collect the mesh: for every ordered anchor pair, the minimum of
    /// `pings_per_pair` RTT draws (the "two weeks of pings" summary),
    /// halved to a one-way time.
    ///
    /// Cost is `O(anchors² · pings_per_pair)` uniform draws, read as
    /// integers, but `Network::min_of_n_rtt_ms` transforms only the round
    /// trips that can set a pair's minimum: 1.16 per pair (of 40) on the
    /// default 250-anchor constellation, whose mesh takes about 0.4 s
    /// single-threaded in a release build on a 2-vCPU VM, so bulk callers
    /// still cache the result.
    pub fn collect(
        network: &mut Network,
        constellation: &Constellation,
        pings_per_pair: usize,
    ) -> CalibrationDb {
        let anchors = constellation.anchors();
        let mut sets = Vec::with_capacity(anchors.len());
        for a in anchors {
            let mut points = Vec::with_capacity(anchors.len().saturating_sub(1));
            for b in anchors {
                if a.node == b.node {
                    continue;
                }
                let Some(min_rtt) = network.min_of_n_rtt_ms(a.node, b.node, pings_per_pair) else {
                    continue;
                };
                let dist = a.location.distance_km(&b.location);
                points.push((dist, min_rtt / 2.0));
            }
            sets.push(CalibrationSet::from_points(points));
        }
        CalibrationDb { sets }
    }

    /// Calibration set of the anchor at `anchor_idx` (its position within
    /// `constellation.anchors()`).
    pub fn for_anchor(&self, anchor_idx: usize) -> &CalibrationSet {
        &self.sets[anchor_idx]
    }

    /// Number of anchors with calibration data.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constellation::{Constellation, ConstellationConfig};
    use geokit::GeoGrid;
    use netsim::{WorldNet, WorldNetConfig};
    use std::sync::{Arc, Mutex, OnceLock};
    use worldmap::WorldAtlas;

    fn setup() -> &'static Mutex<(WorldNet, Constellation, CalibrationDb)> {
        static S: OnceLock<Mutex<(WorldNet, Constellation, CalibrationDb)>> = OnceLock::new();
        S.get_or_init(|| {
            let atlas = Arc::new(WorldAtlas::new(GeoGrid::new(1.0)));
            let mut world = WorldNet::build(atlas, WorldNetConfig::default());
            let c = Constellation::place(&mut world, &ConstellationConfig::small(5));
            let db = CalibrationDb::collect(world.network_mut(), &c, 12);
            Mutex::new((world, c, db))
        })
    }

    #[test]
    fn one_set_per_anchor() {
        let s = setup().lock().unwrap();
        let (_, c, db) = &*s;
        assert_eq!(db.len(), c.num_anchors());
        for i in 0..db.len() {
            assert_eq!(db.for_anchor(i).len(), c.num_anchors() - 1);
        }
    }

    #[test]
    fn no_point_beats_fiber_speed() {
        let s = setup().lock().unwrap();
        let (_, _, db) = &*s;
        for i in 0..db.len() {
            for &(d, t) in db.for_anchor(i).points() {
                // one-way time must respect distance / 200 km/ms.
                assert!(
                    t + 1e-9 >= d / geokit::FIBER_SPEED_KM_PER_MS,
                    "superluminal calibration point ({d} km, {t} ms)"
                );
            }
        }
    }

    #[test]
    fn effective_speed_is_realistic() {
        // The bulk of calibration points should imply an effective speed
        // well below the fibre limit (circuitous paths), clustering near
        // the ~60–150 km/ms band the paper's Fig. 2 shows.
        let s = setup().lock().unwrap();
        let (_, _, db) = &*s;
        let mut speeds = Vec::new();
        for i in 0..db.len() {
            for &(d, t) in db.for_anchor(i).points() {
                if d > 2000.0 {
                    speeds.push(d / t);
                }
            }
        }
        let med = geokit::stats::median(&speeds).unwrap();
        assert!(
            (55.0..165.0).contains(&med),
            "median effective speed {med} km/ms"
        );
    }

    #[test]
    fn from_points_validates() {
        let set = CalibrationSet::from_points(vec![(100.0, 2.0)]);
        assert_eq!(set.points(), &[(100.0, 2.0)]);
        assert!(!set.is_empty());
        assert!(CalibrationSet::default().is_empty());
    }

    #[test]
    fn clones_share_the_scatter() {
        let set = CalibrationSet::from_points(vec![(100.0, 2.0), (2000.0, 15.0)]);
        let copy = set.clone();
        assert_eq!(copy.points().as_ptr(), set.points().as_ptr());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_negative_distance() {
        CalibrationSet::from_points(vec![(-1.0, 2.0)]);
    }
}
