//! Property-based tests for the Byzantine-robust multilateration layer:
//! the pairwise speed-of-light flags and the trimmed subset search must
//! be pure functions of the constraint *set* — invariant under input
//! permutation — and the robust region must never lean on a flagged
//! (provably lying) constraint. The flags screen most pairs with a dot
//! product instead of the haversine; the plain haversine double loop
//! is kept below as their reference, on disks laid out to sit on the
//! screen's edges.

use geokit::{GeoGrid, GeoPoint, Region};
use geoloc::multilateration::{
    pairwise_infeasible_flags, robust_max_consistent_subset, PairwiseReport, RingConstraint,
};
use obs::Recorder;
use simrng::prop::prelude::*;
use simrng::rngs::StdRng;
use simrng::{RngExt, SeedableRng};

fn arb_point() -> impl Strategy<Value = GeoPoint> {
    (-70.0f64..70.0, -170.0f64..170.0).prop_map(|(lat, lon)| GeoPoint::new(lat, lon))
}

/// A mixed constraint set: honest disks around a shared truth (each
/// contains it, so honest pairs always overlap) plus a few deflated
/// "colluder" disks too small to reach the truth.
fn arb_mixed_disks() -> impl Strategy<Value = (GeoPoint, Vec<RingConstraint>)> {
    (
        arb_point(),
        prop::collection::vec((0.0f64..360.0, 300.0f64..6_000.0, 1.05f64..2.0), 4..10),
        prop::collection::vec((0.0f64..360.0, 4_000.0f64..9_000.0, 0.02f64..0.12), 0..3),
    )
        .prop_map(|(truth, honest, colluders)| {
            let mut disks = Vec::new();
            for (bearing, dist, stretch) in honest {
                let lm = truth.destination(bearing, dist);
                disks.push(RingConstraint::disk(lm, dist * stretch));
            }
            for (bearing, dist, deflate) in colluders {
                let lm = truth.destination(bearing, dist);
                disks.push(RingConstraint::disk(lm, dist * deflate));
            }
            (truth, disks)
        })
}

/// Number of flagged constraints.
fn flagged_count(report: &PairwiseReport) -> usize {
    report.flagged.iter().filter(|&&f| f).count()
}

/// Deterministically shuffle by a rotation + parity reversal derived
/// from `perm`: enough to exercise arbitrary reorderings without an RNG.
fn permute<T: Clone>(items: &[T], perm: u64) -> Vec<T> {
    let mut v: Vec<T> = items.to_vec();
    if perm % 2 == 1 {
        v.reverse();
    }
    let rot = (perm as usize / 2) % v.len().max(1);
    v.rotate_left(rot);
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The flagged *set* (as geometry, not indices) is invariant under
    // input permutation.
    #[test]
    fn pairwise_flags_are_order_invariant(pair in arb_mixed_disks(), perm in 0u64..64) {
        let (_, disks) = pair;
        let shuffled = permute(&disks, perm);
        let a = pairwise_infeasible_flags(&disks);
        let b = pairwise_infeasible_flags(&shuffled);
        prop_assert_eq!(flagged_count(&a), flagged_count(&b));
        prop_assert_eq!(a.conflicts.len(), b.conflicts.len());
        let key = |c: &RingConstraint| (c.center.lat().to_bits(), c.center.lon().to_bits(), c.max_km.to_bits());
        let mut fa: Vec<_> = disks.iter().zip(&a.flagged).filter(|(_, &f)| f).map(|(c, _)| key(c)).collect();
        let mut fb: Vec<_> = shuffled.iter().zip(&b.flagged).filter(|(_, &f)| f).map(|(c, _)| key(c)).collect();
        fa.sort_unstable();
        fb.sort_unstable();
        prop_assert_eq!(fa, fb);
    }

    // Honest-only sets (every disk contains the truth) never conflict:
    // the pairwise check has zero false positives on baseline geometry.
    #[test]
    fn honest_disks_never_conflict(truth in arb_point(), spec in prop::collection::vec((0.0f64..360.0, 300.0f64..6_000.0, 1.05f64..2.0), 2..12)) {
        let disks: Vec<RingConstraint> = spec
            .into_iter()
            .map(|(bearing, dist, stretch)| {
                RingConstraint::disk(truth.destination(bearing, dist), dist * stretch)
            })
            .collect();
        let report = pairwise_infeasible_flags(&disks);
        prop_assert!(report.conflicts.is_empty(), "honest baseline disks flagged: {:?}", report.conflicts);
        prop_assert_eq!(flagged_count(&report), 0);
    }

    // The trimmed subset search never lets a pairwise-flagged
    // constraint shape the result: the winning region, satisfied
    // count, and discarded residue are exactly those of the unflagged
    // survivors alone.
    #[test]
    fn robust_region_never_leans_on_flagged_constraints(pair in arb_mixed_disks()) {
        let (_, disks) = pair;
        let mask = Region::full(GeoGrid::new(2.0));
        let report = pairwise_infeasible_flags(&disks);
        let robust = robust_max_consistent_subset(&disks, &report.flagged, &mask, None, &Recorder::off());
        prop_assert_eq!(robust.excluded, flagged_count(&report));
        prop_assert!(!robust.discarded.iter().any(|i| report.flagged[*i]));

        let survivors: Vec<RingConstraint> = disks
            .iter()
            .zip(&report.flagged)
            .filter(|(_, &f)| !f)
            .map(|(c, _)| *c)
            .collect();
        let alone = robust_max_consistent_subset(
            &survivors,
            &vec![false; survivors.len()],
            &mask,
            None,
            &Recorder::off(),
        );
        prop_assert_eq!(robust.satisfied, alone.satisfied);
        prop_assert_eq!(robust.region.cell_count(), alone.region.cell_count());
    }

    // Order invariance end to end: the robust region is a function of
    // the constraint set, not the measurement order.
    #[test]
    fn robust_subset_is_order_invariant(pair in arb_mixed_disks(), perm in 0u64..64) {
        let (_, disks) = pair;
        let mask = Region::full(GeoGrid::new(2.0));
        let shuffled = permute(&disks, perm);
        let a = {
            let f = pairwise_infeasible_flags(&disks);
            robust_max_consistent_subset(&disks, &f.flagged, &mask, None, &Recorder::off())
        };
        let b = {
            let f = pairwise_infeasible_flags(&shuffled);
            robust_max_consistent_subset(&shuffled, &f.flagged, &mask, None, &Recorder::off())
        };
        prop_assert_eq!(a.satisfied, b.satisfied);
        prop_assert_eq!(a.excluded, b.excluded);
        prop_assert_eq!(a.discarded.len(), b.discarded.len());
        prop_assert_eq!(a.region.cell_count(), b.region.cell_count());
        prop_assert!(a.region.is_subset_of(&b.region) && b.region.is_subset_of(&a.region));
    }
}

/// The reference for the screened flags: every pair decided by the
/// haversine, as `pairwise_infeasible_flags` decided them before the
/// screen.
fn conflicts_by_haversine(disks: &[RingConstraint]) -> Vec<(usize, usize)> {
    let mut conflicts = Vec::new();
    for i in 0..disks.len() {
        for j in (i + 1)..disks.len() {
            let d = disks[i].center.distance_km(&disks[j].center);
            if d > disks[i].max_km + disks[j].max_km {
                conflicts.push((i, j));
            }
        }
    }
    conflicts
}

/// Half the circumference, the farthest two centres can be apart.
const HALF_CIRCUMFERENCE_KM: f64 = std::f64::consts::PI * geokit::EARTH_RADIUS_KM;

/// A centre anywhere, on a pole, or on the antimeridian.
fn random_centre(rng: &mut StdRng) -> GeoPoint {
    let lat = match rng.random_range(0..6u32) {
        0 => 90.0,
        1 => -90.0,
        _ => rng.random_range(-90.0..90.0),
    };
    let lon = match rng.random_range(0..6u32) {
        0 => -180.0,
        1 => 180.0 - 1e-9,
        _ => rng.random_range(-180.0..180.0),
    };
    GeoPoint::new(lat, lon)
}

/// A radius from a tenth of a kilometre to past the half circumference,
/// log-uniform so every scale is drawn.
fn random_radius(rng: &mut StdRng) -> f64 {
    rng.random_range(0.1f64.ln()..21_000.0f64.ln()).exp()
}

/// Disks laid out to sit on the screen's edges: pairs whose centres are
/// `rᵢ + rⱼ` apart to within a micrometre up to a kilometre, either
/// side, built with `destination`; antipodal and polar centres; and
/// radius sums on both sides of half the circumference.
fn edge_disks(rng: &mut StdRng) -> Vec<RingConstraint> {
    let mut disks = Vec::new();
    for _ in 0..rng.random_range(0..6usize) {
        disks.push(RingConstraint::disk(random_centre(rng), random_radius(rng)));
    }
    for _ in 0..rng.random_range(1..6usize) {
        let a = random_centre(rng);
        let (ri, rj) = (random_radius(rng) / 2.0, random_radius(rng) / 2.0);
        let offset = *rng
            .choose(&[-1.0, -1e-3, -1e-6, 0.0, 1e-6, 1e-3, 1.0])
            .expect("offsets");
        let b = a.destination(rng.random_range(0.0..360.0), ri + rj + offset);
        disks.push(RingConstraint::disk(a, ri));
        disks.push(RingConstraint::disk(b, rj));
    }
    for _ in 0..rng.random_range(0..3usize) {
        let a = random_centre(rng);
        let antipode = GeoPoint::new(-a.lat(), a.lon() + 180.0);
        let ri = rng.random_range(0.0..HALF_CIRCUMFERENCE_KM);
        let delta = *rng.choose(&[-5.0, -1e-6, 0.0, 1e-6, 5.0]).expect("deltas");
        disks.push(RingConstraint::disk(a, ri));
        disks.push(RingConstraint::disk(
            antipode,
            HALF_CIRCUMFERENCE_KM - ri + delta,
        ));
    }
    disks
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // The screened flags find exactly the haversine's conflicts, in the
    // same order, so the greedy resolution flags the same disks.
    #[test]
    fn screened_flags_match_the_haversine_double_loop(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let disks = edge_disks(&mut rng);
        let report = pairwise_infeasible_flags(&disks);
        prop_assert_eq!(report.conflicts, conflicts_by_haversine(&disks));
    }

    #[test]
    fn screened_flags_match_on_mixed_constellations(pair in arb_mixed_disks()) {
        let (_, disks) = pair;
        prop_assert_eq!(pairwise_infeasible_flags(&disks).conflicts, conflicts_by_haversine(&disks));
    }
}
