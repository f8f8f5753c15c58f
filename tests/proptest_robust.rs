//! Property-based tests for the Byzantine-robust multilateration layer:
//! the pairwise speed-of-light flags and the trimmed subset search must
//! be pure functions of the constraint *set* — invariant under input
//! permutation — and the robust region must never lean on a flagged
//! (provably lying) constraint.

use geokit::{GeoGrid, GeoPoint, Region};
use geoloc::multilateration::{
    pairwise_infeasible_flags, robust_max_consistent_subset, RingConstraint,
};
use obs::Recorder;
use simrng::prop::prelude::*;

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
        prop_assert_eq!(a.flagged_count(), b.flagged_count());
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
        prop_assert!(report.is_clean(), "honest baseline disks flagged: {:?}", report.conflicts);
        prop_assert_eq!(report.flagged_count(), 0);
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
        prop_assert_eq!(robust.excluded, report.flagged_count());
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
