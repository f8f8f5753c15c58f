//! Outlier-robust multilateration: the Byzantine half of the subset
//! search.
//!
//! [`max_consistent_subset`](crate::multilateration::max_consistent_subset)
//! already tolerates *underestimating* disks — it keeps the largest
//! agreeing subset. But an **active** adversary (see
//! `netsim::adversary`) does not merely underestimate: it shapes
//! readings so that a large, mutually-consistent, *wrong* subset exists,
//! or deflates a minority of colluding landmarks until their disks
//! cannot contain the truth at all. Two defenses live here, both pure
//! geometry over [`RingConstraint`]s (no RNG, no interior state —
//! deterministic and order-invariant by construction):
//!
//! * **Pairwise speed-of-light consistency**
//!   ([`pairwise_infeasible_flags`]). Honest baseline disks (one-way
//!   time × 200 km/ms) each contain the true location, so every honest
//!   pair overlaps. Two *disjoint* baseline disks —
//!   `d(Li, Lj) > ri + rj` — are physical proof that at least one
//!   landmark's reading is a lie, with zero false positives. The
//!   conflict graph is resolved greedily: the constraint in the most
//!   conflicts is flagged first (ties broken on geometric keys only, so
//!   the flag set is invariant under input permutation), until no
//!   conflicts remain.
//! * **Trimmed subset scoring** ([`robust_max_consistent_subset`]).
//!   Flagged constraints are excluded *before* intersection, the subset
//!   search runs over the survivors, and any surviving constraint that
//!   still disagrees with the winning region is reported as discarded —
//!   named evidence for the verdict layer, not a silent shrink.

use crate::multilateration::subset::{
    constraint_overlaps_region, max_consistent_subset_profiled, SubsetResult,
};
use crate::multilateration::{DiskCache, RingConstraint};
use geokit::{Region, EARTH_RADIUS_KM};

/// The pairwise consistency verdict over one constraint set.
#[derive(Debug, Clone, PartialEq)]
pub struct PairwiseReport {
    /// Per-constraint flag, aligned with the input: true = this
    /// constraint had to be removed to clear all pairwise conflicts.
    pub flagged: Vec<bool>,
    /// Mutually-infeasible pairs in the *input* set (before any
    /// removal) as index pairs `(i, j)` with `i < j`.
    pub conflicts: Vec<(usize, usize)>,
}

/// A geometric sort key: identifies a constraint by what it *is*, not
/// where it sits in the input, so greedy tie-breaks are permutation
/// invariant. Smaller disks sort first — a deflated (colluding) reading
/// produces a *tight* disk, so among equally-conflicted constraints the
/// tightest is the most suspicious.
fn geometric_key(c: &RingConstraint) -> (u64, u64, u64, u64) {
    (
        c.max_km.to_bits(),
        c.min_km.to_bits(),
        c.center.lat().to_bits(),
        c.center.lon().to_bits(),
    )
}

/// Where the screen's `vᵢ·vⱼ − cos(θᵢ+θⱼ)` lies within this of zero,
/// [`Screen::disjoint`] asks
/// [`GeoPoint::distance_km`](geokit::GeoPoint::distance_km) instead.
/// Rounding moves that difference, and the haversine's own decision
/// measured on the same cosine scale, by about 1e-14 at most, so outside
/// the margin the sign cannot disagree with the haversine.
const SCREEN_MARGIN: f64 = 1e-9;

/// A disk prepared for pairwise tests: its centre's unit vector and the
/// cosine and sine of its angular radius, computed once per disk rather
/// than once per pair.
struct Screen<'c> {
    disk: &'c RingConstraint,
    unit: [f64; 3],
    cos_r: f64,
    sin_r: f64,
}

impl<'c> Screen<'c> {
    fn new(disk: &'c RingConstraint) -> Screen<'c> {
        let (sin_r, cos_r) = (disk.max_km / EARTH_RADIUS_KM).sin_cos();
        Screen {
            disk,
            unit: disk.center.to_unit_vector(),
            cos_r,
            sin_r,
        }
    }

    /// Exactly whether `distance_km` between the two centres exceeds the
    /// sum of the two `max_km`, mostly without the haversine.
    ///
    /// A radius sum at or past `half_circumference`, the most
    /// `distance_km` can return, never conflicts. Otherwise the centres'
    /// angle exceeds the angular radius sum `θ` (in `[0, π)`) exactly
    /// when `vᵢ·vⱼ < cos θ`, with `cos θ` expanded as
    /// `cos θᵢ cos θⱼ − sin θᵢ sin θⱼ`; the sign of the difference decides
    /// every pair outside [`SCREEN_MARGIN`]. Pairs inside the margin, and
    /// negative or non-finite sums, fall back to the haversine itself.
    fn disjoint(&self, other: &Screen<'_>, half_circumference: f64) -> bool {
        let sum = self.disk.max_km + other.disk.max_km;
        if sum >= half_circumference {
            return false;
        }
        if sum >= 0.0 {
            let (u, v) = (&self.unit, &other.unit);
            let dot = u[0] * v[0] + u[1] * v[1] + u[2] * v[2];
            let gap = dot - (self.cos_r * other.cos_r - self.sin_r * other.sin_r);
            if gap > SCREEN_MARGIN {
                return false;
            }
            if gap < -SCREEN_MARGIN {
                return true;
            }
        }
        self.disk.center.distance_km(&other.disk.center) > sum
    }
}

/// Flag constraints whose pairwise geometry is physically impossible.
///
/// Two disk constraints conflict when their centers are farther apart
/// than the sum of their outer radii: no point satisfies both, so if
/// both claim to contain the same target at least one is lying. Honest
/// *baseline* disks never conflict (each contains the truth), which
/// makes this check zero-false-positive on baseline geometry; run it on
/// baseline disks, not calibrated bestline disks, which can honestly
/// underestimate.
///
/// Each pair is decided as the haversine `distance_km` decides it, by
/// `Screen::disjoint`: a dot product of precomputed unit vectors
/// against precomputed radius trig, with the haversine called only for
/// the rare pair on the threshold.
///
/// Conflicts are cleared greedily: repeatedly flag the constraint
/// involved in the most remaining conflicts, breaking ties by
/// `geometric_key` (never by input index), until the remainder is
/// pairwise consistent. The flagged *set* is therefore invariant under
/// permutation of the input (the property test pins this).
pub fn pairwise_infeasible_flags(constraints: &[RingConstraint]) -> PairwiseReport {
    let n = constraints.len();
    // `distance_km` is the radius times 2·asin of a value clamped to 1.
    let half_circumference = EARTH_RADIUS_KM * (2.0 * 1.0f64.asin());
    let screens: Vec<Screen> = constraints.iter().map(Screen::new).collect();
    let mut conflicts: Vec<(usize, usize)> = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            if screens[i].disjoint(&screens[j], half_circumference) {
                conflicts.push((i, j));
            }
        }
    }
    let mut flagged = vec![false; n];
    if conflicts.is_empty() {
        return PairwiseReport { flagged, conflicts };
    }

    let mut degree = vec![0usize; n];
    for &(i, j) in &conflicts {
        degree[i] += 1;
        degree[j] += 1;
    }
    let mut remaining = conflicts.len();
    while remaining > 0 {
        // Highest conflict degree wins; ties go to the geometrically
        // smallest key (tightest disk first). Index order never decides:
        // identical (degree, key) constraints are interchangeable.
        let victim = (0..n)
            .filter(|&i| !flagged[i] && degree[i] > 0)
            .min_by(|&a, &b| {
                degree[b].cmp(&degree[a]).then_with(|| {
                    geometric_key(&constraints[a]).cmp(&geometric_key(&constraints[b]))
                })
            })
            .expect("remaining conflicts imply an unflagged endpoint");
        flagged[victim] = true;
        for &(i, j) in &conflicts {
            if (i == victim && !flagged[j]) || (j == victim && !flagged[i]) {
                degree[i] -= 1;
                degree[j] -= 1;
                remaining -= 1;
            }
        }
        degree[victim] = 0;
    }
    PairwiseReport { flagged, conflicts }
}

/// Result of the trimmed subset search.
#[derive(Debug)]
pub struct RobustSubsetResult {
    /// The winning region (over the unflagged constraints).
    pub region: Region,
    /// Constraints satisfied by the winning region.
    pub satisfied: usize,
    /// Constraints given (including excluded ones).
    pub total: usize,
    /// Constraints excluded up front by the pairwise flags.
    pub excluded: usize,
    /// Original indices of *unflagged* constraints that the subset
    /// search still had to discard (they do not overlap the winning
    /// region) — the "most inconsistent" residue, named for evidence.
    pub discarded: Vec<usize>,
}

/// The trimmed max-consistent-subset search: exclude `flagged`
/// constraints, run the subset search over the rest, and name any
/// surviving constraint the search still discarded.
///
/// `flagged` must align with `constraints`
/// (typically [`pairwise_infeasible_flags`]`.flagged`). With no flags
/// this reduces to
/// [`max_consistent_subset_profiled`] exactly — same region, same
/// counts. `rec` times the search's own spans and, as `defense.trim`,
/// the check that names the discarded constraints.
pub fn robust_max_consistent_subset(
    constraints: &[RingConstraint],
    flagged: &[bool],
    mask: &Region,
    cache: Option<&DiskCache>,
    rec: &obs::Recorder,
) -> RobustSubsetResult {
    assert_eq!(constraints.len(), flagged.len(), "flag/constraint mismatch");
    let kept_idx: Vec<usize> = (0..constraints.len()).filter(|&i| !flagged[i]).collect();
    let kept: Vec<RingConstraint> = kept_idx.iter().map(|&i| constraints[i]).collect();
    let SubsetResult {
        region, satisfied, ..
    } = max_consistent_subset_profiled(&kept, mask, cache, rec);
    let discarded: Vec<usize> = {
        let _span = rec.profile_span("defense.trim");
        if region.is_empty() {
            Vec::new()
        } else {
            let rows = region.row_band();
            kept_idx
                .iter()
                .copied()
                .filter(|&i| !constraint_overlaps_region(&constraints[i], &region, &rows))
                .collect()
        }
    };
    RobustSubsetResult {
        region,
        satisfied,
        total: constraints.len(),
        excluded: constraints.len() - kept.len(),
        discarded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multilateration::max_consistent_subset;
    use geokit::{GeoGrid, GeoPoint};
    use obs::Recorder;

    fn disk(lat: f64, lon: f64, r: f64) -> RingConstraint {
        RingConstraint::disk(GeoPoint::new(lat, lon), r)
    }

    #[test]
    fn honest_disks_are_never_flagged() {
        // All disks around one truth, each containing it: pairwise clean.
        let truth = GeoPoint::new(48.0, 11.0);
        let cs: Vec<RingConstraint> = [(52.0, 4.0), (45.0, 12.0), (55.0, 16.0)]
            .iter()
            .map(|&(lat, lon)| {
                let c = GeoPoint::new(lat, lon);
                disk(lat, lon, c.distance_km(&truth) + 50.0)
            })
            .collect();
        let report = pairwise_infeasible_flags(&cs);
        assert!(report.conflicts.is_empty());
        assert!(!report.flagged.contains(&true));
    }

    #[test]
    fn one_deflated_disk_is_flagged_not_its_honest_peers() {
        let truth = GeoPoint::new(48.0, 11.0);
        let mut cs: Vec<RingConstraint> = [(52.0, 4.0), (45.0, 12.0), (55.0, 16.0)]
            .iter()
            .map(|&(lat, lon)| {
                let c = GeoPoint::new(lat, lon);
                disk(lat, lon, c.distance_km(&truth) + 50.0)
            })
            .collect();
        // A colluder far away whose tiny disk cannot reach any honest one.
        cs.push(disk(-30.0, -60.0, 10.0));
        let report = pairwise_infeasible_flags(&cs);
        assert_eq!(report.flagged, vec![false, false, false, true]);
        assert_eq!(report.conflicts.len(), 3, "colluder conflicts with all 3");
    }

    #[test]
    fn flags_are_permutation_invariant() {
        let truth = GeoPoint::new(48.0, 11.0);
        let mut cs: Vec<RingConstraint> = [(52.0, 4.0), (45.0, 12.0), (55.0, 16.0), (40.0, 2.0)]
            .iter()
            .map(|&(lat, lon)| {
                let c = GeoPoint::new(lat, lon);
                disk(lat, lon, c.distance_km(&truth) + 50.0)
            })
            .collect();
        cs.push(disk(-30.0, -60.0, 10.0));
        cs.push(disk(-35.0, 140.0, 25.0));
        let baseline: Vec<_> = pairwise_infeasible_flags(&cs)
            .flagged
            .iter()
            .zip(&cs)
            .filter(|(f, _)| **f)
            .map(|(_, c)| geometric_key(c))
            .collect();
        // Reverse and a rotation: the flagged geometric set must match.
        for perm in [
            cs.iter().rev().copied().collect::<Vec<_>>(),
            cs[3..].iter().chain(&cs[..3]).copied().collect(),
        ] {
            let mut flagged: Vec<_> = pairwise_infeasible_flags(&perm)
                .flagged
                .iter()
                .zip(&perm)
                .filter(|(f, _)| **f)
                .map(|(_, c)| geometric_key(c))
                .collect();
            let mut want = baseline.clone();
            flagged.sort_unstable();
            want.sort_unstable();
            assert_eq!(flagged, want);
        }
    }

    #[test]
    fn robust_subset_reduces_to_plain_subset_without_flags() {
        let grid = GeoGrid::new(2.0);
        let mask = Region::full(grid);
        let cs = vec![disk(50.0, 8.0, 800.0), disk(48.0, 12.0, 800.0)];
        let flags = vec![false, false];
        let robust = robust_max_consistent_subset(&cs, &flags, &mask, None, &Recorder::off());
        let plain = max_consistent_subset(&cs, &mask);
        assert_eq!(robust.satisfied, plain.satisfied);
        assert_eq!(robust.excluded, 0);
        assert!(robust.discarded.is_empty());
        assert_eq!(robust.region.cell_count(), plain.region.cell_count());
    }

    #[test]
    fn excluded_constraints_cannot_drag_the_region() {
        let grid = GeoGrid::new(2.0);
        let mask = Region::full(grid);
        // Two honest disks around Munich; one tight lying disk in the
        // South Atlantic that would otherwise win cells for itself.
        let cs = vec![
            disk(50.0, 8.0, 700.0),
            disk(46.0, 14.0, 700.0),
            disk(-30.0, -20.0, 50.0),
        ];
        let report = pairwise_infeasible_flags(&cs);
        assert!(report.flagged[2]);
        let robust =
            robust_max_consistent_subset(&cs, &report.flagged, &mask, None, &Recorder::off());
        assert_eq!(robust.excluded, 1);
        assert!(robust.region.contains_point(&GeoPoint::new(48.0, 11.0)));
        assert!(!robust.region.contains_point(&GeoPoint::new(-30.0, -20.0)));
    }

    #[test]
    fn surviving_outlier_is_named_in_discarded() {
        let grid = GeoGrid::new(2.0);
        let mask = Region::full(grid);
        // Two agreeing disks and a distant loner, with pairwise flags
        // deliberately withheld: the subset search must discard the
        // loner itself and *name* it, not silently shrink.
        let cs = vec![
            disk(50.0, 8.0, 700.0),
            disk(46.0, 14.0, 700.0),
            disk(-30.0, -20.0, 300.0),
        ];
        let flags = vec![false, false, false];
        let robust = robust_max_consistent_subset(&cs, &flags, &mask, None, &Recorder::off());
        assert_eq!(robust.satisfied, 2);
        assert_eq!(robust.excluded, 0);
        assert_eq!(robust.discarded, vec![2]);
    }
}
