//! CBG's bestline/baseline model (§3.1), plus the CBG++ slowline (§5.1).
//!
//! For each landmark, CBG fits a **bestline** over the calibration
//! scatter of one-way time `y` (ms) as a function of distance `x` (km):
//! the line `y = b + m·x` that is *below every point* but *as close as
//! possible to all of them* (minimum total vertical residual), with the
//! physical constraint that its implied speed `1/m` not exceed the
//! **baseline** speed of 200 km/ms. CBG++ adds the **slowline**: the
//! implied speed may not fall below 84.5 km/ms either, because a landmark
//! can never be farther than half the Earth's circumference away and
//! one-way delays past 237 ms say nothing (§5.1).
//!
//! The optimal constrained line lies on the lower convex hull of the
//! scatter ([`geokit::hull::line_below`]). A landmark's CBG++ bestline is
//! fitted once, when its [`CalibrationSet`] is built (the paper's landmark
//! server refreshes one model per landmark, §4.1); plain CBG fits on
//! demand with the same routine.

use atlas::CalibrationSet;
use geokit::hull::line_below;
use geokit::regress::Line;
use geokit::{BASELINE_SLOPE_MS_PER_KM, FIBER_SPEED_KM_PER_MS};

/// A fitted per-landmark CBG model.
#[derive(Debug, Clone, PartialEq)]
pub struct CbgModel {
    /// Bestline intercept, ms (may be slightly negative under noise;
    /// negative intercepts only enlarge distance bounds).
    pub intercept_ms: f64,
    /// Bestline slope, ms/km (≥ baseline slope; ≤ slowline slope when
    /// fitted with `calibrate_with_slowline`).
    pub slope_ms_per_km: f64,
}

impl CbgModel {
    /// Plain CBG fit: slope constrained to `[1/200, ∞)` ms/km.
    pub fn calibrate(set: &CalibrationSet) -> CbgModel {
        line_below(set.points(), BASELINE_SLOPE_MS_PER_KM, f64::INFINITY).into()
    }

    /// CBG++ fit: slope additionally capped at the slowline
    /// (`1/84.5` ms/km), eliminating a class of underestimates (§5.1).
    /// The set fitted it when it was built; this reads it.
    pub fn calibrate_with_slowline(set: &CalibrationSet) -> CbgModel {
        set.bestline().into()
    }

    /// Bestline distance bound: the farthest the target can be given a
    /// one-way time, km. Zero if the time is below the intercept.
    pub fn max_distance_km(&self, one_way_ms: f64) -> f64 {
        ((one_way_ms - self.intercept_ms) / self.slope_ms_per_km).max(0.0)
    }

    /// Baseline distance bound: distance at the raw fibre speed. This is
    /// the physically-unbeatable bound CBG++ uses for its filter disks.
    pub fn baseline_distance_km(one_way_ms: f64) -> f64 {
        (one_way_ms * FIBER_SPEED_KM_PER_MS).max(0.0)
    }

    /// The implied bestline speed, km/ms (for reporting; the paper's
    /// example lands at 93.5 km/ms).
    pub fn speed_km_per_ms(&self) -> f64 {
        1.0 / self.slope_ms_per_km
    }
}

impl From<Line> for CbgModel {
    fn from(line: Line) -> CbgModel {
        CbgModel {
            intercept_ms: line.intercept,
            slope_ms_per_km: line.slope,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geokit::hull::lower_hull;
    use geokit::SLOWLINE_SPEED_KM_PER_MS;

    fn set(points: Vec<(f64, f64)>) -> CalibrationSet {
        CalibrationSet::from_points(points)
    }

    /// Synthetic scatter around an effective speed of 100 km/ms with
    /// queueing noise above.
    fn noisy_scatter() -> CalibrationSet {
        let mut pts = Vec::new();
        for i in 1..=60 {
            let d = f64::from(i) * 150.0;
            // floor at 100 km/ms + deterministic pseudo-noise above
            let noise = f64::from((i * 37) % 11) * 2.0;
            pts.push((d, d / 100.0 + 0.5 + noise));
        }
        set(pts)
    }

    #[test]
    fn bestline_is_below_all_points() {
        let s = noisy_scatter();
        let m = CbgModel::calibrate(&s);
        for &(x, y) in s.points() {
            assert!(
                y + 1e-9 >= m.intercept_ms + m.slope_ms_per_km * x,
                "point ({x}, {y}) below bestline"
            );
        }
    }

    #[test]
    fn bestline_speed_is_subluminal() {
        let m = CbgModel::calibrate(&noisy_scatter());
        assert!(m.speed_km_per_ms() <= FIBER_SPEED_KM_PER_MS + 1e-9);
        // And for this scatter it should be close to the true 100 km/ms.
        assert!(
            (m.speed_km_per_ms() - 100.0).abs() < 15.0,
            "speed {}",
            m.speed_km_per_ms()
        );
    }

    #[test]
    fn max_distance_inverts_the_line() {
        let m = CbgModel {
            intercept_ms: 1.0,
            slope_ms_per_km: 0.01,
        };
        assert!((m.max_distance_km(3.0) - 200.0).abs() < 1e-9);
        assert_eq!(m.max_distance_km(0.5), 0.0); // below intercept
    }

    #[test]
    fn baseline_distance_is_fiber_speed() {
        assert_eq!(CbgModel::baseline_distance_km(10.0), 2000.0);
    }

    #[test]
    fn slowline_caps_pathological_fits() {
        // All calibration points extremely slow (heavy congestion):
        // an unconstrained bestline would estimate a very slow speed and
        // tiny disks; the slowline clamps it.
        let slow = set((1..=30)
            .map(|i| {
                let d = f64::from(i) * 100.0;
                (d, d / 20.0) // 20 km/ms — slower than the slowline
            })
            .collect());
        let plain = CbgModel::calibrate(&slow);
        assert!(plain.speed_km_per_ms() < SLOWLINE_SPEED_KM_PER_MS);
        let clamped = CbgModel::calibrate_with_slowline(&slow);
        assert!(
            (clamped.speed_km_per_ms() - SLOWLINE_SPEED_KM_PER_MS).abs() < 1e-9,
            "slowline clamp missing: {}",
            clamped.speed_km_per_ms()
        );
        // The clamped model yields larger (safer) distance bounds.
        assert!(clamped.max_distance_km(50.0) > plain.max_distance_km(50.0));
    }

    #[test]
    fn empty_calibration_falls_back_to_baseline() {
        let m = CbgModel::calibrate(&CalibrationSet::default());
        assert_eq!(m.intercept_ms, 0.0);
        assert!((m.speed_km_per_ms() - FIBER_SPEED_KM_PER_MS).abs() < 1e-9);
    }

    #[test]
    fn clamped_slope_stays_feasible() {
        // A single point faster than the slowline: the clamped slope
        // forces a negative intercept, but the line must still pass
        // through (or below) the point — never above it.
        let s = set(vec![(10_000.0, 20.0)]);
        let m = CbgModel::calibrate_with_slowline(&s);
        assert!(
            m.intercept_ms + m.slope_ms_per_km * 10_000.0 <= 20.0 + 1e-9,
            "line above the calibration point"
        );
        // And the resulting max-distance estimate can only overshoot.
        assert!(m.max_distance_km(20.0) >= 10_000.0 - 1e-6);
    }

    #[test]
    fn residual_is_minimized_among_candidates() {
        // Construct a hull with two distinct edges and check the fit
        // picks the edge with smaller total residual.
        let s = set(vec![
            (100.0, 1.0),
            (1000.0, 6.0),
            (5000.0, 40.0),
            (200.0, 8.0),
            (3000.0, 35.0),
            (4000.0, 50.0),
        ]);
        let m = CbgModel::calibrate(&s);
        // Whatever the winner, it must be feasible …
        for &(x, y) in s.points() {
            assert!(y + 1e-9 >= m.intercept_ms + m.slope_ms_per_km * x);
        }
        // … and cost-optimal vs a brute-force scan of hull edges.
        let hull = lower_hull(s.points());
        let mut best_cost = f64::INFINITY;
        for w in hull.windows(2) {
            let slope = ((w[1].1 - w[0].1) / (w[1].0 - w[0].0)).max(BASELINE_SLOPE_MS_PER_KM);
            let intercept = s
                .points()
                .iter()
                .map(|&(x, y)| y - slope * x)
                .fold(f64::INFINITY, f64::min);
            let cost: f64 = s
                .points()
                .iter()
                .map(|&(x, y)| y - (intercept + slope * x))
                .sum();
            best_cost = best_cost.min(cost);
        }
        let fit_cost: f64 = s
            .points()
            .iter()
            .map(|&(x, y)| y - (m.intercept_ms + m.slope_ms_per_km * x))
            .sum();
        assert!(fit_cost <= best_cost + 1e-9, "{fit_cost} vs {best_cost}");
    }
}
