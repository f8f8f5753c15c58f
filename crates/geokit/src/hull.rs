//! Lower convex hulls of planar point sets.
//!
//! (Quasi-)Octant models the fastest feasible delay for a given distance by
//! the **lower** boundary of the convex hull of the (distance, delay)
//! calibration scatter (paper §3.2). This module provides that hull, a
//! piecewise-linear evaluator over it, and CBG's line below the scatter
//! (paper §3.1), whose optimum lies on the hull.

use crate::regress::Line;

/// Compute the lower convex hull of a point set.
///
/// Returns hull vertices sorted by ascending x. Every input point lies on or
/// above the polyline through these vertices. Duplicate x values keep only
/// the lowest y. Fewer than one point returns an empty vec.
pub fn lower_hull(points: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let mut pts: Vec<(f64, f64)> = points.to_vec();
    pts.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .expect("NaN x in hull input")
            .then(a.1.partial_cmp(&b.1).expect("NaN y in hull input"))
    });
    pts.dedup_by(|b, a| {
        if (a.0 - b.0).abs() < 1e-12 {
            // Same x: keep the lower y (first after sort).
            true
        } else {
            false
        }
    });
    if pts.len() <= 2 {
        return pts;
    }
    let mut hull: Vec<(f64, f64)> = Vec::with_capacity(pts.len());
    for p in pts {
        while hull.len() >= 2 {
            let a = hull[hull.len() - 2];
            let b = hull[hull.len() - 1];
            // Keep b only if it is strictly below the a→p chord (a right
            // turn for the lower hull); cross ≤ 0 means b is on or above.
            let cross = (b.0 - a.0) * (p.1 - a.1) - (b.1 - a.1) * (p.0 - a.0);
            if cross <= 0.0 {
                hull.pop();
            } else {
                break;
            }
        }
        hull.push(p);
    }
    hull
}

/// Fit the line below every point that is as close as possible to all of
/// them (minimum total vertical residual), with slope in
/// `[min_slope, max_slope]` (`max_slope` may be infinite).
///
/// The optimal constrained line lies on the lower hull: every hull edge
/// is a candidate slope, as are the two clamps, each pushed down until it
/// clears every point; the cheapest candidate wins (the earliest on a
/// tie). The intercept may be negative when noisy points sit below the
/// physical floor; for a delay–distance bestline that only enlarges
/// distance bounds, the safe direction. No points gives the `min_slope`
/// line through the origin.
pub fn line_below(points: &[(f64, f64)], min_slope: f64, max_slope: f64) -> Line {
    if points.is_empty() {
        return Line {
            intercept: 0.0,
            slope: min_slope,
        };
    }

    let hull = lower_hull(points);
    let mut slopes: Vec<f64> = hull
        .windows(2)
        .filter(|w| w[1].0 > w[0].0)
        .map(|w| (w[1].1 - w[0].1) / (w[1].0 - w[0].0))
        .collect();
    slopes.push(min_slope);
    if max_slope.is_finite() {
        slopes.push(max_slope);
    }

    let sum_x: f64 = points.iter().map(|p| p.0).sum();
    let sum_y: f64 = points.iter().map(|p| p.1).sum();
    let n = points.len() as f64;

    let mut best: Option<Line> = None;
    let mut best_cost = f64::INFINITY;
    for slope in slopes {
        let slope = slope.clamp(min_slope, max_slope);
        let intercept = points
            .iter()
            .map(|&(x, y)| y - slope * x)
            .fold(f64::INFINITY, f64::min);
        // Total residual of a feasible (below-all-points) line.
        let cost = sum_y - (slope * sum_x + n * intercept);
        debug_assert!(cost >= -1e-9, "negative residual for feasible line");
        if cost < best_cost {
            best_cost = cost;
            best = Some(Line { intercept, slope });
        }
    }
    best.expect("at least one candidate slope")
}

/// A piecewise-linear function through hull vertices, clamped flat beyond
/// the first and last vertex.
#[derive(Debug, Clone)]
pub struct PiecewiseLinear {
    vertices: Vec<(f64, f64)>,
}

impl PiecewiseLinear {
    /// Build from vertices sorted by ascending x (as returned by
    /// [`lower_hull`]).
    ///
    /// # Panics
    /// Panics if empty or not sorted by x.
    pub fn new(vertices: Vec<(f64, f64)>) -> Self {
        assert!(!vertices.is_empty(), "piecewise-linear needs ≥ 1 vertex");
        assert!(
            vertices.windows(2).all(|w| w[0].0 <= w[1].0),
            "piecewise-linear vertices must be sorted by x"
        );
        PiecewiseLinear { vertices }
    }

    /// Vertices of the polyline.
    pub fn vertices(&self) -> &[(f64, f64)] {
        &self.vertices
    }

    /// Evaluate at `x`: linear interpolation between bracketing vertices,
    /// constant extrapolation outside the vertex range.
    pub fn eval(&self, x: f64) -> f64 {
        let v = &self.vertices;
        if x <= v[0].0 {
            return v[0].1;
        }
        if x >= v[v.len() - 1].0 {
            return v[v.len() - 1].1;
        }
        // Binary search for the segment containing x.
        let idx = v.partition_point(|p| p.0 <= x);
        let (x0, y0) = v[idx - 1];
        let (x1, y1) = v[idx];
        if (x1 - x0).abs() < 1e-12 {
            return y0.min(y1);
        }
        y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    }

    /// The x of the last vertex (the hull's reach; beyond it Octant switches
    /// to fixed empirical speeds).
    pub fn max_x(&self) -> f64 {
        self.vertices[self.vertices.len() - 1].0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hull_of_v_shape() {
        let pts = [(0.0, 2.0), (1.0, 0.0), (2.0, 2.0)];
        let h = lower_hull(&pts);
        assert_eq!(h, vec![(0.0, 2.0), (1.0, 0.0), (2.0, 2.0)]);
    }

    #[test]
    fn hull_drops_interior_points() {
        let pts = [(0.0, 0.0), (1.0, 5.0), (2.0, 1.0), (3.0, 4.0), (4.0, 0.5)];
        let h = lower_hull(&pts);
        // Points above the 0→2→4 chain are dropped... check all inputs on/above.
        for &(x, y) in &pts {
            let pl = PiecewiseLinear::new(h.clone());
            assert!(y >= pl.eval(x) - 1e-9, "({x},{y}) below hull");
        }
        assert!(h.len() < pts.len());
    }

    #[test]
    fn hull_all_points_above() {
        // Pseudo-random-ish deterministic scatter.
        let pts: Vec<(f64, f64)> = (0..200)
            .map(|i| {
                let x = f64::from(i % 50) * 3.0;
                let y = x * 0.01 + f64::from((i * 37) % 17);
                (x, y)
            })
            .collect();
        let h = lower_hull(&pts);
        let pl = PiecewiseLinear::new(h);
        for &(x, y) in &pts {
            assert!(y >= pl.eval(x) - 1e-9, "({x},{y}) below hull");
        }
    }

    #[test]
    fn hull_duplicate_x_keeps_lowest() {
        let pts = [(1.0, 5.0), (1.0, 2.0), (3.0, 1.0)];
        let h = lower_hull(&pts);
        assert_eq!(h, vec![(1.0, 2.0), (3.0, 1.0)]);
    }

    #[test]
    fn hull_is_convex() {
        let pts: Vec<(f64, f64)> = (0..100)
            .map(|i| (f64::from(i), ((i * 7919) % 101) as f64))
            .collect();
        let h = lower_hull(&pts);
        // Slopes along the lower hull must be non-decreasing.
        let slopes: Vec<f64> = h
            .windows(2)
            .map(|w| (w[1].1 - w[0].1) / (w[1].0 - w[0].0))
            .collect();
        assert!(
            slopes.windows(2).all(|s| s[0] <= s[1] + 1e-9),
            "slopes not convex: {slopes:?}"
        );
    }

    #[test]
    fn piecewise_eval_clamps_ends() {
        let pl = PiecewiseLinear::new(vec![(1.0, 10.0), (3.0, 20.0)]);
        assert_eq!(pl.eval(0.0), 10.0);
        assert_eq!(pl.eval(4.0), 20.0);
        assert!((pl.eval(2.0) - 15.0).abs() < 1e-12);
        assert_eq!(pl.max_x(), 3.0);
    }

    #[test]
    fn singleton_hull() {
        let h = lower_hull(&[(2.0, 3.0)]);
        assert_eq!(h, vec![(2.0, 3.0)]);
        let pl = PiecewiseLinear::new(h);
        assert_eq!(pl.eval(-10.0), 3.0);
        assert_eq!(pl.eval(10.0), 3.0);
    }

    #[test]
    fn empty_input_empty_hull() {
        assert!(lower_hull(&[]).is_empty());
    }
}
