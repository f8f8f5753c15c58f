#![warn(missing_docs)]

//! # geokit — geodesy, spatial grids, and statistics substrate
//!
//! This crate provides every piece of spherical geometry and numerical
//! machinery that active geolocation needs:
//!
//! * [`GeoPoint`] — positions on the Earth, with great-circle distance,
//!   bearing, and destination-point math on the mean-radius sphere
//!   (sufficient for multilateration at 0.1 % error; the paper itself works
//!   with disks hundreds of kilometres across).
//! * [`Shape`] — spherical caps, latitude/longitude boxes (with antimeridian
//!   wrap) and unions thereof, used by the `worldmap` crate to describe
//!   countries and by multilateration to describe constraints.
//! * [`GeoGrid`] / [`Region`] — a global equal-angle grid with per-cell
//!   spherical areas, and bitset regions over it supporting intersection,
//!   union, area, centroid, and distance-to-region queries. All prediction
//!   regions in the geolocation core are `Region`s.
//! * [`regress`] — ordinary least squares, constrained polynomial fits,
//!   and the Theil–Sen robust line used to estimate the proxy self-ping
//!   factor η (paper §5.3, Fig. 13).
//! * [`hull`] — the lower convex hull used by (Quasi-)Octant's
//!   delay–distance model.
//! * [`stats`] — ECDFs, percentiles, and summary statistics used to render
//!   the paper's CDF figures.
//! * [`sampling`] — deterministic samplers (normal, lognormal, Pareto)
//!   built on a seeded [`simrng::Rng`], used by the network simulator;
//!   the `rand` crate's distribution companions are not in our dependency
//!   budget, so these are implemented from first principles.
//!
//! Everything here is pure computation: no I/O, no globals, no panics on
//! untrusted numeric input (NaNs are rejected at construction time).

pub mod angle;
pub mod grid;
pub mod hull;
pub mod linalg;
pub mod point;
pub mod region;
pub mod regress;
pub mod sampling;
pub mod shapes;
pub mod stats;

pub use grid::{CapRaster, CellId, GeoGrid, GridTrig, PointTrig, RowSpan};
pub use point::GeoPoint;
pub use region::Region;
pub use shapes::{GeoBox, Shape, SphericalCap};

/// Mean Earth radius in kilometres (IUGG mean radius R1).
pub const EARTH_RADIUS_KM: f64 = 6371.0088;

/// Half the equatorial circumference: the maximum possible great-circle
/// distance between two points on Earth, ≈ 20 037.5 km. The paper uses this
/// figure to derive the CBG++ "slowline" (§5.1).
pub const MAX_GC_DISTANCE_KM: f64 = 20_037.508;

/// Speed of light in fibre, ≈ 2/3 c, in km per millisecond. This is CBG's
/// "baseline" propagation speed (paper §3.1).
pub const FIBER_SPEED_KM_PER_MS: f64 = 200.0;

/// The CBG++ "slowline" speed (paper §5.1): no landmark can be farther than
/// half the equatorial circumference from the target, and one-way times over
/// 237 ms could have used a geostationary hop, so delays are clamped to a
/// minimum speed of 20 037.508 / 237 ≈ 84.5 km/ms.
pub const SLOWLINE_SPEED_KM_PER_MS: f64 = MAX_GC_DISTANCE_KM / 237.0;

/// Slope of the baseline in ms/km (1 / 200 km·ms⁻¹).
pub const BASELINE_SLOPE_MS_PER_KM: f64 = 1.0 / FIBER_SPEED_KM_PER_MS;

/// Slope of the slowline in ms/km (1 / 84.5 km·ms⁻¹).
pub const SLOWLINE_SLOPE_MS_PER_KM: f64 = 1.0 / SLOWLINE_SPEED_KM_PER_MS;

/// Total land area of Earth in km², used to normalize prediction-region
/// areas for Fig. 9 panel C ("roughly 150 square megametres", §5.2).
pub const EARTH_LAND_AREA_KM2: f64 = 1.489e8;
