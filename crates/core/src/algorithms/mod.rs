//! The geolocation algorithms under test (§3, §5.1).

mod cbg;
mod cbgpp;
mod hybrid;
mod quasi_octant;
mod shortest_ping;
mod spotter;

pub use cbg::Cbg;
pub use cbgpp::{CbgPlusPlus, CbgPlusPlusVariant};
pub use hybrid::Hybrid;
pub use quasi_octant::QuasiOctant;
pub use shortest_ping::ShortestPing;
pub use spotter::Spotter;

use crate::observation::Observation;
use geokit::Region;

/// A prediction region for one target.
#[derive(Debug)]
pub struct Prediction {
    /// Cells the algorithm considers possible locations. May be empty —
    /// the failure mode CBG exhibits when disks underestimate (§5.1).
    pub region: Region,
}

impl Prediction {
    /// Convenience: area of the region, km².
    pub fn area_km2(&self) -> f64 {
        self.region.area_km2()
    }
}

/// A geolocation algorithm: observations in, region out.
///
/// `mask` is the plausibility mask (land, sub-polar — §3); every
/// algorithm's output is a subset of it.
pub trait Geolocator {
    /// Display name, as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// Estimate where the target is.
    fn locate(&self, observations: &[Observation], mask: &Region) -> Prediction;
}
