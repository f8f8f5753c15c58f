//! Multilateration engines: turn per-landmark distance constraints into
//! prediction regions on the global grid.

pub mod bayes;
pub mod constraint;
pub mod diskcache;
pub mod robust;
pub mod subset;

pub use bayes::{bayes_region, BayesOutput};
pub use constraint::{intersect_constraints, intersect_constraints_cached, RingConstraint};
pub use diskcache::{DiskCache, DiskCacheStats};
pub use robust::{
    pairwise_infeasible_flags, robust_max_consistent_subset, PairwiseReport, RobustSubsetResult,
};
pub use subset::{max_consistent_subset, max_consistent_subset_profiled, SubsetResult};
