#![warn(missing_docs)]

//! # proxy-verifier
//!
//! A from-scratch reproduction of *"How to Catch when Proxies Lie:
//! Verifying the Physical Locations of Network Proxies with Active
//! Geolocation"* (Weinberg, Cho, Christin, Sekar, Gill — IMC 2018), as a
//! Rust workspace:
//!
//! | crate | role |
//! |---|---|
//! | [`geokit`] | geodesy, global grid regions, statistics |
//! | [`worldmap`] | countries, continents, land mask, data centers, VPN market |
//! | [`netsim`] | deterministic packet-level Internet simulator |
//! | [`atlas`] | landmark constellation, calibration, measurement tools |
//! | [`geoloc`] | CBG, Quasi-Octant, Spotter, Hybrid, CBG++, ICLab, two-phase engine, proxy adaptation |
//! | [`vpnstudy`] | the end-to-end §6 audit of seven VPN providers |
//!
//! This top-level crate re-exports the pieces a downstream user touches
//! first and hosts the runnable examples and cross-crate integration
//! tests. Start with `examples/quickstart.rs`, or run the full study:
//!
//! ```no_run
//! use proxy_verifier::{Study, StudyConfig};
//!
//! let mut study = Study::build(StudyConfig::small(42));
//! let results = study.run();
//! let (credible, uncertain, false_claims) = results.counts(true);
//! println!("credible {credible}, uncertain {uncertain}, false {false_claims}");
//! ```

pub use atlas;
pub use geokit;
pub use geoloc;
pub use netsim;
pub use obs;
pub use vpnstudy;
pub use worldmap;

pub use geokit::{GeoGrid, GeoPoint, Region};
pub use geoloc::algorithms::{Cbg, CbgPlusPlus, Hybrid, QuasiOctant, ShortestPing, Spotter};
pub use geoloc::{Assessment, Geolocator, Observation, Prediction};
pub use vpnstudy::{Study, StudyConfig};
pub use worldmap::{Continent, WorldAtlas};
