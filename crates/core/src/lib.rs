#![warn(missing_docs)]

//! # geoloc — active geolocation algorithms
//!
//! The paper's primary contribution, reimplemented in full:
//!
//! * [`delay_model`] — the three delay–distance model families:
//!   CBG's *bestline/baseline* (plus CBG++'s *slowline*, §3.1/§5.1),
//!   (Quasi-)Octant's convex-hull piecewise-linear envelopes with 50 %/75 %
//!   cutoffs (§3.2), and Spotter's constrained-cubic μ/σ fit (§3.3).
//! * [`multilateration`] — disk intersection, ring intersection, and
//!   Spotter's Bayesian ring-product, all on the global grid, plus the
//!   largest-consistent-subset search CBG++ needs (§5.1).
//! * [`algorithms`] — the five geolocators under test: [`algorithms::Cbg`],
//!   [`algorithms::QuasiOctant`], [`algorithms::Spotter`],
//!   [`algorithms::Hybrid`], and [`algorithms::CbgPlusPlus`], behind one
//!   [`Geolocator`] trait.
//! * [`iclab`] — the ICLab speed-limit checker the paper compares against
//!   (§6.2).
//! * [`twophase`] — the two-phase measurement engine (§4.1): continent
//!   guess from three anchors per continent, then 25 random same-continent
//!   landmarks.
//! * [`proxy`] — proxy adaptation (§5.3): tunnel self-ping, η estimation
//!   (robust regression), and indirect-RTT correction.
//! * [`reliability`] — the measurement reliability layer: per-probe
//!   retries with seeded exponential backoff, method fallback
//!   (ping → TCP connect, §4.2), quorum-degraded two-phase runs, and
//!   explicit diagnostics on every result.
//! * [`assess`] — country-claim assessment: *credible / uncertain / false*
//!   (§6), with continent-level refinements.
//! * [`disambiguate`] — the data-center and AS+/24 metadata
//!   disambiguation of §6 (Figs. 15–16).
//! * [`effectiveness`] — the effective-measurement analysis of §5.2
//!   (Fig. 11).

pub mod algorithms;
pub mod assess;
pub mod defense;
pub mod delay_model;
pub mod disambiguate;
pub mod effectiveness;
pub mod iclab;
pub mod multilateration;
pub mod observation;
pub mod proxy;
pub mod reliability;
pub mod twophase;

pub use algorithms::{Geolocator, Prediction};
pub use assess::Assessment;
pub use defense::{run_defense, DefenseConfig, DefenseReport, TunnelPings};
pub use observation::Observation;
pub use reliability::{MeasurementDiagnostics, ProbeScheduler, ReliabilityConfig, RetryPolicy};
pub use twophase::{MeasurementStatus, ReliableTwoPhase};
