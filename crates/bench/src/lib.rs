#![warn(missing_docs)]

//! Shared harness for the figure-regeneration binary and the Criterion
//! benches: study/crowd context builders at three scales, plus small
//! text-rendering helpers (ASCII CDFs, aligned tables).

pub mod artifact;
pub mod determinism;
pub mod figures;
pub mod gate;
pub mod harness;
pub mod render;
pub mod scale;

pub use scale::{build_crowd_context, build_study_context, CrowdContext, Scale, StudyContext};
