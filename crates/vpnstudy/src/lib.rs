#![warn(missing_docs)]

//! # vpnstudy — the end-to-end VPN location audit (paper §6)
//!
//! Everything needed to reproduce the study: seven synthetic VPN
//! providers with Fig. 14-shaped claim profiles and ground-truth server
//! placement concentrated where hosting is cheap; deployment of their
//! servers into the simulated Internet; the measurement client; the
//! two-phase, proxy-adapted CBG++ pipeline; claim assessment with
//! data-center and AS+/24 disambiguation; the IP-to-location database
//! simulation; the crowdsourced validation cohort of §5; and the
//! aggregation/reporting that regenerates Figs. 9–23.
//!
//! The whole study is one seeded, deterministic object: build a
//! [`Study`], call [`Study::run`], and interrogate the results.

pub mod audit;
pub mod campaign;
pub mod colocation;
pub mod config;
pub mod confusion;
pub mod crowd;
pub mod feasibility;
pub mod ipdb;
pub mod ops;
pub mod providers;
pub mod report;
pub mod store;

pub use audit::{
    MeasureFailure, ProxyRecord, ReliabilitySummary, Study, StudyResults, UnmeasuredProxy,
};
pub use config::StudyConfig;
pub use ops::{evaluate_slos, store_metrics, study_metrics, DEFAULT_RULES};
pub use providers::{DeployedProxy, ProviderProfile, ProviderSet};
pub use report::{tally_records, VerdictTally};
pub use store::{
    EpochId, EpochMeta, Freshness, LookupAnswer, RevalidationPriority, StoredFailure,
    StoredVerdict, VerdictStore,
};

/// A test's scratch directory under the temp dir, fresh and empty. The
/// guard removes it, with everything in it, when it drops, so test runs
/// leave nothing behind.
#[cfg(test)]
pub(crate) struct ScratchDir(std::path::PathBuf);

#[cfg(test)]
impl ScratchDir {
    /// The directory `pv-<name>-<process id>`.
    pub(crate) fn new(name: &str) -> ScratchDir {
        let dir = std::env::temp_dir().join(format!("pv-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        ScratchDir(dir)
    }

    /// The path of `file` inside the directory.
    pub(crate) fn join(&self, file: &str) -> std::path::PathBuf {
        self.0.join(file)
    }
}

#[cfg(test)]
impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
