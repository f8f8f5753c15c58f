//! One function per paper figure/table, each returning the regenerated
//! data as text (CSV-ish series plus summary statistics).
//!
//! Absolute numbers come from the simulated substrate; the *shape* of
//! each result — who wins, by what factor, where the crossovers are — is
//! what reproduces the paper (see EXPERIMENTS.md for the side-by-side).

pub mod ablation;
pub mod adversary;
pub mod calibration;
pub mod faultsweep;
pub mod market;
pub mod ops;
pub mod profile;
pub mod store;
pub mod study;
pub mod tools;
pub mod trace;
pub mod validation;

pub use ablation::{ablation_cbgpp, fig3_fig8_maps};
pub use adversary::adversary_campaign;
pub use calibration::{fig10_estimate_ratios, fig2_calibration};
pub use faultsweep::fault_sweep;
pub use market::fig14_market;
pub use ops::{ops_telemetry, OpsBundle};
pub use profile::profile_spans;
pub use store::verdict_store;
pub use study::{
    fig13_eta, fig16_colocation_group, fig17_overall, fig18_provider_country, fig19_provider_maps,
    fig20_region_size_vs_landmark, fig21_method_comparison, fig22_continent_confusion,
    fig23_country_confusion, headline_numbers,
};
pub use tools::{fig4_tools_linux, fig5_fig6_tools_windows, fig7_tool_semantics};
pub use trace::trace_observability;
pub use validation::{fig11_effectiveness, fig9_algorithm_comparison};
