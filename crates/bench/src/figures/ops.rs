//! The operational-telemetry bundle (not a paper figure): everything an
//! operator would scrape or load from a finished audit —
//!
//! * the ops dashboard (`report::render_ops`): progress, quantiles,
//!   and the SLO verdict under the default ruleset;
//! * the full OpenMetrics exposition, round-tripped through the in-repo
//!   parser before it leaves this function;
//! * the Perfetto/Chrome trace-event JSON of the span profile and sim
//!   clock, loadable at `ui.perfetto.dev`;
//! * the progress-snapshot JSONL (`StudyResults::snapshots_jsonl`, the
//!   same bytes the determinism matrix compares).
//!
//! The dashboard is what `figures ops` prints; with `--out` the other
//! three land as sidecar files next to it.

use crate::scale::StudyContext;
use std::fmt::Write as _;
use vpnstudy::ops;
use vpnstudy::report;

/// Everything `figures ops` produces from one finished study.
pub struct OpsBundle {
    /// Human-readable dashboard (stdout / `ops.txt`).
    pub dashboard: String,
    /// OpenMetrics exposition (`ops.metrics.om`).
    pub metrics: String,
    /// Perfetto trace-event JSON (`ops.trace.json`).
    pub trace: String,
    /// Progress-snapshot JSONL (`ops.snapshots.jsonl`).
    pub snapshots: String,
}

/// Build the full telemetry bundle from a finished study run.
pub fn ops_telemetry(ctx: &StudyContext) -> OpsBundle {
    let results = &ctx.results;
    let set = ops::study_metrics(results)
        .expect("every counter a study emits is registered in obs::registry");
    let metrics = set.render();
    // Self-check: the exposition must survive the in-repo parser
    // byte-for-byte before anything scrapes it.
    let parsed = obs::export::parse_exposition(&metrics)
        .expect("rendered exposition must parse");
    assert_eq!(parsed.render(), metrics, "exposition round-trip drifted");

    let alerts = ops::evaluate_slos(&set, None);
    let mut dashboard = report::render_ops(results, &set, &alerts);
    let _ = writeln!(dashboard, "--- SLO ruleset ---");
    let _ = write!(dashboard, "{}", ops::DEFAULT_RULES);

    OpsBundle {
        dashboard,
        metrics,
        trace: obs::perfetto::render_trace(&results.obs),
        snapshots: results.snapshots_jsonl(),
    }
}
