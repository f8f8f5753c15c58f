//! The span-profile figure (not a paper figure): the hierarchical
//! wall-clock profile of the study's set-up (`build.*`) and of a full
//! audit run, straight from their recorders — phase-1/phase-2 probing,
//! retries and backoff, disk intersection and the counting sweep,
//! disk-cache lookups, and report rendering, as an indented tree with
//! per-path call counts and self/cumulative time.
//!
//! Unlike the other figures this output is **machine- and
//! scheduling-dependent** (it reports real elapsed time), so it must
//! never be byte-compared by the determinism matrix. Its value is the
//! *shape*: where a run spends its time and how often each stage runs.

use crate::scale::StudyContext;
use vpnstudy::report;

/// Render the study's span tree, set-up's `build.*` spans included,
/// plus the run-shape telemetry block (thread and shard counts,
/// disk-cache hit rate).
pub fn profile_spans(ctx: &StudyContext) -> String {
    let mut out = report::render_profile(&ctx.study, &ctx.results);
    out.push('\n');
    out.push_str(&report::render_perf_telemetry(&ctx.results));
    out
}
