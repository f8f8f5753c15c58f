//! The verdict-store figure (not a paper figure): write a finished
//! study into an on-disk [`VerdictStore`] as three epochs, reopen it,
//! and render what the store can answer *without re-measuring anything*
//! — per-provider verdict trends across epochs, per-country false-claim
//! rates, and the TTL-driven revalidation queue.
//!
//! Epoch timestamps are synthetic (one day apart): the store takes the
//! caller's clock, so the figure is as deterministic as the study run
//! behind it.

use crate::scale::StudyContext;
use std::fmt::Write as _;
use vpnstudy::{RevalidationPriority, VerdictStore};

/// One synthetic day, in the store's millisecond clock.
const DAY_MS: u64 = 86_400_000;
/// Synthetic clock origin for the rendered epochs.
const T0_MS: u64 = 1_700_000_000_000;

/// Render the verdict-store summary from a finished study run.
pub fn verdict_store(ctx: &StudyContext) -> String {
    let mut out = String::new();

    // Three epochs of the same run, a day apart, in a scratch file.
    let path = std::env::temp_dir().join(format!("pv-figures-store-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut writer = VerdictStore::open(&path).expect("open scratch store");
    for epoch in 0..3u64 {
        writer
            .append_epoch(&ctx.results, T0_MS + epoch * DAY_MS)
            .expect("append epoch");
    }
    drop(writer);

    // Everything below is served by a *reopened* store: disk is the only
    // channel between the study run and the queries.
    let store = VerdictStore::open(&path).expect("reopen store");
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    let _ = writeln!(
        out,
        "# verdict store: {} epochs, {} verdicts, {} unmeasured, {} bytes on disk",
        store.epochs().len(),
        store.verdicts().len(),
        store.failures().len(),
        bytes
    );

    // --- per-provider verdict trend across epochs -------------------
    let _ = writeln!(out, "## provider trend (refined verdicts per epoch)");
    let _ = writeln!(out, "# provider,epoch,credible,uncertain,false,suspicious");
    for (idx, profile) in ctx.study.providers.profiles.iter().enumerate() {
        for (epoch, tally) in store.provider_trend(idx) {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{}",
                profile.name,
                epoch,
                tally.credible,
                tally.uncertain,
                tally.false_claims,
                tally.suspicious
            );
        }
    }

    // --- per-country false-claim rates ------------------------------
    let atlas = ctx.study.world.atlas();
    let rates = store.country_false_rates();
    let _ = writeln!(out, "## claimed-country false rates (top 15 by rate)");
    let _ = writeln!(out, "# country,claims,false,rate");
    for (country, tally) in rates.iter().take(15) {
        let _ = writeln!(
            out,
            "{},{},{},{:.3}",
            atlas.country(*country).name(),
            tally.total(),
            tally.false_claims,
            tally.false_rate()
        );
    }
    let _ = writeln!(out, "# {} claimed countries total", rates.len());

    // --- revalidation queue under a 1-day TTL -----------------------
    // Judged two days after the last epoch, so everything is stale and
    // the queue shows the priority mix the TTL policy would schedule.
    let now_ms = T0_MS + 4 * DAY_MS;
    let queue = store.revalidation_queue(now_ms, DAY_MS);
    let mut by_priority = [0usize; 3];
    for (_, p) in &queue {
        match p {
            RevalidationPriority::Urgent => by_priority[0] += 1,
            RevalidationPriority::Elevated => by_priority[1] += 1,
            RevalidationPriority::Routine => by_priority[2] += 1,
            RevalidationPriority::NotNeeded => {}
        }
    }
    let _ = writeln!(out, "## revalidation queue (1-day TTL, 2 days stale)");
    let _ = writeln!(
        out,
        "# {} proxies queued: {} urgent (caught lying), {} elevated (unsettled), {} routine",
        queue.len(),
        by_priority[0],
        by_priority[1],
        by_priority[2]
    );
    // Nothing is stale when queried inside the TTL.
    let fresh_queue = store.revalidation_queue(T0_MS + 2 * DAY_MS + DAY_MS / 2, DAY_MS);
    let _ = writeln!(
        out,
        "# inside the TTL the queue is empty: {} queued",
        fresh_queue.len()
    );

    let _ = std::fs::remove_file(&path);
    out
}
