//! End-to-end round trip for the on-disk verdict store: run a (tiny)
//! study, append it as two epochs, reopen the file cold, and answer all
//! three query families — per-proxy lookup with TTL grading, the
//! per-provider trend, and per-country false-claim rates — purely from
//! disk, checking them against the in-memory results.

use proxy_verifier::vpnstudy::{
    tally_records, Freshness, RevalidationPriority, Study, StudyConfig, VerdictStore,
};

const DAY_MS: u64 = 86_400_000;
const T0_MS: u64 = 1_700_000_000_000;

/// A test's scratch directory, removed with everything in it when the
/// guard drops.
struct ScratchDir(std::path::PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A store file in a fresh scratch directory of its own.
fn scratch(name: &str) -> (ScratchDir, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("pv-store-it-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join(format!("{name}.jsonl"));
    (ScratchDir(dir), path)
}

#[test]
fn study_round_trips_through_disk_and_answers_all_queries() {
    let mut config = StudyConfig::small(0x57012e);
    config.total_proxies = 24;
    let mut study = Study::build(config);
    let results = study.run();
    assert!(!results.records.is_empty(), "study produced no verdicts");

    let (_dir, path) = scratch("roundtrip");
    {
        let mut store = VerdictStore::open(&path).expect("open for writing");
        assert_eq!(store.append_epoch(&results, T0_MS).expect("epoch 0"), 0);
        assert_eq!(
            store
                .append_epoch(&results, T0_MS + DAY_MS)
                .expect("epoch 1"),
            1
        );
    } // dropped: everything below is served by a cold reopen

    let store = VerdictStore::open(&path).expect("reopen");
    assert_eq!(store.epochs().len(), 2);
    assert_eq!(store.verdicts().len(), 2 * results.records.len());
    assert_eq!(store.failures().len(), 2 * results.failures.len());

    // --- per-proxy lookup: every measured proxy answers, and the row
    // matches the in-memory record exactly (latest epoch wins).
    let now_ms = T0_MS + DAY_MS + 1_000;
    for r in &results.records {
        let answer = store
            .lookup(r.proxy.node, now_ms, DAY_MS)
            .unwrap_or_else(|| panic!("no stored verdict for node {}", r.proxy.node));
        assert_eq!(
            answer.verdict.epoch, 1,
            "lookup must serve the latest epoch"
        );
        assert_eq!(answer.recorded_at_ms, T0_MS + DAY_MS);
        assert_eq!(answer.freshness, Freshness::Fresh);
        assert_eq!(answer.revalidate, RevalidationPriority::NotNeeded);
        assert_eq!(answer.verdict.provider, r.proxy.provider);
        assert_eq!(answer.verdict.claimed, r.proxy.claimed);
        assert_eq!(answer.verdict.assessment, r.verdict.assessment);
        assert_eq!(answer.verdict.refined, r.refined.assessment);
        assert_eq!(
            answer.verdict.region_area_km2.to_bits(),
            r.region_area_km2.to_bits(),
            "floats must survive the disk round trip bit-exact"
        );
    }
    // Unmeasured proxies have no verdict row.
    for f in &results.failures {
        assert!(store.lookup(f.proxy.node, now_ms, DAY_MS).is_none());
    }

    // --- provider trend: summed across providers, each epoch's tally
    // must reproduce the in-memory refined tally of the whole study.
    let expected = tally_records(&results, true);
    let providers = study.providers.profiles.len();
    for epoch in 0..2usize {
        let mut epoch_total = proxy_verifier::vpnstudy::VerdictTally::default();
        for provider in 0..providers {
            epoch_total.absorb(&store.provider_trend(provider)[epoch].1);
        }
        assert_eq!(epoch_total, expected, "epoch {epoch} trend mismatch");
    }

    // --- country false rates: totals cover every stored verdict, rates
    // are sorted non-increasing, and each country's tally matches a
    // recount of the in-memory records (doubled for the two epochs).
    let rates = store.country_false_rates();
    let total: usize = rates.iter().map(|(_, t)| t.total()).sum();
    assert_eq!(total, store.verdicts().len());
    for pair in rates.windows(2) {
        assert!(pair[0].1.false_rate() >= pair[1].1.false_rate());
    }
    for (country, tally) in &rates {
        let recount = proxy_verifier::vpnstudy::VerdictTally::tally(
            results
                .records
                .iter()
                .filter(|r| r.proxy.claimed == *country)
                .map(|r| r.refined.assessment),
        );
        assert_eq!(tally.total(), 2 * recount.total());
        assert_eq!(tally.false_claims, 2 * recount.false_claims);
    }

    // --- staleness: past the TTL, everything queues for revalidation,
    // with caught-lying proxies first.
    let stale_ms = T0_MS + 5 * DAY_MS;
    let queue = store.revalidation_queue(stale_ms, DAY_MS);
    assert_eq!(queue.len(), results.records.len());
    for pair in queue.windows(2) {
        assert!(
            pair[0].1 >= pair[1].1,
            "queue must be sorted most-urgent first"
        );
    }
    let urgent = queue
        .iter()
        .filter(|(_, p)| *p == RevalidationPriority::Urgent)
        .count();
    assert_eq!(urgent, expected.false_claims + expected.suspicious);
}
