//! Property tests for the shard plan and `StudyResults::merge`, the two
//! halves of the audit's master/worker determinism contract:
//!
//! * `plan_shards` always yields contiguous, balanced ranges covering
//!   the proxy universe exactly once;
//! * merging is insensitive to the order shards arrive in (workers
//!   finish in any order), a single full-universe shard is the identity
//!   (the monolithic run *is* a one-shard merge), and empty shards are
//!   neutral (more shards than proxies is legal).
//!
//! Studies here use a reduced proxy universe — merge semantics do not
//! depend on study size, and each property case needs a fresh
//! `run_shards` (merging consumes the master recorder, and absorbing a
//! shard trace drains it).

use bench::determinism::contract_bytes;
use proxy_verifier::vpnstudy::audit::{plan_shards, StudyResults};
use proxy_verifier::vpnstudy::{Study, StudyConfig};
use simrng::prop::prelude::*;

/// A CI-small study shrunk further: merge behaviour is what's under
/// test, not the measurement pipeline.
fn tiny_config(seed: u64) -> StudyConfig {
    let mut config = StudyConfig::small(seed);
    config.total_proxies = 6;
    config
}

/// The monolithic reference: one shard, one worker. Runs compare by
/// contract bytes (`bench::determinism`), which hold everything the
/// merge assembles: records in proxy order, failures, exact cache
/// counters, the absorbed event trace and the reports built from them.
fn reference(seed: u64) -> String {
    let mut study = Study::build(tiny_config(seed));
    let results = study.run_sharded(1, 1);
    contract_bytes(&study, &results)
}

/// Deterministically shuffle by a rotation + parity reversal derived
/// from `perm`: enough to exercise arbitrary arrival orders without an
/// RNG.
fn permute<T>(mut items: Vec<T>, perm: u64) -> Vec<T> {
    if perm % 2 == 1 {
        items.reverse();
    }
    let rot = (perm as usize / 2) % items.len().max(1);
    items.rotate_left(rot);
    items
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // The plan is a partition of 0..total into contiguous ranges in
    // shard order, sizes differing by at most one.
    #[test]
    fn plan_covers_the_universe_contiguously(
        seed in 0u64..1_000_000,
        total in 0usize..500,
        shard_count in 1usize..40,
    ) {
        let plan = plan_shards(seed, total, shard_count);
        prop_assert_eq!(plan.len(), shard_count);
        let mut cursor = 0usize;
        let (mut min_len, mut max_len) = (usize::MAX, 0usize);
        for (i, spec) in plan.iter().enumerate() {
            prop_assert_eq!(spec.shard_id, i);
            prop_assert_eq!(spec.shard_count, shard_count);
            prop_assert_eq!(spec.start, cursor, "range gap or overlap");
            prop_assert!(spec.end >= spec.start);
            min_len = min_len.min(spec.end - spec.start);
            max_len = max_len.max(spec.end - spec.start);
            cursor = spec.end;
        }
        prop_assert_eq!(cursor, total, "plan does not cover the universe");
        prop_assert!(max_len - min_len <= 1, "unbalanced: {min_len}..{max_len}");
    }

    // Distinct shards get distinct network lineages (the seed mix is
    // injective over the plan), while the plan's ranges never depend on
    // the seed.
    #[test]
    fn plan_seeds_are_distinct_and_ranges_seed_free(
        seed_a in 0u64..1_000_000,
        seed_b in 0u64..1_000_000,
        shard_count in 2usize..20,
    ) {
        let plan = plan_shards(seed_a, 100, shard_count);
        let mut seeds: Vec<u64> = plan.iter().map(|s| s.net_seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        prop_assert_eq!(seeds.len(), shard_count, "net_seed collision");
        let other = plan_shards(seed_b, 100, shard_count);
        for (a, b) in plan.iter().zip(&other) {
            prop_assert_eq!((a.start, a.end), (b.start, b.end));
        }
    }
}

proptest! {
    // Each case runs a real (tiny) study, so keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Merge is insensitive to shard arrival order: workers may finish in
    // any order, and merge re-sorts by range before absorbing.
    #[test]
    fn merge_order_is_irrelevant(shards in 2usize..6, perm in 0u64..24) {
        let mut study = Study::build(tiny_config(77));
        let (master, shard_results) = study.run_shards(shards, 2);
        let merged = StudyResults::merge(master, permute(shard_results, perm));
        prop_assert_eq!(contract_bytes(&study, &merged), reference(77));
    }

    // Empty shards are neutral: a plan with more shards than proxies
    // pads with empty ranges, and the merged result is unchanged.
    #[test]
    fn empty_shards_are_neutral(extra in 1usize..10) {
        let mut study = Study::build(tiny_config(41));
        let total = study.providers.proxies.len();
        let (master, shard_results) = study.run_shards(total + extra, 2);
        prop_assert_eq!(shard_results.len(), total + extra);
        prop_assert!(
            shard_results.iter().any(|s| s.spec.start == s.spec.end),
            "expected at least one empty shard"
        );
        let merged = StudyResults::merge(master, shard_results);
        prop_assert_eq!(contract_bytes(&study, &merged), reference(41));
    }
}

/// A single shard covering the whole universe is the identity: merging
/// it reproduces the monolithic run exactly, whatever the worker count.
#[test]
fn single_full_universe_shard_is_identity() {
    let expected = reference(13);
    for threads in [1, 4] {
        let mut study = Study::build(tiny_config(13));
        let (master, shard_results) = study.run_shards(1, threads);
        assert_eq!(shard_results.len(), 1);
        let spec = shard_results[0].spec;
        assert_eq!(
            (spec.start, spec.end),
            (0, study.providers.proxies.len()),
            "single shard must cover the universe"
        );
        let merged = StudyResults::merge(master, shard_results);
        assert_eq!(
            contract_bytes(&study, &merged),
            expected,
            "one-shard merge diverged from the monolithic run at {threads} threads"
        );
    }
}
