//! Property tests for `plan_shards`, the arithmetic that splits the
//! audit's fleet into contiguous ranges, one network lineage each:
//!
//! * the plan always yields contiguous, balanced ranges covering the
//!   fleet exactly once, so concatenating them is fleet order;
//! * distinct ranges get distinct lineage seeds, and the ranges never
//!   depend on the seed.
//!
//! That any split of the audit is byte-identical to the one-shard,
//! one-thread run is the determinism matrix's job
//! (`crates/bench/tests/determinism.rs`).

use proxy_verifier::vpnstudy::audit::plan_shards;
use simrng::prop::prelude::*;

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
