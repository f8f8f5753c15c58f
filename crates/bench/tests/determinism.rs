//! The determinism matrix: the plain, faulted and armed+defended
//! scenarios' contract bytes are the same at every shard × thread split
//! as at `run_sharded(1, 1)`, each split from a fresh build (see
//! `bench::determinism`). Each scenario's metrics must also export, so
//! an unregistered counter on any of their paths (the armed study's
//! `net.adv.*` included) fails every test here. The same-seed tests
//! below run the plain study at other seeds through the same harness.

use bench::determinism::{
    audit, check, check_scenario, contract_bytes, section, split, Scenario, EMPTY_SHARD_SPLITS,
    REFERENCE, SHARD_SPLITS, THREAD_SPLITS,
};

#[test]
fn thread_count_never_changes_the_study() {
    check(&THREAD_SPLITS).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn shard_count_never_changes_the_study() {
    check(&SHARD_SPLITS).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn more_shards_than_proxies_is_byte_identical_too() {
    check(&EMPTY_SHARD_SPLITS).unwrap_or_else(|e| panic!("{e}"));
}

/// The contract bytes depend on the seed: a check that compares two
/// constant texts would pass vacuously.
#[test]
fn different_seeds_differ() {
    let bytes = |seed| {
        let (study, results) = audit(Scenario::Plain, &Scenario::Plain.config(seed), REFERENCE);
        contract_bytes(&study, &results)
    };
    assert_ne!(
        bytes(Scenario::Plain.seed()),
        bytes(Scenario::Plain.seed() + 1)
    );
}

/// Two fresh builds of the same seed, audited at the same split, render
/// the same contract bytes: repeatability on its own, apart from any
/// change of split.
#[test]
fn same_seed_same_study_bit_for_bit() {
    check_scenario(Scenario::Plain, &Scenario::Plain.config(77), &[REFERENCE])
        .unwrap_or_else(|e| panic!("{e}"));
}

/// Two independent same-seed studies agree on every verdict count, of
/// the single-round and of the refined pass, and give some verdicts.
#[test]
fn same_seed_same_verdict_counts() {
    let config = Scenario::Plain.config(41);
    let counts = || {
        let (_, results) = audit(Scenario::Plain, &config, REFERENCE);
        (results.counts(false), results.counts(true))
    };
    let (initial_a, refined_a) = counts();
    let (initial_b, refined_b) = counts();
    assert_eq!(initial_a, initial_b, "initial-pass verdict counts diverged");
    assert_eq!(refined_a, refined_b, "refined-pass verdict counts diverged");
    let (c, u, f) = refined_a;
    assert!(c + u + f > 0, "study produced no verdicts");
}

/// The JSONL trace and the observability block, part of the contract
/// bytes, hold at 8 and 16 threads for a plain study at another seed
/// than the matrix's, and the trace is not trivially small.
#[test]
fn trace_and_observability_report_are_thread_count_invariant() {
    let reference = check_scenario(
        Scenario::Plain,
        &Scenario::Plain.config(77),
        &[split(1, 8), split(1, 16)],
    )
    .unwrap_or_else(|e| panic!("{e}"));
    let trace_lines = section(&reference, "trace").lines().count();
    assert!(
        trace_lines > 100,
        "trace suspiciously small: {trace_lines} lines"
    );
    assert!(!section(&reference, "observability").is_empty());
}
