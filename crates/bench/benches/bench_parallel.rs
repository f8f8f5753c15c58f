//! Audit scaling: wall-clock of the full per-proxy fan-out
//! (`Study::run_sharded` on one shard) at 1/2/4/8/16 workers, plus the
//! byte-identity check that makes the parallel path trustworthy at all.
//!
//! Unlike the perf gate's microbenchmarks (`bench::gate`), one
//! measurement here is one full audit, so this harness runs each
//! configuration a fixed small number of times and reports the best run
//! (build cost excluded). Besides the human-readable
//! `bench_parallel.txt` it emits a machine-readable `BENCH_scale.json`
//! so the throughput curve can be tracked from commit to commit.
//!
//! The JSON records two parallelism numbers, because they disagree under
//! containers: `cores_available` is what `available_parallelism()`
//! reports (cgroup/affinity-visible), and `effective_parallelism` is
//! *measured* — the speedup of a pure CPU spin fanned out over
//! `max(THREAD_COUNTS)` threads. On a cgroup-throttled box the first can
//! say 1 while 8 threads still speed the audit up (blocked waiters don't
//! burn quota), or say 8 while the spin test proves only 1 core's worth
//! of cycles is actually served. Interpret `speedup_vs_1` against the
//! measured number, not the advertised one.
//!
//! Scale defaults to the paper's (2269 proxies); set `PV_BENCH_SCALE` to
//! `small` / `medium` / `paper` to override, and `PV_BENCH_RUNS` for the
//! per-configuration repeat count (default 2).

use bench::determinism::contract_bytes;
use bench::Scale;
use std::collections::hash_map::DefaultHasher;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::time::Instant;
use vpnstudy::audit::{Study, StudyResults};

const THREAD_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];

/// A digest of the run's contract bytes (`bench::determinism`): every
/// deterministic output, exact disk-cache counters included.
fn fingerprint(study: &Study, results: &StudyResults) -> u64 {
    let mut h = DefaultHasher::new();
    contract_bytes(study, results).hash(&mut h);
    h.finish()
}

/// Measure how much CPU the machine actually serves concurrent spinning
/// threads, as a multiple of one thread's throughput. A cgroup cap or
/// CPU-affinity mask shows up here even when `available_parallelism()`
/// reports the raw core count (or, inside some containers, reports 1
/// while more cores are usable).
fn measured_effective_parallelism(threads: usize) -> f64 {
    fn spin(iters: u64) -> u64 {
        let mut x = 0x9e37_79b9u64;
        for i in 0..iters {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        x
    }
    // Calibrate the iteration count to ~80 ms single-threaded.
    let probe = Instant::now();
    std::hint::black_box(spin(4_000_000));
    let per_iter = probe.elapsed().as_secs_f64() / 4_000_000.0;
    let iters = (0.08 / per_iter) as u64;

    let t0 = Instant::now();
    std::hint::black_box(spin(iters));
    let serial = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| std::hint::black_box(spin(iters)));
        }
    });
    let concurrent = t1.elapsed().as_secs_f64();
    threads as f64 * serial / concurrent
}

struct Measurement {
    threads: usize,
    best_secs: f64,
    proxies: usize,
    fingerprint: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_entries: usize,
}

fn measure(scale: Scale, threads: usize, runs: usize) -> Measurement {
    let mut best_secs = f64::INFINITY;
    let mut fp = 0u64;
    let (mut proxies, mut hits, mut misses, mut entries) = (0usize, 0u64, 0u64, 0usize);
    for _ in 0..runs.max(1) {
        // Rebuild per run: `run` advances the world clock, so timing a
        // rerun on a mutated world would not compare like with like.
        let mut study = Study::build(scale.study_config());
        proxies = study.providers.proxies.len();
        let t0 = Instant::now();
        let results = study.run_sharded(1, threads);
        let secs = t0.elapsed().as_secs_f64();
        best_secs = best_secs.min(secs);
        fp = fingerprint(&study, &results);
        let cache = results.cache_stats();
        hits = cache.hits;
        misses = cache.misses;
        entries = cache.entries;
    }
    Measurement {
        threads,
        best_secs,
        proxies,
        fingerprint: fp,
        cache_hits: hits,
        cache_misses: misses,
        cache_entries: entries,
    }
}

fn main() {
    let scale = match std::env::var("PV_BENCH_SCALE").as_deref() {
        Ok("small") => Scale::Small,
        Ok("medium") => Scale::Medium,
        _ => Scale::Paper,
    };
    let runs: usize = std::env::var("PV_BENCH_RUNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);
    let scale_name = match scale {
        Scale::Small => "small",
        Scale::Medium => "medium",
        Scale::Paper => "paper",
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let max_threads = *THREAD_COUNTS.iter().max().expect("nonempty");
    let effective = measured_effective_parallelism(max_threads);
    println!(
        "audit scaling at scale={scale_name} ({runs} runs each, \
         {cores} cores advertised, {effective:.2} measured effective)"
    );

    let measurements: Vec<Measurement> = THREAD_COUNTS
        .iter()
        .map(|&t| {
            println!("  measuring {t} thread(s)...");
            measure(scale, t, runs)
        })
        .collect();

    let base = measurements[0].best_secs;
    let mut report = String::new();
    for m in &measurements {
        let _ = writeln!(
            report,
            "audit scaling/{scale_name} {} threads{:<16} best {:>9.3} s  {:>8.1} proxies/s  speedup x{:.2}",
            m.threads,
            "",
            m.best_secs,
            m.proxies as f64 / m.best_secs,
            base / m.best_secs,
        );
    }
    print!("{report}");

    // Byte-identity across thread counts is part of the contract; a bench
    // that silently measured diverging runs would be lying about what it
    // parallelized. The fingerprint covers cache telemetry too, so a
    // reappearance of the old racy double-rasterize would fail here.
    let fp0 = measurements[0].fingerprint;
    assert!(
        measurements.iter().all(|m| m.fingerprint == fp0),
        "study output diverged across thread counts"
    );
    assert!(
        measurements
            .iter()
            .all(|m| m.cache_misses == m.cache_entries as u64),
        "fill-once cache must rasterize each key exactly once"
    );

    let dir = std::env::var("BENCH_OUTPUT_DIR")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../bench_output").into());
    std::fs::create_dir_all(&dir).expect("bench output dir");
    let txt = std::path::Path::new(&dir).join("bench_parallel.txt");
    std::fs::write(&txt, &report).expect("write bench_parallel.txt");

    // Machine-readable trajectory record. Hand-rolled JSON: the workspace
    // has no serde, and the schema is a few numbers per row.
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"scale\": \"{scale_name}\",");
    let _ = writeln!(json, "  \"proxies\": {},", measurements[0].proxies);
    let _ = writeln!(json, "  \"cores_available\": {cores},");
    let _ = writeln!(json, "  \"effective_parallelism\": {effective:.2},");
    let _ = writeln!(json, "  \"thread_configs\": {:?},", THREAD_COUNTS);
    let _ = writeln!(json, "  \"runs_per_config\": {runs},");
    let _ = writeln!(json, "  \"identical_output\": true,");
    let _ = writeln!(json, "  \"results\": [");
    for (i, m) in measurements.iter().enumerate() {
        let comma = if i + 1 < measurements.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"threads\": {}, \"seconds\": {:.6}, \"proxies_per_sec\": {:.3}, \"speedup_vs_1\": {:.4}, \"cache_hits\": {}, \"cache_misses\": {}, \"cache_entries\": {}}}{comma}",
            m.threads,
            m.best_secs,
            m.proxies as f64 / m.best_secs,
            base / m.best_secs,
            m.cache_hits,
            m.cache_misses,
            m.cache_entries,
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    let json_path = std::path::Path::new(&dir).join("BENCH_scale.json");
    std::fs::write(&json_path, &json).expect("write BENCH_scale.json");
    println!(
        "report written to {} and {}",
        txt.display(),
        json_path.display()
    );
}
