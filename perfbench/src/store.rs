//! The verdict-store phase: persist a finished audit as 30 daily epochs
//! of a fresh `VerdictStore`, reopen it cold, and serve every deployed
//! proxy from it.
//!
//! A run repeats the phase in rounds and reports the median append, the
//! median cold open, and the mean time per lookup over every round.
//! Each reopened store builds its index with fresh hash keys, so the
//! rounds also average over those.

use crate::checks::Checks;
use crate::host::median;
use netsim::NodeId;
use std::hint::black_box;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use vpnstudy::store::{Freshness, VerdictStore};
use vpnstudy::{Study, StudyResults};

/// Daily epochs appended to a fresh store each round.
const EPOCHS: u64 = 30;
/// Time each round spends on lookup passes, and the passes it makes at
/// least.
const LOOKUP_SLICE: Duration = Duration::from_millis(60);
const MIN_LOOKUP_PASSES: u64 = 5;
const DAY_MS: u64 = 86_400_000;
/// The first epoch's caller-supplied clock.
const T0_MS: u64 = 1_700_000_000_000;
/// Half a day after the last epoch: every verdict is fresh under a
/// one-day TTL.
const NOW_MS: u64 = T0_MS + (EPOCHS - 1) * DAY_MS + DAY_MS / 2;

/// Verdict-store timings of one run, plus the store's size on disk.
#[derive(Debug)]
pub struct StoreTimes {
    /// Median `append_epoch`, ms.
    pub append_ms: f64,
    /// Median cold `VerdictStore::open`, ms.
    pub open_ms: f64,
    /// Mean time per `lookup`, ns.
    pub lookup_ns: f64,
    pub file_bytes: u64,
}

/// Store rounds over one audit's results. The first round also checks
/// the reopened store against the results. The store file lives in a
/// directory beside the benchmark binary and is removed when the bench
/// drops.
pub struct StoreBench<'a> {
    study: &'a Study,
    results: &'a StudyResults,
    nodes: Vec<NodeId>,
    path: PathBuf,
    appends_ms: Vec<f64>,
    opens_ms: Vec<f64>,
    lookups: u64,
    lookup_time: Duration,
    file_bytes: u64,
    rounds: usize,
    /// Set by an I/O error, which ends the phase.
    failed: bool,
}

impl<'a> StoreBench<'a> {
    pub fn new(study: &'a Study, results: &'a StudyResults) -> StoreBench<'a> {
        let dir = std::env::current_exe()
            .ok()
            .and_then(|exe| exe.parent().map(Path::to_path_buf))
            .unwrap_or_default()
            .join("perfbench-tmp");
        StoreBench {
            study,
            results,
            nodes: study.providers.proxies.iter().map(|p| p.node).collect(),
            path: dir.join(format!("verdicts-{}.jsonl", std::process::id())),
            appends_ms: Vec::new(),
            opens_ms: Vec::new(),
            lookups: 0,
            lookup_time: Duration::ZERO,
            file_bytes: 0,
            rounds: 0,
            failed: false,
        }
    }

    /// Run rounds until at least `min_rounds` more have run and `budget`
    /// has passed. An I/O error fails the `verdict store` check and ends
    /// the phase.
    pub fn run(&mut self, checks: &mut Checks, min_rounds: usize, budget: Duration) {
        let started = Instant::now();
        let mut done = 0;
        while !self.failed && (done < min_rounds || started.elapsed() < budget) {
            if let Err(e) = self.round(checks) {
                checks.check("verdict store", false, || e.to_string());
                self.failed = true;
            }
            done += 1;
        }
    }

    fn round(&mut self, checks: &mut Checks) -> io::Result<()> {
        let path = &self.path;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let _ = std::fs::remove_file(path);
        let mut store = VerdictStore::open(path)?;
        for day in 0..EPOCHS {
            let start = Instant::now();
            store.append_epoch(self.results, T0_MS + day * DAY_MS)?;
            self.appends_ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
        drop(store);

        let start = Instant::now();
        let store = VerdictStore::open(path)?;
        self.opens_ms.push(start.elapsed().as_secs_f64() * 1e3);

        let start = Instant::now();
        let mut passes = 0;
        while passes < MIN_LOOKUP_PASSES || start.elapsed() < LOOKUP_SLICE {
            let mut fresh = 0usize;
            for &node in &self.nodes {
                if let Some(a) = store.lookup(black_box(node), NOW_MS, DAY_MS) {
                    fresh += usize::from(a.freshness == Freshness::Fresh);
                }
            }
            black_box(fresh);
            passes += 1;
        }
        self.lookup_time += start.elapsed();
        self.lookups += passes * self.nodes.len() as u64;

        if self.rounds == 0 {
            self.file_bytes = std::fs::metadata(path)?.len();
            check_store(checks, self.study, self.results, &store);
        }
        self.rounds += 1;
        Ok(())
    }

    /// The timings over every round so far.
    pub fn finish(self) -> StoreTimes {
        StoreTimes {
            append_ms: median(&self.appends_ms),
            open_ms: median(&self.opens_ms),
            lookup_ns: self.lookup_time.as_nanos() as f64 / self.lookups.max(1) as f64,
            file_bytes: self.file_bytes,
        }
    }
}

impl Drop for StoreBench<'_> {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// The reopened store must hold every epoch, answer each measured proxy
/// with its appended verdict and each unmeasured one with nothing, and
/// its operator queries must cover every row.
fn check_store(checks: &mut Checks, study: &Study, results: &StudyResults, store: &VerdictStore) {
    checks.check(
        "store reopens with every epoch",
        store.epochs().len() as u64 == EPOCHS,
        || format!("{} epochs", store.epochs().len()),
    );
    let last_epoch = EPOCHS - 1;
    let wrong = results
        .records
        .iter()
        .filter(|r| match store.lookup(r.proxy.node, NOW_MS, DAY_MS) {
            Some(a) => {
                a.verdict.epoch != last_epoch
                    || a.freshness != Freshness::Fresh
                    || a.verdict.assessment != r.verdict.assessment
                    || a.verdict.refined != r.refined.assessment
                    || a.verdict.region_area_km2.to_bits() != r.region_area_km2.to_bits()
            }
            None => true,
        })
        .count();
    checks.check("lookup returns the appended verdict", wrong == 0, || {
        format!("{wrong} of {} measured proxies", results.records.len())
    });
    let phantom = results
        .failures
        .iter()
        .filter(|f| store.lookup(f.proxy.node, NOW_MS, DAY_MS).is_some())
        .count();
    checks.check("unmeasured proxies have no verdict", phantom == 0, || {
        format!("{phantom} do")
    });

    let queue = store.revalidation_queue(NOW_MS + 2 * DAY_MS, DAY_MS);
    checks.check(
        "every verdict queues once stale",
        queue.len() == results.records.len(),
        || {
            format!(
                "{} queued for {} verdicts",
                queue.len(),
                results.records.len()
            )
        },
    );
    let tallied: usize = store
        .country_false_rates()
        .iter()
        .map(|(_, t)| t.total())
        .sum();
    checks.check(
        "false rates count every row",
        tallied as u64 == EPOCHS * results.records.len() as u64,
        || format!("{tallied} rows tallied"),
    );
    let trends_ok =
        (0..study.providers.profiles.len()).all(|p| store.provider_trend(p).len() as u64 == EPOCHS);
    checks.check("provider trends span every epoch", trends_ok, || {
        "short trend".into()
    });
}
