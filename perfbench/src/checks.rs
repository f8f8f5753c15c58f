//! Output checks. A failed check fails the run and counts as a failed
//! operation, so no speed-up can change what the verifier concludes.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use vpnstudy::{ProxyRecord, Study, StudyResults, UnmeasuredProxy};

/// The checks a run made, and which of them failed.
#[derive(Debug, Default)]
pub struct Checks {
    passed: usize,
    failures: Vec<String>,
}

impl Checks {
    /// Record one check; `detail` explains a failure.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        if ok {
            self.passed += 1;
        } else {
            self.failures.push(format!("{name}: {}", detail()));
        }
    }

    /// Checks that passed.
    pub fn passed(&self) -> usize {
        self.passed
    }

    /// One line per failed check.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// Check what every finished audit must satisfy: each deployed proxy
/// ends in exactly one of records and failures, in deployment order,
/// and the disk cache's counters keep the fill-once identity wherever
/// the obs level records them.
pub fn check_results(checks: &mut Checks, study: &Study, results: &StudyResults) {
    let fleet = &study.providers.proxies;
    let done = results.records.len() + results.failures.len();
    checks.check("fleet partition", done == fleet.len(), || {
        format!(
            "{} records + {} failures for {} proxies",
            results.records.len(),
            results.failures.len(),
            fleet.len()
        )
    });
    checks.check(
        "unmeasured count",
        results.unmeasured == results.failures.len(),
        || {
            format!(
                "{} unmeasured, {} failures",
                results.unmeasured,
                results.failures.len()
            )
        },
    );
    let mut seen: Vec<u64> = results
        .records
        .iter()
        .map(|r| u64::from(r.proxy.node))
        .chain(results.failures.iter().map(|f| u64::from(f.proxy.node)))
        .collect();
    seen.sort_unstable();
    let mut want: Vec<u64> = fleet.iter().map(|p| u64::from(p.node)).collect();
    want.sort_unstable();
    checks.check("every proxy once", seen == want, || {
        "record/failure nodes differ from the fleet".into()
    });
    if study.config.obs_level != obs::Level::Off {
        let cache = results.cache_stats();
        checks.check(
            "fill-once cache",
            cache.misses == cache.entries as u64 && cache.hits + cache.misses > 0,
            || {
                format!(
                    "{} hits, {} misses, {} entries",
                    cache.hits, cache.misses, cache.entries
                )
            },
        );
        let counted = results.obs.counter("audit.measured") as usize
            + results.obs.counter("audit.insufficient") as usize
            + results.obs.counter("audit.unmeasurable") as usize;
        checks.check("audit counters", counted == fleet.len(), || {
            format!(
                "audit.* counters sum to {counted} for {} proxies",
                fleet.len()
            )
        });
    }
}

/// A digest of everything a run concluded about every proxy: records
/// and failures with their diagnostics, plus the η estimate. Identical
/// across runs of one seed, and across obs levels.
pub fn science_digest(results: &StudyResults) -> String {
    let mut h = Fnv::default();
    h.write(format!("{:?}", results.eta).as_bytes());
    for line in proxy_renderings(&results.records, &results.failures) {
        h.write(line.as_bytes());
    }
    format!("{:016x}", h.0)
}

/// The `Debug` rendering of every record, then of every failure: all a
/// run concluded about each proxy, bit-exact floats included.
pub fn proxy_renderings(records: &[ProxyRecord], failures: &[UnmeasuredProxy]) -> Vec<String> {
    records
        .iter()
        .map(|r| format!("{r:?}"))
        .chain(failures.iter().map(|f| format!("{f:?}")))
        .collect()
}

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Machine-independent work counters, rendered `name=value,...` in name
/// order so two runs compare as strings.
pub type WorkCounters = BTreeMap<&'static str, u64>;

/// Render counters for the ledger and the run record.
pub fn render_counters(counters: &WorkCounters) -> String {
    let mut out = String::new();
    for (k, v) in counters {
        if !out.is_empty() {
            out.push(',');
        }
        let _ = write!(out, "{k}={v}");
    }
    out
}

/// What earlier runs of this same benchmark binary recorded, per scale
/// and seed: science digests and work counters. A later run of the same
/// seed must agree with them exactly.
///
/// The ledger lives beside the binary, under a directory named after the
/// binary's size and modification time, so a rebuilt binary starts a
/// fresh ledger instead of comparing against another build's numbers.
pub struct Ledger {
    path: PathBuf,
    entries: BTreeMap<String, String>,
}

impl Ledger {
    /// Open the ledger for `scale` and `seed`. `None` when the binary's
    /// own directory cannot be found.
    pub fn open(scale: &str, seed: u64) -> Option<Ledger> {
        let exe = std::env::current_exe().ok()?;
        let meta = std::fs::metadata(&exe).ok()?;
        let mtime = meta
            .modified()
            .ok()?
            .duration_since(std::time::UNIX_EPOCH)
            .ok()?
            .as_nanos();
        let dir = exe
            .parent()?
            .join("perfbench-ledger")
            .join(format!("{:x}-{mtime:x}", meta.len()));
        std::fs::create_dir_all(&dir).ok()?;
        let path = dir.join(format!("{scale}-{seed}.txt"));
        let entries = std::fs::read_to_string(&path)
            .unwrap_or_default()
            .lines()
            .filter_map(|l| l.split_once(' '))
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        Some(Ledger { path, entries })
    }

    /// Compare `value` with what an earlier run recorded under `key`, or
    /// record it if this is the first run to get there. `Err` carries
    /// the earlier value.
    pub fn agree(&mut self, key: &str, value: &str) -> Result<(), String> {
        match self.entries.get(key) {
            Some(prev) if prev != value => Err(prev.clone()),
            Some(_) => Ok(()),
            None => {
                self.entries.insert(key.to_string(), value.to_string());
                Ok(())
            }
        }
    }

    /// Write the ledger back, atomically, so a torn write never leaves a
    /// partial ledger behind. Best effort: a ledger that cannot be saved
    /// only means later runs have nothing to compare against.
    pub fn save(&self) {
        let mut text = String::new();
        for (k, v) in &self.entries {
            let _ = writeln!(text, "{k} {v}");
        }
        let tmp = self
            .path
            .with_extension(format!("tmp{}", std::process::id()));
        if std::fs::write(&tmp, text).is_ok() {
            let _ = std::fs::rename(&tmp, &self.path);
        }
    }
}

/// Record `value` under `key` in the ledger and check it against any
/// earlier run of the same seed.
pub fn check_ledger(checks: &mut Checks, ledger: &mut Option<Ledger>, key: &str, value: &str) {
    if let Some(ledger) = ledger {
        let earlier = ledger.agree(key, value).err();
        checks.check(&format!("same seed, same {key}"), earlier.is_none(), || {
            format!(
                "this run {value}, an earlier run {}",
                earlier.unwrap_or_default()
            )
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_fails_a_run_that_disagrees_with_an_earlier_one() {
        let mut ledger = Some(Ledger {
            path: PathBuf::new(),
            entries: BTreeMap::new(),
        });
        let mut checks = Checks::default();
        check_ledger(&mut checks, &mut ledger, "counters", "probes=3");
        check_ledger(&mut checks, &mut ledger, "counters", "probes=3");
        assert_eq!((checks.passed(), checks.failures().len()), (2, 0));
        check_ledger(&mut checks, &mut ledger, "counters", "probes=4");
        assert_eq!(checks.failures().len(), 1);
        assert!(checks.failures()[0].contains("probes=3"));
    }
}
