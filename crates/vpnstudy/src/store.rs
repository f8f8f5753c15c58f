//! # The verdict store — append-only and queryable
//!
//! A [`Study`](crate::Study) run is expensive (hundreds of simulated
//! proxies, tens of landmarks each); its *verdicts* are tiny. This
//! module persists them so later sessions can answer the operational
//! questions — "is this proxy's last verdict still trustworthy?",
//! "is provider C getting more honest over time?", "which claimed
//! countries are mostly lies?" — **from disk, without re-measuring**.
//!
//! ## File format
//!
//! One JSON document per line ([`obs::json`] — the workspace is
//! hermetic, no serde), three record kinds discriminated by `"t"`:
//!
//! ```text
//! {"t":"epoch","epoch":0,"recorded_at_ms":1700000000000,"eta_ms":24.5,...}
//! {"t":"verdict","epoch":0,"node":8812,"provider":2,"claimed":31,...}
//! {"t":"unmeasured","epoch":0,"node":901,"provider":5,"claimed":7,...}
//! ```
//!
//! The file is **append-only**: an epoch header followed by its rows is
//! atomic-enough for a single writer, and a truncated final line
//! (crash mid-append) is detected and reported at open. Assessment names on the wire are the
//! stable strings from [`Assessment::as_str`] / [`ContinentVerdict::as_str`].
//!
//! ## Freshness and revalidation
//!
//! Timestamps are **caller-supplied** milliseconds (the store never
//! reads the system clock — deterministic tests pass synthetic clocks).
//! A lookup against a TTL yields a [`Freshness`] plus a
//! [`RevalidationPriority`]: stale refuted/withheld verdicts outrank
//! stale credible ones, because a proxy that lied once is the one worth
//! re-measuring first.

use crate::audit::StudyResults;
use crate::report::VerdictTally;
use geoloc::assess::{Assessment, ContinentVerdict};
use netsim::NodeId;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs::OpenOptions;
use std::io::{self, Read as _, Write as _};
use std::path::PathBuf;
use worldmap::CountryId;

use obs::json::{json_str, Json};

/// Index of an epoch within one store file.
pub type EpochId = u64;

/// Per-epoch header: when the study ran and what it produced.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochMeta {
    /// Position of this epoch in the store (0-based, dense).
    pub epoch: EpochId,
    /// Caller-supplied wall-clock of the run, milliseconds.
    pub recorded_at_ms: u64,
    /// Calibrated η factor the run used (0 when estimation failed) —
    /// lets a reader spot drift in the tunnel-overhead estimate across
    /// epochs.
    pub eta_ms: f64,
    /// Proxies with a verdict in this epoch.
    pub measured: usize,
    /// Proxies the pipeline could not measure.
    pub unmeasured: usize,
}

/// One persisted verdict row.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredVerdict {
    /// Epoch the verdict belongs to.
    pub epoch: EpochId,
    /// Network node of the proxy (stable across epochs for one world).
    pub node: NodeId,
    /// Provider index.
    pub provider: usize,
    /// Country the provider claimed.
    pub claimed: CountryId,
    /// Raw CBG++ country-level assessment.
    pub assessment: Assessment,
    /// Assessment after disambiguation and defense refinement — the one
    /// every query in this module counts.
    pub refined: Assessment,
    /// Continent-level result.
    pub continent: ContinentVerdict,
    /// Prediction-region area, km².
    pub region_area_km2: f64,
    /// Minimum tunnel self-ping, ms.
    pub self_ping_ms: f64,
}

/// One persisted measurement failure.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredFailure {
    /// Epoch the failure belongs to.
    pub epoch: EpochId,
    /// Network node of the proxy.
    pub node: NodeId,
    /// Provider index.
    pub provider: usize,
    /// Country the provider claimed.
    pub claimed: CountryId,
    /// Opaque failure label (Debug form of the in-memory enum).
    pub failure: String,
}

/// Whether a stored verdict is within its TTL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Freshness {
    /// `age_ms <= ttl_ms`: serve it, no re-measurement needed.
    Fresh,
    /// Past the TTL: usable as a hint, but schedule a revalidation.
    Stale,
}

/// How urgently a stored verdict should be re-measured. Ordered:
/// `NotNeeded < Routine < Elevated < Urgent` — sort descending to get a
/// work queue.
///
/// The ordering encodes the asymmetry of going stale: a proxy that was
/// *caught lying* (refuted or withheld) is the one an operator most
/// wants re-checked, while a stale credible verdict merely ages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RevalidationPriority {
    /// Verdict is fresh.
    NotNeeded,
    /// Stale but last verdict backed the claim.
    Routine,
    /// Stale and last verdict could not settle the claim.
    Elevated,
    /// Stale and the proxy was last caught lying or withheld.
    Urgent,
}

impl RevalidationPriority {
    fn for_stale(refined: Assessment) -> RevalidationPriority {
        match refined {
            Assessment::Credible => RevalidationPriority::Routine,
            Assessment::Uncertain => RevalidationPriority::Elevated,
            Assessment::False | Assessment::Suspicious => RevalidationPriority::Urgent,
        }
    }
}

/// Answer to a per-proxy lookup: the latest stored verdict plus its
/// freshness under the caller's clock and TTL.
#[derive(Debug, Clone, PartialEq)]
pub struct LookupAnswer<'a> {
    /// The most recent verdict row for the proxy.
    pub verdict: &'a StoredVerdict,
    /// When its epoch was recorded (ms).
    pub recorded_at_ms: u64,
    /// `now_ms - recorded_at_ms` (0 if the clock ran backwards).
    pub age_ms: u64,
    /// Fresh or stale under the caller's TTL.
    pub freshness: Freshness,
    /// Revalidation hint derived from freshness and the verdict.
    pub revalidate: RevalidationPriority,
}

/// The append-only on-disk verdict store. See the module docs.
#[derive(Debug)]
pub struct VerdictStore {
    path: PathBuf,
    epochs: Vec<EpochMeta>,
    verdicts: Vec<StoredVerdict>,
    failures: Vec<StoredFailure>,
    /// node → index into `verdicts` of that node's most recent row.
    latest: HashMap<NodeId, usize>,
}

impl VerdictStore {
    /// Open a store at `path`, replaying any existing file into the
    /// in-memory index. A missing file is an empty store (the file is
    /// created on first append).
    pub fn open(path: impl Into<PathBuf>) -> io::Result<VerdictStore> {
        let path = path.into();
        let mut store = VerdictStore {
            path,
            epochs: Vec::new(),
            verdicts: Vec::new(),
            failures: Vec::new(),
            latest: HashMap::new(),
        };
        let mut text = String::new();
        match std::fs::File::open(&store.path) {
            Ok(mut f) => {
                f.read_to_string(&mut text)?;
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(store),
            Err(e) => return Err(e),
        }
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            store.ingest_line(line).map_err(|msg| {
                bad_data(format!("{}:{}: {msg}", store.path.display(), lineno + 1))
            })?;
        }
        Ok(store)
    }

    /// Epoch headers, oldest first.
    pub fn epochs(&self) -> &[EpochMeta] {
        &self.epochs
    }

    /// Every stored verdict, in file order.
    pub fn verdicts(&self) -> &[StoredVerdict] {
        &self.verdicts
    }

    /// Every stored failure, in file order.
    pub fn failures(&self) -> &[StoredFailure] {
        &self.failures
    }

    /// Append a finished study as the next epoch. `recorded_at_ms` is
    /// the caller's clock — the store itself never asks for the time.
    /// Returns the id the epoch was assigned.
    pub fn append_epoch(
        &mut self,
        results: &StudyResults,
        recorded_at_ms: u64,
    ) -> io::Result<EpochId> {
        let epoch = self.epochs.len() as EpochId;
        let meta = EpochMeta {
            epoch,
            recorded_at_ms,
            eta_ms: results.eta.as_ref().map_or(0.0, |e| e.eta()),
            measured: results.records.len(),
            unmeasured: results.failures.len(),
        };
        let mut rows: Vec<StoredVerdict> = Vec::with_capacity(results.records.len());
        for r in &results.records {
            rows.push(StoredVerdict {
                epoch,
                node: r.proxy.node,
                provider: r.proxy.provider,
                claimed: r.proxy.claimed,
                assessment: r.verdict.assessment,
                refined: r.refined.assessment,
                continent: r.refined.continent,
                region_area_km2: r.region_area_km2,
                self_ping_ms: r.self_ping_ms,
            });
        }
        let mut fails: Vec<StoredFailure> = Vec::with_capacity(results.failures.len());
        for f in &results.failures {
            fails.push(StoredFailure {
                epoch,
                node: f.proxy.node,
                provider: f.proxy.provider,
                claimed: f.proxy.claimed,
                failure: format!("{:?}", f.failure),
            });
        }
        self.append_rows(&meta, &rows, &fails)
    }

    /// Latest verdict for `node`, judged against the caller's clock and
    /// TTL. `None` when the store has never seen the proxy.
    pub fn lookup(&self, node: NodeId, now_ms: u64, ttl_ms: u64) -> Option<LookupAnswer<'_>> {
        let verdict = &self.verdicts[*self.latest.get(&node)?];
        let recorded_at_ms = self.epochs[verdict.epoch as usize].recorded_at_ms;
        let age_ms = now_ms.saturating_sub(recorded_at_ms);
        let (freshness, revalidate) = if age_ms <= ttl_ms {
            (Freshness::Fresh, RevalidationPriority::NotNeeded)
        } else {
            (
                Freshness::Stale,
                RevalidationPriority::for_stale(verdict.refined),
            )
        };
        Some(LookupAnswer {
            verdict,
            recorded_at_ms,
            age_ms,
            freshness,
            revalidate,
        })
    }

    /// Per-epoch refined-verdict tally for one provider, epochs
    /// ascending. Epochs where the provider had no verdicts contribute
    /// an empty tally, so trends from different providers line up.
    pub fn provider_trend(&self, provider: usize) -> Vec<(EpochId, VerdictTally)> {
        let mut trend: Vec<(EpochId, VerdictTally)> = self
            .epochs
            .iter()
            .map(|m| (m.epoch, VerdictTally::default()))
            .collect();
        for v in self.verdicts.iter().filter(|v| v.provider == provider) {
            trend[v.epoch as usize].1.add(v.refined);
        }
        trend
    }

    /// Refined-verdict tally per *claimed* country across all epochs,
    /// sorted by descending false-claim rate (ties broken by country id
    /// so the order is total). `VerdictTally::false_rate` on each entry
    /// is the paper's headline per-country number.
    pub fn country_false_rates(&self) -> Vec<(CountryId, VerdictTally)> {
        let mut by_country: HashMap<CountryId, VerdictTally> = HashMap::new();
        for v in &self.verdicts {
            by_country.entry(v.claimed).or_default().add(v.refined);
        }
        let mut out: Vec<(CountryId, VerdictTally)> = by_country.into_iter().collect();
        out.sort_by(|a, b| {
            b.1.false_rate()
                .partial_cmp(&a.1.false_rate())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        out
    }

    /// Every proxy whose latest verdict is stale under the caller's
    /// clock and TTL, most urgent first (ties broken by node id).
    pub fn revalidation_queue(
        &self,
        now_ms: u64,
        ttl_ms: u64,
    ) -> Vec<(NodeId, RevalidationPriority)> {
        let mut queue: Vec<(NodeId, RevalidationPriority)> = self
            .latest
            .keys()
            .filter_map(|&node| {
                let a = self.lookup(node, now_ms, ttl_ms)?;
                (a.freshness == Freshness::Stale).then_some((node, a.revalidate))
            })
            .collect();
        queue.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        queue
    }

    // ---- persistence internals ------------------------------------

    fn append_rows(
        &mut self,
        meta: &EpochMeta,
        rows: &[StoredVerdict],
        fails: &[StoredFailure],
    ) -> io::Result<EpochId> {
        let mut text = String::new();
        text.push_str(&epoch_line(meta));
        text.push('\n');
        for row in rows {
            text.push_str(&verdict_line(row));
            text.push('\n');
        }
        for f in fails {
            text.push_str(&failure_line(f));
            text.push('\n');
        }
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        file.write_all(text.as_bytes())?;
        file.sync_data()?;
        self.epochs.push(meta.clone());
        for row in rows {
            self.latest.insert(row.node, self.verdicts.len());
            self.verdicts.push(row.clone());
        }
        self.failures.extend(fails.iter().cloned());
        Ok(meta.epoch)
    }

    fn ingest_line(&mut self, line: &str) -> Result<(), String> {
        let doc = Json::parse(line)?;
        let kind = doc
            .get("t")
            .and_then(Json::as_str)
            .ok_or("record without a \"t\" discriminator")?;
        match kind {
            "epoch" => {
                let meta = EpochMeta {
                    epoch: get_u64(&doc, "epoch")?,
                    recorded_at_ms: get_u64(&doc, "recorded_at_ms")?,
                    eta_ms: get_f64(&doc, "eta_ms")?,
                    measured: get_u64(&doc, "measured")? as usize,
                    unmeasured: get_u64(&doc, "unmeasured")? as usize,
                };
                if meta.epoch != self.epochs.len() as EpochId {
                    return Err(format!(
                        "epoch {} out of order (expected {})",
                        meta.epoch,
                        self.epochs.len()
                    ));
                }
                self.epochs.push(meta);
            }
            "verdict" => {
                let row = StoredVerdict {
                    epoch: get_u64(&doc, "epoch")?,
                    node: get_u64(&doc, "node")? as NodeId,
                    provider: get_u64(&doc, "provider")? as usize,
                    claimed: get_u64(&doc, "claimed")? as CountryId,
                    assessment: get_assessment(&doc, "assessment")?,
                    refined: get_assessment(&doc, "refined")?,
                    continent: get_continent(&doc, "continent")?,
                    region_area_km2: get_f64(&doc, "area_km2")?,
                    self_ping_ms: get_f64(&doc, "self_ping_ms")?,
                };
                if row.epoch as usize >= self.epochs.len() {
                    return Err(format!("verdict for unknown epoch {}", row.epoch));
                }
                self.latest.insert(row.node, self.verdicts.len());
                self.verdicts.push(row);
            }
            "unmeasured" => {
                let row = StoredFailure {
                    epoch: get_u64(&doc, "epoch")?,
                    node: get_u64(&doc, "node")? as NodeId,
                    provider: get_u64(&doc, "provider")? as usize,
                    claimed: get_u64(&doc, "claimed")? as CountryId,
                    failure: doc
                        .get("failure")
                        .and_then(Json::as_str)
                        .ok_or("unmeasured record without \"failure\"")?
                        .to_string(),
                };
                if row.epoch as usize >= self.epochs.len() {
                    return Err(format!("failure for unknown epoch {}", row.epoch));
                }
                self.failures.push(row);
            }
            other => return Err(format!("unknown record kind {other:?}")),
        }
        Ok(())
    }
}

fn epoch_line(m: &EpochMeta) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"t\":\"epoch\",\"epoch\":{},\"recorded_at_ms\":{},\"eta_ms\":{},\"measured\":{},\"unmeasured\":{}}}",
        m.epoch, m.recorded_at_ms, m.eta_ms, m.measured, m.unmeasured
    );
    s
}

fn verdict_line(v: &StoredVerdict) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"t\":\"verdict\",\"epoch\":{},\"node\":{},\"provider\":{},\"claimed\":{},\"assessment\":{},\"refined\":{},\"continent\":{},\"area_km2\":{},\"self_ping_ms\":{}}}",
        v.epoch,
        v.node,
        v.provider,
        v.claimed,
        json_str(v.assessment.as_str()),
        json_str(v.refined.as_str()),
        json_str(v.continent.as_str()),
        v.region_area_km2,
        v.self_ping_ms
    );
    s
}

fn failure_line(f: &StoredFailure) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"t\":\"unmeasured\",\"epoch\":{},\"node\":{},\"provider\":{},\"claimed\":{},\"failure\":{}}}",
        f.epoch,
        f.node,
        f.provider,
        f.claimed,
        json_str(&f.failure)
    );
    s
}

fn get_f64(doc: &Json, key: &str) -> Result<f64, String> {
    doc.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing numeric field {key:?}"))
}

fn get_u64(doc: &Json, key: &str) -> Result<u64, String> {
    let n = get_f64(doc, key)?;
    if n < 0.0 || n.fract() != 0.0 {
        return Err(format!("field {key:?} is not a non-negative integer: {n}"));
    }
    Ok(n as u64)
}

fn get_assessment(doc: &Json, key: &str) -> Result<Assessment, String> {
    let s = doc
        .get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing string field {key:?}"))?;
    Assessment::parse(s).ok_or_else(|| format!("unknown assessment {s:?} in {key:?}"))
}

fn get_continent(doc: &Json, key: &str) -> Result<ContinentVerdict, String> {
    let s = doc
        .get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing string field {key:?}"))?;
    ContinentVerdict::parse(s).ok_or_else(|| format!("unknown continent verdict {s:?} in {key:?}"))
}

fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScratchDir;

    /// A store file in a scratch directory of its own, which goes away
    /// with the guard.
    fn scratch(name: &str) -> (ScratchDir, PathBuf) {
        let dir = ScratchDir::new(&format!("store-{name}"));
        let path = dir.join("verdicts.jsonl");
        (dir, path)
    }

    fn verdict(
        epoch: EpochId,
        node: NodeId,
        provider: usize,
        refined: Assessment,
    ) -> StoredVerdict {
        StoredVerdict {
            epoch,
            node,
            provider,
            claimed: 3,
            assessment: Assessment::Uncertain,
            refined,
            continent: ContinentVerdict::Credible,
            region_area_km2: 123456.75,
            self_ping_ms: 1.5,
        }
    }

    fn meta(epoch: EpochId, recorded_at_ms: u64, measured: usize) -> EpochMeta {
        EpochMeta {
            epoch,
            recorded_at_ms,
            eta_ms: 24.5,
            measured,
            unmeasured: 0,
        }
    }

    #[test]
    fn rows_survive_a_reopen_bit_exact() {
        let (_dir, path) = scratch("reopen");
        let mut store = VerdictStore::open(&path).unwrap();
        let rows = vec![
            verdict(0, 10, 1, Assessment::Credible),
            verdict(0, 11, 2, Assessment::False),
        ];
        let fails = vec![StoredFailure {
            epoch: 0,
            node: 12,
            provider: 1,
            claimed: 3,
            failure: "TooFewLandmarks { usable: 2 }".into(),
        }];
        store
            .append_rows(&meta(0, 1_000, 2), &rows, &fails)
            .unwrap();
        drop(store);

        let reopened = VerdictStore::open(&path).unwrap();
        assert_eq!(reopened.epochs(), &[meta(0, 1_000, 2)]);
        assert_eq!(reopened.verdicts(), rows.as_slice());
        assert_eq!(reopened.failures(), fails.as_slice());
        assert_eq!(
            reopened.verdicts()[0].region_area_km2.to_bits(),
            123456.75f64.to_bits()
        );
    }

    #[test]
    fn lookup_prefers_the_latest_epoch_and_grades_staleness() {
        let (_dir, path) = scratch("lookup");
        let mut store = VerdictStore::open(&path).unwrap();
        store
            .append_rows(
                &meta(0, 1_000, 1),
                &[verdict(0, 7, 0, Assessment::False)],
                &[],
            )
            .unwrap();
        store
            .append_rows(
                &meta(1, 5_000, 1),
                &[verdict(1, 7, 0, Assessment::Credible)],
                &[],
            )
            .unwrap();

        // Fresh: latest epoch wins and nothing needs revalidation.
        let fresh = store.lookup(7, 5_500, 1_000).unwrap();
        assert_eq!(fresh.verdict.epoch, 1);
        assert_eq!(fresh.age_ms, 500);
        assert_eq!(fresh.freshness, Freshness::Fresh);
        assert_eq!(fresh.revalidate, RevalidationPriority::NotNeeded);

        // Stale credible verdicts get routine priority.
        let stale = store.lookup(7, 50_000, 1_000).unwrap();
        assert_eq!(stale.freshness, Freshness::Stale);
        assert_eq!(stale.revalidate, RevalidationPriority::Routine);

        assert!(store.lookup(9999, 5_500, 1_000).is_none());
    }

    #[test]
    fn revalidation_queue_ranks_liars_first() {
        let (_dir, path) = scratch("queue");
        let mut store = VerdictStore::open(&path).unwrap();
        let rows = vec![
            verdict(0, 1, 0, Assessment::Credible),
            verdict(0, 2, 0, Assessment::False),
            verdict(0, 3, 0, Assessment::Uncertain),
            verdict(0, 4, 0, Assessment::Suspicious),
        ];
        store.append_rows(&meta(0, 0, 4), &rows, &[]).unwrap();
        let queue = store.revalidation_queue(10_000, 1_000);
        assert_eq!(
            queue,
            vec![
                (2, RevalidationPriority::Urgent),
                (4, RevalidationPriority::Urgent),
                (3, RevalidationPriority::Elevated),
                (1, RevalidationPriority::Routine),
            ]
        );
        assert!(store.revalidation_queue(500, 1_000).is_empty());
    }

    #[test]
    fn revalidation_queue_is_empty_for_an_empty_store() {
        let (_dir, path) = scratch("queue-empty");
        let store = VerdictStore::open(&path).unwrap();
        assert!(store.revalidation_queue(u64::MAX, 0).is_empty());
        // An epoch with zero verdicts is still an empty queue.
        let mut store = VerdictStore::open(&path).unwrap();
        store.append_rows(&meta(0, 0, 0), &[], &[]).unwrap();
        assert!(store.revalidation_queue(u64::MAX, 0).is_empty());
    }

    #[test]
    fn revalidation_queue_ignores_an_all_fresh_store() {
        let (_dir, path) = scratch("queue-fresh");
        let mut store = VerdictStore::open(&path).unwrap();
        let rows = vec![
            verdict(0, 1, 0, Assessment::False),
            verdict(0, 2, 0, Assessment::Suspicious),
        ];
        store.append_rows(&meta(0, 1_000, 2), &rows, &[]).unwrap();
        // Exactly at the TTL boundary a verdict is still fresh, even a
        // refuted one: age == ttl does not schedule revalidation.
        assert!(store.revalidation_queue(2_000, 1_000).is_empty());
        // One millisecond later everything tips stale at once.
        assert_eq!(store.revalidation_queue(2_001, 1_000).len(), 2);
    }

    #[test]
    fn revalidation_queue_breaks_equal_staleness_by_priority_then_node() {
        let (_dir, path) = scratch("queue-ties");
        let mut store = VerdictStore::open(&path).unwrap();
        // All four verdicts in one epoch: identical age (maximal
        // staleness tie). Order must come from priority alone, node id
        // breaking exact ties — never from insertion order.
        let rows = vec![
            verdict(0, 9, 0, Assessment::Uncertain),
            verdict(0, 5, 0, Assessment::Suspicious),
            verdict(0, 3, 0, Assessment::Uncertain),
            verdict(0, 7, 0, Assessment::False),
        ];
        store.append_rows(&meta(0, 0, 4), &rows, &[]).unwrap();
        let queue = store.revalidation_queue(10_000, 1_000);
        assert_eq!(
            queue,
            vec![
                (5, RevalidationPriority::Urgent),
                (7, RevalidationPriority::Urgent),
                (3, RevalidationPriority::Elevated),
                (9, RevalidationPriority::Elevated),
            ]
        );
        // A newer epoch's Urgent verdict outranks an older (more stale)
        // Routine one: priority dominates age across epochs too.
        store
            .append_rows(
                &meta(1, 5_000, 2),
                &[
                    verdict(1, 9, 0, Assessment::Credible),
                    verdict(1, 2, 0, Assessment::False),
                ],
                &[],
            )
            .unwrap();
        let queue = store.revalidation_queue(100_000, 1_000);
        assert_eq!(queue[0], (2, RevalidationPriority::Urgent));
        assert_eq!(
            queue.last().unwrap(),
            &(9, RevalidationPriority::Routine),
            "node 9's latest (credible) verdict wins, demoting it to routine"
        );
    }

    #[test]
    fn provider_trend_allots_every_epoch() {
        let (_dir, path) = scratch("trend");
        let mut store = VerdictStore::open(&path).unwrap();
        store
            .append_rows(&meta(0, 0, 1), &[verdict(0, 1, 5, Assessment::False)], &[])
            .unwrap();
        store.append_rows(&meta(1, 10, 0), &[], &[]).unwrap();
        store
            .append_rows(
                &meta(2, 20, 1),
                &[verdict(2, 1, 5, Assessment::Credible)],
                &[],
            )
            .unwrap();
        let trend = store.provider_trend(5);
        assert_eq!(trend.len(), 3);
        assert_eq!(trend[0].1.false_claims, 1);
        assert_eq!(trend[1].1.total(), 0);
        assert_eq!(trend[2].1.credible, 1);
        // A provider the store has never seen still gets aligned epochs.
        assert!(store.provider_trend(6).iter().all(|(_, t)| t.total() == 0));
    }

    #[test]
    fn country_false_rates_sort_by_rate() {
        let (_dir, path) = scratch("rates");
        let mut store = VerdictStore::open(&path).unwrap();
        let mut rows = vec![
            verdict(0, 1, 0, Assessment::False),
            verdict(0, 2, 0, Assessment::Credible),
            verdict(0, 3, 0, Assessment::False),
        ];
        rows[0].claimed = 8; // country 8: 1 false / 1 total
        rows[1].claimed = 2; // country 2: 1 false / 2 total
        rows[2].claimed = 2;
        store.append_rows(&meta(0, 0, 3), &rows, &[]).unwrap();
        let rates = store.country_false_rates();
        assert_eq!(rates[0].0, 8);
        assert!((rates[0].1.false_rate() - 1.0).abs() < 1e-12);
        assert_eq!(rates[1].0, 2);
        assert!((rates[1].1.false_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn corrupt_lines_are_reported_with_position() {
        let (_dir, path) = scratch("corrupt");
        std::fs::write(&path, "{\"t\":\"epoch\",\"epoch\":0}\n").unwrap();
        let err = VerdictStore::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains(":1:"), "{err}");

        std::fs::write(&path, "not json\n").unwrap();
        assert!(VerdictStore::open(&path).is_err());

        // Rows referencing an epoch that never had a header are refused.
        std::fs::write(
            &path,
            "{\"t\":\"verdict\",\"epoch\":3,\"node\":1,\"provider\":0,\"claimed\":0,\
             \"assessment\":\"credible\",\"refined\":\"credible\",\"continent\":\"credible\",\
             \"area_km2\":1,\"self_ping_ms\":1}\n",
        )
        .unwrap();
        assert!(VerdictStore::open(&path).is_err());
    }
}
