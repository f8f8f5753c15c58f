//! Live progress snapshots for long-running audits.
//!
//! The sharded audit master drives a set of [`ProgressSink`]s at
//! deterministic intervals — every `k` proxies in **global proxy
//! order** — handing each a [`ProgressSnapshot`]. Snapshots carry two
//! compartments, mirroring the [`Recorder`](crate::Recorder) split:
//!
//! * the **deterministic** fields (proxies done, probes sent, retries,
//!   timeouts, per-outcome tallies, the sim-clock stamp) are a pure
//!   function of `(seed, k)`. Per-proxy stat deltas are captured in
//!   each shard's absorb loop (already proxy-ordered), carried through
//!   the merge, and folded in shard-range order — so the snapshot
//!   stream is byte-identical across any shard × thread split, and the
//!   determinism matrix compares its JSONL rendering
//!   ([`ProgressSnapshot::deterministic_jsonl`]) exactly like the event
//!   trace;
//! * the **wall** fields ([`WallProgress`]: elapsed, ETA, cache hit
//!   ratio) are genuine operational telemetry and never appear in the
//!   deterministic rendering.
//!
//! Two sinks ship in-tree: [`JsonlSink`] (line-per-snapshot, the thing
//! `figures ops` writes to disk) and [`RingSink`] (bounded in-memory
//! ring, the thing a live status endpoint would poll).

use std::collections::VecDeque;
use std::fmt::Write as _;

/// How one audited proxy resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProxyOutcome {
    /// Enough observations to geolocate.
    Measured,
    /// Responsive but below the observation floor.
    Insufficient,
    /// Never produced a usable measurement.
    Unmeasurable,
}

/// The deterministic per-proxy delta captured by a shard's absorb loop
/// just before the proxy's trace folds into the shard recorder.
#[derive(Debug, Clone, Copy)]
pub struct ProxyStat {
    /// The proxy's node id.
    pub node: u32,
    /// Sim clock after the proxy finished, nanoseconds.
    pub sim_now_ns: u64,
    /// Probes this proxy's measurement sent.
    pub probes_sent: u64,
    /// Probes that timed out.
    pub probes_timeout: u64,
    /// Retries the reliability layer scheduled.
    pub retries: u64,
    /// How the audit classified the proxy.
    pub outcome: ProxyOutcome,
}

/// One progress snapshot. All cumulative fields count from the start of
/// the study, not the previous snapshot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProgressSnapshot {
    /// Snapshot index, 0-based.
    pub seq: u64,
    /// Proxies audited so far (global deterministic order).
    pub proxies_done: u64,
    /// Total proxies in the study.
    pub proxies_total: u64,
    /// Sim clock of the most recently folded proxy, nanoseconds.
    pub sim_now_ns: u64,
    /// Probes sent so far.
    pub probes_sent: u64,
    /// Probe timeouts so far.
    pub probes_timeout: u64,
    /// Retries scheduled so far.
    pub retries: u64,
    /// Proxies measured so far.
    pub measured: u64,
    /// Proxies with insufficient data so far.
    pub insufficient: u64,
    /// Proxies unmeasurable so far.
    pub unmeasurable: u64,
    /// Wall-clock compartment — excluded from the deterministic
    /// rendering and from every determinism diff.
    pub wall: WallProgress,
}

/// The wall-clock compartment of a snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WallProgress {
    /// Wall milliseconds since the run started.
    pub elapsed_ms: u64,
    /// Estimated wall milliseconds remaining (`elapsed/done × left`).
    pub eta_ms: u64,
    /// Disk-cache hit ratio so far (0 when no lookups yet).
    pub cache_hit_ratio: f64,
}

impl ProgressSnapshot {
    /// The fraction of proxies done, 0..=1.
    pub fn ratio(&self) -> f64 {
        if self.proxies_total == 0 {
            1.0
        } else {
            self.proxies_done as f64 / self.proxies_total as f64
        }
    }

    /// Render the deterministic compartment as one JSONL line
    /// (newline-terminated). Byte-identical across shard and thread
    /// counts; the determinism matrix compares it.
    pub fn deterministic_jsonl(&self) -> String {
        format!(
            "{{\"seq\":{},\"done\":{},\"total\":{},\"sim_ns\":{},\"probes\":{},\"timeouts\":{},\"retries\":{},\"measured\":{},\"insufficient\":{},\"unmeasurable\":{}}}\n",
            self.seq,
            self.proxies_done,
            self.proxies_total,
            self.sim_now_ns,
            self.probes_sent,
            self.probes_timeout,
            self.retries,
            self.measured,
            self.insufficient,
            self.unmeasurable,
        )
    }

    /// Render both compartments as one JSONL line (the wall fields
    /// under a `"wall"` key, so a determinism-minded consumer can strip
    /// them mechanically).
    pub fn full_jsonl(&self) -> String {
        let mut line = self.deterministic_jsonl();
        // Pop outside the assert: debug_assert! drops its arguments in
        // release builds, and the pops must happen in every build.
        let tail = (line.pop(), line.pop());
        debug_assert_eq!(tail, (Some('\n'), Some('}')));
        let _ = writeln!(
            line,
            ",\"wall\":{{\"elapsed_ms\":{},\"eta_ms\":{},\"cache_hit_ratio\":{}}}}}",
            self.wall.elapsed_ms, self.wall.eta_ms, self.wall.cache_hit_ratio
        );
        line
    }
}

/// A consumer of progress snapshots. The audit master calls
/// [`emit`](ProgressSink::emit) once per snapshot, in `seq` order.
pub trait ProgressSink: Send {
    /// Accept one snapshot.
    fn emit(&mut self, snapshot: &ProgressSnapshot);
}

/// A shared handle counts as a sink: register
/// `Box::new(Arc::new(Mutex::new(sink)))` and keep a clone, so the
/// snapshots a run emits are readable after the run consumed the box.
impl<S: ProgressSink> ProgressSink for std::sync::Arc<std::sync::Mutex<S>> {
    fn emit(&mut self, snapshot: &ProgressSnapshot) {
        self.lock().expect("progress sink poisoned").emit(snapshot);
    }
}

/// Accumulates snapshots as JSONL text in memory.
#[derive(Debug, Default)]
pub struct JsonlSink {
    /// Include the wall compartment in each line.
    pub include_wall: bool,
    text: String,
}

impl JsonlSink {
    /// A sink rendering only the deterministic compartment.
    pub fn deterministic() -> JsonlSink {
        JsonlSink::default()
    }

    /// A sink rendering both compartments.
    pub fn full() -> JsonlSink {
        JsonlSink {
            include_wall: true,
            text: String::new(),
        }
    }

    /// The accumulated JSONL document.
    pub fn text(&self) -> &str {
        &self.text
    }
}

impl ProgressSink for JsonlSink {
    fn emit(&mut self, snapshot: &ProgressSnapshot) {
        self.text.push_str(&if self.include_wall {
            snapshot.full_jsonl()
        } else {
            snapshot.deterministic_jsonl()
        });
    }
}

/// A bounded in-memory ring of the most recent snapshots.
#[derive(Debug)]
pub struct RingSink {
    cap: usize,
    ring: VecDeque<ProgressSnapshot>,
}

impl RingSink {
    /// A ring keeping at most `cap` snapshots (`cap` ≥ 1).
    pub fn new(cap: usize) -> RingSink {
        RingSink {
            cap: cap.max(1),
            ring: VecDeque::new(),
        }
    }

    /// The newest snapshot, if any.
    pub fn latest(&self) -> Option<&ProgressSnapshot> {
        self.ring.back()
    }

    /// Snapshots currently held, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &ProgressSnapshot> {
        self.ring.iter()
    }

    /// Number of snapshots currently held.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing has been emitted yet.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }
}

impl ProgressSink for RingSink {
    fn emit(&mut self, snapshot: &ProgressSnapshot) {
        if self.ring.len() == self.cap {
            self.ring.pop_front();
        }
        self.ring.push_back(snapshot.clone());
    }
}

/// Folds per-proxy stats into cumulative snapshots every `every`
/// proxies (plus a final snapshot at the end of the stream). Feed it
/// [`ProxyStat`]s in global proxy order; it returns a snapshot whenever
/// one is due.
#[derive(Debug)]
pub struct SnapshotBuilder {
    every: u64,
    total: u64,
    seq: u64,
    acc: ProgressSnapshot,
}

impl SnapshotBuilder {
    /// A builder for a study of `total` proxies, snapshotting every
    /// `every` proxies (`every` ≥ 1).
    pub fn new(total: u64, every: u64) -> SnapshotBuilder {
        SnapshotBuilder {
            every: every.max(1),
            total,
            seq: 0,
            acc: ProgressSnapshot {
                proxies_total: total,
                ..ProgressSnapshot::default()
            },
        }
    }

    /// Fold one proxy in. Returns the snapshot due at this point, if
    /// any: one every `every` proxies, and always one when the last
    /// proxy lands (never two for the same proxy).
    pub fn push(&mut self, stat: &ProxyStat) -> Option<ProgressSnapshot> {
        self.acc.proxies_done += 1;
        self.acc.sim_now_ns = self.acc.sim_now_ns.max(stat.sim_now_ns);
        self.acc.probes_sent += stat.probes_sent;
        self.acc.probes_timeout += stat.probes_timeout;
        self.acc.retries += stat.retries;
        match stat.outcome {
            ProxyOutcome::Measured => self.acc.measured += 1,
            ProxyOutcome::Insufficient => self.acc.insufficient += 1,
            ProxyOutcome::Unmeasurable => self.acc.unmeasurable += 1,
        }
        let due =
            self.acc.proxies_done.is_multiple_of(self.every) || self.acc.proxies_done == self.total;
        if !due {
            return None;
        }
        let mut snap = self.acc.clone();
        snap.seq = self.seq;
        self.seq += 1;
        Some(snap)
    }

    /// Snapshots emitted so far.
    pub fn emitted(&self) -> u64 {
        self.seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn stat(node: u32, probes: u64, outcome: ProxyOutcome) -> ProxyStat {
        ProxyStat {
            node,
            sim_now_ns: u64::from(node) * 1_000,
            probes_sent: probes,
            probes_timeout: probes / 10,
            retries: probes / 5,
            outcome,
        }
    }

    #[test]
    fn builder_emits_every_k_and_at_the_end() {
        let mut b = SnapshotBuilder::new(5, 2);
        let mut snaps = Vec::new();
        for node in 0..5u32 {
            if let Some(s) = b.push(&stat(node, 10, ProxyOutcome::Measured)) {
                snaps.push(s);
            }
        }
        // 5 proxies, k=2 → snapshots at done=2, 4, and the final 5.
        let dones: Vec<u64> = snaps.iter().map(|s| s.proxies_done).collect();
        assert_eq!(dones, [2, 4, 5]);
        let seqs: Vec<u64> = snaps.iter().map(|s| s.seq).collect();
        assert_eq!(seqs, [0, 1, 2]);
        assert_eq!(snaps[2].probes_sent, 50);
        assert_eq!(snaps[2].measured, 5);
        assert_eq!(snaps[2].sim_now_ns, 4_000);
        assert_eq!(b.emitted(), 3);
    }

    #[test]
    fn final_proxy_on_a_k_boundary_emits_once() {
        let mut b = SnapshotBuilder::new(4, 2);
        let mut count = 0;
        for node in 0..4u32 {
            if b.push(&stat(node, 1, ProxyOutcome::Unmeasurable)).is_some() {
                count += 1;
            }
        }
        assert_eq!(count, 2, "done=2 and done=4, not a duplicate final");
    }

    #[test]
    fn jsonl_renders_valid_json_and_wall_split() {
        let mut b = SnapshotBuilder::new(1, 1);
        let mut s = b.push(&stat(3, 10, ProxyOutcome::Insufficient)).unwrap();
        s.wall = WallProgress {
            elapsed_ms: 120,
            eta_ms: 0,
            cache_hit_ratio: 0.5,
        };
        let det = s.deterministic_jsonl();
        let full = s.full_jsonl();
        for line in [&det, &full] {
            assert!(line.ends_with('\n'));
            Json::parse(line.trim_end()).expect("snapshot line must be valid JSON");
        }
        assert!(!det.contains("wall"), "wall fields leaked: {det}");
        let parsed = Json::parse(full.trim_end()).unwrap();
        assert_eq!(
            parsed.get("wall").and_then(|w| w.get("elapsed_ms")).and_then(Json::as_f64),
            Some(120.0)
        );
        assert_eq!(parsed.get("insufficient").and_then(Json::as_f64), Some(1.0));
    }

    #[test]
    fn sinks_accumulate_in_order() {
        let mut jsonl = JsonlSink::deterministic();
        let mut ring = RingSink::new(2);
        let mut b = SnapshotBuilder::new(6, 1);
        for node in 0..6u32 {
            let s = b.push(&stat(node, 2, ProxyOutcome::Measured)).unwrap();
            jsonl.emit(&s);
            ring.emit(&s);
        }
        assert_eq!(jsonl.text().lines().count(), 6);
        // The ring keeps only the two newest.
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.latest().unwrap().proxies_done, 6);
        let dones: Vec<u64> = ring.iter().map(|s| s.proxies_done).collect();
        assert_eq!(dones, [5, 6]);
        assert!(!ring.is_empty());
    }

    #[test]
    fn ratio_handles_empty_studies() {
        let s = ProgressSnapshot::default();
        assert_eq!(s.ratio(), 1.0);
        let s = ProgressSnapshot {
            proxies_done: 1,
            proxies_total: 4,
            ..ProgressSnapshot::default()
        };
        assert_eq!(s.ratio(), 0.25);
    }
}
