//! Progress snapshots of a finished audit.
//!
//! The audit folds its proxies into the run recorder one at a time, in
//! fleet order, and hands each proxy's deterministic delta
//! ([`ProxyStat`]) to a [`SnapshotBuilder`] on the way. The builder
//! emits a cumulative [`ProgressSnapshot`] every `k` proxies, plus a
//! final one. Every field (proxies done, probes sent, retries,
//! timeouts, per-outcome tallies, the sim-clock stamp) is a pure
//! function of `(seed, k)`, so the stream is byte-identical for any
//! shard × thread split, and the determinism matrix compares its JSONL
//! rendering ([`ProgressSnapshot::deterministic_jsonl`]) exactly like
//! the event trace. Wall-clock time is not a snapshot field: the
//! `audit.run` profile span already reports it.

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

/// The deterministic per-proxy delta the audit reads off a proxy's
/// trace just before the trace folds into the run recorder.
#[derive(Debug, Clone, Copy)]
pub struct ProxyStat {
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
}

impl ProgressSnapshot {
    /// Render the snapshot as one JSONL line (newline-terminated).
    /// Byte-identical across shard and thread counts; the determinism
    /// matrix compares it.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn stat(i: u32, probes: u64, outcome: ProxyOutcome) -> ProxyStat {
        ProxyStat {
            sim_now_ns: u64::from(i) * 1_000,
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
        for i in 0..5u32 {
            if let Some(s) = b.push(&stat(i, 10, ProxyOutcome::Measured)) {
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
    }

    #[test]
    fn final_proxy_on_a_k_boundary_emits_once() {
        let mut b = SnapshotBuilder::new(4, 2);
        let mut count = 0;
        for i in 0..4u32 {
            if b.push(&stat(i, 1, ProxyOutcome::Unmeasurable)).is_some() {
                count += 1;
            }
        }
        assert_eq!(count, 2, "done=2 and done=4, not a duplicate final");
    }

    /// A snapshot line is valid JSON and carries exactly the
    /// seed-pure fields: no wall-clock value can slip into it.
    #[test]
    fn jsonl_renders_valid_json_and_wall_split() {
        let mut b = SnapshotBuilder::new(1, 1);
        let s = b.push(&stat(3, 10, ProxyOutcome::Insufficient)).unwrap();
        let line = s.deterministic_jsonl();
        assert!(line.ends_with('\n'));
        let parsed = Json::parse(line.trim_end()).expect("snapshot line must be valid JSON");
        let keys: Vec<&str> = parsed
            .as_object()
            .expect("snapshot line is an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "seq",
                "done",
                "total",
                "sim_ns",
                "probes",
                "timeouts",
                "retries",
                "measured",
                "insufficient",
                "unmeasurable"
            ]
        );
        assert_eq!(parsed.get("insufficient").and_then(Json::as_f64), Some(1.0));
    }
}
