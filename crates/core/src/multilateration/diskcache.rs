//! A shared memo of landmark disks in closed form.
//!
//! The audit evaluates thousands of proxies against the *same* landmark
//! constellation, and several algorithms (CBG's bestline disks, CBG++'s
//! baseline and bestline passes) rebuild disks around the same centres
//! with near-identical radii. A [`DiskCache`] keys disks by (landmark
//! position, radius quantized **up** to a whole grid cell) so that every
//! repeat is a copy of a stored entry instead of a fresh set-up.
//!
//! Each entry is the disk's [`CapRaster`]: the cap's closed form (cos r,
//! the centre latitude's sine, cosine and inverse cosine, the centre
//! column and the latitude band) and the grid's column count, 56 bytes.
//! The intersection evaluates a disk's column runs only on the rows its
//! running set still holds, through the same row arithmetic as
//! [`Region::from_cap`](geokit::Region::from_cap), so each row holds
//! exactly the cells that region would.
//!
//! Quantizing the radius up preserves soundness: a cached disk is never
//! smaller than the exact disk, so a region built from cached disks can
//! only over-cover — it never excludes the true location. The growth is
//! bounded by one grid cell of radius, below the rasterization slack the
//! constraint engine already applies ([`grid_slack_km`]).
//!
//! ## Fill-once concurrency protocol
//!
//! The cache is safe to share across worker threads (`Arc<DiskCache>`)
//! and fills **once per key**: the map is sharded across striped locks,
//! and each entry is a reservation cell ([`OnceLock`]). The first worker
//! to ask for a key inserts an empty reservation under the shard lock,
//! counts the one miss, and sets the disk up *outside* the lock; every
//! other worker finds the reservation, counts a hit, and blocks on
//! [`OnceLock::wait`] until the disk is ready. No disk is ever set up
//! twice, and the traffic counters are exact — for a fixed workload,
//! `hits`, `misses`, and `entries` are identical for every thread count
//! (`misses == entries` always), so they can participate in determinism
//! diffs rather than being quarantined as telemetry.
//!
//! [`grid_slack_km`]: crate::multilateration::constraint::grid_slack_km

use geokit::{CapRaster, GeoGrid, GeoPoint, SphericalCap};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Cache key: exact landmark coordinates (bit patterns — landmarks are
/// shared constellation points, so equal positions have equal bits) plus
/// the radius in whole grid cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct DiskKey {
    lat_bits: u64,
    lon_bits: u64,
    radius_cells: u32,
}

impl DiskKey {
    /// Shard index: a 64-bit avalanche over the key fields so nearby
    /// landmarks don't pile onto one stripe.
    fn shard(&self) -> usize {
        let mut h = self.lat_bits
            ^ self.lon_bits.rotate_left(21)
            ^ u64::from(self.radius_cells).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        (h as usize) % SHARD_COUNT
    }
}

/// Number of striped locks over the key space. Contention on a shard
/// lock is held only for a map probe or a reservation insert — never a
/// disk's set-up — so a modest stripe count suffices.
const SHARD_COUNT: usize = 16;

/// One reservation cell: empty while the reserving worker sets the disk
/// up, filled exactly once.
type DiskSlot = Arc<OnceLock<CapRaster>>;

/// Running totals of cache traffic. Exact under any thread count: the
/// fill-once protocol guarantees every lookup counts exactly one hit or
/// one miss, and exactly one worker misses per distinct key, so for a
/// fixed workload `hits`, `misses`, and `entries` are thread-count
/// invariant (with `misses == entries`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskCacheStats {
    /// Lookups answered from the memo (including lookups that waited on
    /// another worker's in-flight set-up).
    pub hits: u64,
    /// Lookups that reserved the key and set the disk up (one per
    /// entry).
    pub misses: u64,
    /// Distinct disks stored.
    pub entries: usize,
}

impl DiskCacheStats {
    /// Hit fraction in `[0, 1]`; zero when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// An `Arc`-shared, fill-once memo of landmark disks on one grid, each
/// in closed form.
#[derive(Debug)]
pub struct DiskCache {
    grid: Arc<GeoGrid>,
    /// Kilometres per whole-cell radius step (one equatorial cell
    /// height).
    cell_km: f64,
    /// Striped reservation maps: `key.shard()` picks the stripe. The
    /// lock guards only map probes and reservation inserts; the disk's
    /// set-up happens outside, on the reserving worker.
    shards: Vec<Mutex<HashMap<DiskKey, DiskSlot>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Wall-clock profiling sink (off by default). Lookup spans land
    /// here, nesting under whatever span the calling thread has open —
    /// telemetry only, never deterministic output.
    obs: obs::Recorder,
}

impl DiskCache {
    /// An empty cache of disks on `grid`.
    pub fn new(grid: Arc<GeoGrid>) -> DiskCache {
        let cell_km = grid.resolution_deg() * 111.32;
        DiskCache {
            grid,
            cell_km,
            shards: (0..SHARD_COUNT)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            obs: obs::Recorder::off(),
        }
    }

    /// Attach a profiling recorder: subsequent lookups time themselves
    /// as `cache.lookup` profile spans into it, one per lookup, a miss's
    /// set-up included. Call before sharing the cache across threads.
    pub fn set_recorder(&mut self, rec: obs::Recorder) {
        self.obs = rec;
    }

    /// The grid the cached disks live on.
    pub fn grid(&self) -> &Arc<GeoGrid> {
        &self.grid
    }

    /// The radius of the disk [`disk`](DiskCache::disk) returns for a
    /// requested radius: quantized up to the next whole grid cell
    /// (minimum one cell).
    pub fn quantized_radius_km(&self, radius_km: f64) -> f64 {
        f64::from(self.radius_cells(radius_km)) * self.cell_km
    }

    fn radius_cells(&self, radius_km: f64) -> u32 {
        ((radius_km / self.cell_km).ceil()).max(1.0) as u32
    }

    /// The disk of (up to one cell more than) `radius_km` around
    /// `center`, from the memo when possible. Evaluate its rows with
    /// `self.grid().trig()`.
    pub fn disk(&self, center: &GeoPoint, radius_km: f64) -> CapRaster {
        self.disk_of_cells(center, self.radius_cells(radius_km))
    }

    /// The disk of (up to one cell *less* than) `radius_km` around
    /// `center`, or `None` when the floor-quantized radius is zero.
    ///
    /// This is the sound quantization for the *inner* cap of an annulus
    /// constraint: shrinking what gets subtracted can only over-cover,
    /// mirroring how [`disk`](DiskCache::disk) grows the outer cap.
    pub fn inner_disk(&self, center: &GeoPoint, radius_km: f64) -> Option<CapRaster> {
        let cells = (radius_km / self.cell_km).floor() as u32;
        (cells > 0).then(|| self.disk_of_cells(center, cells))
    }

    /// Probe-or-reserve: returns the key's slot and whether *this* call
    /// created it (making the caller responsible for filling it).
    fn reserve(&self, key: DiskKey) -> (DiskSlot, bool) {
        let mut shard = self.shards[key.shard()]
            .lock()
            .expect("disk cache poisoned");
        match shard.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => (Arc::clone(e.get()), false),
            std::collections::hash_map::Entry::Vacant(v) => {
                let slot: DiskSlot = Arc::new(OnceLock::new());
                v.insert(Arc::clone(&slot));
                (slot, true)
            }
        }
    }

    fn disk_of_cells(&self, center: &GeoPoint, cells: u32) -> CapRaster {
        let _lookup_span = self.obs.profile_span("cache.lookup");
        let key = DiskKey {
            lat_bits: center.lat().to_bits(),
            lon_bits: center.lon().to_bits(),
            radius_cells: cells,
        };
        let (slot, reserved) = self.reserve(key);
        if reserved {
            // This call owns the key: the one miss, the one set-up.
            self.misses.fetch_add(1, Ordering::Relaxed);
            let cap = SphericalCap::new(*center, f64::from(cells) * self.cell_km);
            let disk = CapRaster::new(&self.grid, &cap);
            slot.set(disk).expect("reserved slot filled twice");
            disk
        } else {
            // Someone else owns the key; wait for their fill if it is
            // still in flight. A hit either way — the work is not ours.
            self.hits.fetch_add(1, Ordering::Relaxed);
            *slot.wait()
        }
    }

    /// The sorted set of cached keys as raw `(lat_bits, lon_bits,
    /// radius_cells)` triples. Sorted, so the set compares equal to any
    /// sorted list of the same keys whatever order the cache filled in.
    pub fn export_keys(&self) -> Vec<(u64, u64, u32)> {
        let mut keys: Vec<(u64, u64, u32)> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.lock()
                    .expect("disk cache poisoned")
                    .keys()
                    .map(|k| (k.lat_bits, k.lon_bits, k.radius_cells))
                    .collect::<Vec<_>>()
            })
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Current traffic counters and size. Exact and thread-count
    /// invariant for a fixed workload (see the module docs).
    pub fn stats(&self) -> DiskCacheStats {
        DiskCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| s.lock().expect("disk cache poisoned").len())
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geokit::{Region, RowSpan};

    fn cache() -> DiskCache {
        DiskCache::new(GeoGrid::new(2.0))
    }

    /// The cells of a cached disk as a region on the cache's grid,
    /// painted row by row as the intersection evaluates it.
    fn region(c: &DiskCache, disk: &CapRaster) -> Region {
        let mut r = Region::empty(Arc::clone(c.grid()));
        for row in disk.rows() {
            disk.row_runs(c.grid().trig(), row, |lo, hi| r.insert_run(row, lo..hi));
        }
        r
    }

    #[test]
    fn disk_runs_hold_exactly_the_cap_cells() {
        let c = cache();
        // Mid-latitude, antimeridian-wrapping, polar and whole-globe caps.
        for (lat, lon, r) in [
            (48.0, 11.0, 700.0),
            (-40.0, 179.0, 1500.0),
            (89.0, -30.0, 900.0),
            (0.0, -180.0, geokit::MAX_GC_DISTANCE_KM),
        ] {
            let lm = GeoPoint::new(lat, lon);
            let disk = c.disk(&lm, r);
            let cap = SphericalCap::new(lm, c.quantized_radius_km(r));
            assert_eq!(region(&c, &disk), Region::from_cap(c.grid(), &cap));
            let trig = c.grid().trig();
            assert_eq!(disk.row_span(trig, disk.rows().end), RowSpan::Empty);
            if let Some(below) = disk.rows().start.checked_sub(1) {
                assert_eq!(disk.row_span(trig, below), RowSpan::Empty);
            }
        }
    }

    #[test]
    fn repeat_lookup_hits() {
        let c = cache();
        let lm = GeoPoint::new(48.0, 11.0);
        let a = c.disk(&lm, 700.0);
        let b = c.disk(&lm, 700.0);
        assert_eq!(a, b);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn radii_in_the_same_cell_share_an_entry() {
        let c = cache();
        let lm = GeoPoint::new(0.0, 0.0);
        // 2° cells are ~222.64 km: 500 and 600 km both quantize to 3.
        let a = c.disk(&lm, 500.0);
        let b = c.disk(&lm, 600.0);
        assert_eq!(a, b);
        assert_eq!(c.stats().entries, 1);
    }

    #[test]
    fn quantization_never_shrinks_a_disk() {
        let c = cache();
        for r in [1.0, 100.0, 333.3, 1000.0, 5000.0] {
            assert!(c.quantized_radius_km(r) >= r, "radius {r} shrank");
        }
        let lm = GeoPoint::new(30.0, 30.0);
        let exact = Region::from_cap(c.grid(), &SphericalCap::new(lm, 750.0));
        let cached = c.disk(&lm, 750.0);
        assert!(exact.is_subset_of(&region(&c, &cached)));
    }

    #[test]
    fn inner_disk_never_grows() {
        let c = cache();
        let lm = GeoPoint::new(-20.0, 100.0);
        // Below one cell: nothing to subtract.
        assert!(c.inner_disk(&lm, 100.0).is_none());
        let exact = Region::from_cap(c.grid(), &SphericalCap::new(lm, 750.0));
        let inner = region(&c, &c.inner_disk(&lm, 750.0).unwrap());
        assert!(inner.is_subset_of(&exact));
        // Outer ceil and inner floor of the same radius share no key
        // only when the radius is not already whole-cell.
        assert!(inner.cell_count() <= region(&c, &c.disk(&lm, 750.0)).cell_count());
    }

    #[test]
    fn export_keys_is_sorted_and_matches_entries() {
        let c = cache();
        c.disk(&GeoPoint::new(10.0, 10.0), 400.0);
        c.disk(&GeoPoint::new(-5.0, 80.0), 900.0);
        c.disk(&GeoPoint::new(10.0, 10.0), 400.0); // repeat: no new key
        let keys = c.export_keys();
        assert_eq!(keys.len(), c.stats().entries);
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "export must be pre-sorted");
        // Two caches serving the same lookups export the same keys.
        let d = cache();
        d.disk(&GeoPoint::new(-5.0, 80.0), 900.0);
        d.disk(&GeoPoint::new(10.0, 10.0), 400.0);
        assert_eq!(keys, d.export_keys());
    }

    #[test]
    fn distinct_centers_get_distinct_entries() {
        let c = cache();
        c.disk(&GeoPoint::new(10.0, 10.0), 400.0);
        c.disk(&GeoPoint::new(10.0, 12.0), 400.0);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 2, 2));
    }

    /// The satellite-1 stress test: hammer one shared cache from many
    /// threads over a workload with heavy key overlap, and require the
    /// counters to be *exact* — `misses == entries`, `hits + misses ==`
    /// the number of lookups — and identical for every thread count.
    #[test]
    fn concurrent_stats_are_exact_and_thread_count_invariant() {
        // 6 distinct centres × 4 distinct radius cells = 24 keys, looked
        // up 40× each per run.
        let workload: Vec<(GeoPoint, f64)> = (0..960)
            .map(|i| {
                let centre = GeoPoint::new(10.0 + f64::from(i % 6) * 7.0, 20.0);
                let radius = 300.0 + f64::from((i / 6) % 4) * 400.0;
                (centre, radius)
            })
            .collect();
        let run = |threads: usize| {
            let c = Arc::new(cache());
            let chunk = workload.len().div_ceil(threads);
            std::thread::scope(|scope| {
                for part in workload.chunks(chunk) {
                    let c = Arc::clone(&c);
                    scope.spawn(move || {
                        for (centre, radius) in part {
                            std::hint::black_box(c.disk(centre, *radius));
                        }
                    });
                }
            });
            c.stats()
        };
        let serial = run(1);
        assert_eq!(
            serial.misses as usize, serial.entries,
            "misses must equal entries"
        );
        assert_eq!(serial.hits + serial.misses, workload.len() as u64);
        assert_eq!((serial.misses, serial.entries), (24, 24));
        for threads in [2, 4, 8, 16] {
            let s = run(threads);
            assert_eq!(serial, s, "cache stats diverged at {threads} threads");
        }
    }
}
