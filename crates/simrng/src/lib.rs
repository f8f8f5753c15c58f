#![warn(missing_docs)]

//! # simrng
//!
//! A self-contained deterministic random-number substrate for the whole
//! workspace: no external crates, no platform entropy, no behaviour that
//! can drift under a dependency version bump. Every simulation result in
//! this repository is a pure function of a `u64` seed, and that property
//! is only auditable if the RNG itself is pinned in-tree.
//!
//! The generator is **xoshiro256++** (Blackman & Vigna), seeded through
//! **SplitMix64** exactly the way the classical reference code does it.
//! Both algorithms are public-domain, tiny, and have published test
//! vectors; the golden-value tests at the bottom of [`rngs`] pin the
//! first outputs of every seeding path so any accidental change to the
//! stream is caught by `cargo test` rather than by a silently different
//! study outcome.
//!
//! The API mirrors the small slice of the `rand` crate surface the
//! workspace actually uses, so call sites read idiomatically:
//!
//! ```
//! use simrng::rngs::StdRng;
//! use simrng::{RngExt, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(42);
//! let lat: f64 = rng.random_range(-89.0..89.0);
//! let idx = rng.random_range(0..25usize);
//! let coin = rng.random_bool(0.5);
//! # let _ = (lat, idx, coin);
//! ```
//!
//! Modules:
//!
//! * [`rngs`] — the [`rngs::StdRng`] generator (xoshiro256++).
//! * [`prop`] — the in-repo property-test harness (seeded generation +
//!   shrink-by-bisection), replacing the external `proptest` crate.

pub mod prop;
pub mod rngs;

/// A source of uniformly distributed random bits.
///
/// This is the object-safe core trait (the analogue of `rand`'s
/// `RngCore`): everything else — ranges, floats, shuffles — is layered
/// on top by [`RngExt`], which is blanket-implemented for every `Rng`.
pub trait Rng {
    /// The next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 uniformly distributed bits (upper half of
    /// [`next_u64`](Self::next_u64), which has the better-mixed bits in
    /// xoshiro-family generators).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }

    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
}

/// Types that can be sampled uniformly from an [`Rng`]'s raw bit stream.
///
/// The analogue of sampling `rand`'s `StandardUniform` distribution:
/// `rng.random::<f64>()` is uniform in `[0, 1)`, integer types take
/// their full range, and `bool` is a fair coin.
pub trait StandardSample: Sized {
    /// Draw one value from `rng`.
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for u64 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl StandardSample for u32 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl StandardSample for u16 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 48) as u16
    }
}

impl StandardSample for u8 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 56) as u8
    }
}

impl StandardSample for usize {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl StandardSample for i64 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as i64
    }
}

impl StandardSample for i32 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32() as i32
    }
}

impl StandardSample for bool {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // Top bit of the raw draw: well mixed in xoshiro256++.
        rng.next_u64() >> 63 == 1
    }
}

impl StandardSample for f64 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // 53 high bits -> uniform multiples of 2^-53 in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardSample for f32 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // 24 high bits -> uniform multiples of 2^-24 in [0, 1).
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Ranges that can produce a uniform sample of their contents.
///
/// Implemented for `Range` (half-open) and `RangeInclusive` over the
/// primitive integer and float types the workspace samples from.
pub trait SampleRange {
    /// The element type produced.
    type Output;

    /// Draw one value uniformly from the range.
    ///
    /// # Panics
    /// Panics if the range is empty (or, for floats, not finite).
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> Self::Output;
}

/// Map a raw `u64` draw onto `[0, bound)` without modulo bias worth
/// caring about: multiply-shift (Lemire). The bias is at most
/// `bound / 2^64`, irrelevant for simulation workloads, and — the
/// property we actually need — the mapping is a pure deterministic
/// function of the draw.
#[inline]
fn bounded_u64<R: Rng + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    ((u128::from(rng.next_u64()) * u128::from(bound)) >> 64) as u64
}

macro_rules! impl_sample_range_int {
    ($($t:ty => $unsigned:ty),* $(,)?) => {$(
        impl SampleRange for core::ops::Range<$t> {
            type Output = $t;

            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(
                    self.start < self.end,
                    "cannot sample from empty range {}..{}",
                    self.start, self.end
                );
                let span = (self.end as $unsigned).wrapping_sub(self.start as $unsigned);
                let off = bounded_u64(rng, span as u64) as $unsigned;
                (self.start as $unsigned).wrapping_add(off) as $t
            }
        }

        impl SampleRange for core::ops::RangeInclusive<$t> {
            type Output = $t;

            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample from empty range {lo}..={hi}");
                let span = (hi as $unsigned).wrapping_sub(lo as $unsigned);
                if span as u64 == u64::MAX {
                    return rng.next_u64() as $t;
                }
                let off = bounded_u64(rng, span as u64 + 1) as $unsigned;
                (lo as $unsigned).wrapping_add(off) as $t
            }
        }
    )*};
}

impl_sample_range_int!(
    u8 => u8,
    u16 => u16,
    u32 => u32,
    u64 => u64,
    usize => usize,
    i8 => u8,
    i16 => u16,
    i32 => u32,
    i64 => u64,
    isize => usize,
);

macro_rules! impl_sample_range_float {
    ($($t:ty),* $(,)?) => {$(
        impl SampleRange for core::ops::Range<$t> {
            type Output = $t;

            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(
                    self.start < self.end && self.start.is_finite() && self.end.is_finite(),
                    "cannot sample from bad float range {}..{}",
                    self.start, self.end
                );
                let u: $t = StandardSample::sample(rng);
                let v = self.start + u * (self.end - self.start);
                // f.p. rounding can land exactly on `end`; clamp back
                // inside the half-open contract.
                if v >= self.end { self.start } else { v }
            }
        }
    )*};
}

impl_sample_range_float!(f32, f64);

/// Convenience sampling methods, blanket-implemented for every [`Rng`].
///
/// Mirrors the `rand` method names (`random`, `random_range`,
/// `random_bool`, …) so migrated call sites read the same.
pub trait RngExt: Rng {
    /// A uniform draw of type `T` (see [`StandardSample`]).
    fn random<T: StandardSample>(&mut self) -> T {
        T::sample(self)
    }

    /// A uniform draw from `range` (half-open or inclusive, int or float).
    ///
    /// # Panics
    /// Panics if the range is empty.
    fn random_range<Rg: SampleRange>(&mut self, range: Rg) -> Rg::Output {
        range.sample_from(self)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    fn random_bool(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        self.random::<f64>() < p
    }

    /// Fill `dest` with uniformly random bytes.
    fn fill(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }

    /// In-place Fisher–Yates shuffle.
    fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.random_range(0..=i);
            slice.swap(i, j);
        }
    }

    /// A uniformly chosen element of `slice`, or `None` if it is empty.
    fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.random_range(0..slice.len())])
        }
    }
}

impl<R: Rng + ?Sized> RngExt for R {}

/// Deterministic construction of a generator from seed material.
///
/// The default [`seed_from_u64`](Self::seed_from_u64) expands a `u64`
/// into the full seed through SplitMix64, the standard recipe for
/// seeding xoshiro-family generators (and the same structure `rand`
/// uses), so short seeds still produce well-mixed initial states.
pub trait SeedableRng: Sized {
    /// The raw seed type (a fixed-size byte array).
    type Seed: AsMut<[u8]> + Default;

    /// Build a generator from a full raw seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Build a generator from a `u64`, expanding it via SplitMix64.
    fn seed_from_u64(state: u64) -> Self {
        let mut seed = Self::Seed::default();
        let mut sm = state;
        for chunk in seed.as_mut().chunks_mut(8) {
            let bytes = splitmix64(&mut sm).to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// One step of the SplitMix64 sequence (Steele, Lea & Flood; public
/// domain reference constants). Used for seed expansion only.
#[inline]
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{RngExt, SeedableRng};

    #[test]
    fn splitmix64_reference_vector() {
        // Reference sequence for seed 1234567 from the public-domain
        // splitmix64.c test vectors.
        let mut state = 1234567u64;
        let expected = [
            6457827717110365317u64,
            3203168211198807973,
            9817491932198370423,
            4593380528125082431,
            16408922859458223821,
        ];
        for &e in &expected {
            assert_eq!(super::splitmix64(&mut state), e);
        }
    }

    #[test]
    fn unit_interval_is_half_open() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..10_000 {
            let u: f64 = rng.random();
            assert!((0.0..1.0).contains(&u));
            let v: f32 = rng.random();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..10_000 {
            let a = rng.random_range(3usize..17);
            assert!((3..17).contains(&a));
            let b = rng.random_range(-5i64..5);
            assert!((-5..5).contains(&b));
            let c = rng.random_range(0..=6u32);
            assert!(c <= 6);
            let d = rng.random_range(-0.08f64..0.08);
            assert!((-0.08..0.08).contains(&d));
        }
    }

    #[test]
    fn integer_ranges_hit_every_value() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            seen[rng.random_range(0..10usize)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all of 0..10 should appear");
    }

    #[test]
    fn random_bool_extremes_and_rate() {
        let mut rng = StdRng::seed_from_u64(12);
        assert!(!rng.random_bool(0.0));
        assert!(rng.random_bool(1.0));
        // Out-of-range p clamps rather than panicking.
        assert!(rng.random_bool(2.0));
        assert!(!rng.random_bool(-3.0));
        let hits = (0..20_000).filter(|_| rng.random_bool(0.25)).count();
        let rate = hits as f64 / 20_000.0;
        assert!((rate - 0.25).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn fill_covers_unaligned_tails() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut buf = [0u8; 13];
        rng.fill(&mut buf);
        // Same seed, same bytes.
        let mut rng2 = StdRng::seed_from_u64(13);
        let mut buf2 = [0u8; 13];
        rng2.fill(&mut buf2);
        assert_eq!(buf, buf2);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(14);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
        assert_ne!(
            v,
            (0..100).collect::<Vec<u32>>(),
            "shuffle should move things"
        );
    }

    #[test]
    fn choose_is_none_on_empty_and_uniformish() {
        let mut rng = StdRng::seed_from_u64(15);
        let empty: [u8; 0] = [];
        assert!(rng.choose(&empty).is_none());
        let items = [1, 2, 3];
        let mut counts = [0usize; 3];
        for _ in 0..9_000 {
            counts[*rng.choose(&items).unwrap() as usize - 1] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 3_000.0).abs() < 300.0, "counts {counts:?}");
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_int_range_panics() {
        let mut rng = StdRng::seed_from_u64(16);
        let _ = rng.random_range(5..5usize);
    }
}
