// The module-doc example shows the `proptest!` macro exactly as test
// suites invoke it, and that grammar includes a literal `#[test]`
// attribute — the doctest demonstrates syntax, not a runnable test.
#![allow(clippy::test_attr_in_doctest)]
//! A small in-repo property-test harness.
//!
//! Replaces the external `proptest` crate for the workspace's four
//! property suites. The design keeps the parts those suites actually
//! use — seeded case generation from range/tuple/vec/map strategies,
//! `prop_assert!`-style macros, and input shrinking — and drops the
//! rest. Two properties matter:
//!
//! 1. **Determinism.** Cases are generated from [`StdRng`] seeded by a
//!    hash of the property name (overridable via
//!    `SIMRNG_PROPTEST_SEED`), so a failure reproduces bit-for-bit on
//!    every machine with no regression files to check in.
//! 2. **Shrinking by bisection.** Numeric inputs shrink toward the
//!    range's origin (zero when the range contains it, else the lower
//!    bound) by repeated halving; vectors shrink by halving their
//!    length toward the minimum, then element-wise. Mapped strategies
//!    (`prop_map`) do not shrink — the suites only map small tuples of
//!    numerics into domain types, and the tuple components themselves
//!    do the shrinking where it counts.
//!
//! ```
//! simrng::proptest! {
//!     #![proptest_config(simrng::prop::ProptestConfig::with_cases(32))]
//!     #[test]
//!     fn addition_commutes(a in 0i64..1000, b in 0i64..1000) {
//!         prop_assert_eq!(a + b, b + a);
//!     }
//! }
//! # fn main() {}
//! ```

use crate::rngs::StdRng;
use crate::{RngExt, SeedableRng};
use core::fmt::Debug;
use core::ops::Range;

/// Everything a property suite needs: the [`Strategy`] trait, the
/// config type, the `prop` module path itself (for
/// `prop::collection::vec`), and the assertion macros.
pub mod prelude {
    pub use crate::prop;
    pub use crate::prop::{ProptestConfig, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Runner configuration for one `proptest!` block.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of accepted (non-rejected) cases to run per property.
    pub cases: u32,
    /// Base seed; each property XORs in a hash of its own name so
    /// sibling properties see independent streams.
    pub seed: u64,
    /// Cap on `prop_assume!` rejections before the property errors out.
    pub max_rejects: u32,
    /// Cap on shrink iterations once a failing case is found.
    pub max_shrink_steps: u32,
}

impl ProptestConfig {
    /// The default configuration with `cases` accepted cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig {
            cases,
            ..Self::default()
        }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: 64,
            seed: 0x51e3_ca5e,
            max_rejects: 1024,
            max_shrink_steps: 512,
        }
    }
}

/// Why a single test case did not pass.
#[derive(Clone, Debug)]
pub enum TestCaseError {
    /// An assertion failed: the property is falsified by this input.
    Fail(String),
    /// The input was rejected by `prop_assume!`; draw another.
    Reject(String),
}

/// A generator of test-case values, with optional shrinking.
pub trait Strategy {
    /// The value type this strategy produces.
    type Value: Clone + Debug;

    /// Draw one value from the seeded stream.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Propose one strictly "simpler" candidate derived from `value`,
    /// or `None` when the value is already minimal. The runner keeps a
    /// candidate only if the property still fails on it.
    fn shrink(&self, value: &Self::Value) -> Option<Self::Value> {
        let _ = value;
        None
    }

    /// Transform generated values with `map`. Mapped strategies do not
    /// shrink (the inverse image of a failing value is unknown).
    fn prop_map<U, F>(self, map: F) -> Map<Self, F>
    where
        Self: Sized,
        U: Clone + Debug,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, map }
    }
}

/// The result of [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    map: F,
}

impl<S, U, F> Strategy for Map<S, F>
where
    S: Strategy,
    U: Clone + Debug,
    F: Fn(S::Value) -> U,
{
    type Value = U;

    fn generate(&self, rng: &mut StdRng) -> U {
        (self.map)(self.inner.generate(rng))
    }
}

macro_rules! impl_strategy_int_range {
    ($($t:ty),* $(,)?) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.random_range(self.clone())
            }

            fn shrink(&self, value: &$t) -> Option<$t> {
                #[allow(unused_comparisons)]
                let origin: $t = if self.start <= 0 as $t && (0 as $t) < self.end {
                    0 as $t
                } else {
                    self.start
                };
                let v = *value;
                if v == origin {
                    return None;
                }
                // Bisect toward the origin; integer division is exact
                // enough that this terminates (|v - origin| halves).
                let candidate = origin + (v - origin) / 2;
                if candidate == v { None } else { Some(candidate) }
            }
        }
    )*};
}

impl_strategy_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_strategy_float_range {
    ($($t:ty),* $(,)?) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.random_range(self.clone())
            }

            fn shrink(&self, value: &$t) -> Option<$t> {
                let origin: $t = if self.start <= 0.0 && 0.0 < self.end { 0.0 } else { self.start };
                let v = *value;
                if v == origin || !(v - origin).is_finite() {
                    return None;
                }
                let candidate = origin + (v - origin) / 2.0;
                // Stop once bisection no longer moves the value, or the
                // step has become physically meaningless.
                if candidate == v || (v - origin).abs() < 1e-9 {
                    None
                } else {
                    Some(candidate)
                }
            }
        }
    )*};
}

impl_strategy_float_range!(f32, f64);

macro_rules! impl_strategy_tuple {
    ($(($($name:ident : $idx:tt),+)),* $(,)?) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }

            fn shrink(&self, value: &Self::Value) -> Option<Self::Value> {
                // Shrink the leftmost component that still can; keep
                // the rest of the tuple fixed.
                $(
                    if let Some(smaller) = self.$idx.shrink(&value.$idx) {
                        let mut next = value.clone();
                        next.$idx = smaller;
                        return Some(next);
                    }
                )+
                None
            }
        }
    )*};
}

impl_strategy_tuple!(
    (A: 0),
    (A: 0, B: 1),
    (A: 0, B: 1, C: 2),
    (A: 0, B: 1, C: 2, D: 3),
    (A: 0, B: 1, C: 2, D: 3, E: 4),
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5),
);

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use super::{Range, RngExt, StdRng, Strategy};

    /// A `Vec` of `element`-generated values with a length drawn
    /// uniformly from `len`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end, "empty length range for vec strategy");
        VecStrategy { element, len }
    }

    /// The result of [`vec`].
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Self::Value {
            let n = rng.random_range(self.len.clone());
            (0..n).map(|_| self.element.generate(rng)).collect()
        }

        fn shrink(&self, value: &Self::Value) -> Option<Self::Value> {
            // First bisect the length toward the minimum…
            let min = self.len.start;
            if value.len() > min {
                let target = min + (value.len() - min) / 2;
                return Some(value[..target].to_vec());
            }
            // …then shrink elements left to right.
            for (i, item) in value.iter().enumerate() {
                if let Some(smaller) = self.element.shrink(item) {
                    let mut next = value.clone();
                    next[i] = smaller;
                    return Some(next);
                }
            }
            None
        }
    }
}

/// FNV-1a: stable, dependency-free property-name hashing for per-test
/// seed derivation.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.parse().ok()
}

/// Execute one property: generate `config.cases` accepted inputs, and
/// on the first failure shrink it and panic with the minimal
/// reproduction (including the seed, so the exact run can be replayed
/// with `SIMRNG_PROPTEST_SEED`).
///
/// This is the function the [`proptest!`](crate::proptest) macro
/// expands into; it can also be called directly for hand-rolled
/// strategies.
pub fn run<S: Strategy>(
    name: &str,
    config: &ProptestConfig,
    strategy: &S,
    test: impl Fn(S::Value) -> Result<(), TestCaseError>,
) {
    let cases = env_u64("SIMRNG_PROPTEST_CASES").map_or(config.cases, |v| v as u32);
    let seed = env_u64("SIMRNG_PROPTEST_SEED").unwrap_or(config.seed ^ fnv1a(name));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rejects = 0u32;
    let mut accepted = 0u32;
    while accepted < cases {
        let value = strategy.generate(&mut rng);
        match test(value.clone()) {
            Ok(()) => accepted += 1,
            Err(TestCaseError::Reject(why)) => {
                rejects += 1;
                assert!(
                    rejects <= config.max_rejects,
                    "property `{name}`: gave up after {rejects} rejected cases (last: {why})"
                );
            }
            Err(TestCaseError::Fail(first_message)) => {
                let (minimal, message, steps) =
                    shrink_failure(config, strategy, &test, value, first_message);
                panic!(
                    "property `{name}` falsified (case {case}, seed {seed:#x}).\n  \
                     minimal failing input ({steps} shrink steps): {minimal:?}\n  {message}",
                    case = accepted + 1,
                );
            }
        }
    }
}

fn shrink_failure<S: Strategy>(
    config: &ProptestConfig,
    strategy: &S,
    test: &impl Fn(S::Value) -> Result<(), TestCaseError>,
    mut current: S::Value,
    mut message: String,
) -> (S::Value, String, u32) {
    let mut steps = 0u32;
    while steps < config.max_shrink_steps {
        match strategy.shrink(&current) {
            Some(candidate) => match test(candidate.clone()) {
                Err(TestCaseError::Fail(m)) => {
                    current = candidate;
                    message = m;
                    steps += 1;
                }
                // The simpler value passes (or is rejected): the
                // current value is the boundary — stop here.
                _ => break,
            },
            None => break,
        }
    }
    (current, message, steps)
}

/// Declare property tests in `proptest!` style: each function becomes a
/// `#[test]` that runs its body over seeded inputs drawn from the
/// strategies to the right of each `in`.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $(
            #[test]
            fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            #[test]
            fn $name() {
                let config = $config;
                let strategy = ($($strategy,)+);
                $crate::prop::run(
                    stringify!($name),
                    &config,
                    &strategy,
                    |case| {
                        let ($($arg,)+) = case;
                        $body
                        #[allow(unreachable_code)]
                        Ok(())
                    },
                );
            }
        )*
    };
    (
        $(
            #[test]
            fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
        )*
    ) => {
        $crate::proptest! {
            #![proptest_config($crate::prop::ProptestConfig::default())]
            $(
                #[test]
                fn $name($($arg in $strategy),+) $body
            )*
        }
    };
}

/// Assert a condition inside a property body; on failure the current
/// input is reported (and shrunk) instead of panicking immediately.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return Err($crate::prop::TestCaseError::Fail(format!($($fmt)*)));
        }
    };
}

/// `assert_eq!` for property bodies (see [`prop_assert!`]).
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            left == right,
            "assertion failed: `{} == {}`\n  left: {:?}\n  right: {:?}",
            stringify!($left), stringify!($right), left, right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(left == right, $($fmt)*);
    }};
}

/// `assert_ne!` for property bodies (see [`prop_assert!`]).
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            left != right,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($left), stringify!($right), left
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(left != right, $($fmt)*);
    }};
}

/// Reject the current input (it does not count toward the case budget).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return Err($crate::prop::TestCaseError::Reject(
                concat!("assumption failed: ", stringify!($cond)).to_string(),
            ));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop;

    #[test]
    fn int_shrink_bisects_toward_zero() {
        let strategy = 0i64..1000;
        let mut v = 801i64;
        let mut seen = vec![v];
        while let Some(s) = strategy.shrink(&v) {
            v = s;
            seen.push(v);
        }
        assert_eq!(*seen.last().unwrap(), 0);
        assert!(seen.windows(2).all(|w| w[1] < w[0]), "monotone: {seen:?}");
        assert!(seen.len() < 15, "bisection is logarithmic: {seen:?}");
    }

    #[test]
    fn int_shrink_respects_positive_lower_bound() {
        let strategy = 5i64..1000;
        let mut v = 900i64;
        while let Some(s) = strategy.shrink(&v) {
            assert!((5..1000).contains(&s));
            v = s;
        }
        assert_eq!(v, 5);
    }

    #[test]
    fn float_shrink_terminates() {
        let strategy = -180.0f64..180.0;
        let mut v = 137.5f64;
        let mut steps = 0;
        while let Some(s) = strategy.shrink(&v) {
            v = s;
            steps += 1;
            assert!(steps < 200, "float shrink must terminate");
        }
        assert!(v.abs() < 1e-6, "shrinks to ~0, got {v}");
    }

    #[test]
    fn vec_shrink_halves_length_first() {
        let strategy = collection::vec(0u32..100, 1..64);
        let value: Vec<u32> = (0..33).map(|i| i + 1).collect();
        let shrunk = strategy.shrink(&value).unwrap();
        assert_eq!(shrunk.len(), 1 + (33 - 1) / 2);
    }

    #[test]
    fn runner_finds_and_shrinks_failures() {
        let config = ProptestConfig {
            cases: 256,
            ..ProptestConfig::default()
        };
        let caught = std::panic::catch_unwind(|| {
            run("demo_overflowing_property", &config, &(0i64..10_000), |v| {
                if v >= 100 {
                    return Err(TestCaseError::Fail(format!("{v} too big")));
                }
                Ok(())
            });
        });
        let message = *caught
            .expect_err("property must fail")
            .downcast::<String>()
            .unwrap();
        assert!(message.contains("minimal failing input"), "{message}");
        // Bisection halves toward zero and stops at the first passing
        // midpoint, so it lands within 2× of the 100 boundary (e.g.
        // 6000 → 3000 → … → 187, since 93 passes), not exactly on it.
        let minimal: i64 = message
            .split("shrink steps): ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|tok| tok.parse().ok())
            .unwrap_or_else(|| panic!("unparseable minimal input in: {message}"));
        assert!(
            (100..200).contains(&minimal),
            "shrink should close within 2× of the boundary, got {minimal}: {message}"
        );
    }

    #[test]
    fn runner_is_deterministic() {
        use std::sync::Mutex;
        let first = Mutex::new(Vec::new());
        let second = Mutex::new(Vec::new());
        let config = ProptestConfig::with_cases(32);
        run("det_check", &config, &(0u64..1_000_000), |v| {
            first.lock().unwrap().push(v);
            Ok(())
        });
        run("det_check", &config, &(0u64..1_000_000), |v| {
            second.lock().unwrap().push(v);
            Ok(())
        });
        assert_eq!(*first.lock().unwrap(), *second.lock().unwrap());
    }

    #[test]
    fn rejection_does_not_consume_case_budget() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let accepted = AtomicU32::new(0);
        let config = ProptestConfig::with_cases(16);
        run("reject_budget", &config, &(0u64..100), |v| {
            if v % 2 == 1 {
                return Err(TestCaseError::Reject("odd".into()));
            }
            accepted.fetch_add(1, Ordering::Relaxed);
            Ok(())
        });
        assert_eq!(accepted.load(Ordering::Relaxed), 16);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn macro_smoke_tuple_and_vec(
            a in -50i64..50,
            xs in prop::collection::vec(0.0f64..1.0, 1..10),
        ) {
            prop_assert!(xs.iter().all(|&x| (0.0..1.0).contains(&x)));
            prop_assert_eq!(a, a);
            prop_assert_ne!(a, a + 1);
            prop_assume!(a != 49);
            prop_assert!(a < 49);
        }
    }
}
