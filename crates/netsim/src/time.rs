//! Simulation time: nanosecond-resolution virtual clocks.
//!
//! Integer nanoseconds give exact ordering and exact arithmetic for the
//! probe walk; conversion to floating milliseconds happens only at the
//! measurement API boundary (round-trip times are reported in ms, as the
//! paper plots them).

/// A point in simulation time, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulation time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);

    /// Nanoseconds since simulation start.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Time elapsed since `earlier`.
    ///
    /// # Panics
    /// Panics if `earlier` is later than `self` — a backwards interval in
    /// the probe walk is a logic bug, not a recoverable condition.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        assert!(
            earlier.0 <= self.0,
            "time went backwards: {} < {}",
            self.0,
            earlier.0
        );
        SimDuration(self.0 - earlier.0)
    }
}

impl std::ops::Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(d.0).expect("simulation clock overflow"))
    }
}

impl SimDuration {
    /// Zero duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// From milliseconds (saturating at zero for negative inputs, which
    /// can arise from additive noise models).
    pub fn from_ms(ms: f64) -> SimDuration {
        if ms <= 0.0 {
            return SimDuration(0);
        }
        SimDuration((ms * 1e6) as u64)
    }

    /// From microseconds.
    pub fn from_us(us: f64) -> SimDuration {
        SimDuration::from_ms(us / 1e3)
    }

    /// As floating-point milliseconds.
    pub fn as_ms(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Raw nanoseconds.
    pub fn as_nanos(self) -> u64 {
        self.0
    }
}

impl std::ops::Add for SimDuration {
    type Output = SimDuration;
    fn add(self, d: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(d.0).expect("duration overflow"))
    }
}

impl std::ops::AddAssign for SimDuration {
    fn add_assign(&mut self, d: SimDuration) {
        *self = *self + d;
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl std::fmt::Display for SimDuration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3} ms", self.as_ms())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let d = SimDuration::from_ms(12.345);
        assert!((d.as_ms() - 12.345).abs() < 1e-9);
        assert_eq!(SimDuration::from_ms(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_us(1500.0).as_ms(), 1.5);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_ms(5.0);
        let u = t + SimDuration::from_ms(3.0);
        assert_eq!(u.since(t).as_ms(), 3.0);
        assert_eq!(u.since(SimTime::ZERO).as_ms(), 8.0);
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn backwards_interval_panics() {
        let t = SimTime::ZERO + SimDuration::from_ms(5.0);
        let _ = SimTime::ZERO.since(t);
    }

    #[test]
    fn duration_sum() {
        let total: SimDuration = (1..=4).map(|i| SimDuration::from_ms(f64::from(i))).sum();
        assert_eq!(total.as_ms(), 10.0);
    }

    #[test]
    fn ordering() {
        assert!(SimTime::ZERO < SimTime::ZERO + SimDuration::from_ms(0.001));
        assert!(SimDuration::from_ms(1.0) < SimDuration::from_ms(2.0));
    }
}
