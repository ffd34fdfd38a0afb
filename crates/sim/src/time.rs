use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Simulation time in integer nanoseconds.
///
/// Integer time keeps event ordering exact and runs reproducible; cost-model
/// latencies (f64 ns) are rounded up on entry so zero-length busy intervals
/// cannot occur.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);
    /// The far future (used as "no deadline pressure" sentinel).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Constructs from nanoseconds.
    pub fn from_ns(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Constructs from a floating-point nanosecond quantity, rounding up and
    /// clamping negatives to zero.
    pub fn from_ns_f64(ns: f64) -> Self {
        if ns <= 0.0 {
            SimTime(0)
        } else if ns >= u64::MAX as f64 {
            SimTime::MAX
        } else {
            // `ns.ceil() as u64` without the libm call `f64::ceil` is on
            // baseline x86-64: truncate, then step up if anything was cut.
            // Exact here: below 2^53 the truncation converts back without
            // rounding, and from 2^53 on every `f64` is already an integer.
            let t = ns as u64;
            SimTime(if (t as f64) < ns { t + 1 } else { t })
        }
    }

    /// Nanoseconds since time zero.
    pub fn as_ns(self) -> u64 {
        self.0
    }

    /// This time as floating-point nanoseconds.
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64
    }

    /// This time as floating-point milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1.0e6
    }

    /// Saturating subtraction: `self - other`, or zero if `other` is later.
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }

    /// Signed distance `self - other` in nanoseconds (negative when `self`
    /// precedes `other`), for slack computations.
    pub fn signed_delta_ns(self, other: SimTime) -> i128 {
        i128::from(self.0) - i128::from(other.0)
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`; use
    /// [`SimTime::saturating_sub`] when underflow is expected.
    fn sub(self, rhs: SimTime) -> SimTime {
        debug_assert!(self.0 >= rhs.0, "SimTime underflow");
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3} ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.1} µs", self.0 as f64 / 1.0e3)
        } else {
            write!(f, "{} ns", self.0)
        }
    }
}

/// A duration in milliseconds, convertible to [`SimTime`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Millis(u64);

impl Millis {
    /// Creates a millisecond duration.
    pub fn new(ms: u64) -> Self {
        Millis(ms)
    }
}

impl From<Millis> for SimTime {
    fn from(m: Millis) -> SimTime {
        SimTime(m.0.saturating_mul(1_000_000))
    }
}

/// A duration in microseconds, convertible to [`SimTime`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Micros(u64);

impl Micros {
    /// Creates a microsecond duration.
    pub fn new(us: u64) -> Self {
        Micros(us)
    }
}

impl From<Micros> for SimTime {
    fn from(u: Micros) -> SimTime {
        SimTime(u.0.saturating_mul(1_000))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimTime::from(Millis::new(2)).as_ns(), 2_000_000);
        assert_eq!(SimTime::from(Micros::new(3)).as_ns(), 3_000);
        assert_eq!(SimTime::from_ns(7).as_ns(), 7);
    }

    #[test]
    fn float_rounding_is_conservative() {
        assert_eq!(SimTime::from_ns_f64(10.2).as_ns(), 11);
        assert_eq!(SimTime::from_ns_f64(-5.0).as_ns(), 0);
        assert_eq!(SimTime::from_ns_f64(f64::INFINITY), SimTime::MAX);
    }

    /// `from_ns_f64` against the `f64::ceil` expression it replaces, on
    /// the edges of its in-range branch and on random bit patterns.
    mod from_ns_f64 {
        use super::*;
        use proptest::prelude::*;

        fn reference(ns: f64) -> SimTime {
            if ns <= 0.0 {
                SimTime(0)
            } else if ns >= u64::MAX as f64 {
                SimTime::MAX
            } else {
                SimTime(ns.ceil() as u64)
            }
        }

        fn assert_same(ns: f64) {
            assert_eq!(SimTime::from_ns_f64(ns), reference(ns), "ns = {ns:e}");
        }

        #[test]
        fn boundaries_match_ceil() {
            let p52 = (1u64 << 52) as f64;
            let p53 = (1u64 << 53) as f64;
            let edges = [
                5e-324,
                f64::MIN_POSITIVE,
                0.5,
                1.0,
                p52 - 0.5,
                p52 + 0.5,
                p53,
                p53 + 2.0,
                (1u64 << 63) as f64,
                u64::MAX as f64 - 2048.0,
                u64::MAX as f64,
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
            ];
            for ns in edges {
                for x in [ns, -ns, ns.next_down(), ns.next_up()] {
                    assert_same(x);
                }
            }
            // 2^64 − 2048, the largest `f64` below 2^64, stays in range.
            assert_eq!(
                SimTime::from_ns_f64(u64::MAX as f64 - 2048.0).as_ns(),
                u64::MAX - 2047
            );
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4096))]

            #[test]
            fn matches_ceil_on_any_bits(bits in any::<u64>()) {
                let ns = f64::from_bits(bits);
                prop_assert_eq!(SimTime::from_ns_f64(ns), reference(ns));
            }

            #[test]
            fn matches_ceil_near_integers(n in any::<u64>(), shift in 0u32..64) {
                let base = (n >> shift) as f64;
                for ns in [base, base.next_down(), base.next_up(), base + 0.5] {
                    prop_assert_eq!(SimTime::from_ns_f64(ns), reference(ns));
                }
            }
        }
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_ns(100);
        let b = SimTime::from_ns(30);
        assert_eq!((a + b).as_ns(), 130);
        assert_eq!((a - b).as_ns(), 70);
        assert_eq!(b.saturating_sub(a).as_ns(), 0);
        assert_eq!(b.signed_delta_ns(a), -70);
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(SimTime::from_ns(500).to_string(), "500 ns");
        assert_eq!(SimTime::from_ns(1_500).to_string(), "1.5 µs");
        assert!(SimTime::from_ns(2_500_000).to_string().contains("ms"));
    }

    #[test]
    fn add_saturates_at_max() {
        assert_eq!(SimTime::MAX + SimTime::from_ns(1), SimTime::MAX);
    }
}
