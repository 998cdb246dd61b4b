//! Simulated time.
//!
//! Time is a monotonically increasing count of nanoseconds since the start
//! of the simulation. A newtype (rather than `std::time::Duration`) keeps
//! arithmetic explicit and `Copy`-cheap, and allows the same type to stand
//! for both instants and durations, mirroring how the Linux pacing layer
//! treats `ktime_t`.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A simulated time instant or duration, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(pub u64);

impl Nanos {
    pub const ZERO: Nanos = Nanos(0);
    pub const MAX: Nanos = Nanos(u64::MAX);

    pub const fn from_nanos(ns: u64) -> Self {
        Nanos(ns)
    }
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us * 1_000)
    }
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }
    pub const fn from_secs(s: u64) -> Self {
        Nanos(s * 1_000_000_000)
    }
    /// Construct from a floating-point number of seconds (saturating at 0).
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 {
            Nanos(0)
        } else {
            Nanos(round_to_u64(s * 1e9))
        }
    }

    pub const fn as_nanos(self) -> u64 {
        self.0
    }
    pub(crate) fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    pub fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }
    pub(crate) fn max(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.max(rhs.0))
    }
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Scale a duration by a floating point factor, rounding to nearest.
    pub fn mul_f64(self, f: f64) -> Nanos {
        debug_assert!(f >= 0.0, "negative time scaling");
        Nanos(round_to_u64(self.0 as f64 * f))
    }

    /// Time to serialize `bytes` at `rate_bps` bits per second.
    ///
    /// This is the canonical wire-time computation used by [`crate::Link`]
    /// and by pacing-rate arithmetic in the stack.
    pub fn for_bytes_at_rate(bytes: u64, rate_bps: u64) -> Nanos {
        assert!(rate_bps > 0, "link rate must be positive");
        // bits * 1e9 / rate, computed in u128 to avoid overflow at 100 Gb/s.
        let bits = (bytes as u128) * 8;
        Nanos(((bits * 1_000_000_000) / rate_bps as u128) as u64)
    }
}

/// `x.round() as u64` for every `f64` (negatives, NaN and ±∞ included),
/// without the call into a software `round` that baseline x86-64 makes.
///
/// Below 2^52 an `f64` may carry a fraction: truncate, and add one when
/// the fraction is at least a half (ties away from zero, as `round`).
/// `x - t` is exact there, since `t <= x < 2t` or `t = 0` (Sterbenz). A
/// negative `x` truncates to 0 and stays there. From 2^52 up every `f64`
/// is an integer, so the saturating cast alone is `round`'s answer; NaN
/// takes that branch too and casts to 0.
pub fn round_to_u64(x: f64) -> u64 {
    const TWO_52: f64 = 4_503_599_627_370_496.0;
    if x < TWO_52 {
        let t = x as u64;
        t + u64::from(x - t as f64 >= 0.5)
    } else {
        x as u64
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}
impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}
impl Sub for Nanos {
    type Output = Nanos;
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}
impl SubAssign for Nanos {
    fn sub_assign(&mut self, rhs: Nanos) {
        self.0 -= rhs.0;
    }
}
impl Mul<u64> for Nanos {
    type Output = Nanos;
    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0 * rhs)
    }
}
impl Div<u64> for Nanos {
    type Output = Nanos;
    fn div(self, rhs: u64) -> Nanos {
        Nanos(self.0 / rhs)
    }
}
impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        iter.fold(Nanos::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Nanos::from_micros(1), Nanos(1_000));
        assert_eq!(Nanos::from_millis(1), Nanos(1_000_000));
        assert_eq!(Nanos::from_secs(1), Nanos(1_000_000_000));
        assert_eq!(Nanos::from_secs_f64(1.5), Nanos(1_500_000_000));
        assert_eq!(Nanos::from_secs_f64(-1.0), Nanos::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = Nanos(100);
        let b = Nanos(40);
        assert_eq!(a + b, Nanos(140));
        assert_eq!(a - b, Nanos(60));
        assert_eq!(a * 3, Nanos(300));
        assert_eq!(a / 4, Nanos(25));
        assert_eq!(b.saturating_sub(a), Nanos::ZERO);
        assert_eq!(a.mul_f64(0.5), Nanos(50));
    }

    fn check_round(x: f64) {
        assert_eq!(
            round_to_u64(x),
            x.round() as u64,
            "{x:e} ({:#018x})",
            x.to_bits()
        );
    }

    #[test]
    fn round_to_u64_equals_std_round_then_cast() {
        let two_52 = 2f64.powi(52);
        let edges = [
            0.0,
            -0.0,
            0.5,
            0.49999999999999994,
            1.5,
            2.5,
            -0.5,
            -2.5,
            -1e300,
            two_52 - 1.0,
            two_52 - 0.5,
            two_52,
            two_52 + 1.0,
            2f64.powi(53) + 1.0,
            2f64.powi(63),
            2f64.powi(64),
            f64::MAX,
            f64::MIN,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::EPSILON,
        ];
        edges.into_iter().for_each(check_round);
        // Random bit patterns cover every exponent; random values below
        // 2^52 cover the branch that does the arithmetic.
        let mut rng = crate::SimRng::new(0x0F64);
        for _ in 0..1_000_000 {
            check_round(f64::from_bits(rng.next_u64()));
            check_round(rng.next_f64() * two_52 * 1.01);
        }
        for k in 0..4096u64 {
            check_round(k as f64 / 4.0);
            check_round(k as f64 / 2.0 + 0.5f64.next_down());
        }
    }

    #[test]
    fn serialization_time_at_line_rates() {
        // 1500 B at 100 Gb/s = 120 ns.
        assert_eq!(Nanos::for_bytes_at_rate(1500, 100_000_000_000), Nanos(120));
        // 1500 B at 1 Gb/s = 12 us.
        assert_eq!(Nanos::for_bytes_at_rate(1500, 1_000_000_000), Nanos(12_000));
        // 64 KB TSO segment at 100 Gb/s ~ 5.24 us.
        assert_eq!(
            Nanos::for_bytes_at_rate(65536, 100_000_000_000),
            Nanos(5242)
        );
    }

    #[test]
    fn no_overflow_at_large_sizes_and_rates() {
        // 1 GiB at 400 Gb/s must not overflow.
        let t = Nanos::for_bytes_at_rate(1 << 30, 400_000_000_000);
        assert!(t > Nanos::ZERO);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", Nanos(5)), "5ns");
        assert_eq!(format!("{}", Nanos(5_000)), "5.000us");
        assert_eq!(format!("{}", Nanos(5_000_000)), "5.000ms");
        assert_eq!(format!("{}", Nanos(5_000_000_000)), "5.000s");
    }

    #[test]
    fn sum_of_durations() {
        let total: Nanos = [Nanos(1), Nanos(2), Nanos(3)].into_iter().sum();
        assert_eq!(total, Nanos(6));
    }
}
