//! Exact rational time values and quantization to integer model-time ticks.
//!
//! Timed-automata constants must be integers, but the natural durations of the
//! case study are not: `1·10⁵ instructions / 22 MIPS = 50000/11 µs`.  To avoid
//! rounding errors that would change worst-case response times, all durations
//! are carried as exact rationals ([`TimeValue`], microseconds) and a
//! [`Quantizer`] chooses a common denominator so every duration of a model
//! becomes an exact integer number of *ticks*.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Mul, Sub};

/// An exact, non-negative rational number of microseconds.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimeValue {
    /// Numerator (µs).
    num: i128,
    /// Denominator (> 0).
    den: i128,
}

fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a.max(1)
}

impl TimeValue {
    /// Zero duration.
    pub const ZERO: TimeValue = TimeValue { num: 0, den: 1 };

    /// Creates the rational `num/den` µs.
    ///
    /// # Panics
    /// Panics if `den == 0` or the value is negative.
    pub fn ratio_us(num: i128, den: i128) -> TimeValue {
        assert!(den != 0, "zero denominator");
        let (num, den) = if den < 0 { (-num, -den) } else { (num, den) };
        assert!(num >= 0, "time values must be non-negative");
        let g = gcd(num, den);
        TimeValue {
            num: num / g,
            den: den / g,
        }
    }

    /// An integer number of microseconds.
    ///
    /// # Panics
    /// Panics if `us` is negative.
    pub const fn micros(us: i128) -> TimeValue {
        assert!(us >= 0, "time values must be non-negative");
        TimeValue { num: us, den: 1 }
    }

    /// An integer number of milliseconds.
    pub fn millis(ms: i128) -> TimeValue {
        TimeValue::ratio_us(ms * 1_000, 1)
    }

    /// An integer number of seconds.
    pub fn seconds(s: i128) -> TimeValue {
        TimeValue::ratio_us(s * 1_000_000, 1)
    }

    /// Execution time of `instructions` on a processor of `mips` million
    /// instructions per second: `instructions / mips` µs, exactly.
    pub fn from_instructions(instructions: u64, mips: u64) -> TimeValue {
        assert!(mips > 0, "processor speed must be positive");
        TimeValue::ratio_us(instructions as i128, mips as i128)
    }

    /// Transfer time of `bytes` over a link of `bits_per_second`:
    /// `8·bytes / bps` seconds, exactly.
    pub fn from_bytes(bytes: u64, bits_per_second: u64) -> TimeValue {
        assert!(bits_per_second > 0, "bus speed must be positive");
        TimeValue::ratio_us(bytes as i128 * 8 * 1_000_000, bits_per_second as i128)
    }

    /// The period of an event stream of `events` occurrences per `window`.
    pub fn period_of_rate(events: u64, window: TimeValue) -> TimeValue {
        assert!(events > 0, "rate must be positive");
        TimeValue::ratio_us(window.num, window.den * events as i128)
    }

    /// Numerator of the reduced fraction (µs).
    pub fn numerator(self) -> i128 {
        self.num
    }

    /// Denominator of the reduced fraction.
    pub fn denominator(self) -> i128 {
        self.den
    }

    /// Value in milliseconds as a float (for reporting only).
    pub fn as_millis_f64(self) -> f64 {
        self.num as f64 / self.den as f64 / 1_000.0
    }

    /// Value in microseconds as a float (for reporting only).
    pub fn as_micros_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// `true` iff the duration is exactly zero.
    pub fn is_zero(self) -> bool {
        self.num == 0
    }

    /// Multiplies by an integer factor.
    pub fn scale(self, factor: i128) -> TimeValue {
        TimeValue::ratio_us(self.num * factor, self.den)
    }
}

impl Add for TimeValue {
    type Output = TimeValue;
    fn add(self, rhs: TimeValue) -> TimeValue {
        TimeValue::ratio_us(self.num * rhs.den + rhs.num * self.den, self.den * rhs.den)
    }
}

impl Sub for TimeValue {
    type Output = TimeValue;
    fn sub(self, rhs: TimeValue) -> TimeValue {
        TimeValue::ratio_us(self.num * rhs.den - rhs.num * self.den, self.den * rhs.den)
    }
}

impl Mul<i128> for TimeValue {
    type Output = TimeValue;
    fn mul(self, rhs: i128) -> TimeValue {
        self.scale(rhs)
    }
}

impl PartialOrd for TimeValue {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TimeValue {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.num * other.den).cmp(&(other.num * self.den))
    }
}

impl fmt::Debug for TimeValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}µs", self.num)
        } else {
            write!(f, "{}/{}µs", self.num, self.den)
        }
    }
}

impl fmt::Display for TimeValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

/// Converts exact [`TimeValue`]s into integer model-time *ticks*, so that all
/// durations of a model stay exact.
///
/// The tick is the *coarsest* duration that measures every given duration an
/// integer number of times — the GCD of the durations as rationals.  Picking
/// the coarsest (rather than merely a common) tick matters enormously for the
/// model checker: DBM constants scale inversely with the tick, and the zone
/// count of models that mix free-running cyclic automata (TDMA slot gates)
/// with nondeterministic arrivals grows with those constants.  An
/// all-milliseconds model therefore gets millisecond ticks, not the
/// microsecond ticks a pure common-denominator choice would produce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Quantizer {
    /// Tick duration in µs, as the reduced rational `tick_num / tick_den`.
    tick_num: i128,
    tick_den: i128,
}

impl Quantizer {
    /// Largest exact tick count any single duration may map to before the
    /// quantizer falls back to rounded nanosecond resolution.  The gate is
    /// on the *result* (the tick counts, which become DBM constants), not on
    /// the intermediate common denominator: duration sets with huge
    /// denominators but an exact coarse tick stay exact.
    pub const MAX_TICKS_PER_DURATION: i128 = 1 << 40;

    /// Chooses the coarsest tick such that every given duration is an integer
    /// number of ticks (their rational GCD).  Falls back to nanosecond
    /// resolution (with rounding) when the exact tick would map some
    /// duration to more than [`Quantizer::MAX_TICKS_PER_DURATION`] ticks or
    /// the intermediate arithmetic overflows.
    pub fn for_durations<'a, I: IntoIterator<Item = &'a TimeValue>>(durations: I) -> Quantizer {
        // Nanosecond resolution, rounded.
        const FALLBACK: Quantizer = Quantizer {
            tick_num: 1,
            tick_den: 1_000,
        };
        let durations: Vec<&TimeValue> = durations.into_iter().collect();
        let mut l: i128 = 1;
        for d in &durations {
            l = match (l / gcd(l, d.den)).checked_mul(d.den) {
                Some(l) => l,
                None => return FALLBACK,
            };
        }
        // The durations scaled to integers (multiples of 1/l µs), and their
        // gcd: the coarsest exact tick is g/l µs.
        let mut scaled = Vec::with_capacity(durations.len());
        let mut g: i128 = 0;
        for d in &durations {
            let s = match d.num.checked_mul(l / d.den) {
                Some(s) => s,
                None => return FALLBACK,
            };
            scaled.push(s);
            g = gcd_or_zero(g, s);
        }
        if g == 0 {
            // No nonzero durations: any tick works; use 1 µs.
            return Quantizer {
                tick_num: 1,
                tick_den: 1,
            };
        }
        if scaled.iter().any(|s| s / g > Self::MAX_TICKS_PER_DURATION) {
            return FALLBACK;
        }
        let r = gcd(g, l);
        Quantizer {
            tick_num: g / r,
            tick_den: l / r,
        }
    }

    /// A quantizer with an explicit resolution of `ticks_per_us` ticks per
    /// microsecond.
    pub fn with_ticks_per_us(ticks_per_us: i128) -> Quantizer {
        assert!(ticks_per_us > 0);
        Quantizer {
            tick_num: 1,
            tick_den: ticks_per_us,
        }
    }

    /// The duration of one tick.
    pub fn tick(&self) -> TimeValue {
        TimeValue::ratio_us(self.tick_num, self.tick_den)
    }

    /// `true` iff the value is represented exactly (no rounding).
    pub fn is_exact(&self, t: TimeValue) -> bool {
        (t.num * self.tick_den) % (t.den * self.tick_num) == 0
    }

    /// Converts to ticks, rounding to nearest if not exact.
    pub fn to_ticks(&self, t: TimeValue) -> i64 {
        let scaled = t.num * self.tick_den;
        let denom = t.den * self.tick_num;
        let q = scaled / denom;
        let r = scaled % denom;
        let rounded = if 2 * r >= denom { q + 1 } else { q };
        i64::try_from(rounded).expect("tick value overflows i64")
    }

    /// Converts ticks back to an exact [`TimeValue`].
    pub fn from_ticks(&self, ticks: i64) -> TimeValue {
        TimeValue::ratio_us(ticks as i128 * self.tick_num, self.tick_den)
    }

    /// Converts ticks to milliseconds as a float (for reporting).
    pub fn ticks_to_ms(&self, ticks: i64) -> f64 {
        ticks as f64 * self.tick_num as f64 / self.tick_den as f64 / 1_000.0
    }
}

/// `gcd` treating 0 as the identity (gcd(0, b) = b).
fn gcd_or_zero(a: i128, b: i128) -> i128 {
    if a == 0 {
        b.abs()
    } else if b == 0 {
        a.abs()
    } else {
        gcd(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_reduction() {
        assert_eq!(TimeValue::ratio_us(4, 8), TimeValue::ratio_us(1, 2));
        assert_eq!(TimeValue::millis(2), TimeValue::micros(2_000));
        assert_eq!(TimeValue::seconds(3), TimeValue::micros(3_000_000));
        assert_eq!(TimeValue::ZERO, TimeValue::micros(0));
        assert!(TimeValue::ratio_us(1, 3) < TimeValue::ratio_us(1, 2));
    }

    #[test]
    fn case_study_durations_are_exact() {
        // HandleKeyPress: 1e5 instructions on the 22 MIPS MMI processor.
        let hkp = TimeValue::from_instructions(100_000, 22);
        assert_eq!(hkp, TimeValue::ratio_us(50_000, 11));
        assert!((hkp.as_millis_f64() - 4.5454).abs() < 1e-3);
        // 32-byte TMC message on the 72 kbit/s bus.
        let msg = TimeValue::from_bytes(32, 72_000);
        assert_eq!(msg, TimeValue::ratio_us(32_000, 9));
        assert!((msg.as_millis_f64() - 3.5555).abs() < 1e-3);
        // 300 messages per 15 minutes = one every 3 s.
        let period = TimeValue::period_of_rate(300, TimeValue::seconds(15 * 60));
        assert_eq!(period, TimeValue::seconds(3));
    }

    #[test]
    fn arithmetic() {
        let a = TimeValue::ratio_us(1, 3);
        let b = TimeValue::ratio_us(1, 6);
        assert_eq!(a + b, TimeValue::ratio_us(1, 2));
        assert_eq!(a - b, TimeValue::ratio_us(1, 6));
        assert_eq!(b.scale(3), TimeValue::ratio_us(1, 2));
        assert_eq!(b * 3, TimeValue::ratio_us(1, 2));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_times_rejected() {
        let _ = TimeValue::ratio_us(1, 2) - TimeValue::ratio_us(2, 2);
    }

    #[test]
    fn quantizer_finds_common_denominator() {
        let durations = [
            TimeValue::from_instructions(100_000, 22),  // /11
            TimeValue::from_instructions(5_000_000, 113), // /113
            TimeValue::from_bytes(4, 72_000),            // /9 (after reduction: 4000/9? -> den 9)
            TimeValue::millis(200),
        ];
        let q = Quantizer::for_durations(durations.iter());
        for d in &durations {
            assert!(q.is_exact(*d), "{d:?} not exact at {q:?}");
            let ticks = q.to_ticks(*d);
            assert_eq!(q.from_ticks(ticks), *d);
        }
        // Common denominator 11 * 113 * 9 = 11187; the GCD of the scaled
        // numerators is 2000, so the coarsest exact tick is 2000/11187 µs.
        assert_eq!(q.tick(), TimeValue::ratio_us(2_000, 11_187));
    }

    #[test]
    fn quantizer_falls_back_when_lcm_explodes() {
        let awkward: Vec<TimeValue> = (1_000_001..1_000_005)
            .map(|d| TimeValue::ratio_us(1, d))
            .collect();
        let q = Quantizer::for_durations(awkward.iter());
        assert_eq!(q.tick(), TimeValue::ratio_us(1, 1_000));
        // Rounding happens but stays within half a tick.
        let t = TimeValue::ratio_us(1, 1_000_001);
        assert!(q.to_ticks(t) <= 1);
    }

    #[test]
    fn tick_roundtrip_and_reporting() {
        let q = Quantizer::with_ticks_per_us(10);
        let t = TimeValue::millis(5);
        assert_eq!(q.to_ticks(t), 50_000);
        assert_eq!(q.from_ticks(50_000), t);
        assert!((q.ticks_to_ms(50_000) - 5.0).abs() < 1e-12);
        assert!((t.as_micros_f64() - 5_000.0).abs() < 1e-9);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", TimeValue::millis(200)), "200.000ms");
        assert_eq!(format!("{:?}", TimeValue::micros(7)), "7µs");
        assert_eq!(format!("{:?}", TimeValue::ratio_us(1, 3)), "1/3µs");
    }
}
