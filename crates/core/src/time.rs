//! Civil time without external dependencies.
//!
//! The CTT pipeline needs wall-clock semantics in several places: the solar
//! charging model needs day-of-year and local solar time, the time-series
//! store buckets by aligned intervals, and the analytics bin measurements by
//! time of day and weekday. This module provides a compact UTC timestamp
//! ([`Timestamp`], seconds since the Unix epoch) plus proleptic-Gregorian
//! civil conversions using Howard Hinnant's `days_from_civil` algorithm.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// Seconds in one minute.
pub const MINUTE: i64 = 60;
/// Seconds in one hour.
pub const HOUR: i64 = 3600;
/// Seconds in one day.
pub const DAY: i64 = 86_400;
/// Seconds in one (7-day) week.
pub const WEEK: i64 = 7 * DAY;

/// A span of time in whole seconds. Signed so differences are representable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Span(pub i64);

impl Span {
    /// Span of `n` seconds.
    pub const fn seconds(n: i64) -> Self {
        Span(n)
    }
    /// Span of `n` minutes.
    pub const fn minutes(n: i64) -> Self {
        Span(n * MINUTE)
    }
    /// Span of `n` hours.
    pub const fn hours(n: i64) -> Self {
        Span(n * HOUR)
    }
    /// Span of `n` days.
    pub const fn days(n: i64) -> Self {
        Span(n * DAY)
    }
    /// Total seconds in this span.
    pub const fn as_seconds(self) -> i64 {
        self.0
    }
    /// Absolute value of the span.
    pub fn abs(self) -> Self {
        Span(self.0.abs())
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = self.0;
        let sign = if s < 0 {
            s = -s;
            "-"
        } else {
            ""
        };
        let (d, rem) = (s / DAY, s % DAY);
        let (h, rem) = (rem / HOUR, rem % HOUR);
        let (m, sec) = (rem / MINUTE, rem % MINUTE);
        if d > 0 {
            write!(f, "{sign}{d}d{h:02}h{m:02}m{sec:02}s")
        } else if h > 0 {
            write!(f, "{sign}{h}h{m:02}m{sec:02}s")
        } else if m > 0 {
            write!(f, "{sign}{m}m{sec:02}s")
        } else {
            write!(f, "{sign}{sec}s")
        }
    }
}

/// UTC timestamp: seconds since 1970-01-01T00:00:00Z (no leap seconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub i64);

/// Day of week, ISO numbering (`Monday == 1 .. Sunday == 7`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Weekday {
    /// Monday (ISO 1)
    Monday = 1,
    /// Tuesday (ISO 2)
    Tuesday = 2,
    /// Wednesday (ISO 3)
    Wednesday = 3,
    /// Thursday (ISO 4)
    Thursday = 4,
    /// Friday (ISO 5)
    Friday = 5,
    /// Saturday (ISO 6)
    Saturday = 6,
    /// Sunday (ISO 7)
    Sunday = 7,
}

impl Weekday {
    /// True for Saturday and Sunday.
    pub fn is_weekend(self) -> bool {
        matches!(self, Weekday::Saturday | Weekday::Sunday)
    }
}

/// Broken-down civil date-time (UTC, proleptic Gregorian).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CivilDateTime {
    /// Calendar year.
    pub year: i32,
    /// Month 1..=12.
    pub month: u8,
    /// Day of month 1..=31.
    pub day: u8,
    /// Hour 0..=23.
    pub hour: u8,
    /// Minute 0..=59.
    pub minute: u8,
    /// Second 0..=59.
    pub second: u8,
}

/// Number of days from 1970-01-01 to the given civil date
/// (Howard Hinnant's algorithm, valid for the proleptic Gregorian calendar).
fn days_from_civil(y: i32, m: u8, d: u8) -> i64 {
    let y = i64::from(y) - i64::from(m <= 2);
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let m = i64::from(m);
    let d = i64::from(d);
    let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
}

/// Inverse of [`days_from_civil`].
fn civil_from_days(z: i64) -> (i32, u8, u8) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = doy - (153 * mp + 2) / 5 + 1; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 }; // [1, 12]
    ((y + i64::from(m <= 2)) as i32, m as u8, d as u8)
}

/// True if `year` is a leap year in the Gregorian calendar.
pub fn is_leap_year(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

/// Number of days in `month` of `year`.
pub fn days_in_month(year: i32, month: u8) -> u8 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap_year(year) {
                29
            } else {
                28
            }
        }
        _ => panic!("invalid month {month}"),
    }
}

impl CivilDateTime {
    /// Construct, panicking on out-of-range fields (programmer error).
    pub fn new(year: i32, month: u8, day: u8, hour: u8, minute: u8, second: u8) -> Self {
        assert!((1..=12).contains(&month), "month out of range: {month}");
        assert!(
            day >= 1 && day <= days_in_month(year, month),
            "day out of range: {year}-{month}-{day}"
        );
        assert!(hour < 24 && minute < 60 && second < 60, "time out of range");
        CivilDateTime {
            year,
            month,
            day,
            hour,
            minute,
            second,
        }
    }

    /// Convert to a [`Timestamp`].
    pub fn timestamp(self) -> Timestamp {
        let days = days_from_civil(self.year, self.month, self.day);
        Timestamp(
            days * DAY
                + i64::from(self.hour) * HOUR
                + i64::from(self.minute) * MINUTE
                + i64::from(self.second),
        )
    }
}

impl fmt::Display for CivilDateTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:04}-{:02}-{:02}T{:02}:{:02}:{:02}Z",
            self.year, self.month, self.day, self.hour, self.minute, self.second
        )
    }
}

impl Timestamp {
    /// Timestamp at a civil UTC date-time.
    pub fn from_civil(year: i32, month: u8, day: u8, hour: u8, minute: u8, second: u8) -> Self {
        CivilDateTime::new(year, month, day, hour, minute, second).timestamp()
    }

    /// Raw seconds since epoch.
    pub const fn as_seconds(self) -> i64 {
        self.0
    }

    /// Broken-down civil representation.
    pub fn civil(self) -> CivilDateTime {
        let days = self.0.div_euclid(DAY);
        let secs = self.0.rem_euclid(DAY);
        let (year, month, day) = civil_from_days(days);
        CivilDateTime {
            year,
            month,
            day,
            hour: (secs / HOUR) as u8,
            minute: ((secs % HOUR) / MINUTE) as u8,
            second: (secs % MINUTE) as u8,
        }
    }

    /// ISO weekday.
    pub fn weekday(self) -> Weekday {
        // 1970-01-01 was a Thursday (ISO 4).
        let days = self.0.div_euclid(DAY);
        match (days + 3).rem_euclid(7) {
            0 => Weekday::Monday,
            1 => Weekday::Tuesday,
            2 => Weekday::Wednesday,
            3 => Weekday::Thursday,
            4 => Weekday::Friday,
            5 => Weekday::Saturday,
            _ => Weekday::Sunday,
        }
    }

    /// Seconds since UTC midnight, `0..86_400`.
    pub fn seconds_of_day(self) -> i64 {
        self.0.rem_euclid(DAY)
    }

    /// Fractional hour of day, `0.0..24.0` (UTC).
    pub fn hour_of_day_f64(self) -> f64 {
        self.seconds_of_day() as f64 / HOUR as f64
    }

    /// Day of year, 1-based (1..=366).
    pub fn day_of_year(self) -> u16 {
        let c = self.civil();
        let jan1 = days_from_civil(c.year, 1, 1);
        let today = days_from_civil(c.year, c.month, c.day);
        (today - jan1 + 1) as u16
    }

    /// Align down to a multiple of `interval` seconds (UTC-aligned buckets).
    pub fn align_down(self, interval: Span) -> Timestamp {
        // lint:allow(panic): bucket widths are positive; with_layout checks the rollup interval
        assert!(interval.0 > 0, "interval must be positive");
        Timestamp(self.0.div_euclid(interval.0) * interval.0)
    }

    /// Align up to a multiple of `interval` seconds.
    pub fn align_up(self, interval: Span) -> Timestamp {
        let down = self.align_down(interval);
        if down == self {
            self
        } else {
            down + interval
        }
    }

    /// Midnight UTC of the same day.
    pub fn midnight(self) -> Timestamp {
        self.align_down(Span(DAY))
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.civil())
    }
}

impl Add<Span> for Timestamp {
    type Output = Timestamp;
    fn add(self, rhs: Span) -> Timestamp {
        Timestamp(self.0 + rhs.0)
    }
}

impl AddAssign<Span> for Timestamp {
    fn add_assign(&mut self, rhs: Span) {
        self.0 += rhs.0;
    }
}

impl Sub<Span> for Timestamp {
    type Output = Timestamp;
    fn sub(self, rhs: Span) -> Timestamp {
        Timestamp(self.0 - rhs.0)
    }
}

impl SubAssign<Span> for Timestamp {
    fn sub_assign(&mut self, rhs: Span) {
        self.0 -= rhs.0;
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = Span;
    fn sub(self, rhs: Timestamp) -> Span {
        Span(self.0 - rhs.0)
    }
}

/// Iterator over aligned timestamps in `[start, end)` stepping by `step`.
#[derive(Debug, Clone)]
pub struct TimeRange {
    next: Timestamp,
    end: Timestamp,
    step: Span,
}

impl TimeRange {
    /// Inclusive start, exclusive end, positive step.
    pub fn new(start: Timestamp, end: Timestamp, step: Span) -> Self {
        assert!(step.0 > 0, "step must be positive");
        TimeRange {
            next: start,
            end,
            step,
        }
    }
}

impl Iterator for TimeRange {
    type Item = Timestamp;
    fn next(&mut self) -> Option<Timestamp> {
        if self.next >= self.end {
            None
        } else {
            let t = self.next;
            self.next += self.step;
            Some(t)
        }
    }
}

impl Add<Span> for Span {
    type Output = Span;
    fn add(self, rhs: Span) -> Span {
        Span(self.0 + rhs.0)
    }
}

impl Sub<Span> for Span {
    type Output = Span;
    fn sub(self, rhs: Span) -> Span {
        Span(self.0 - rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_epoch() {
        let c = Timestamp(0).civil();
        assert_eq!((c.year, c.month, c.day), (1970, 1, 1));
        assert_eq!((c.hour, c.minute, c.second), (0, 0, 0));
    }

    #[test]
    fn known_dates_roundtrip() {
        // The CTT pilot's "historic data collected since January 2017".
        let t = Timestamp::from_civil(2017, 1, 1, 0, 0, 0);
        assert_eq!(t.0, 1_483_228_800);
        // EDBT 2018 conference start date.
        let t = Timestamp::from_civil(2018, 3, 26, 9, 30, 0);
        let c = t.civil();
        assert_eq!(
            (c.year, c.month, c.day, c.hour, c.minute),
            (2018, 3, 26, 9, 30)
        );
    }

    #[test]
    fn civil_roundtrip_broad_sweep() {
        // Every 97 days plus odd seconds across ~60 years.
        let mut t = Timestamp::from_civil(1990, 1, 1, 0, 0, 0);
        let end = Timestamp::from_civil(2050, 1, 1, 0, 0, 0);
        while t < end {
            let c = t.civil();
            assert_eq!(c.timestamp(), t, "roundtrip failed at {c}");
            t += Span::days(97) + Span::seconds(12_345);
        }
    }

    #[test]
    fn weekday_known_values() {
        assert_eq!(
            Timestamp::from_civil(1970, 1, 1, 0, 0, 0).weekday(),
            Weekday::Thursday
        );
        // EDBT'18 opened Monday 2018-03-26.
        assert_eq!(
            Timestamp::from_civil(2018, 3, 26, 12, 0, 0).weekday(),
            Weekday::Monday
        );
        assert_eq!(
            Timestamp::from_civil(2017, 1, 1, 0, 0, 0).weekday(),
            Weekday::Sunday
        );
        assert!(Timestamp::from_civil(2017, 1, 1, 0, 0, 0)
            .weekday()
            .is_weekend());
    }

    #[test]
    fn negative_timestamps_work() {
        let t = Timestamp::from_civil(1969, 12, 31, 23, 59, 59);
        assert_eq!(t.0, -1);
        let c = t.civil();
        assert_eq!((c.year, c.month, c.day), (1969, 12, 31));
        assert_eq!(t.seconds_of_day(), DAY - 1);
    }

    #[test]
    fn leap_years() {
        assert!(is_leap_year(2016));
        assert!(!is_leap_year(2017));
        assert!(is_leap_year(2000));
        assert!(!is_leap_year(1900));
        assert_eq!(days_in_month(2016, 2), 29);
        assert_eq!(days_in_month(2017, 2), 28);
        let t = Timestamp::from_civil(2016, 12, 31, 0, 0, 0);
        assert_eq!(t.day_of_year(), 366);
    }

    #[test]
    fn align_down_and_up() {
        let five_min = Span::minutes(5);
        let t = Timestamp::from_civil(2017, 6, 15, 10, 7, 31);
        let down = t.align_down(five_min);
        assert_eq!(down.civil().minute, 5);
        assert_eq!(down.civil().second, 0);
        let up = t.align_up(five_min);
        assert_eq!(up.civil().minute, 10);
        assert_eq!(down.align_down(five_min), down);
        assert_eq!(down.align_up(five_min), down);
    }

    #[test]
    fn align_negative_timestamps() {
        let t = Timestamp(-1);
        assert_eq!(t.align_down(Span::minutes(1)).0, -60);
        assert_eq!(t.align_up(Span::minutes(1)).0, 0);
    }

    #[test]
    fn display_formats_iso() {
        let t = Timestamp::from_civil(2017, 3, 9, 4, 5, 6);
        assert_eq!(t.to_string(), "2017-03-09T04:05:06Z");
    }

    #[test]
    fn span_display() {
        assert_eq!(Span::seconds(42).to_string(), "42s");
        assert_eq!(Span::minutes(5).to_string(), "5m00s");
        assert_eq!(Span::hours(2).to_string(), "2h00m00s");
        assert_eq!((Span::days(1) + Span::hours(0)).to_string(), "1d00h00m00s");
        assert_eq!(Span::seconds(-90).to_string(), "-1m30s");
    }

    #[test]
    fn time_range_iterates_half_open() {
        let start = Timestamp::from_civil(2017, 1, 1, 0, 0, 0);
        let end = start + Span::minutes(15);
        let points: Vec<_> = TimeRange::new(start, end, Span::minutes(5)).collect();
        assert_eq!(points.len(), 3);
        assert_eq!(points[0], start);
        assert_eq!(points[2], start + Span::minutes(10));
    }

    #[test]
    fn timestamp_arithmetic() {
        let a = Timestamp::from_civil(2017, 1, 1, 0, 0, 0);
        let b = a + Span::days(1);
        assert_eq!(b - a, Span::days(1));
        let mut c = a;
        c += Span::hours(2);
        c -= Span::hours(1);
        assert_eq!(c - a, Span::hours(1));
    }
}
