//! Axis scales and tick generation.

use ctt_core::time::{Span, Timestamp, DAY, HOUR};

/// Linear scale mapping a data domain onto a pixel range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearScale {
    /// Domain minimum.
    pub d0: f64,
    /// Domain maximum.
    pub d1: f64,
    /// Range start (pixels).
    pub r0: f64,
    /// Range end (pixels).
    pub r1: f64,
}

impl LinearScale {
    /// Build a scale; degenerate domains are widened symmetrically.
    pub fn new(d0: f64, d1: f64, r0: f64, r1: f64) -> Self {
        let (d0, d1) = if (d1 - d0).abs() < 1e-12 {
            (d0 - 1.0, d1 + 1.0)
        } else {
            (d0, d1)
        };
        LinearScale { d0, d1, r0, r1 }
    }

    /// Scale fitted to data with a fractional padding of the domain.
    pub fn fit(values: impl IntoIterator<Item = f64>, pad: f64, r0: f64, r1: f64) -> Self {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for v in values {
            if v.is_finite() {
                min = min.min(v);
                max = max.max(v);
            }
        }
        if !min.is_finite() {
            min = 0.0;
            max = 1.0;
        }
        let span = (max - min).max(1e-12);
        LinearScale::new(min - span * pad, max + span * pad, r0, r1)
    }

    /// Map a domain value to pixels.
    pub fn map(&self, v: f64) -> f64 {
        self.r0 + (v - self.d0) / (self.d1 - self.d0) * (self.r1 - self.r0)
    }

    /// Inverse map.
    pub fn invert(&self, px: f64) -> f64 {
        self.d0 + (px - self.r0) / (self.r1 - self.r0) * (self.d1 - self.d0)
    }

    /// "Nice" tick positions (1/2/5 × 10ⁿ steps), ≤ `max_ticks` of them.
    pub fn ticks(&self, max_ticks: usize) -> Vec<f64> {
        let max_ticks = max_ticks.max(2);
        let span = self.d1 - self.d0;
        let raw_step = span / max_ticks as f64;
        let mag = 10f64.powf(raw_step.abs().log10().floor());
        let norm = raw_step / mag;
        let step = if norm < 1.5 {
            1.0
        } else if norm < 3.5 {
            2.0
        } else if norm < 7.5 {
            5.0
        } else {
            10.0
        } * mag;
        let first = (self.d0 / step).ceil() * step;
        let mut ticks = Vec::new();
        let mut t = first;
        // The 1/2/5 step is never below two thirds of `raw_step`, so a domain
        // the step can resolve yields under `2·max_ticks + 2` ticks. One it
        // cannot (step below the domain's ulp) would leave `t` where it is.
        while t <= self.d1 + step * 1e-9 && ticks.len() < 2 * max_ticks + 2 {
            // Snap tiny float error to zero.
            ticks.push(if t.abs() < step * 1e-9 { 0.0 } else { t });
            if t + step <= t {
                break;
            }
            t += step;
        }
        ticks
    }
}

/// A time tick's label: `MM-DD` for steps of a day or more, `HH:MM` below,
/// as `{:02}` prints each part — five ASCII bytes, no `String`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TickLabel([u8; 5]);

impl TickLabel {
    /// `a` and `b` (each below 100), two digits each, around `sep`.
    fn new(a: u8, sep: u8, b: u8) -> Self {
        let digit = |n: u8, place: u8| b'0' + n / place % 10;
        TickLabel([digit(a, 10), digit(a, 1), sep, digit(b, 10), digit(b, 1)])
    }

    /// The label text.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.0).unwrap_or_default()
    }
}

/// Time scale: timestamps onto pixels, with calendar-aware ticks.
#[derive(Debug, Clone, Copy)]
pub struct TimeScale {
    inner: LinearScale,
}

impl TimeScale {
    /// Scale spanning `[t0, t1]`.
    pub fn new(t0: Timestamp, t1: Timestamp, r0: f64, r1: f64) -> Self {
        TimeScale {
            inner: LinearScale::new(t0.as_seconds() as f64, t1.as_seconds() as f64, r0, r1),
        }
    }

    /// Map a timestamp to pixels.
    pub fn map(&self, t: Timestamp) -> f64 {
        self.inner.map(t.as_seconds() as f64)
    }

    /// Tick instants plus labels, spaced at a calendar-friendly step.
    pub fn ticks(&self, max_ticks: usize) -> Vec<(Timestamp, TickLabel)> {
        let span_s = (self.inner.d1 - self.inner.d0).max(1.0) as i64;
        let candidates = [
            60,
            5 * 60,
            15 * 60,
            HOUR,
            3 * HOUR,
            6 * HOUR,
            12 * HOUR,
            DAY,
            2 * DAY,
            7 * DAY,
            14 * DAY,
            30 * DAY,
        ];
        let step = candidates
            .iter()
            .copied()
            .find(|&s| span_s / s <= max_ticks as i64)
            .unwrap_or(365 * DAY);
        let start = Timestamp(self.inner.d0 as i64).align_up(Span::seconds(step));
        let mut out = Vec::new();
        let mut t = start;
        while (t.as_seconds() as f64) <= self.inner.d1 {
            let c = t.civil();
            let label = if step >= DAY {
                TickLabel::new(c.month, b'-', c.day)
            } else {
                TickLabel::new(c.hour, b':', c.minute)
            };
            out.push((t, label));
            t += Span::seconds(step);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_map_and_invert() {
        let s = LinearScale::new(0.0, 10.0, 100.0, 200.0);
        assert_eq!(s.map(0.0), 100.0);
        assert_eq!(s.map(10.0), 200.0);
        assert_eq!(s.map(5.0), 150.0);
        assert!((s.invert(150.0) - 5.0).abs() < 1e-12);
        // Inverted pixel ranges (SVG y axis) work too.
        let y = LinearScale::new(0.0, 10.0, 200.0, 100.0);
        assert_eq!(y.map(0.0), 200.0);
        assert_eq!(y.map(10.0), 100.0);
    }

    #[test]
    fn degenerate_domain_widened() {
        let s = LinearScale::new(5.0, 5.0, 0.0, 100.0);
        assert!(s.d1 > s.d0);
        assert_eq!(s.map(5.0), 50.0);
    }

    #[test]
    fn fit_pads_and_handles_empty() {
        let s = LinearScale::fit([1.0, 3.0], 0.5, 0.0, 100.0);
        assert!(s.d0 < 1.0 && s.d1 > 3.0);
        let empty = LinearScale::fit(std::iter::empty(), 0.1, 0.0, 100.0);
        assert!(empty.d0 < empty.d1);
        // NaN values ignored.
        let s = LinearScale::fit([f64::NAN, 2.0, 4.0], 0.0, 0.0, 1.0);
        assert_eq!((s.d0, s.d1), (2.0, 4.0));
    }

    #[test]
    fn nice_ticks() {
        let s = LinearScale::new(0.0, 100.0, 0.0, 1.0);
        let ticks = s.ticks(5);
        assert_eq!(ticks, vec![0.0, 20.0, 40.0, 60.0, 80.0, 100.0]);
        let s = LinearScale::new(-1.3, 1.2, 0.0, 1.0);
        let ticks = s.ticks(6);
        assert!(ticks.contains(&0.0));
        assert!(ticks.len() >= 3 && ticks.len() <= 8);
        for w in ticks.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn ticks_terminate_when_the_step_is_below_the_domain_ulp() {
        // 1e16..1e16+4 asks for a step of 0.5 where one ulp is 2: `t += step`
        // makes no progress, and a loop that only tests `t <= d1` pushes onto
        // its Vec forever; the call goes on its own thread under a watchdog.
        let (done, watchdog) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            let _ = done.send(LinearScale::new(1e16, 1e16 + 4.0, 0.0, 100.0).ticks(6));
        });
        let ticks = watchdog
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("ticks() never returned");
        runner.join().expect("runner thread");
        assert!(!ticks.is_empty() && ticks.len() <= 14, "{ticks:?}");
        assert!(ticks.iter().all(|t| (1e16..=1e16 + 4.0).contains(t)));
        // Through the chart that reaches it: a narrow series at large magnitude.
        let s = LinearScale::fit([1e16, 1e16 + 4.0], 0.08, 0.0, 100.0);
        assert!(s.ticks(6).len() <= 14);
    }

    #[test]
    fn time_ticks_hourly_for_a_day() {
        let t0 = Timestamp::from_civil(2017, 5, 1, 0, 0, 0);
        let t1 = t0 + Span::days(1);
        let ts = TimeScale::new(t0, t1, 0.0, 800.0);
        let ticks = ts.ticks(10);
        assert!(
            ticks.len() >= 4 && ticks.len() <= 10,
            "{} ticks",
            ticks.len()
        );
        // Labels are HH:MM for sub-day steps.
        for (t, label) in &ticks {
            let c = t.civil();
            assert_eq!(label.as_str(), format!("{:02}:{:02}", c.hour, c.minute));
        }
        assert_eq!(ts.map(t0), 0.0);
        assert_eq!(ts.map(t1), 800.0);
    }

    #[test]
    fn time_ticks_daily_for_a_month() {
        let t0 = Timestamp::from_civil(2017, 5, 1, 0, 0, 0);
        let t1 = t0 + Span::days(30);
        let ticks = TimeScale::new(t0, t1, 0.0, 800.0).ticks(12);
        assert!(!ticks.is_empty());
        // Labels are MM-DD for day-or-larger steps.
        for (t, label) in &ticks {
            let c = t.civil();
            assert_eq!(label.as_str(), format!("{:02}-{:02}", c.month, c.day));
        }
    }
}
