//! Per-device duty-cycle enforcement.
//!
//! EU868 g1 sub-band law limits each transmitter to 1% duty cycle. The
//! standard implementation (and the one in LoRaWAN stacks) is a per-band
//! *off-period* rule: after a transmission of airtime `t`, the device must
//! stay silent for `t * (1/dc - 1)`. We track the next-allowed instant plus
//! a rolling airtime accounting for diagnostics.

use ctt_core::time::{Span, Timestamp};

/// Duty-cycle state for one device in one sub-band.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DutyCycleTracker {
    /// Duty cycle limit as a fraction (0.01 = 1%).
    limit: f64,
    /// Next instant a transmission may start (microsecond resolution is
    /// overkill for this sim; we keep whole seconds plus fractional carry).
    next_allowed_s: f64,
    /// Accumulated airtime in seconds (diagnostics).
    total_airtime_s: f64,
    /// Number of transmissions accepted.
    accepted: u64,
    /// Number of transmissions refused.
    refused: u64,
}

impl DutyCycleTracker {
    /// Create a tracker with a duty-cycle `limit` (e.g. 0.01).
    pub fn new(limit: f64) -> Self {
        // lint:allow(panic): the limit is the region's duty-cycle constant, in (0, 1]
        assert!(limit > 0.0 && limit <= 1.0, "invalid duty cycle {limit}");
        DutyCycleTracker {
            limit,
            next_allowed_s: f64::NEG_INFINITY,
            total_airtime_s: 0.0,
            accepted: 0,
            refused: 0,
        }
    }

    /// True if a transmission may start at `now`.
    pub fn may_transmit(&self, now: Timestamp) -> bool {
        now.as_seconds() as f64 >= self.next_allowed_s
    }

    /// Earliest instant a transmission may start.
    pub fn next_allowed(&self) -> Timestamp {
        if self.next_allowed_s == f64::NEG_INFINITY {
            Timestamp(i64::MIN / 4)
        } else {
            Timestamp(self.next_allowed_s.ceil() as i64)
        }
    }

    /// Record a transmission starting at `now` with `airtime_s` seconds of
    /// time-on-air. Returns `false` (and refuses it) if the duty cycle
    /// forbids transmitting now.
    pub fn try_transmit(&mut self, now: Timestamp, airtime_s: f64) -> bool {
        // lint:allow(panic): airtime comes from time_on_air_s, which is never negative
        assert!(airtime_s >= 0.0);
        if !self.may_transmit(now) {
            self.refused += 1;
            return false;
        }
        let off_period = airtime_s * (1.0 / self.limit - 1.0);
        self.next_allowed_s = now.as_seconds() as f64 + airtime_s + off_period;
        self.total_airtime_s += airtime_s;
        self.accepted += 1;
        true
    }

    /// Total accepted airtime, seconds.
    pub fn total_airtime_s(&self) -> f64 {
        self.total_airtime_s
    }

    /// Accepted transmission count.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Refused transmission count.
    pub fn refused(&self) -> u64 {
        self.refused
    }

    /// The enforced off-period after a transmission of `airtime_s`.
    pub fn off_period(&self, airtime_s: f64) -> Span {
        Span::seconds((airtime_s * (1.0 / self.limit - 1.0)).ceil() as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_transmission_always_allowed() {
        let mut t = DutyCycleTracker::new(0.01);
        assert!(t.may_transmit(Timestamp(0)));
        assert!(t.try_transmit(Timestamp(0), 1.0));
        assert_eq!(t.accepted(), 1);
    }

    #[test]
    fn one_percent_blocks_for_99x_airtime() {
        let mut t = DutyCycleTracker::new(0.01);
        assert!(t.try_transmit(Timestamp(0), 1.0));
        // Off period = 99 s; next allowed at t = 100 s.
        assert!(!t.may_transmit(Timestamp(50)));
        assert!(!t.try_transmit(Timestamp(99), 1.0));
        assert_eq!(t.refused(), 1);
        assert!(t.may_transmit(Timestamp(100)));
        assert!(t.try_transmit(Timestamp(100), 1.0));
        assert_eq!(t.accepted(), 2);
    }

    #[test]
    fn ctt_cadence_never_blocked() {
        // 31-byte SF12 frame ≈ 1.48 s airtime every 300 s → off period
        // ≈ 147 s < 300 s, so the 5-minute cadence always clears.
        let mut t = DutyCycleTracker::new(0.01);
        for i in 0..100 {
            assert!(
                t.try_transmit(Timestamp(300 * i), 1.48),
                "blocked at uplink {i}"
            );
        }
        assert_eq!(t.refused(), 0);
        assert!((t.total_airtime_s() - 148.0).abs() < 1.0);
    }

    #[test]
    fn aggressive_cadence_gets_refused() {
        // Transmitting a 1.48 s frame every 60 s at 1% must be refused often.
        let mut t = DutyCycleTracker::new(0.01);
        let mut ok = 0;
        for i in 0..100 {
            if t.try_transmit(Timestamp(60 * i), 1.48) {
                ok += 1;
            }
        }
        assert!(ok < 50, "too many accepted: {ok}");
        assert!(t.refused() > 0);
    }

    #[test]
    fn next_allowed_reported() {
        let mut t = DutyCycleTracker::new(0.1);
        t.try_transmit(Timestamp(1000), 2.0);
        // off = 2*(10-1)=18; next = 1000+2+18 = 1020.
        assert_eq!(t.next_allowed(), Timestamp(1020));
        assert_eq!(t.off_period(2.0), Span::seconds(18));
    }

    #[test]
    #[should_panic(expected = "invalid duty cycle")]
    fn zero_limit_panics() {
        DutyCycleTracker::new(0.0);
    }
}
