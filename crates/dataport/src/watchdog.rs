//! External watchdog for the dataport itself.
//!
//! "If the dataport itself fails, it is detected by an external watchdog
//! service, in this case AppBeat" (§2.3). The monitoring system must not be
//! its own single point of failure: the watchdog lives *outside* the
//! dataport process and only observes its heartbeats.

use ctt_core::time::{Span, Timestamp};

/// Watchdog verdict at a check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchdogVerdict {
    /// Heartbeats arriving as expected.
    Healthy,
    /// No heartbeat yet (just started).
    Unknown,
    /// Heartbeats stopped: the dataport is considered down.
    Down {
        /// Time of the last heartbeat received.
        last_heartbeat: Timestamp,
    },
}

/// The external watchdog (AppBeat stand-in).
#[derive(Debug, Clone)]
pub struct Watchdog {
    /// Maximum tolerated silence before declaring the dataport down.
    grace: Span,
    last_heartbeat: Option<Timestamp>,
    /// Transitions into `Down` observed (for reporting).
    down_events: u32,
    currently_down: bool,
}

impl Watchdog {
    /// Watchdog tolerating `grace` of heartbeat silence.
    pub fn new(grace: Span) -> Self {
        // lint:allow(panic): the grace is a positive constant; zero would make every check Down
        assert!(grace.as_seconds() > 0);
        Watchdog {
            grace,
            last_heartbeat: None,
            down_events: 0,
            currently_down: false,
        }
    }

    /// The monitored service reported liveness.
    pub fn heartbeat(&mut self, now: Timestamp) {
        self.last_heartbeat = Some(now);
        self.currently_down = false;
    }

    /// Probe the service state at `now`. Returns the verdict; transitions
    /// into `Down` are counted once per outage.
    pub fn check(&mut self, now: Timestamp) -> WatchdogVerdict {
        match self.last_heartbeat {
            None => WatchdogVerdict::Unknown,
            Some(last) => {
                if now - last > self.grace {
                    if !self.currently_down {
                        self.currently_down = true;
                        self.down_events += 1;
                    }
                    WatchdogVerdict::Down {
                        last_heartbeat: last,
                    }
                } else {
                    WatchdogVerdict::Healthy
                }
            }
        }
    }

    /// Number of distinct outages detected.
    pub fn down_events(&self) -> u32 {
        self.down_events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_before_first_heartbeat() {
        let mut w = Watchdog::new(Span::minutes(5));
        assert_eq!(w.check(Timestamp(10_000)), WatchdogVerdict::Unknown);
    }

    #[test]
    fn healthy_within_grace() {
        let mut w = Watchdog::new(Span::minutes(5));
        w.heartbeat(Timestamp(0));
        assert_eq!(w.check(Timestamp(4 * 60)), WatchdogVerdict::Healthy);
        assert_eq!(w.check(Timestamp(5 * 60)), WatchdogVerdict::Healthy);
    }

    #[test]
    fn down_after_grace_counted_once() {
        let mut w = Watchdog::new(Span::minutes(5));
        w.heartbeat(Timestamp(0));
        let v = w.check(Timestamp(6 * 60));
        assert_eq!(
            v,
            WatchdogVerdict::Down {
                last_heartbeat: Timestamp(0)
            }
        );
        w.check(Timestamp(7 * 60));
        w.check(Timestamp(8 * 60));
        assert_eq!(w.down_events(), 1, "one outage, one event");
    }

    #[test]
    fn recovery_and_second_outage() {
        let mut w = Watchdog::new(Span::minutes(5));
        w.heartbeat(Timestamp(0));
        w.check(Timestamp(10 * 60)); // outage 1
        w.heartbeat(Timestamp(11 * 60));
        assert_eq!(w.check(Timestamp(12 * 60)), WatchdogVerdict::Healthy);
        w.check(Timestamp(30 * 60)); // outage 2
        assert_eq!(w.down_events(), 2);
    }

    #[test]
    #[should_panic]
    fn zero_grace_rejected() {
        Watchdog::new(Span::seconds(0));
    }
}
