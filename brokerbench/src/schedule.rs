//! The open-loop schedule.
//!
//! Events fall due at a fixed period from the phase origin, whatever
//! the broker does: a slow publish makes the next sends late, never
//! later-scheduled. Latency is measured from an event's due time, so a
//! stall is charged to every event that waited behind it.

/// A fixed-rate schedule of `events` events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    period_ns: u64,
    events: u64,
}

impl Schedule {
    /// `rate` events per second for `seconds` seconds (at least one
    /// event).
    pub fn new(rate: f64, seconds: f64) -> Self {
        assert!(
            rate > 0.0 && seconds > 0.0,
            "schedule needs a positive rate and length"
        );
        Schedule {
            period_ns: (1e9 / rate).round().max(1.0) as u64,
            events: ((seconds * rate).floor() as u64).max(1),
        }
    }

    pub fn events(&self) -> u64 {
        self.events
    }

    /// Due time of the `event`-th event, in ns after the phase origin.
    pub fn due_ns(&self, event: u64) -> u64 {
        event * self.period_ns
    }

    /// Whether the generator fell behind: the last event was sent more
    /// than one period plus a twentieth of the schedule's length after
    /// it was due, so the offered rate was not held.
    pub fn fell_behind(&self, last_lateness_ns: u64) -> bool {
        last_lateness_ns > self.period_ns + self.due_ns(self.events) / 20
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fall_due_at_a_fixed_period() {
        let s = Schedule::new(100.0, 2.0);
        assert_eq!(s.events(), 200);
        assert_eq!(s.period_ns, 10_000_000);
        assert_eq!(s.due_ns(0), 0);
        assert_eq!(s.due_ns(1), 10_000_000);
        assert_eq!(s.due_ns(199), 1_990_000_000);
    }

    #[test]
    fn short_schedules_still_send_one_event() {
        let s = Schedule::new(0.5, 1.0);
        assert_eq!(s.events(), 1);
        assert_eq!(s.period_ns, 2_000_000_000);
    }

    #[test]
    fn falling_behind_means_missing_the_rate_not_one_late_send() {
        // 100 events at 10 ms: the schedule spans 1 s, so the last
        // event may go out up to 10 ms + 50 ms late.
        let s = Schedule::new(100.0, 1.0);
        assert!(!s.fell_behind(0));
        assert!(!s.fell_behind(60_000_000));
        assert!(s.fell_behind(60_000_001));
    }
}
