//! Open-loop schedule accounting (choosing-metrics §5): work item `k` is
//! due at `start + k·period` whatever happened to item `k-1`, its response
//! time runs from the instant it was *due*, and how late the generator
//! started it is reported separately.

use std::time::{Duration, Instant};

/// What happened to one scheduled item.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tick {
    /// Generator lateness: actual start minus due time.
    pub late: Duration,
    /// Response time from the due instant to completion, so a stall's
    /// wait lands on the items queued behind it.
    pub response: Duration,
}

/// A fixed-period open-loop schedule.
#[derive(Debug, Clone)]
pub struct OpenLoop {
    start: Instant,
    period: Duration,
    ticks: Vec<Tick>,
}

impl OpenLoop {
    pub fn new(start: Instant, period: Duration) -> Self {
        Self {
            start,
            period,
            ticks: Vec::new(),
        }
    }

    /// When item `k` (0-based) is due.
    pub fn due(&self, k: u32) -> Instant {
        self.start + self.period * k
    }

    /// Sleeps until the next item is due (not at all if it already is)
    /// and returns its due instant.
    pub fn wait_next(&self) -> Instant {
        let due = self.due(self.ticks.len() as u32);
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        due
    }

    /// Accounts the next item, which ran over `[started, finished]`.
    pub fn record(&mut self, started: Instant, finished: Instant) -> Tick {
        let due = self.due(self.ticks.len() as u32);
        let tick = Tick {
            late: started.saturating_duration_since(due),
            response: finished.saturating_duration_since(due),
        };
        self.ticks.push(tick);
        tick
    }

    pub fn ticks(&self) -> &[Tick] {
        &self.ticks
    }

    pub fn max_late(&self) -> Duration {
        self.ticks.iter().map(|t| t.late).max().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn a_stall_is_charged_to_the_items_queued_behind_it() {
        let t0 = Instant::now();
        let mut s = OpenLoop::new(t0, 250 * MS);
        // Item 0 starts on time and takes 90 ms.
        let a = s.record(t0, t0 + 90 * MS);
        assert_eq!((a.late, a.response), (Duration::ZERO, 90 * MS));
        // Item 1 starts on time but stalls for 400 ms.
        let b = s.record(t0 + 250 * MS, t0 + 650 * MS);
        assert_eq!((b.late, b.response), (Duration::ZERO, 400 * MS));
        // Item 2 was due at 500 ms but could only start at 650: 150 late,
        // and its 80 ms of work reads as a 230 ms response.
        let c = s.record(t0 + 650 * MS, t0 + 730 * MS);
        assert_eq!((c.late, c.response), (150 * MS, 230 * MS));
        // Item 3 (due 750) is back on schedule.
        let d = s.record(t0 + 750 * MS, t0 + 800 * MS);
        assert_eq!((d.late, d.response), (Duration::ZERO, 50 * MS));
        assert_eq!(s.max_late(), 150 * MS);
        assert_eq!(s.ticks().len(), 4);
        assert_eq!(s.due(4), t0 + 1000 * MS);
    }

    #[test]
    fn an_early_start_is_not_negative_lateness() {
        let t0 = Instant::now() + 10 * MS;
        let mut s = OpenLoop::new(t0, 100 * MS);
        let tick = s.record(t0 - 5 * MS, t0 + 20 * MS);
        assert_eq!((tick.late, tick.response), (Duration::ZERO, 20 * MS));
    }
}
