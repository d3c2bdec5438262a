//! Fixed-width time-window event counters.

/// Counts events into fixed-width, contiguous time windows starting at
/// t = 0. The paper reports throughput in tuples per 10-second window, so
/// a window width of `10_000.0` ms is the usual configuration.
#[derive(Debug, Clone)]
pub struct WindowedCounter {
    window_ms: f64,
    counts: Vec<u64>,
}

impl WindowedCounter {
    /// Creates a counter with the given window width in milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `window_ms` is not strictly positive and finite.
    pub fn new(window_ms: f64) -> Self {
        assert!(
            window_ms.is_finite() && window_ms > 0.0,
            "window width must be positive and finite, got {window_ms}"
        );
        Self {
            window_ms,
            counts: Vec::new(),
        }
    }

    /// The configured window width in milliseconds.
    pub fn window_ms(&self) -> f64 {
        self.window_ms
    }

    /// Records `count` events at time `at_ms` (milliseconds since start).
    ///
    /// # Panics
    ///
    /// Panics if `at_ms` is negative or not finite.
    pub fn record(&mut self, at_ms: f64, count: u64) {
        assert!(
            at_ms.is_finite() && at_ms >= 0.0,
            "event time must be non-negative and finite, got {at_ms}"
        );
        let idx = (at_ms / self.window_ms) as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += count;
    }

    /// Counts per window, from the first window to the last one that saw
    /// an event (intermediate empty windows are included as zero).
    pub fn window_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Counts per window truncated to full windows within `[0, until_ms)`.
    /// Use this to drop the final partial window of a simulation run.
    pub fn complete_window_counts(&self, until_ms: f64) -> Vec<u64> {
        let full = (until_ms / self.window_ms).floor() as usize;
        let mut counts = self.counts.clone();
        // Exactly `full` windows, zero-padded if the tail saw no events.
        counts.resize(full, 0);
        counts
    }

    /// Total number of recorded events.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_land_in_their_window() {
        let mut c = WindowedCounter::new(10_000.0);
        c.record(0.0, 1);
        c.record(9_999.9, 1);
        c.record(10_000.0, 5);
        c.record(35_000.0, 2);
        assert_eq!(c.window_counts(), vec![2, 5, 0, 2]);
        assert_eq!(c.total(), 9);
    }

    #[test]
    fn complete_windows_drop_partial_tail() {
        let mut c = WindowedCounter::new(10_000.0);
        c.record(5_000.0, 10);
        c.record(25_000.0, 4);
        // Run lasted 28 s: only two complete 10 s windows.
        assert_eq!(c.complete_window_counts(28_000.0), vec![10, 0]);
    }

    #[test]
    fn complete_windows_pad_with_zeroes() {
        let mut c = WindowedCounter::new(10_000.0);
        c.record(1_000.0, 1);
        // 50 s run but events only in the first window.
        assert_eq!(c.complete_window_counts(50_000.0), vec![1, 0, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "window width")]
    fn zero_window_rejected() {
        WindowedCounter::new(0.0);
    }

    #[test]
    #[should_panic(expected = "event time")]
    fn negative_time_rejected() {
        WindowedCounter::new(10.0).record(-1.0, 1);
    }
}
