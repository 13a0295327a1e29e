//! Per-link traffic statistics.
//!
//! The FarGo monitoring layer's system-profiling services (`bandwidth`,
//! `latency`) are computed from these counters.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Resolution of the sliding window: it holds at most this many samples
/// (plus one), each covering `window / WINDOW_SLOTS` of sends.
const WINDOW_SLOTS: u32 = 256;

/// Sliding-window traffic accounting for one directed link.
#[derive(Debug)]
pub(crate) struct StatsWindow {
    /// Total messages ever sent on this link.
    pub messages: u64,
    /// Total payload bytes ever sent on this link.
    pub bytes: u64,
    /// Total messages dropped by the loss model or a full receive queue.
    pub dropped: u64,
    /// Sum of receiver-observed one-way delivery latencies (µs), fed
    /// back by the application layer from envelope timing stamps.
    observed_latency_us_sum: u64,
    /// Number of observed-latency samples behind the sum.
    observed_samples: u64,
    /// Recent (first send instant, byte count) samples, pruned to
    /// `window`.
    recent: VecDeque<(Instant, u64)>,
    window: Duration,
}

impl StatsWindow {
    pub fn new(window: Duration) -> Self {
        StatsWindow {
            messages: 0,
            bytes: 0,
            dropped: 0,
            observed_latency_us_sum: 0,
            observed_samples: 0,
            recent: VecDeque::new(),
            window,
        }
    }

    pub fn record(&mut self, now: Instant, bytes: u64) {
        self.messages += 1;
        self.bytes += bytes;
        // Sends closer together than one slot of the window share a
        // sample, so the deque is bounded by the slot count instead of
        // growing with the message rate.
        match self.recent.back_mut() {
            Some((t, b)) if now.duration_since(*t) * WINDOW_SLOTS < self.window => *b += bytes,
            _ => self.recent.push_back((now, bytes)),
        }
        self.prune(now);
    }

    pub fn record_drop(&mut self) {
        self.dropped += 1;
    }

    /// Accounts one receiver-measured delivery latency for this link.
    pub fn record_observed_latency(&mut self, us: u64) {
        self.observed_latency_us_sum = self.observed_latency_us_sum.saturating_add(us);
        self.observed_samples += 1;
    }

    fn prune(&mut self, now: Instant) {
        while let Some(&(t, _)) = self.recent.front() {
            if now.duration_since(t) > self.window {
                self.recent.pop_front();
            } else {
                break;
            }
        }
    }

    /// Observed throughput in bytes/second over the sliding window.
    pub fn throughput(&mut self, now: Instant) -> f64 {
        self.prune(now);
        let total: u64 = self.recent.iter().map(|&(_, b)| b).sum();
        let secs = self.window.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            total as f64 / secs
        }
    }

    pub fn snapshot(&mut self, now: Instant) -> LinkStats {
        LinkStats {
            messages: self.messages,
            bytes: self.bytes,
            dropped: self.dropped,
            throughput: self.throughput(now),
            observed_samples: self.observed_samples,
            observed_latency_us: if self.observed_samples == 0 {
                None
            } else {
                Some(self.observed_latency_us_sum as f64 / self.observed_samples as f64)
            },
        }
    }
}

/// A point-in-time snapshot of one directed link's traffic counters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LinkStats {
    /// Total messages sent.
    pub messages: u64,
    /// Total payload bytes sent.
    pub bytes: u64,
    /// Messages dropped by the loss model or a full receive queue.
    pub dropped: u64,
    /// Observed throughput (bytes/s) over the recent window.
    pub throughput: f64,
    /// Receiver-measured delivery latency samples fed back so far.
    pub observed_samples: u64,
    /// Mean receiver-measured one-way latency in µs (`None` until the
    /// application layer feeds samples via
    /// [`Network::record_observed_latency`](crate::Network::record_observed_latency)).
    pub observed_latency_us: Option<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut w = StatsWindow::new(Duration::from_secs(10));
        let now = Instant::now();
        w.record(now, 100);
        w.record(now, 50);
        w.record_drop();
        let snap = w.snapshot(now);
        assert_eq!(snap.messages, 2);
        assert_eq!(snap.bytes, 150);
        assert_eq!(snap.dropped, 1);
    }

    #[test]
    fn throughput_reflects_window() {
        let mut w = StatsWindow::new(Duration::from_secs(1));
        let now = Instant::now();
        w.record(now, 1000);
        assert!((w.throughput(now) - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn observed_latency_averages_fed_samples() {
        let mut w = StatsWindow::new(Duration::from_secs(1));
        let now = Instant::now();
        assert_eq!(w.snapshot(now).observed_latency_us, None);
        w.record_observed_latency(100);
        w.record_observed_latency(300);
        let snap = w.snapshot(now);
        assert_eq!(snap.observed_samples, 2);
        assert_eq!(snap.observed_latency_us, Some(200.0));
    }

    #[test]
    fn a_burst_does_not_grow_the_window() {
        let mut w = StatsWindow::new(Duration::from_secs(1));
        let t0 = Instant::now();
        for i in 0..100_000u32 {
            w.record(t0 + Duration::from_micros(u64::from(i) * 5), 10);
        }
        // Half a second of sends at 200k msgs/s: one sample per slot.
        assert!(
            w.recent.len() <= WINDOW_SLOTS as usize + 1,
            "{}",
            w.recent.len()
        );
        let end = t0 + Duration::from_millis(500);
        assert!((w.throughput(end) - 1_000_000.0).abs() < 1e-6);
        assert_eq!(w.messages, 100_000);
    }

    #[test]
    fn old_samples_are_pruned() {
        let mut w = StatsWindow::new(Duration::from_millis(1));
        let t0 = Instant::now();
        w.record(t0, 1000);
        let later = t0 + Duration::from_millis(50);
        assert_eq!(w.throughput(later), 0.0);
        // Totals are not pruned.
        assert_eq!(w.bytes, 1000);
    }
}
