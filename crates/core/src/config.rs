//! Core runtime configuration.

use std::time::Duration;

/// Tunables of one Core.
#[derive(Debug, Clone)]
pub struct CoreConfig {
    /// How long a requester waits for a peer reply before failing with
    /// [`crate::FargoError::Timeout`].
    pub rpc_timeout: Duration,
    /// How long instant profiling results are served from cache (§4.1).
    pub monitor_cache_ttl: Duration,
    /// Granularity of the continuous-profiling sampler thread.
    pub monitor_tick: Duration,
    /// If `true`, a `stamp` reference that finds no same-typed complet at
    /// the destination fails the move; if `false`, it keeps its old target.
    pub stamp_strict: bool,
    /// How long an invocation waits for a complet that is in transit
    /// before giving up.
    pub transit_wait: Duration,
    /// Maximum complets this Core admits (instantiation and arrival); the
    /// §7 resource-negotiation hook. `None` means unbounded.
    pub capacity: Option<usize>,
    /// Whether invocations and moves record trace spans and propagate a
    /// [`fargo_telemetry::TraceContext`] in request envelopes. Metrics
    /// are always on; only span recording is gated (it allocates).
    pub trace_enabled: bool,
    /// Whether layout events are appended to the flight-recorder journal
    /// and the hybrid logical clock piggybacks on outbound envelopes.
    pub journal_enabled: bool,
    /// Ring-buffer capacity of this Core's journal (oldest evicted).
    pub journal_capacity: usize,
    /// Maximum retransmissions of one request within `rpc_timeout`
    /// (`0` restores the historical single-shot behaviour).
    pub rpc_max_retries: u32,
    /// Wait before the first retransmission; doubles per retry.
    pub rpc_retry_base: Duration,
    /// Cap on the exponential retransmission backoff.
    pub rpc_retry_cap: Duration,
    /// Entries kept in the per-Core reply-dedup cache that gives retried
    /// requests at-most-once execution. `0` disables deduplication.
    pub dedup_cache_capacity: usize,
    /// Request-handler worker threads (bounded pool; replaces the old
    /// thread-per-request dispatch).
    pub worker_threads: usize,
    /// Bounded queue in front of the worker pool. Overflowing requests
    /// are dropped — the sender's retransmission recovers them.
    pub worker_queue_depth: usize,
    /// How long a destination holds a prepared-but-uncommitted move
    /// before querying the source Core for the transaction outcome.
    pub move_hold_timeout: Duration,
    /// The time source behind every protocol deadline (move holds, RPC
    /// retry budgets, tracker idleness, monitor intervals) and the HLC's
    /// physical component. Wall time in production; the deterministic
    /// checker substitutes a shared virtual clock so one seed replays to
    /// one bit-identical journal.
    pub clock: fargo_telemetry::Clock,
    /// Whether requests are stamped at enqueue, dispatch, marshal, wire
    /// send/receive, and exec — decomposing every invoke into per-phase
    /// `fargo_latency_*` histograms and feeding measured link latency
    /// back to the layout cost model. Off restores stamp-free envelopes.
    pub phase_timing: bool,
    /// Whether executed invocations are attributed to their complet
    /// (exec time, invoke count, marshaled bytes in/out) and outbound
    /// envelopes to the Core↔Core traffic matrix. Off restores the
    /// unaccounted hot path (one branch).
    pub accounting: bool,
    /// Directory of this Core's write-ahead passivation log. `None`
    /// (the default) disables durability: complets are memory-only, as
    /// in the paper. When set, every acknowledged state transition is
    /// appended to `<dir>/<core>.wal` before the acknowledgement leaves
    /// the Core, and a restarted Core replays the log on spawn.
    pub wal_dir: Option<std::path::PathBuf>,
    /// Whether every log append is fsynced (`sync_data`) before the
    /// acknowledgement leaves the Core. On (the default), durability
    /// covers OS crashes and power loss; off, records reach the OS page
    /// cache only, so durability covers process crashes but an OS crash
    /// can drop the unsynced tail.
    pub wal_fsync: bool,
    /// Appends between monitor-tick log compactions (a compaction
    /// rewrites the log as a fresh snapshot of live state).
    pub wal_compact_records: u64,
    /// First journal sequence number this Core emits. A restarted Core
    /// passes its predecessor's high-water mark so merged timelines
    /// never collide on `(core, seq)`.
    pub journal_seq_base: u64,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            rpc_timeout: Duration::from_secs(10),
            monitor_cache_ttl: Duration::from_millis(100),
            monitor_tick: Duration::from_millis(20),
            stamp_strict: false,
            transit_wait: Duration::from_secs(5),
            capacity: None,
            trace_enabled: true,
            journal_enabled: true,
            journal_capacity: 4096,
            rpc_max_retries: 6,
            rpc_retry_base: Duration::from_millis(20),
            rpc_retry_cap: Duration::from_millis(500),
            dedup_cache_capacity: 1024,
            worker_threads: 8,
            worker_queue_depth: 1024,
            move_hold_timeout: Duration::from_millis(250),
            clock: fargo_telemetry::Clock::Wall,
            phase_timing: true,
            accounting: true,
            wal_dir: None,
            wal_fsync: true,
            wal_compact_records: 512,
            journal_seq_base: 0,
        }
    }
}

impl CoreConfig {
    /// Configuration with `rpc_timeout` replaced.
    pub fn with_rpc_timeout(mut self, timeout: Duration) -> Self {
        self.rpc_timeout = timeout;
        self
    }

    /// Configuration with strict stamp resolution.
    pub fn strict_stamps(mut self) -> Self {
        self.stamp_strict = true;
        self
    }

    /// Configuration with a complet capacity (admission control).
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = Some(capacity);
        self
    }

    /// Configuration with span recording switched on or off.
    pub fn with_tracing(mut self, enabled: bool) -> Self {
        self.trace_enabled = enabled;
        self
    }

    /// Configuration with journal recording switched on or off.
    pub fn with_journaling(mut self, enabled: bool) -> Self {
        self.journal_enabled = enabled;
        self
    }

    /// Configuration with the journal ring capacity replaced.
    pub fn with_journal_capacity(mut self, capacity: usize) -> Self {
        self.journal_capacity = capacity;
        self
    }

    /// Configuration with the retransmission budget replaced.
    pub fn with_rpc_retries(mut self, max_retries: u32) -> Self {
        self.rpc_max_retries = max_retries;
        self
    }

    /// Configuration with the reply-dedup cache capacity replaced.
    pub fn with_dedup_capacity(mut self, capacity: usize) -> Self {
        self.dedup_cache_capacity = capacity;
        self
    }

    /// The historical single-shot messaging behaviour: no retransmission
    /// and no receiver-side dedup (the E14 ablation baseline).
    pub fn single_shot(mut self) -> Self {
        self.rpc_max_retries = 0;
        self.dedup_cache_capacity = 0;
        self
    }

    /// Configuration with the time source replaced. Every Core of one
    /// simulated cluster must share the same (virtual) clock.
    pub fn with_clock(mut self, clock: fargo_telemetry::Clock) -> Self {
        self.clock = clock;
        self
    }

    /// Configuration with per-phase request timing (and its envelope
    /// timing stamps) switched on or off.
    pub fn with_phase_timing(mut self, enabled: bool) -> Self {
        self.phase_timing = enabled;
        self
    }

    /// Configuration with per-complet accounting (and the traffic
    /// matrix feed) switched on or off.
    pub fn with_accounting(mut self, enabled: bool) -> Self {
        self.accounting = enabled;
        self
    }

    /// Configuration with the request worker pool resized. Both values
    /// must be at least 1; `Core::builder(..).spawn()` rejects a zero
    /// with [`crate::FargoError::InvalidArgument`] instead of silently
    /// clamping.
    pub fn with_worker_pool(mut self, threads: usize, queue_depth: usize) -> Self {
        self.worker_threads = threads;
        self.worker_queue_depth = queue_depth;
        self
    }

    /// Configuration with durability enabled: the write-ahead log lives
    /// under `dir` (created if missing).
    pub fn with_wal_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.wal_dir = Some(dir.into());
        self
    }

    /// Configuration with per-append fsync switched on or off. Off
    /// trades power-loss durability for append latency: a process
    /// crash still loses nothing, but an OS crash can drop the tail
    /// that never left the page cache.
    pub fn with_wal_fsync(mut self, enabled: bool) -> Self {
        self.wal_fsync = enabled;
        self
    }

    /// Configuration with the compaction threshold replaced (appends
    /// between monitor-tick log rewrites; minimum 1).
    pub fn with_wal_compact_records(mut self, records: u64) -> Self {
        self.wal_compact_records = records.max(1);
        self
    }

    /// Configuration with the journal sequence base replaced (restart
    /// continuity for merged timelines).
    pub fn with_journal_seq_base(mut self, base: u64) -> Self {
        self.journal_seq_base = base;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = CoreConfig::default();
        assert!(c.phase_timing, "phase timing is on by default");
        assert!(c.accounting, "accounting is on by default");
        assert_eq!(c.journal_seq_base, 0);
    }

    #[test]
    fn builder_helpers() {
        let c = CoreConfig::default()
            .with_rpc_timeout(Duration::from_millis(5))
            .strict_stamps()
            .with_phase_timing(false)
            .with_accounting(false)
            .with_journal_seq_base(42);
        assert_eq!(c.rpc_timeout, Duration::from_millis(5));
        assert!(c.stamp_strict);
        assert!(!c.phase_timing);
        assert!(!c.accounting);
        assert_eq!(c.journal_seq_base, 42);
    }

    #[test]
    fn clock_defaults_to_wall_and_swaps() {
        assert!(!CoreConfig::default().clock.is_virtual());
        let v = CoreConfig::default().with_clock(fargo_telemetry::Clock::new_virtual(5));
        assert!(v.clock.is_virtual());
        assert_eq!(v.clock.now_us(), 5);
    }

    #[test]
    fn wal_knobs() {
        let c = CoreConfig::default();
        assert!(c.wal_dir.is_none(), "durability is opt-in");
        assert!(c.wal_fsync, "power-loss durability defaults on");
        let c = c
            .with_wal_dir("/tmp/fargo-wal")
            .with_wal_fsync(false)
            .with_wal_compact_records(0);
        assert_eq!(
            c.wal_dir.as_deref(),
            Some(std::path::Path::new("/tmp/fargo-wal"))
        );
        assert!(!c.wal_fsync);
        assert_eq!(c.wal_compact_records, 1, "threshold clamps to >= 1");
    }
}
