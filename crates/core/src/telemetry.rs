//! Per-Core telemetry wiring: pre-registered metric handles for the hot
//! paths, the span log, and the ambient (thread-local) trace context that
//! lets nested complet-to-complet calls join their caller's trace.
//!
//! All series carry a `core=<name>` label, so several Cores may share one
//! [`Registry`] (as the standing benchmark's cluster does) without
//! colliding. Handles are resolved once at Core spawn; recording on the
//! hot path touches only atomics.

use std::cell::Cell;
use std::collections::HashMap;

use std::fmt;

use parking_lot::Mutex;

use fargo_telemetry::{
    Accountant, Clock, Counter, Gauge, Histogram, Hlc, HlcClock, Journal, JournalEvent,
    JournalKind, Registry, SlowLog, SpanLog, SpanRecord, TraceContext, TrafficMatrix,
    WindowedHistogram, BUCKETS_BYTES, BUCKETS_COUNT, BUCKETS_LATENCY_US,
};
use fargo_wire::CompletId;

use crate::config::CoreConfig;

/// All request kinds plus the envelope-level labels, pre-registered so
/// the receive/send paths never take the registry lock.
const MSG_KINDS: &[&str] = &[
    "invoke",
    "new",
    "lookup",
    "fetch",
    "move_req",
    "subscribe",
    "unsubscribe",
    "list",
    "list_trk",
    "trace_spans",
    "journal",
    "top",
    "matrix",
    "ping",
    "edges",
    "move_prep",
    "move_commit",
    "move_abort",
    "move_decision",
    "locate",
    "shard_list",
    "reply",
    "notify",
];

/// Capacity of the slow-request ring (tail-based trace retention: the K
/// slowest requests keep their span trees).
const SLOW_LOG_CAPACITY: usize = 16;

/// Ring-buffer capacity of a Core's span log (oldest trace evicted).
const TRACE_CAPACITY: usize = 1024;

/// Keys the per-Core accountant and the call-edge table track at once;
/// beyond it the Space-Saving sketch evicts the minimum-load entry, so
/// memory stays O(capacity) at any population.
const ACCOUNT_CAPACITY: usize = 512;

/// Observations per epoch of the sliding latency window behind "recent"
/// percentile estimates (the window spans 1–2 epochs).
const LATENCY_WINDOW: u64 = 512;

/// Relocator kinds counted during marshal closure.
pub(crate) const RELOCATOR_KINDS: &[&str] = &["link", "pull", "duplicate", "stamp"];

pub(crate) struct CoreTelemetry {
    pub registry: Registry,
    pub spans: SpanLog,
    /// Span recording gate (metrics are unconditional); [`Self::span`]
    /// is its one reader.
    trace_enabled: bool,

    // Flight recorder: the layout-event journal and the hybrid logical
    // clock that stamps it (and every outbound envelope).
    pub journal: Journal,
    pub clock: HlcClock,
    journal_enabled: bool,
    /// Serializes the tick-then-append pair in [`journal`](Self::journal)
    /// so ring order always matches HLC order: shard publishes journal
    /// from the receive/notify threads while moves journal from the
    /// worker pool, and an unserialized interleave can append a larger
    /// stamp at a smaller ring seq.
    journal_stamp: Mutex<()>,
    /// Network node index of this Core, recorded on every journal event.
    node: u32,
    journal_events_total: Counter,

    // Invocation.
    pub invoke_total: Counter,
    pub invoke_latency_us: WindowedHistogram,
    pub invoke_hops: Histogram,
    pub chain_shortenings_total: Counter,

    // Per-phase request timing (tail-latency observatory). Each remote
    // invoke decomposes into queue-wait / marshal / network / exec /
    // tracker-forward components, recorded here when `phase_timing` is
    // on.
    pub phase_timing: bool,
    pub latency_queue_us: Histogram,
    pub latency_marshal_us: Histogram,
    pub latency_network_us: Histogram,
    pub latency_exec_us: Histogram,
    pub latency_forward_us: Histogram,
    /// Tail-based trace retention: full span trees of the slowest
    /// requests seen so far, bounded by [`SLOW_LOG_CAPACITY`].
    pub slow: SlowLog,
    /// The shared time source phase stamps are read from (virtual under
    /// `fargo-check`, wall otherwise).
    pub time: Clock,

    // Tracker.
    pub tracker_forwards_served_total: Counter,
    pub tracker_chain_length: Histogram,

    // Movement.
    pub move_marshal_bytes: Histogram,
    pub move_comoved: Histogram,
    pub move_update_set: Histogram,
    move_by_relocator: HashMap<&'static str, Counter>,

    // Proto: messages and bytes, in/out, by message kind.
    msg_out: HashMap<&'static str, (Counter, Counter)>,
    msg_in: HashMap<&'static str, (Counter, Counter)>,

    /// Received datagrams dropped because they did not decode (truncated,
    /// malformed, or an envelope version this build does not speak).
    pub msg_decode_errors_total: Counter,

    // Endpoint queue depth, refreshed opportunistically.
    pub queue_depth: Gauge,

    // Reliable messaging layer.
    /// Request retransmissions sent by `rpc()`.
    pub rpc_retries_total: Counter,
    /// Retried requests answered from the reply-dedup cache.
    pub dedup_hits_total: Counter,
    /// Retransmits dropped because the original is still executing.
    pub dedup_inflight_total: Counter,
    /// Dedup-cache entries evicted to stay within capacity or byte bound.
    pub dedup_evictions_total: Counter,
    /// Requests the dedup cache holds right now (executing, replied or
    /// forwarded).
    pub dedup_cache_entries: Gauge,
    /// Bytes of encoded reply bodies the dedup cache holds right now.
    pub dedup_cache_bytes: Gauge,
    /// Replies that failed to send (the requester will retry or time out).
    pub reply_send_failures: Counter,
    /// Two-phase moves whose commit round went unanswered: reported as
    /// `MoveInDoubt`, resolved by the destination's held-move sweep.
    pub move_indoubt_total: Counter,
    /// Requests dropped because the worker-pool queue was full.
    pub worker_rejections_total: Counter,
    /// Read-only requests served directly on the dispatch loop (the
    /// fast path that never occupies a pool slot).
    pub worker_inline_total: Counter,
    /// Tracker updates rejected for carrying a stale move epoch.
    pub tracker_stale_total: Counter,

    // Cluster health observatory.
    /// Per-complet accounting gate (the matrix rides the same switch).
    pub accounting: bool,
    /// Per-complet exec/invoke/bytes attribution, Space-Saving bounded.
    pub accountant: Accountant,
    /// The call-edge table: calls per `(source, target)` reference issued
    /// at this Core (§4.1's "invocation rate per reference"), the same
    /// sketch under the same bound, counted whatever the switches say.
    pub edges: Accountant<(CompletId, CompletId)>,
    /// Messages and bytes per directed Core pair, fed from `transmit`.
    pub matrix: TrafficMatrix,
    /// Invocations that returned an error to the caller.
    pub invoke_errors_total: Counter,
    /// `move_complet` attempts.
    pub moves_attempted_total: Counter,
    /// `move_complet` attempts that failed.
    pub move_failures_total: Counter,
    /// Per-SLO-rule alert series: `fargo_alerts_total` edges and the
    /// `fargo_health_status` 0/1 gauge, pre-registered per rule.
    pub health_series: HashMap<String, (Counter, Gauge)>,

    // Sharded location service.
    /// `locate()` resolutions, by any path.
    pub naming_lookups_total: Counter,
    /// Network hops a resolution needed (0 = local/cached answer).
    pub naming_lookup_hops: Histogram,
    /// Shard entries published (created, moved, or tombstoned) by this
    /// Core as the event source.
    pub naming_publishes_total: Counter,
    /// Stale hints detected by move-epoch mismatch and repaired.
    pub naming_repairs_total: Counter,
    /// Shard deltas received in directed `ShardDelta` notifies
    /// (publishes and handoff streams).
    pub naming_deltas_in_total: Counter,
    /// Shard entries re-homed after a ring membership change.
    pub naming_handoffs_total: Counter,

    // Durability (write-ahead passivation log + restart recovery).
    /// Records appended to the write-ahead log.
    pub wal_appends_total: Counter,
    /// Log compactions (monitor-tick or explicit rewrites).
    pub wal_compactions_total: Counter,
    /// Write-ahead log append or compaction failures.
    pub wal_errors_total: Counter,
    /// Complets re-installed from the log by restart recovery.
    pub recovery_replayed_total: Counter,
    /// Prepared moves re-held by restart recovery.
    pub recovery_held_total: Counter,
    /// Logs whose tail was torn or corrupted at replay.
    pub recovery_corrupt_total: Counter,
    /// Wall-clock microseconds the last recovery pass took.
    pub recovery_duration_us: Gauge,
}

impl CoreTelemetry {
    pub(crate) fn new(registry: Registry, core: &str, node: u32, config: &CoreConfig) -> Self {
        let clock = config.clock.clone();
        let l = &[("core", core)][..];
        let move_by_relocator = RELOCATOR_KINDS
            .iter()
            .map(|&kind| {
                (
                    kind,
                    registry.counter("fargo_move_total", &[("core", core), ("relocator", kind)]),
                )
            })
            .collect();
        let per_kind =
            |name_msgs: &str, name_bytes: &str| -> HashMap<&'static str, (Counter, Counter)> {
                MSG_KINDS
                    .iter()
                    .map(|&kind| {
                        (
                            kind,
                            (
                                registry.counter(name_msgs, &[("core", core), ("kind", kind)]),
                                registry.counter(name_bytes, &[("core", core), ("kind", kind)]),
                            ),
                        )
                    })
                    .collect()
            };
        let phase_hist =
            |name: &str| -> Histogram { registry.histogram(name, l, BUCKETS_LATENCY_US) };
        let health_series = fargo_telemetry::default_slo_rules()
            .iter()
            .map(|r| {
                let rl = &[("core", core), ("rule", r.name.as_str())][..];
                (
                    r.name.clone(),
                    (
                        registry.counter("fargo_alerts_total", rl),
                        registry.gauge("fargo_health_status", rl),
                    ),
                )
            })
            .collect();
        CoreTelemetry {
            spans: SpanLog::for_core(core, TRACE_CAPACITY, clock.clone()),
            trace_enabled: config.trace_enabled,
            journal: Journal::with_base(config.journal_capacity, config.journal_seq_base),
            clock: HlcClock::with_source(clock.clone()),
            journal_enabled: config.journal_enabled,
            journal_stamp: Mutex::new(()),
            node,
            journal_events_total: registry.counter("fargo_journal_events_total", l),
            invoke_total: registry.counter("fargo_invoke_total", l),
            invoke_latency_us: WindowedHistogram::new(
                registry.histogram("fargo_invoke_latency_us", l, BUCKETS_LATENCY_US),
                LATENCY_WINDOW,
            ),
            invoke_hops: registry.histogram("fargo_invoke_hops", l, BUCKETS_COUNT),
            phase_timing: config.phase_timing,
            latency_queue_us: phase_hist("fargo_latency_queue_us"),
            latency_marshal_us: phase_hist("fargo_latency_marshal_us"),
            latency_network_us: phase_hist("fargo_latency_network_us"),
            latency_exec_us: phase_hist("fargo_latency_exec_us"),
            latency_forward_us: phase_hist("fargo_latency_forward_us"),
            slow: SlowLog::new(SLOW_LOG_CAPACITY),
            time: clock,
            chain_shortenings_total: registry.counter("fargo_chain_shortenings_total", l),
            tracker_forwards_served_total: registry
                .counter("fargo_tracker_forwards_served_total", l),
            tracker_chain_length: registry.histogram(
                "fargo_tracker_chain_length",
                l,
                BUCKETS_COUNT,
            ),
            move_marshal_bytes: registry.histogram("fargo_move_marshal_bytes", l, BUCKETS_BYTES),
            move_comoved: registry.histogram("fargo_move_comoved", l, BUCKETS_COUNT),
            move_update_set: registry.histogram("fargo_move_update_set", l, BUCKETS_COUNT),
            move_by_relocator,
            msg_out: per_kind("fargo_msg_out_total", "fargo_msg_out_bytes_total"),
            msg_in: per_kind("fargo_msg_in_total", "fargo_msg_in_bytes_total"),
            msg_decode_errors_total: registry.counter("fargo_msg_decode_errors_total", l),
            queue_depth: registry.gauge("fargo_endpoint_queue_depth", l),
            rpc_retries_total: registry.counter("fargo_rpc_retries_total", l),
            dedup_hits_total: registry.counter("fargo_dedup_hits_total", l),
            dedup_inflight_total: registry.counter("fargo_dedup_inflight_total", l),
            dedup_evictions_total: registry.counter("fargo_dedup_evictions_total", l),
            dedup_cache_entries: registry.gauge("fargo_dedup_cache_entries", l),
            dedup_cache_bytes: registry.gauge("fargo_dedup_cache_bytes", l),
            reply_send_failures: registry.counter("fargo_reply_send_failures", l),
            move_indoubt_total: registry.counter("fargo_move_indoubt_total", l),
            worker_rejections_total: registry.counter("fargo_worker_rejections_total", l),
            worker_inline_total: registry.counter("fargo_worker_inline_total", l),
            tracker_stale_total: registry.counter("fargo_tracker_stale_rejections_total", l),
            accounting: config.accounting,
            accountant: Accountant::new(ACCOUNT_CAPACITY),
            edges: Accountant::new(ACCOUNT_CAPACITY),
            matrix: TrafficMatrix::new(&registry),
            invoke_errors_total: registry.counter("fargo_invoke_errors_total", l),
            moves_attempted_total: registry.counter("fargo_moves_attempted_total", l),
            move_failures_total: registry.counter("fargo_move_failures_total", l),
            health_series,
            naming_lookups_total: registry.counter("fargo_naming_lookups_total", l),
            naming_lookup_hops: registry.histogram("fargo_naming_lookup_hops", l, BUCKETS_COUNT),
            naming_publishes_total: registry.counter("fargo_naming_publishes_total", l),
            naming_repairs_total: registry.counter("fargo_naming_repairs_total", l),
            naming_deltas_in_total: registry.counter("fargo_naming_deltas_in_total", l),
            naming_handoffs_total: registry.counter("fargo_naming_handoffs_total", l),
            wal_appends_total: registry.counter("fargo_wal_appends_total", l),
            wal_compactions_total: registry.counter("fargo_wal_compactions_total", l),
            wal_errors_total: registry.counter("fargo_wal_errors_total", l),
            recovery_replayed_total: registry.counter("fargo_recovery_replayed_total", l),
            recovery_held_total: registry.counter("fargo_recovery_held_total", l),
            recovery_corrupt_total: registry.counter("fargo_recovery_corrupt_total", l),
            recovery_duration_us: registry.gauge("fargo_recovery_duration_us", l),
            registry,
        }
    }

    /// Attributes one executed invocation to its complet, gated on the
    /// accounting switch (off costs one branch). Planner pseudo-complet
    /// ids (`seq == 0`, the per-Core application stand-ins from the
    /// affinity graph) never execute real methods; they are excluded
    /// here anyway so a stray id cannot crowd the heavy-hitter table.
    pub(crate) fn account_exec(&self, id: CompletId, exec_us: u64, bytes_in: u64, bytes_out: u64) {
        if self.accounting && id.seq != 0 {
            self.accountant
                .record((id.origin, id.seq), exec_us, bytes_in, bytes_out);
        }
    }

    /// Counts one outbound message of `kind` and its encoded size.
    pub(crate) fn record_msg_out(&self, kind: &str, bytes: usize) {
        if let Some((msgs, total)) = self.msg_out.get(kind) {
            msgs.inc();
            total.add(bytes as u64);
        }
    }

    /// Counts one inbound message of `kind` and its wire size.
    pub(crate) fn record_msg_in(&self, kind: &str, bytes: usize) {
        if let Some((msgs, total)) = self.msg_in.get(kind) {
            msgs.inc();
            total.add(bytes as u64);
        }
    }

    /// Counts one marshal decision of the given relocator kind.
    pub(crate) fn record_relocator(&self, kind: &str) {
        if let Some(c) = self.move_by_relocator.get(kind) {
            c.inc();
        }
    }

    /// Opens the span of one operation on this Core (a call issued,
    /// forwarded or executed, a move sent or activated). Until the guard
    /// drops, on whichever exit path, the span is the thread's ambient
    /// trace, so requests and calls made under it join the trace. With
    /// tracing off, or under an untraced request, the guard is inert
    /// and `name` is never built.
    pub(crate) fn span(&self, parent: SpanParent, name: impl FnOnce() -> String) -> SpanGuard<'_> {
        let parent = match parent {
            _ if !self.trace_enabled => return SpanGuard(None),
            SpanParent::Remote(None) => return SpanGuard(None),
            SpanParent::Remote(remote) => remote,
            SpanParent::Ambient => current_trace(),
        };
        let ctx = parent.map_or_else(TraceContext::new_root, |p| p.child());
        let parent_id = parent.map_or(0, |p| p.span_id);
        let span = self.spans.start(ctx, parent_id, name());
        let displaced = CURRENT_TRACE.with(|c| c.replace(Some(ctx)));
        SpanGuard(Some((&self.spans, span, displaced)))
    }

    /// Appends one layout event to the flight recorder, stamped with a
    /// fresh HLC tick. `subject` is formatted lazily so a disabled
    /// journal costs one branch and no allocation on the hot path.
    pub(crate) fn journal(
        &self,
        kind: JournalKind,
        subject: &dyn fmt::Display,
        object: &str,
        detail: &str,
        peer: Option<u32>,
    ) {
        if !self.journal_enabled {
            return;
        }
        // Format outside the stamp lock; only the tick+append pair needs
        // to be atomic (ring seq must be monotone in HLC per node).
        let subject = subject.to_string();
        let object = object.to_owned();
        let detail = detail.to_owned();
        {
            let _stamp = self.journal_stamp.lock();
            let hlc = self.clock.tick();
            self.journal.append(JournalEvent {
                hlc,
                core: self.node,
                seq: 0, // assigned by the ring
                kind,
                subject,
                object,
                detail,
                peer,
            });
        }
        self.journal_events_total.inc();
    }

    /// The HLC stamp for an outbound envelope: a fresh tick when
    /// journaling is on (so receive-side merges order after every event
    /// this Core recorded), nothing when it is off.
    pub(crate) fn hlc_send_stamp(&self) -> Option<Hlc> {
        self.journal_enabled.then(|| self.clock.tick())
    }

    /// Merges a remote envelope HLC into this Core's clock.
    pub(crate) fn observe_hlc(&self, remote: Hlc) {
        if self.journal_enabled {
            self.clock.observe(remote);
        }
    }

    /// The current time on the shared clock in µs, for phase stamps.
    pub(crate) fn phase_now_us(&self) -> u64 {
        self.time.now_us()
    }

    /// The send-timestamp for an outbound envelope's optional `ts`
    /// field: the current shared-clock time when phase timing is on,
    /// nothing when it is off (the field is then omitted from the wire).
    pub(crate) fn phase_send_stamp(&self) -> Option<u64> {
        self.phase_timing.then(|| self.time.now_us())
    }

    /// Records one phase duration (µs) into `hist`, gated on the
    /// phase-timing switch so the off configuration costs one branch.
    pub(crate) fn observe_phase(&self, hist: &Histogram, us: u64) {
        if self.phase_timing {
            hist.observe(us);
        }
    }
}

// --- ambient trace context ------------------------------------------------

thread_local! {
    static CURRENT_TRACE: Cell<Option<TraceContext>> = const { Cell::new(None) };
}

/// The trace context ambient on this thread, if any (set while a traced
/// complet method executes, so nested calls join the same trace).
pub(crate) fn current_trace() -> Option<TraceContext> {
    CURRENT_TRACE.with(|c| c.get())
}

/// What a new span hangs under.
pub(crate) enum SpanParent {
    /// The thread's ambient trace; a fresh root trace when there is none.
    Ambient,
    /// The context a request carried here; no span for an untraced one.
    Remote(Option<TraceContext>),
}

/// An open span (see [`CoreTelemetry::span`]): the log it closes into,
/// its record so far, and the ambient trace it displaced on this thread.
pub(crate) struct SpanGuard<'a>(Option<(&'a SpanLog, SpanRecord, Option<TraceContext>)>);

impl SpanGuard<'_> {
    /// The span's own context (what a request sent under it carries);
    /// `None` when the guard is inert.
    pub(crate) fn ctx(&self) -> Option<TraceContext> {
        let (_, span, _) = self.0.as_ref()?;
        Some(TraceContext {
            trace_id: span.trace_id,
            span_id: span.span_id,
        })
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some((log, span, displaced)) = self.0.take() {
            CURRENT_TRACE.with(|c| c.set(displaced));
            log.finish(span);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_cfg(journaling: bool) -> CoreConfig {
        CoreConfig::default()
            .with_tracing(true)
            .with_journaling(journaling)
            .with_journal_capacity(8)
    }

    #[test]
    fn ambient_trace_nests_and_restores() {
        let t = CoreTelemetry::new(Registry::new(), "c", 0, &test_cfg(true));
        assert!(current_trace().is_none());
        {
            let outer = t.span(SpanParent::Ambient, || "outer".to_owned());
            assert_eq!(current_trace(), outer.ctx());
            {
                let inner = t.span(SpanParent::Ambient, || "inner".to_owned());
                assert_eq!(current_trace(), inner.ctx());
                assert_ne!(inner.ctx(), outer.ctx());
            }
            assert_eq!(current_trace(), outer.ctx());
        }
        assert!(current_trace().is_none());
        // Both closed, the inner one first, as a child of the outer.
        let spans = t.spans.all();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent_id, spans[1].span_id);
    }

    #[test]
    fn unknown_message_kind_is_ignored() {
        let t = CoreTelemetry::new(Registry::new(), "c", 0, &test_cfg(true));
        t.record_msg_out("no_such_kind", 10);
        t.record_msg_in("invoke", 10);
        let snap = t.registry.snapshot();
        assert!(snap.iter().any(|s| s.name == "fargo_msg_in_total"));
    }

    #[test]
    fn phase_timing_gates_stamps_and_histograms() {
        let mut cfg = test_cfg(false);
        cfg.phase_timing = false;
        let off = CoreTelemetry::new(Registry::new(), "c", 0, &cfg);
        assert!(off.phase_send_stamp().is_none());
        off.observe_phase(&off.latency_queue_us, 5);
        assert_eq!(off.latency_queue_us.count(), 0);

        let on = CoreTelemetry::new(Registry::new(), "c", 0, &test_cfg(false));
        assert!(on.phase_send_stamp().is_some());
        on.observe_phase(&on.latency_queue_us, 5);
        assert_eq!(on.latency_queue_us.count(), 1);
    }

    #[test]
    fn journal_helper_records_and_gates() {
        let on = CoreTelemetry::new(Registry::new(), "c", 3, &test_cfg(true));
        on.journal(JournalKind::CompletArrived, &"c0.1", "Agent", "", Some(1));
        let snap = on.journal.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].core, 3);
        assert_eq!(snap[0].kind, JournalKind::CompletArrived);
        assert!(on.hlc_send_stamp().is_some());

        let off = CoreTelemetry::new(Registry::new(), "c", 3, &test_cfg(false));
        off.journal(JournalKind::CompletArrived, &"c0.1", "", "", None);
        assert!(off.journal.snapshot().is_empty());
        assert!(off.hlc_send_stamp().is_none());
    }
}
