//! Cross-Core trace propagation.
//!
//! A [`TraceContext`] is two `u64`s — small enough to ride in every
//! inter-Core request envelope. Each Core records the spans it executes
//! into a bounded [`SpanLog`] ring buffer; a collector gathers the logs
//! of all Cores for one trace id and [`render_span_tree`] reassembles
//! them into a text tree, so a multi-hop chained invocation or a
//! Pull-closure move is visible end to end.
//!
//! Span timestamps are microseconds since a process-wide epoch, so spans
//! recorded on different (in-process) Cores share one clock and can be
//! ordered against each other. The log reads its time through the shared
//! [`Clock`] abstraction: wall time in production, the virtual counter
//! under the deterministic checker — so span timestamps are a pure
//! function of the schedule, exactly like journal HLC stamps.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use crate::clock::Clock;

/// Identifies one request tree (`trace_id`) and the caller's position in
/// it (`span_id`); a callee records its own span with `span_id` as the
/// parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// Identifier shared by every span of one logical operation.
    pub trace_id: u64,
    /// The span that caused this request (parent for new spans).
    pub span_id: u64,
}

impl TraceContext {
    /// Starts a fresh trace with a new root span id.
    pub fn new_root() -> Self {
        TraceContext {
            trace_id: next_id(),
            span_id: next_id(),
        }
    }

    /// A context for a child operation of this one.
    pub fn child(&self) -> Self {
        TraceContext {
            trace_id: self.trace_id,
            span_id: next_id(),
        }
    }
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Allocates a process-unique non-zero id (trace or span).
pub fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds elapsed since the process-wide trace epoch.
pub fn now_micros() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// One completed span, as stored in a [`SpanLog`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Trace this span belongs to.
    pub trace_id: u64,
    /// Unique id of this span.
    pub span_id: u64,
    /// Parent span id, or 0 for a root span.
    pub parent_id: u64,
    /// Operation name (e.g. `invoke Printer.print`, `move`).
    pub name: String,
    /// Core that executed the span.
    pub core: String,
    /// Start, µs since the process trace epoch.
    pub start_us: u64,
    /// Duration in µs.
    pub duration_us: u64,
}

/// A bounded log of one Core's completed spans, grouped by trace: when
/// it is full the oldest trace is evicted whole, so recording a span and
/// reading a trace cost the same however many spans are retained.
#[derive(Debug)]
pub struct SpanLog {
    ring: Mutex<Ring>,
    capacity: usize,
    clock: Clock,
    /// The Core that executed every span held; reads stamp it on, so
    /// closing a span allocates no name.
    core: String,
}

#[derive(Debug, Default)]
struct Ring {
    traces: HashMap<u64, Vec<SpanRecord>>,
    /// Retained trace ids, ordered by their first recorded span.
    order: VecDeque<u64>,
    /// Spans retained over all traces.
    len: usize,
    last_trace: Option<u64>,
}

impl SpanLog {
    /// A wall-clock log of at most `capacity` spans, its Core unnamed.
    pub fn new(capacity: usize) -> Self {
        SpanLog::for_core("", capacity, Clock::Wall)
    }

    /// Creates the log of the Core named `core`, reading span timestamps
    /// from `clock` — the deterministic checker passes its shared virtual
    /// clock here so span start/duration become seed-stable.
    pub fn for_core(core: &str, capacity: usize, clock: Clock) -> Self {
        SpanLog {
            ring: Mutex::default(),
            capacity: capacity.max(1),
            clock,
            core: core.to_owned(),
        }
    }

    /// No update leaves the ring half-changed, so a poisoned lock (span
    /// guards also close during unwinding) is safe to keep using.
    fn ring(&self) -> MutexGuard<'_, Ring> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends a completed span (its `core` is this log's, whatever the
    /// record says). When the log is full, the oldest *entire trace* is
    /// evicted — never single spans out of the middle of a trace, which
    /// would leave orphan children rendering as broken root-less trees.
    pub fn record(&self, span: SpanRecord) {
        let mut guard = self.ring();
        let ring = &mut *guard;
        if ring.len >= self.capacity {
            let oldest = ring.order.pop_front();
            let evicted = oldest.and_then(|id| ring.traces.remove(&id));
            ring.len -= evicted.map_or(0, |trace| trace.len());
        }
        // Most traces leave one span on a Core: no room for four.
        let first = || Vec::with_capacity(1);
        let trace = ring.traces.entry(span.trace_id).or_insert_with(first);
        if trace.is_empty() {
            ring.order.push_back(span.trace_id);
        }
        ring.last_trace = Some(span.trace_id);
        trace.push(span);
        ring.len += 1;
    }

    /// Opens a span at the log's current time: a record whose duration
    /// [`finish`](Self::finish) fills in.
    pub fn start(&self, ctx: TraceContext, parent_id: u64, name: impl Into<String>) -> SpanRecord {
        SpanRecord {
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            parent_id,
            name: name.into(),
            core: String::new(),
            start_us: self.clock.now_us(),
            duration_us: 0,
        }
    }

    /// Completes a span this log started and records it, reading the end
    /// instant from the same [`Clock`] (so virtual-clock runs measure
    /// virtual durations, not host scheduling jitter).
    pub fn finish(&self, mut span: SpanRecord) {
        span.duration_us = self.clock.now_us().saturating_sub(span.start_us);
        self.record(span);
    }

    fn stamped(&self, span: &SpanRecord) -> SpanRecord {
        SpanRecord {
            core: self.core.clone(),
            ..span.clone()
        }
    }

    /// Every span currently retained: oldest trace first, each trace's
    /// spans in the order they completed.
    pub fn all(&self) -> Vec<SpanRecord> {
        let ring = self.ring();
        ring.order
            .iter()
            .flat_map(|id| &ring.traces[id])
            .map(|s| self.stamped(s))
            .collect()
    }

    /// All spans belonging to `trace_id`, in the order they completed.
    pub fn for_trace(&self, trace_id: u64) -> Vec<SpanRecord> {
        let ring = self.ring();
        let trace = ring.traces.get(&trace_id).map_or(&[][..], Vec::as_slice);
        trace.iter().map(|s| self.stamped(s)).collect()
    }

    /// The trace id of the most recently recorded span, if any.
    pub fn last_trace_id(&self) -> Option<u64> {
        self.ring().last_trace
    }

    /// Number of spans currently retained.
    pub fn len(&self) -> usize {
        self.ring().len
    }

    /// True when no spans are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Reassembles spans (typically gathered from several Cores) into an
/// indented text tree, ordered by start time.
///
/// Spans whose parent is absent from `spans` are treated as roots, so a
/// partial collection (ring buffer evictions, a Core down) still renders.
pub fn render_span_tree(spans: &[SpanRecord]) -> String {
    if spans.is_empty() {
        return "(no spans)\n".to_string();
    }
    let known: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.span_id, s)).collect();
    // Children sorted by start time; BTreeMap for deterministic traversal.
    let mut children: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
    let mut roots: Vec<&SpanRecord> = Vec::new();
    for span in spans {
        if span.parent_id != 0 && known.contains_key(&span.parent_id) {
            children.entry(span.parent_id).or_default().push(span);
        } else {
            roots.push(span);
        }
    }
    for list in children.values_mut() {
        list.sort_by_key(|s| (s.start_us, s.span_id));
    }
    roots.sort_by_key(|s| (s.start_us, s.span_id));

    let mut out = String::new();
    let base = roots.first().map(|s| s.start_us).unwrap_or(0);
    for root in &roots {
        let _ = writeln!(out, "trace {:#x}", root.trace_id);
        render_node(&mut out, root, &children, 0, base);
    }
    out
}

fn render_node(
    out: &mut String,
    span: &SpanRecord,
    children: &BTreeMap<u64, Vec<&SpanRecord>>,
    depth: usize,
    base_us: u64,
) {
    let indent = "  ".repeat(depth + 1);
    let _ = writeln!(
        out,
        "{indent}{name} @{core}  +{offset}us {dur}us",
        name = span.name,
        core = span.core,
        offset = span.start_us.saturating_sub(base_us),
        dur = span.duration_us,
    );
    if let Some(kids) = children.get(&span.span_id) {
        for kid in kids {
            render_node(out, kid, children, depth + 1, base_us);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u64, id: u64, parent: u64, name: &str, core: &str, start: u64) -> SpanRecord {
        SpanRecord {
            trace_id: trace,
            span_id: id,
            parent_id: parent,
            name: name.into(),
            core: core.into(),
            start_us: start,
            duration_us: 5,
        }
    }

    #[test]
    fn ids_are_unique_and_nonzero() {
        let a = next_id();
        let b = next_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
        let root = TraceContext::new_root();
        let child = root.child();
        assert_eq!(root.trace_id, child.trace_id);
        assert_ne!(root.span_id, child.span_id);
    }

    #[test]
    fn ring_buffer_evicts_oldest_trace_wholesale() {
        // Capacity 3 holding two traces: overflow drops trace 1
        // entirely (both spans), never just its head.
        let log = SpanLog::new(3);
        log.record(span(1, 1, 0, "root", "c", 0));
        log.record(span(1, 2, 1, "child", "c", 5));
        log.record(span(2, 3, 0, "other", "c", 10));
        log.record(span(2, 4, 3, "other-child", "c", 15));
        assert!(
            log.for_trace(1).is_empty(),
            "evicted trace leaves no orphans"
        );
        assert_eq!(log.for_trace(2).len(), 2);
    }

    #[test]
    fn eviction_never_leaves_orphan_subtrees() {
        // A parent evicted while its children survive used to render as
        // a broken tree; whole-trace eviction makes that impossible.
        let log = SpanLog::new(2);
        log.record(span(7, 1, 0, "root", "c", 0));
        log.record(span(7, 2, 1, "mid", "c", 1));
        log.record(span(8, 9, 0, "fresh", "c", 2));
        let seven = log.for_trace(7);
        assert!(seven.is_empty(), "partial trace survived: {seven:?}");
        assert_eq!(log.len(), 1);
        assert_eq!(log.last_trace_id(), Some(8));
    }

    #[test]
    fn a_long_run_retains_only_whole_traces_within_capacity() {
        // 100k spans in traces of 1..=5 through a 64-span log: the log
        // never exceeds its capacity and every trace it ends up holding
        // is whole.
        let log = SpanLog::new(64);
        let spans_in = |trace: u64| trace % 5 + 1;
        let (mut trace, mut recorded) = (0u64, 0u64);
        while recorded < 100_000 {
            trace += 1;
            for i in 0..spans_in(trace) {
                let id = trace * 10 + i;
                let parent = if i == 0 { 0 } else { trace * 10 };
                log.record(span(trace, id, parent, "op", "c", recorded));
                recorded += 1;
            }
            assert!(log.len() <= 64);
        }
        let retained: std::collections::BTreeSet<u64> =
            log.all().iter().map(|s| s.trace_id).collect();
        assert!(retained.len() > 10, "the log holds its newest traces");
        assert_eq!(log.last_trace_id(), Some(trace));
        for t in retained {
            assert_eq!(log.for_trace(t).len() as u64, spans_in(t), "trace {t}");
        }
        assert_eq!(log.all().len(), log.len());
    }

    #[test]
    fn timer_measures_and_records() {
        let log = SpanLog::for_core("core0", 8, Clock::Wall);
        let ctx = TraceContext::new_root();
        let timer = log.start(ctx, 0, "op");
        std::thread::sleep(std::time::Duration::from_millis(2));
        log.finish(timer);
        let spans = log.for_trace(ctx.trace_id);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].core, "core0");
        assert!(spans[0].duration_us >= 1_000);
        assert_eq!(log.last_trace_id(), Some(ctx.trace_id));
    }

    #[test]
    fn virtual_clock_makes_span_timing_deterministic() {
        let clock = Clock::new_virtual(1_000);
        let log = SpanLog::for_core("core0", 8, clock.clone());
        let ctx = TraceContext::new_root();
        let timer = log.start(ctx, 0, "op");
        clock.advance(std::time::Duration::from_micros(250));
        log.finish(timer);
        let spans = log.for_trace(ctx.trace_id);
        assert_eq!(spans[0].start_us, 1_000);
        assert_eq!(spans[0].duration_us, 250, "duration reads virtual time");
        // Real time must not leak in.
        std::thread::sleep(std::time::Duration::from_millis(2));
        let t2 = log.start(ctx.child(), ctx.span_id, "op2");
        log.finish(t2);
        let spans = log.for_trace(ctx.trace_id);
        assert_eq!(spans[1].start_us, 1_250);
        assert_eq!(spans[1].duration_us, 0);
    }

    #[test]
    fn tree_renders_nested_structure() {
        let spans = vec![
            span(9, 1, 0, "invoke a.m", "core0", 0),
            span(9, 2, 1, "exec a.m", "core1", 10),
            span(9, 3, 2, "invoke b.n", "core1", 12),
            span(9, 4, 3, "exec b.n", "core2", 20),
        ];
        let text = render_span_tree(&spans);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "trace 0x9");
        assert!(lines[1].starts_with("  invoke a.m @core0"));
        assert!(lines[2].starts_with("    exec a.m @core1"));
        assert!(lines[3].starts_with("      invoke b.n @core1"));
        assert!(lines[4].starts_with("        exec b.n @core2"));
    }

    #[test]
    fn orphan_spans_render_as_roots() {
        let spans = vec![span(9, 5, 99, "late", "core3", 50)];
        let text = render_span_tree(&spans);
        assert!(text.contains("late @core3"));
    }
}
