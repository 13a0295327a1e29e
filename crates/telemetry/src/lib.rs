//! Dependency-free telemetry for FarGo-RS.
//!
//! Six modules, all built on `std` only:
//!
//! * [`metrics`] — a registry of lock-free counters, gauges, and
//!   fixed-bucket histograms, registered by name + labels, snapshottable,
//!   and renderable in Prometheus text exposition format. Handles are
//!   cheap `Arc` clones: the hot path touches a single `AtomicU64`
//!   (a few per histogram), never the registry lock.
//! * [`trace`] — cross-Core trace propagation: a [`TraceContext`] small
//!   enough to ride in every inter-Core request envelope, a bounded
//!   per-Core span ring buffer, and a renderer that reassembles spans
//!   gathered from many Cores into one text span tree.
//! * [`journal`] — the distributed flight recorder: a bounded per-Core
//!   ring of structured layout events stamped with a hybrid logical
//!   clock ([`journal::Hlc`]) that piggybacks on every inter-Core
//!   envelope, so per-Core journals merge into one causally-consistent
//!   timeline, reconstructable into a [`journal::LayoutHistory`].
//! * [`clock`] — the [`Clock`] every protocol deadline reads: wall time
//!   in production, a shared virtual counter under the deterministic
//!   checker (`fargo-check`), so one seed replays to one journal.
//! * [`tail`] — tail-based trace retention: a bounded [`SlowLog`] that
//!   keeps full span trees only for the slowest requests, with a
//!   self-adjusting admission threshold (top-K by latency).
//! * [`account`] — per-complet resource accounting bounded by a
//!   Space-Saving heavy-hitter sketch, and the cell type and renderer
//!   of the Core↔Core traffic matrix (whose counts are the network's
//!   link statistics, not kept here).
//!
//! Thresholds are not evaluated here: SLO rules are the Core's monitor
//! services plus layout-script rules (see `fargo-shell`'s `health`).
//!
//! The crate deliberately has no dependencies (not even in-workspace
//! ones) so every layer that records — the transport (`fargo-net`), the
//! Core, the checker and the benchmark — can use it without cycles.

pub mod account;
pub mod clock;
pub mod journal;
pub mod metrics;
pub mod tail;
pub mod trace;

pub use account::{render_matrix, AccountKey, AccountRecord, Accountant, MatrixCell};
pub use clock::Clock;
pub use journal::{
    merge_timelines, render_journal_json, Anomaly, AnomalyThresholds, Hlc, HlcClock, Journal,
    JournalEvent, JournalKind, LayoutHistory, LayoutState,
};
pub use metrics::{
    quantile_from_cumulative, render_snapshots_json, Counter, Gauge, Histogram, MetricValue,
    Registry, Snapshot, WindowedHistogram, BUCKETS_BYTES, BUCKETS_COUNT, BUCKETS_LATENCY_US,
};
pub use tail::{render_slow_log, SlowLog, SlowRecord};
pub use trace::{render_span_tree, SpanLog, SpanRecord, TraceContext};
