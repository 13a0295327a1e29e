//! The distributed flight recorder: a bounded per-Core journal of layout
//! events, each stamped with a hybrid logical clock (HLC).
//!
//! FarGo's monitoring subsystem (§4 of the paper) exists so layout
//! decisions can be *explained*: which complet moved where, why a
//! reference chain grew, what the planner decided. Counters and spans
//! answer "how much" and "which call"; the journal answers "in what
//! order did the layout change" — it never records a call, so the
//! history a Core retains does not shrink with the traffic it serves.
//! Every layout-changing path appends a [`JournalEvent`], and
//! because the HLC piggybacks on every inter-Core envelope, journals
//! pulled from different Cores merge into one causally-consistent global
//! timeline: if event `a` happened-before event `b` (same Core, or
//! connected by a message), then `a.hlc < b.hlc`.
//!
//! # Why HLC rather than Lamport clocks
//!
//! A Lamport clock also respects causality, but its values are opaque
//! counters: a merged timeline cannot be related to wall time, and two
//! causally-unrelated events may order arbitrarily far from their real
//! occurrence. The hybrid clock keeps a physical component (microseconds
//! from [`crate::trace::now_micros`], the same clock spans use) that is
//! never *behind* real time, plus a small logical counter that breaks
//! ties and preserves happened-before when physical clocks are close or
//! skewed. Timestamps therefore sort causally *and* read as times, which
//! the layout observatory needs for "layout at <hlc>" queries.
//!
//! # Bounded buffer, eviction policy
//!
//! The journal is a fixed-capacity ring: an append reserves a slot with a
//! single atomic fetch-add and overwrites the oldest event once the ring
//! wraps. Nothing blocks and nothing grows — a Core whose layout churns
//! forgets the distant past rather than stalling a move. The monotone
//! per-Core sequence number survives eviction, so a snapshot can report
//! exactly how many events have been dropped.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::{self, Write as _};
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::clock::Clock;
use crate::metrics::json_escape;

/// Logical component saturates at 16 bits (the packed-atomic clock word
/// reserves the low 16 bits for it). In practice the physical component
/// advances every microsecond, so the counter stays tiny.
const LOGICAL_MAX: u32 = 0xFFFF;

/// A hybrid logical clock timestamp: physical microseconds plus a logical
/// tie-breaker. Totally ordered; respects happened-before across Cores
/// when every message carries the sender's clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Hlc {
    /// Physical component: microseconds from the process epoch
    /// ([`crate::trace::now_micros`]), never behind the local clock.
    pub wall_us: u64,
    /// Logical component: breaks ties among events in the same
    /// microsecond and carries causality across clock skew.
    pub logical: u32,
}

impl Hlc {
    /// A timestamp strictly before every clock-produced one.
    pub const ZERO: Hlc = Hlc {
        wall_us: 0,
        logical: 0,
    };
}

impl fmt::Display for Hlc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.wall_us, self.logical)
    }
}

impl FromStr for Hlc {
    type Err = String;

    fn from_str(s: &str) -> Result<Hlc, String> {
        let (w, l) = s.split_once('.').unwrap_or((s, "0"));
        let wall_us = w
            .parse::<u64>()
            .map_err(|_| format!("bad HLC wall part {w:?}"))?;
        let logical = l
            .parse::<u32>()
            .map_err(|_| format!("bad HLC logical part {l:?}"))?;
        Ok(Hlc { wall_us, logical })
    }
}

/// One Core's hybrid logical clock. A single packed atomic word (48 bits
/// physical µs, 16 bits logical), advanced by compare-and-swap, so ticks
/// from the receiver loop and application threads never block each other.
#[derive(Debug, Default)]
pub struct HlcClock {
    state: AtomicU64,
    /// Where the physical component comes from: wall time in production,
    /// the checker's virtual counter under deterministic simulation.
    source: Clock,
}

fn pack(wall_us: u64, logical: u32) -> u64 {
    (wall_us << 16) | u64::from(logical.min(LOGICAL_MAX))
}

fn unpack(word: u64) -> (u64, u32) {
    (word >> 16, (word & u64::from(LOGICAL_MAX)) as u32)
}

impl HlcClock {
    pub fn new() -> HlcClock {
        HlcClock::default()
    }

    /// A clock whose physical component reads `source` instead of wall
    /// time. With a virtual source, timestamps are pure functions of the
    /// event order plus explicit `advance` calls.
    pub fn with_source(source: Clock) -> HlcClock {
        HlcClock {
            state: AtomicU64::new(0),
            source,
        }
    }

    /// The current value without advancing the clock.
    pub fn peek(&self) -> Hlc {
        let (wall_us, logical) = unpack(self.state.load(Ordering::Acquire));
        Hlc { wall_us, logical }
    }

    fn advance(&self, f: impl Fn(u64, u32) -> (u64, u32)) -> Hlc {
        loop {
            let cur = self.state.load(Ordering::Acquire);
            let (w, l) = unpack(cur);
            let (nw, nl) = f(w, l);
            let next = pack(nw, nl);
            if self
                .state
                .compare_exchange(cur, next, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return Hlc {
                    wall_us: nw,
                    logical: nl.min(LOGICAL_MAX),
                };
            }
        }
    }

    /// Advances for a local event (journal append or message send) and
    /// returns the new timestamp: strictly greater than every timestamp
    /// this clock handed out before.
    pub fn tick(&self) -> Hlc {
        let pt = self.source.now_us();
        self.advance(|w, l| {
            if pt > w {
                (pt, 0)
            } else {
                (w, l.saturating_add(1))
            }
        })
    }

    /// Merges a timestamp received from a remote Core (the HLC receive
    /// rule), so every local event after this one orders *after* the
    /// sender's events.
    pub fn observe(&self, remote: Hlc) -> Hlc {
        let pt = self.source.now_us();
        self.advance(|w, l| {
            if pt > w && pt > remote.wall_us {
                (pt, 0)
            } else if w > remote.wall_us {
                (w, l.saturating_add(1))
            } else if remote.wall_us > w {
                (remote.wall_us, remote.logical.saturating_add(1))
            } else {
                (w, l.max(remote.logical).saturating_add(1))
            }
        })
    }
}

/// The kinds, each with its stable wire/display name. The enum,
/// [`JournalKind::as_str`] and [`JournalKind::parse`] all come from this
/// one table, so the two directions cannot disagree.
macro_rules! journal_kinds {
    ($($(#[$doc:meta])* $kind:ident => $name:literal,)*) => {
        /// What happened, in the vocabulary of the layout subsystem.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum JournalKind {
            $($(#[$doc])* $kind,)*
        }

        impl JournalKind {
            /// Stable wire/display name.
            pub fn as_str(self) -> &'static str {
                match self {
                    $(JournalKind::$kind => $name,)*
                }
            }

            /// Inverse of [`JournalKind::as_str`].
            pub fn parse(s: &str) -> Option<JournalKind> {
                Some(match s {
                    $($name => JournalKind::$kind,)*
                    _ => return None,
                })
            }
        }
    };
}

journal_kinds! {
    /// A complet became resident on the recording Core (created here,
    /// arrived by move, or restored after a failed move).
    CompletArrived => "arrive",
    /// A complet was marshalled out of the recording Core, headed for
    /// `peer`.
    CompletDeparted => "depart",
    /// A tracker entry was created (pointing local).
    TrackerCreated => "trk_create",
    /// A tracker was repointed to forward to `peer` after a departure.
    TrackerForwarded => "trk_forward",
    /// A tracker skipped intermediate hops (chain shortening, §3.1).
    TrackerShortened => "trk_shorten",
    /// A tracker entry was retired (complet released or entry collected).
    TrackerRetired => "trk_retire",
    /// A marshal-time relocator decision for one reference.
    RelocatorDecision => "relocator",
    /// An inter-complet reference edge was observed or created.
    RefEdgeCreated => "ref_add",
    /// Reference edges involving a complet were dropped.
    RefEdgeDropped => "ref_drop",
    /// An invocation was issued through a reference. Vocabulary only: no
    /// Core emits it (a call is recorded by its spans and its call-edge
    /// row, not in the layout journal); it stays because the standing
    /// benchmark builds events with it (`benchmark/API_SURFACE.md`).
    Invoke => "invoke",
    /// A move transaction was prepared (installed-but-held at the
    /// destination, or sent by the source).
    MovePrepared => "move_prepare",
    /// A prepared move transaction was committed (activated).
    MoveCommitted => "move_commit",
    /// A prepared move transaction was aborted (held state discarded,
    /// or the source restored the departing complets).
    MoveAborted => "move_abort",
    /// A reply could not be sent back to its requester (the lost-reply
    /// half of an at-most-once exchange).
    ReplyDropped => "reply_drop",
    /// The adaptive layout planner proposed a plan (subject = plan id,
    /// object = step count, detail = predicted cost delta).
    PlanProposed => "plan_propose",
    /// One plan step was handed to the move machinery (subject = complet,
    /// object = plan id, peer = destination node).
    PlanStep => "plan_step",
    /// A planning round ended with no moves to make (subject = plan id,
    /// detail = consecutive stable rounds).
    PlanConverged => "plan_converge",
    /// A plan step failed and previously executed steps were undone
    /// (subject = complet or plan id, detail = reason).
    PlanRollback => "plan_rollback",
    /// A tracker update carrying a stale move epoch was rejected
    /// (subject = complet, object = rejected epoch, detail = current
    /// epoch, peer = the target the stale update wanted).
    TrackerStale => "trk_stale",
    /// An SLO alert edge, journaled by the action of a script rule
    /// (subject = rule name, object = "firing"/"resolved", detail = the
    /// Core it fired for and the service's average, peer = that Core).
    Alert => "alert",
    /// A location-shard entry was accepted by the recording Core's
    /// shard (subject = complet, object = the placement node or "gone"
    /// for a tombstone, detail = the move epoch of the entry).
    ShardApplied => "shard_apply",
    /// A checkpoint skipped a complet that was not at rest (subject =
    /// complet, detail = the slot state that made it unsnapshotable).
    CheckpointSkipped => "ckpt_skip",
    /// An invocation's effect was made durable before the reply left the
    /// Core (subject = complet, object = method, detail = the returned
    /// value when it is an integer). This is the event the
    /// "no acknowledged state lost" oracle audits.
    ExecAcked => "exec_ack",
    /// The write-ahead log was compacted (subject = record count kept,
    /// detail = appends folded away).
    WalCompacted => "wal_compact",
    /// A restarted Core began recovery: everything it hosted before the
    /// crash is gone until replayed (the layout observatory clears this
    /// Core's placements and trackers at this point).
    RecoveryStarted => "recovery_start",
    /// Recovery re-installed one complet from the write-ahead log
    /// (subject = complet, object = type, detail = re-install epoch).
    RecoveryReplayed => "recovered",
}

impl fmt::Display for JournalKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One journal entry. The telemetry crate stays dependency-free, so the
/// subject/object are strings (complet ids render as `cN.M`) and Cores
/// are network node indices; callers map indices to names for display.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEvent {
    /// Hybrid timestamp: the merge key of the global timeline.
    pub hlc: Hlc,
    /// Node index of the recording Core.
    pub core: u32,
    /// Monotone per-Core sequence number (survives ring eviction).
    pub seq: u64,
    pub kind: JournalKind,
    /// Primary subject, usually a complet id.
    pub subject: String,
    /// Secondary subject: type name, method, or edge-target complet id.
    pub object: String,
    /// Extra qualifier: relocator kind for edge/relocator events.
    pub detail: String,
    /// The other node involved (move destination, forward target), if any.
    pub peer: Option<u32>,
}

impl fmt::Display for JournalEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} n{} {} {}",
            self.hlc, self.core, self.kind, self.subject
        )?;
        if !self.object.is_empty() {
            write!(f, " {}", self.object)?;
        }
        if !self.detail.is_empty() {
            write!(f, " [{}]", self.detail)?;
        }
        if let Some(p) = self.peer {
            write!(f, " -> n{p}")?;
        }
        Ok(())
    }
}

/// The bounded per-Core event ring.
///
/// Appends are wait-free on the shared state: one atomic fetch-add
/// reserves a slot and the monotone counter doubles as the sequence
/// number; only the slot itself is briefly locked (each slot has its own
/// tiny mutex, uncontended except when the ring wraps onto an in-progress
/// reader). When full, the oldest event is overwritten.
pub struct Journal {
    slots: Box<[Mutex<Option<JournalEvent>>]>,
    cursor: AtomicU64,
    base: u64,
}

impl Journal {
    /// A journal holding at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Journal {
        Journal::with_base(capacity, 0)
    }

    /// A journal whose first event takes sequence number `base`.
    ///
    /// A Core starts its journal at its incarnation's base, like every
    /// id it mints, so merged timelines (deduplicated on `(core, seq)`)
    /// never conflate pre-crash and post-crash events.
    pub fn with_base(capacity: usize, base: u64) -> Journal {
        let cap = capacity.max(1);
        let slots = (0..cap).map(|_| Mutex::new(None)).collect::<Vec<_>>();
        Journal {
            slots: slots.into_boxed_slice(),
            cursor: AtomicU64::new(base),
            base,
        }
    }

    /// Appends one event, assigning its sequence number. Returns the
    /// sequence assigned.
    pub fn append(&self, mut ev: JournalEvent) -> u64 {
        let seq = self.cursor.fetch_add(1, Ordering::AcqRel);
        ev.seq = seq;
        let slot = (seq % self.slots.len() as u64) as usize;
        let mut guard = self.slots[slot]
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        *guard = Some(ev);
        seq
    }

    /// Total number of events ever appended to *this* journal instance
    /// (including evicted ones; a restart base does not count).
    pub fn appended(&self) -> u64 {
        self.cursor.load(Ordering::Acquire) - self.base
    }

    /// Number of events evicted by ring wraparound.
    pub fn dropped(&self) -> u64 {
        self.appended()
            .saturating_sub(self.slots.len() as u64)
            .min(self.appended())
    }

    /// A copy of the retained events, ordered by sequence number.
    pub fn snapshot(&self) -> Vec<JournalEvent> {
        let mut out: Vec<JournalEvent> = self
            .slots
            .iter()
            .filter_map(|s| {
                s.lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .clone()
            })
            .collect();
        out.sort_by_key(|e| e.seq);
        out
    }
}

impl fmt::Debug for Journal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Journal")
            .field("capacity", &self.slots.len())
            .field("appended", &self.appended())
            .finish()
    }
}

/// Merges per-Core journal snapshots into one global timeline, ordered by
/// (HLC, core, seq) and de-duplicated on (core, seq) so overlapping pulls
/// are harmless.
pub fn merge_timelines(batches: impl IntoIterator<Item = Vec<JournalEvent>>) -> Vec<JournalEvent> {
    let mut all: Vec<JournalEvent> = batches.into_iter().flatten().collect();
    all.sort_by_key(|a| (a.hlc, a.core, a.seq));
    all.dedup_by_key(|e| (e.core, e.seq));
    all
}

// --- the layout observatory ------------------------------------------------

/// Reconstructed cluster state at one point in the merged timeline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LayoutState {
    /// complet id -> node currently hosting it. Complets in transit
    /// (departed, not yet arrived) are absent.
    pub placement: BTreeMap<String, u32>,
    /// Inter-complet reference edges: (source, target, relocator).
    pub refs: BTreeSet<(String, String, String)>,
    /// Tracker topology: (node, complet id) -> forward target
    /// (`None` = points local).
    pub trackers: BTreeMap<(u32, String), Option<u32>>,
}

impl LayoutState {
    fn apply(&mut self, ev: &JournalEvent) {
        match ev.kind {
            JournalKind::CompletArrived => {
                self.placement.insert(ev.subject.clone(), ev.core);
            }
            JournalKind::CompletDeparted => {
                if self.placement.get(&ev.subject) == Some(&ev.core) {
                    self.placement.remove(&ev.subject);
                }
            }
            JournalKind::TrackerCreated => {
                self.trackers.insert((ev.core, ev.subject.clone()), None);
            }
            JournalKind::TrackerForwarded | JournalKind::TrackerShortened => {
                self.trackers.insert((ev.core, ev.subject.clone()), ev.peer);
            }
            JournalKind::TrackerRetired => {
                self.trackers.remove(&(ev.core, ev.subject.clone()));
            }
            JournalKind::RefEdgeCreated => {
                self.refs
                    .insert((ev.subject.clone(), ev.object.clone(), ev.detail.clone()));
            }
            JournalKind::RefEdgeDropped => {
                let s = &ev.subject;
                if ev.object == "*" {
                    self.refs.retain(|(a, b, _)| a != s && b != s);
                } else {
                    self.refs.retain(|(a, b, _)| !(a == s && *b == ev.object));
                }
            }
            JournalKind::RelocatorDecision
            | JournalKind::Invoke
            // Two-phase bookkeeping: placement only changes on the
            // arrival/departure entries, which are journaled separately.
            | JournalKind::MovePrepared
            | JournalKind::MoveCommitted
            | JournalKind::MoveAborted
            | JournalKind::ReplyDropped
            // Planner decisions are commentary on the layout, not layout.
            | JournalKind::PlanProposed
            | JournalKind::PlanStep
            | JournalKind::PlanConverged
            | JournalKind::PlanRollback
            // A rejected stale update changes nothing, by design.
            | JournalKind::TrackerStale
            // Health alerts describe the cluster, not its layout.
            | JournalKind::Alert
            // Shard entries are the naming service's *belief* about the
            // layout; ground truth stays with arrive/depart.
            | JournalKind::ShardApplied
            // Durability bookkeeping; layout changes arrive as the
            // subsequent RecoveryStarted / arrive events.
            | JournalKind::CheckpointSkipped
            | JournalKind::ExecAcked
            | JournalKind::WalCompacted
            | JournalKind::RecoveryReplayed => {}
            JournalKind::RecoveryStarted => {
                // A crash-restarted Core lost everything it hosted; the
                // survivors re-announce themselves as arrivals.
                self.placement.retain(|_, node| *node != ev.core);
                self.trackers.retain(|(node, _), _| *node != ev.core);
            }
        }
    }

    /// Follows a forwarding chain from `(node, complet)`. Returns the
    /// nodes visited (excluding the start) and whether the walk reached
    /// the complet's placement.
    pub fn chain_from(&self, node: u32, complet: &str) -> (Vec<u32>, bool) {
        let mut path = Vec::new();
        let mut cur = node;
        loop {
            if self.placement.get(complet) == Some(&cur) {
                return (path, true);
            }
            match self.trackers.get(&(cur, complet.to_owned())) {
                Some(Some(next)) if !path.contains(next) && *next != cur => {
                    path.push(*next);
                    cur = *next;
                }
                // Local tracker but not placed here (in transit), dead
                // end, or a cycle.
                _ => return (path, false),
            }
        }
    }
}

/// A layout problem surfaced by the anomaly pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Anomaly {
    /// A forwarding chain of `hops` hops from `from` to the complet.
    LongChain {
        complet: String,
        from: u32,
        hops: usize,
        path: Vec<u32>,
    },
    /// A complet bouncing between two Cores.
    PingPong {
        complet: String,
        between: (u32, u32),
        bounces: usize,
    },
    /// A tracker whose forwarding chain never reaches the complet.
    OrphanTracker { complet: String, at: u32 },
}

impl fmt::Display for Anomaly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Anomaly::LongChain {
                complet,
                from,
                hops,
                path,
            } => {
                let hopstr: Vec<String> = path.iter().map(|n| format!("n{n}")).collect();
                write!(
                    f,
                    "long-chain {complet}: {hops} hops from n{from} ({})",
                    hopstr.join(" -> ")
                )
            }
            Anomaly::PingPong {
                complet,
                between: (a, b),
                bounces,
            } => write!(
                f,
                "ping-pong {complet}: bounced n{a} <-> n{b} {bounces} times"
            ),
            Anomaly::OrphanTracker { complet, at } => {
                write!(f, "orphan-tracker {complet}: chain from n{at} dead-ends")
            }
        }
    }
}

/// Chains of at least this many hops are flagged by the anomaly pass.
pub const LONG_CHAIN_THRESHOLD: usize = 3;

/// Tunable knobs for the anomaly pass. The defaults reproduce the
/// historical hard-coded behaviour and are what the shell and the
/// observatory judge with; tests pass their own to
/// [`LayoutHistory::anomalies_with`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnomalyThresholds {
    /// Forwarding chains of at least this many hops are flagged.
    pub long_chain_hops: usize,
    /// An arrival sequence needs at least this many A-B-A returns to be
    /// flagged as ping-pong.
    pub ping_pong_returns: usize,
    /// A dead-ended tracker is only flagged once its last tracker event
    /// is at least this many microseconds older than the newest event in
    /// the timeline (0 = flag immediately, the historical behaviour).
    /// Young dead ends are usually just a move still in flight.
    pub orphan_min_age_us: u64,
}

impl Default for AnomalyThresholds {
    fn default() -> AnomalyThresholds {
        AnomalyThresholds {
            long_chain_hops: LONG_CHAIN_THRESHOLD,
            ping_pong_returns: 2,
            orphan_min_age_us: 0,
        }
    }
}

/// The merged, causally-ordered timeline plus reconstruction over it.
#[derive(Debug, Clone, Default)]
pub struct LayoutHistory {
    events: Vec<JournalEvent>,
}

impl LayoutHistory {
    /// Builds a history from any mix of per-Core snapshots; they are
    /// merged, HLC-ordered, and de-duplicated.
    pub fn from_events(events: Vec<JournalEvent>) -> LayoutHistory {
        LayoutHistory {
            events: merge_timelines([events]),
        }
    }

    /// The merged timeline, oldest first.
    pub fn events(&self) -> &[JournalEvent] {
        &self.events
    }

    /// Replays the timeline up to and including `at`, reconstructing the
    /// placement map, reference graph, and tracker topology at that
    /// instant.
    pub fn at(&self, at: Hlc) -> LayoutState {
        let mut state = LayoutState::default();
        for ev in self.events.iter().take_while(|e| e.hlc <= at) {
            state.apply(ev);
        }
        state
    }

    /// The state after the whole timeline.
    pub fn final_state(&self) -> LayoutState {
        self.events
            .last()
            .map_or_else(LayoutState::default, |last| self.at(last.hlc))
    }

    /// Flags long forwarding chains, movement ping-pong, and orphaned
    /// trackers in the final state / movement record, using the default
    /// thresholds.
    pub fn anomalies(&self) -> Vec<Anomaly> {
        self.anomalies_with(&AnomalyThresholds::default())
    }

    /// The anomaly pass with explicit thresholds.
    pub fn anomalies_with(&self, thresholds: &AnomalyThresholds) -> Vec<Anomaly> {
        let state = self.final_state();
        let mut out = Vec::new();
        let newest_us = self.events.last().map_or(0, |e| e.hlc.wall_us);
        // Last tracker activity per (node, complet), for the orphan age
        // gate: a chain that dead-ends because a move is mid-flight will
        // have fresh tracker events and should not be flagged yet.
        let mut tracker_seen: BTreeMap<(u32, &str), u64> = BTreeMap::new();
        for ev in &self.events {
            if matches!(
                ev.kind,
                JournalKind::TrackerCreated
                    | JournalKind::TrackerForwarded
                    | JournalKind::TrackerShortened
            ) {
                tracker_seen.insert((ev.core, ev.subject.as_str()), ev.hlc.wall_us);
            }
        }

        // Long chains and orphans: walk every forwarding tracker, report
        // the worst chain per complet plus any dead end.
        let complets: BTreeSet<&String> = state.trackers.keys().map(|(_, c)| c).collect();
        for complet in complets {
            let mut worst: Option<(usize, Anomaly)> = None;
            let mut orphan: Option<Anomaly> = None;
            for (n, c) in state.trackers.keys() {
                if c != complet {
                    continue;
                }
                let (path, reached) = state.chain_from(*n, complet);
                if reached {
                    let beats = worst.as_ref().is_none_or(|(hops, _)| path.len() > *hops);
                    if path.len() >= thresholds.long_chain_hops && beats {
                        worst = Some((
                            path.len(),
                            Anomaly::LongChain {
                                complet: complet.clone(),
                                from: *n,
                                hops: path.len(),
                                path,
                            },
                        ));
                    }
                } else if !path.is_empty() && orphan.is_none() {
                    let last = tracker_seen
                        .get(&(*n, complet.as_str()))
                        .copied()
                        .unwrap_or(0);
                    if newest_us.saturating_sub(last) >= thresholds.orphan_min_age_us {
                        orphan = Some(Anomaly::OrphanTracker {
                            complet: complet.clone(),
                            at: *n,
                        });
                    }
                }
            }
            out.extend(worst.map(|(_, a)| a));
            out.extend(orphan);
        }

        // Ping-pong: a complet whose arrival sequence alternates between
        // two Cores (A, B, A, ...) with at least two returns.
        let mut arrivals: BTreeMap<&str, Vec<u32>> = BTreeMap::new();
        for ev in &self.events {
            if ev.kind == JournalKind::CompletArrived {
                arrivals.entry(&ev.subject).or_default().push(ev.core);
            }
        }
        for (complet, seq) in arrivals {
            let returns = seq
                .windows(3)
                .filter(|w| w[0] == w[2] && w[0] != w[1])
                .count();
            if returns >= thresholds.ping_pong_returns.max(1) {
                let n = seq.len();
                out.push(Anomaly::PingPong {
                    complet: complet.to_string(),
                    between: (seq[n - 2].min(seq[n - 1]), seq[n - 2].max(seq[n - 1])),
                    bounces: returns,
                });
            }
        }
        out
    }
}

// --- JSON exposition -------------------------------------------------------

/// Renders a merged timeline as a JSON array, for `fargo-check` and any
/// external tooling. One object per event, stable key order.
pub fn render_journal_json(events: &[JournalEvent]) -> String {
    let mut out = String::from("[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let (hlc, core, seq, kind) = (e.hlc, e.core, e.seq, e.kind);
        let _ = write!(
            out,
            "{{\"hlc\":\"{hlc}\",\"core\":{core},\"seq\":{seq},\"kind\":\"{kind}\""
        );
        for (key, text) in [
            ("subject", &e.subject),
            ("object", &e.object),
            ("detail", &e.detail),
        ] {
            let _ = write!(out, ",\"{key}\":");
            json_escape(&mut out, text);
        }
        let _ = match e.peer {
            Some(peer) => write!(out, ",\"peer\":{peer}}}"),
            None => write!(out, ",\"peer\":null}}"),
        };
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::now_micros;

    fn ev(hlc: (u64, u32), core: u32, seq: u64, kind: JournalKind, subject: &str) -> JournalEvent {
        JournalEvent {
            hlc: Hlc {
                wall_us: hlc.0,
                logical: hlc.1,
            },
            core,
            seq,
            kind,
            subject: subject.to_owned(),
            object: String::new(),
            detail: String::new(),
            peer: None,
        }
    }

    #[test]
    fn hlc_orders_and_displays() {
        let a = Hlc {
            wall_us: 5,
            logical: 1,
        };
        let b = Hlc {
            wall_us: 5,
            logical: 2,
        };
        let c = Hlc {
            wall_us: 6,
            logical: 0,
        };
        assert!(a < b && b < c);
        assert_eq!(a.to_string(), "5.1");
        assert_eq!("5.1".parse::<Hlc>().unwrap(), a);
        assert_eq!("7".parse::<Hlc>().unwrap().wall_us, 7);
        assert!("x.y".parse::<Hlc>().is_err());
    }

    #[test]
    fn clock_ticks_strictly_monotonically() {
        let clock = HlcClock::new();
        let mut prev = clock.tick();
        for _ in 0..10_000 {
            let next = clock.tick();
            assert!(next > prev, "{next} !> {prev}");
            prev = next;
        }
    }

    #[test]
    fn observe_jumps_past_remote() {
        let clock = HlcClock::new();
        let remote = Hlc {
            wall_us: now_micros() + 1_000_000,
            logical: 7,
        };
        let merged = clock.observe(remote);
        assert!(merged > remote, "{merged} must order after {remote}");
        assert!(clock.tick() > merged);
    }

    #[test]
    fn virtual_source_makes_timestamps_deterministic() {
        let run = || {
            let clock = HlcClock::with_source(Clock::new_virtual(1_000));
            let mut out = vec![clock.tick(), clock.tick()];
            out.push(clock.observe(Hlc {
                wall_us: 2_000,
                logical: 3,
            }));
            out.push(clock.tick());
            out
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b, "same event order must give identical stamps");
        assert_eq!(a[0].wall_us, 1_000, "physical part is the virtual now");
        assert!(a[2].wall_us == 2_000 && a[2].logical == 4, "receive rule");
    }

    #[test]
    fn stale_kind_round_trips() {
        assert_eq!(
            JournalKind::parse(JournalKind::TrackerStale.as_str()),
            Some(JournalKind::TrackerStale)
        );
    }

    #[test]
    fn alert_kind_round_trips() {
        assert_eq!(
            JournalKind::parse(JournalKind::Alert.as_str()),
            Some(JournalKind::Alert)
        );
    }

    #[test]
    fn shard_apply_kind_round_trips() {
        assert_eq!(
            JournalKind::parse(JournalKind::ShardApplied.as_str()),
            Some(JournalKind::ShardApplied)
        );
    }

    #[test]
    fn durability_kinds_round_trip() {
        for kind in [
            JournalKind::CheckpointSkipped,
            JournalKind::ExecAcked,
            JournalKind::WalCompacted,
            JournalKind::RecoveryStarted,
            JournalKind::RecoveryReplayed,
        ] {
            assert_eq!(JournalKind::parse(kind.as_str()), Some(kind));
        }
    }

    #[test]
    fn journal_base_offsets_sequences() {
        let j = Journal::with_base(4, 100);
        let seq = j.append(ev((1, 0), 0, 0, JournalKind::Invoke, "c0.1"));
        assert_eq!(seq, 100);
        assert_eq!(j.appended(), 1, "base does not count as appends");
        assert_eq!(j.dropped(), 0);
        assert_eq!(j.append(ev((2, 0), 0, 0, JournalKind::Invoke, "c0.1")), 101);
    }

    #[test]
    fn recovery_start_clears_one_core() {
        let history = LayoutHistory::from_events(vec![
            ev((1, 0), 0, 0, JournalKind::CompletArrived, "c0.1"),
            ev((2, 0), 1, 0, JournalKind::CompletArrived, "c1.1"),
            ev((3, 0), 0, 1, JournalKind::RecoveryStarted, ""),
        ]);
        let state = history.final_state();
        assert!(!state.placement.contains_key("c0.1"), "crashed core wiped");
        assert_eq!(state.placement.get("c1.1"), Some(&1), "peer unaffected");
    }

    #[test]
    fn observe_stale_remote_still_advances() {
        let clock = HlcClock::new();
        let t1 = clock.tick();
        let merged = clock.observe(Hlc::ZERO);
        assert!(merged > t1);
    }

    #[test]
    fn journal_ring_evicts_oldest() {
        let j = Journal::new(4);
        for i in 0..10u64 {
            j.append(ev((i, 0), 0, 0, JournalKind::Invoke, "c0.1"));
        }
        assert_eq!(j.appended(), 10);
        assert_eq!(j.dropped(), 6);
        let snap = j.snapshot();
        assert_eq!(snap.len(), 4);
        let seqs: Vec<u64> = snap.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "oldest evicted, order kept");
    }

    #[test]
    fn merge_orders_by_hlc_and_dedups() {
        let a = vec![
            ev((10, 0), 0, 0, JournalKind::CompletDeparted, "x"),
            ev((30, 0), 0, 1, JournalKind::TrackerShortened, "x"),
        ];
        let b = vec![
            ev((20, 0), 1, 0, JournalKind::CompletArrived, "x"),
            ev((30, 0), 0, 1, JournalKind::TrackerShortened, "x"), // duplicate pull
        ];
        let merged = merge_timelines([a, b]);
        assert_eq!(merged.len(), 3);
        let kinds: Vec<JournalKind> = merged.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                JournalKind::CompletDeparted,
                JournalKind::CompletArrived,
                JournalKind::TrackerShortened
            ]
        );
    }

    #[test]
    fn layout_history_replays_placement() {
        let events = vec![
            ev((1, 0), 0, 0, JournalKind::CompletArrived, "c0.1"),
            ev((2, 0), 0, 1, JournalKind::CompletDeparted, "c0.1"),
            ev((3, 0), 1, 0, JournalKind::CompletArrived, "c0.1"),
        ];
        let h = LayoutHistory::from_events(events);
        assert_eq!(
            h.at(Hlc {
                wall_us: 1,
                logical: 0
            })
            .placement
            .get("c0.1"),
            Some(&0)
        );
        assert_eq!(
            h.at(Hlc {
                wall_us: 2,
                logical: 0
            })
            .placement
            .get("c0.1"),
            None,
            "in transit"
        );
        assert_eq!(h.final_state().placement.get("c0.1"), Some(&1));
    }

    #[test]
    fn anomaly_flags_long_chain() {
        let mut events = vec![ev((1, 0), 4, 0, JournalKind::CompletArrived, "c0.1")];
        for n in 0..4u32 {
            let mut e = ev(
                (2 + u64::from(n), 0),
                n,
                0,
                JournalKind::TrackerForwarded,
                "c0.1",
            );
            e.peer = Some(n + 1);
            events.push(e);
        }
        let h = LayoutHistory::from_events(events);
        let anomalies = h.anomalies();
        assert!(
            anomalies.iter().any(|a| matches!(
                a,
                Anomaly::LongChain {
                    hops: 4,
                    from: 0,
                    ..
                }
            )),
            "got {anomalies:?}"
        );
    }

    #[test]
    fn anomaly_flags_ping_pong_and_orphan() {
        let mut events = Vec::new();
        for (i, core) in [0u32, 1, 0, 1].iter().enumerate() {
            events.push(ev(
                (i as u64 + 1, 0),
                *core,
                i as u64,
                JournalKind::CompletArrived,
                "c0.9",
            ));
        }
        // Orphan: a tracker for a complet that is nowhere placed.
        let mut orphan = ev((9, 0), 3, 0, JournalKind::TrackerForwarded, "c9.9");
        orphan.peer = Some(4);
        events.push(orphan);
        let anomalies = LayoutHistory::from_events(events).anomalies();
        assert!(anomalies
            .iter()
            .any(|a| matches!(a, Anomaly::PingPong { bounces: 2, .. })));
        assert!(anomalies
            .iter()
            .any(|a| matches!(a, Anomaly::OrphanTracker { at: 3, .. })));
    }

    #[test]
    fn anomaly_thresholds_are_tunable() {
        // A 2-hop chain: below the default threshold, flagged at 2.
        let mut events = vec![ev((1, 0), 2, 0, JournalKind::CompletArrived, "c0.1")];
        for n in 0..2u32 {
            let mut e = ev(
                (2 + u64::from(n), 0),
                n,
                0,
                JournalKind::TrackerForwarded,
                "c0.1",
            );
            e.peer = Some(n + 1);
            events.push(e);
        }
        let h = LayoutHistory::from_events(events);
        assert!(h.anomalies().is_empty(), "default threshold is 3 hops");
        let tight = AnomalyThresholds {
            long_chain_hops: 2,
            ..AnomalyThresholds::default()
        };
        assert!(h
            .anomalies_with(&tight)
            .iter()
            .any(|a| matches!(a, Anomaly::LongChain { hops: 2, .. })));
    }

    #[test]
    fn young_orphans_respect_min_age() {
        // Tracker dead-ends at wall 100; newest event is at wall 150, so
        // the orphan is 50us old.
        let mut orphan = ev((100, 0), 3, 0, JournalKind::TrackerForwarded, "c9.9");
        orphan.peer = Some(4);
        let marker = ev((150, 0), 0, 0, JournalKind::Invoke, "c0.1");
        let h = LayoutHistory::from_events(vec![orphan, marker]);
        assert!(
            h.anomalies()
                .iter()
                .any(|a| matches!(a, Anomaly::OrphanTracker { .. })),
            "age 0 flags immediately"
        );
        let patient = AnomalyThresholds {
            orphan_min_age_us: 1_000,
            ..AnomalyThresholds::default()
        };
        assert!(
            h.anomalies_with(&patient).is_empty(),
            "a 50us-old dead end is likely a move in flight"
        );
    }

    #[test]
    fn plan_kinds_round_trip_and_do_not_disturb_state() {
        for kind in [
            JournalKind::PlanProposed,
            JournalKind::PlanStep,
            JournalKind::PlanConverged,
            JournalKind::PlanRollback,
        ] {
            assert_eq!(JournalKind::parse(kind.as_str()), Some(kind));
        }
        let events = vec![
            ev((1, 0), 0, 0, JournalKind::CompletArrived, "c0.1"),
            ev((2, 0), 0, 1, JournalKind::PlanStep, "c0.1"),
        ];
        let h = LayoutHistory::from_events(events);
        assert_eq!(h.final_state().placement.get("c0.1"), Some(&0));
    }

    #[test]
    fn journal_json_is_well_formed() {
        let mut e = ev((5, 1), 2, 3, JournalKind::CompletDeparted, "c0.1");
        e.object = "Agent\"x\"".to_owned();
        e.peer = Some(1);
        let json = render_journal_json(&[e]);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"hlc\":\"5.1\""));
        assert!(json.contains("\\\"x\\\""));
        assert!(json.contains("\"peer\":1"));
    }
}
