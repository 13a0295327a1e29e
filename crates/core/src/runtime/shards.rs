//! The sharded location service: Core-side integration of `fargo-naming`.
//!
//! The one authority on where a complet lives: each complet id is
//! consistent-hashed to an *owning* Core whose
//! [`fargo_naming::LocationShard`] holds the authoritative `(node,
//! move_epoch)` entry for it. A layout change publishes once, to the
//! owner (locally or as a directed [`Notify::ShardDelta`], which is
//! also the handoff vehicle); nothing is broadcast. A move's entries
//! are applied by whichever party to the move owns their slice — the
//! destination as it installs, the source once the commit returns, the
//! requester from the host's answer — so only an owner outside the move
//! is sent a delta, by the source, and nothing names the destination
//! before it installs (an unanswered commit aside). Every Core's
//! tracker table is a hint cache — the only one — that learns from the
//! replies passing it (§3.1) or from a descriptor it was handed, and a
//! caller at a dead end asks the resolver (`shard_consult`). Where a
//! complet is has one question, [`Request::LocateQuery`]: asked of the
//! owner first, then of each peer in turn when the owner has no live
//! answer. A stale cache is detected by a move-epoch mismatch and
//! repaired in place.

use std::collections::BTreeMap;

use fargo_naming::{ApplyOutcome, HashRing, ShardEntry};
use fargo_telemetry::JournalKind;
use fargo_wire::CompletId;

use crate::error::{FargoError, Result};
use crate::proto::{DeltaTuple, Notify, Reply, Request};
use crate::reference::tracker::TrackerTarget;
use crate::runtime::Core;

/// Virtual nodes per Core on the consistent-hash ring; more vnodes
/// spread ownership more evenly and shrink handoffs on membership change.
pub(crate) const NAMING_VNODES: usize = 16;

/// How a [`Core::locate_explain`] resolution found its answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolveVia {
    /// The complet lives on the asking Core.
    Hosted,
    /// The local tracker already pointed at the current host at an
    /// epoch at least the shard's; the shard merely confirmed it.
    Cache,
    /// The owning location shard answered (locally or in one hop).
    Shard,
    /// The owner had no live answer; a peer asked in turn named itself.
    Peers,
}

impl ResolveVia {
    /// Short label for shell output and test assertions.
    pub fn label(self) -> &'static str {
        match self {
            ResolveVia::Hosted => "hosted",
            ResolveVia::Cache => "cache",
            ResolveVia::Shard => "shard",
            ResolveVia::Peers => "peers",
        }
    }
}

/// The result of [`Core::locate_explain`]: where the complet is, how the
/// resolution got there, and what it cost.
#[derive(Debug, Clone, Copy)]
pub struct LocateReport {
    /// Node index of the Core hosting the complet.
    pub node: u32,
    /// Which layer of the resolution stack produced the answer.
    pub via: ResolveVia,
    /// Network round trips spent resolving.
    pub hops: u32,
    /// Move epoch of the winning belief (0 = never moved / unknown).
    pub epoch: u64,
}

impl Core {
    /// The Core owning `id`'s slice of the location ring, refreshing the
    /// ring first if cluster membership changed since it was built.
    /// Refreshing hands off entries this Core no longer owns, so the
    /// authoritative copy follows the ring.
    pub(crate) fn ring_owner(&self, id: CompletId) -> Option<u32> {
        self.naming_rebalance();
        self.inner.ring.lock().owner_of(id)
    }

    /// Rebuilds the ring when membership changed, handing off the shard
    /// entries this Core no longer owns. Every owner lookup and every
    /// monitor tick call it; public so tests and tools can drive it with
    /// the monitor parked. Returns how many entries were handed off to
    /// new owners (0 when nothing changed).
    pub fn naming_rebalance(&self) -> usize {
        let members = self.member_indices();
        let rebuilt = {
            let mut ring = self.inner.ring.lock();
            if !ring.membership_changed(&members) {
                return 0;
            }
            *ring = HashRing::new(&members, NAMING_VNODES);
            ring.clone()
        };
        self.shard_handoff(&rebuilt)
    }

    /// Streams every shard entry the rebuilt ring assigns elsewhere to
    /// its new owner (grouped per owner into one `ShardDelta` notify).
    fn shard_handoff(&self, ring: &HashRing) -> usize {
        let me = self.inner.node.index();
        let lost = self.inner.shard.drain_not_owned(ring, me);
        if lost.is_empty() {
            return 0;
        }
        self.inner
            .telemetry
            .naming_handoffs_total
            .add(lost.len() as u64);
        let mut by_owner: BTreeMap<u32, Vec<DeltaTuple>> = BTreeMap::new();
        for (id, e) in &lost {
            if let Some(owner) = ring.owner_of(*id) {
                by_owner
                    .entry(owner)
                    .or_default()
                    .push((*id, e.node, e.epoch, e.alive));
            }
        }
        for (owner, entries) in by_owner {
            let _ = self.send_notify(owner, &Notify::ShardDelta { entries });
        }
        lost.len()
    }

    /// Publishes one location fact to its owning shard: applied locally
    /// when this Core owns the id, otherwise sent as a directed delta.
    /// `alive = false` publishes a tombstone (release).
    pub(crate) fn publish_location(&self, id: CompletId, node: u32, epoch: u64, alive: bool) {
        self.inner.telemetry.naming_publishes_total.inc();
        let delta = (id, node, epoch, alive);
        match self.apply_if_owned(delta) {
            Some(owner) if owner != self.inner.node.index() => {
                let entries = vec![delta];
                let _ = self.send_notify(owner, &Notify::ShardDelta { entries });
            }
            _ => {}
        }
    }

    /// Applies one location delta to the local shard when this Core owns
    /// its slice, and returns the owner either way.
    pub(crate) fn apply_if_owned(&self, (id, node, epoch, alive): DeltaTuple) -> Option<u32> {
        let owner = self.ring_owner(id)?;
        if owner == self.inner.node.index() {
            self.apply_shard_delta(id, ShardEntry { node, epoch, alive });
        }
        Some(owner)
    }

    /// Publishes where a committed move stream went, `(id, dest, epoch)`
    /// per complet, so that each entry is applied by exactly one party to
    /// the move: the destination applied the slices it owns when it
    /// installed, `requester` applies its own from the answer, this Core
    /// applies its own here, and every other owner gets one `ShardDelta`.
    /// `requester` is `None` when no answer reaches another Core: the
    /// move was issued here, or its commit went unanswered.
    pub(crate) fn publish_departures(
        &self,
        placed: &[(CompletId, u32, u64)],
        dest: u32,
        requester: Option<u32>,
    ) {
        let me = self.inner.node.index();
        let mut by_owner: BTreeMap<u32, Vec<DeltaTuple>> = BTreeMap::new();
        for &(id, node, epoch) in placed {
            self.inner.telemetry.naming_publishes_total.inc();
            let delta = (id, node, epoch, true);
            match self.apply_if_owned(delta) {
                Some(owner) if owner != me && owner != dest && Some(owner) != requester => {
                    by_owner.entry(owner).or_default().push(delta);
                }
                _ => {}
            }
        }
        for (owner, entries) in by_owner {
            let _ = self.send_notify(owner, &Notify::ShardDelta { entries });
        }
    }

    /// Learns where a move this Core asked for put its complets — the
    /// `(id, dest, epoch)` entries of the host's answer: the trackers
    /// here repoint, so the next move of the same complet goes straight
    /// to its host, and the entries of the slices this Core owns are
    /// applied (the host left them to it; the destination applied its
    /// own when it installed).
    pub(crate) fn learn_departures(&self, placed: &[(CompletId, u32, u64)]) {
        for &(id, node, epoch) in placed {
            self.learn_location(id, node, epoch);
            if node != self.inner.node.index() {
                self.apply_if_owned((id, node, epoch, true));
            }
        }
    }

    /// Applies one delta to the local authoritative shard under the
    /// epoch guard. An accepted entry is journaled (`shard_apply`:
    /// subject = complet, object = node or "gone", detail = epoch); a
    /// republish of what the shard already holds changes nothing and
    /// stays silent.
    pub(crate) fn apply_shard_delta(&self, id: CompletId, e: ShardEntry) -> ApplyOutcome {
        let out = self.inner.shard.apply(id, e);
        if out == ApplyOutcome::Applied {
            let object = if e.alive {
                e.node.to_string()
            } else {
                "gone".to_owned()
            };
            self.inner.telemetry.journal(
                JournalKind::ShardApplied,
                &id,
                &object,
                &e.epoch.to_string(),
                Some(e.node),
            );
        }
        out
    }

    /// Handles a directed [`Notify::ShardDelta`]: entries this Core owns
    /// are applied; entries the ring assigns elsewhere (handoff overlap
    /// or a peer's momentarily older ring) are forwarded to their owner.
    /// Rings are pure functions of membership, so forwarding terminates
    /// as soon as the views agree.
    pub(crate) fn absorb_shard_publishes(&self, entries: Vec<DeltaTuple>) {
        let me = self.inner.node.index();
        let t = &self.inner.telemetry;
        t.naming_deltas_in_total.add(entries.len() as u64);
        let mut forward: BTreeMap<u32, Vec<DeltaTuple>> = BTreeMap::new();
        for (id, node, epoch, alive) in entries {
            match self.ring_owner(id) {
                Some(owner) if owner == me => {
                    self.apply_shard_delta(id, ShardEntry { node, epoch, alive });
                }
                Some(owner) => {
                    forward
                        .entry(owner)
                        .or_default()
                        .push((id, node, epoch, alive));
                }
                None => {}
            }
        }
        for (owner, entries) in forward {
            let _ = self.send_notify(owner, &Notify::ShardDelta { entries });
        }
    }

    /// This Core's answer to a [`Request::LocateQuery`] for `id`: itself
    /// and its move epoch when it hosts `id`, otherwise its shard slice's
    /// entry. `None` covers no entry, a tombstone, and an entry naming
    /// this Core while it has no slot for `id` — a departure in flight.
    /// The epoch rides back either way so the asker can rank hints.
    ///
    /// A host's epoch is its local tracker's: the epoch the complet
    /// arrived at. The move counter runs ahead of it while a departure is
    /// in flight, and that epoch belongs to the destination's copy — paired
    /// with this Core, it would outrank the destination's own tracker.
    pub(crate) fn locate_answer(&self, id: CompletId) -> (Option<u32>, u64) {
        let me = self.inner.node.index();
        if let Some((TrackerTarget::Local, epoch)) = self.inner.trackers.peek_with_epoch(id) {
            if self.hosts(id) {
                return (Some(me), epoch);
            }
        }
        match self.inner.shard.lookup(id) {
            Some(e) if e.alive && e.node != me => (Some(e.node), e.epoch),
            Some(e) => (None, e.epoch),
            None => (None, 0),
        }
    }

    /// Asks `node` where `id` is: answered here when `node` is this Core,
    /// otherwise in one round trip, which `hops` counts. An unreachable
    /// or confused peer is an answer of `None`.
    fn ask_locate(&self, node: u32, id: CompletId, hops: &mut u32) -> (Option<u32>, u64) {
        if node == self.inner.node.index() {
            return self.locate_answer(id);
        }
        *hops += 1;
        match self.rpc(node, Request::LocateQuery { id }) {
            Ok(Reply::LocateOk { node, epoch }) => (node, epoch),
            _ => (None, 0),
        }
    }

    /// The one resolver, behind [`Core::locate_explain`] and invocation's
    /// dead ends. It asks the ring owner of `id` first (locally when this
    /// Core owns it). Without a live answer — the owner restarted without
    /// its slice, or a one-way publish was lost — it asks each other peer
    /// in node order and stops at the first that names itself.
    /// An owner naming `dead_end`, a Core the caller just found without
    /// the complet, is asked past in the same way, and is the answer only
    /// when no peer names itself (the complet may be on its way there).
    /// The report carries the answer's move epoch and every round trip
    /// spent; `None` when nobody knows.
    pub(crate) fn shard_consult(
        &self,
        id: CompletId,
        dead_end: Option<u32>,
    ) -> Option<LocateReport> {
        let me = self.inner.node.index();
        let owner = self.ring_owner(id)?;
        let mut hops = 0;
        let mut named = None;
        if let (Some(node), epoch) = self.ask_locate(owner, id, &mut hops) {
            if node != me {
                let via = ResolveVia::Shard;
                let report = LocateReport {
                    node,
                    via,
                    hops,
                    epoch,
                };
                if Some(node) != dead_end {
                    return Some(report);
                }
                named = Some(report);
            }
        }
        let peers = self.member_indices().into_iter();
        for peer in peers.filter(|&n| n != me && n != owner) {
            if let (Some(node), epoch) = self.ask_locate(peer, id, &mut hops) {
                if node == peer {
                    return Some(LocateReport {
                        node,
                        via: ResolveVia::Peers,
                        hops,
                        epoch,
                    });
                }
            }
        }
        named.map(|r| LocateReport { hops, ..r })
    }

    /// The local hint for `id`: the tracker's forward and the move epoch
    /// it was learned at, unless it points at this Core itself.
    pub(crate) fn tracker_hint(&self, id: CompletId) -> Option<(u32, u64)> {
        match self.inner.trackers.peek_with_epoch(id) {
            Some((TrackerTarget::Forward(n), e)) if n != self.inner.node.index() => Some((n, e)),
            _ => None,
        }
    }

    /// Resolves a complet's current host and reports how: local slot →
    /// the resolver (`shard_consult`). An answer the hint cache
    /// already held at least as fresh is reported as `Cache`; any other
    /// repairs the cache in place, so the next resolution is local.
    ///
    /// # Errors
    ///
    /// [`FargoError::UnknownComplet`] when neither the owner nor any peer
    /// admits to knowing the complet.
    pub fn locate_explain(&self, id: CompletId) -> Result<LocateReport> {
        let t = &self.inner.telemetry;
        t.naming_lookups_total.inc();
        if self.hosts(id) {
            t.naming_lookup_hops.observe(0);
            return Ok(LocateReport {
                node: self.inner.node.index(),
                via: ResolveVia::Hosted,
                hops: 0,
                epoch: self.current_move_epoch(id),
            });
        }
        let hint = self.tracker_hint(id);
        let mut report = self
            .shard_consult(id, None)
            .ok_or(FargoError::UnknownComplet(id))?;
        t.naming_lookup_hops.observe(u64::from(report.hops));
        match hint {
            // The cache already knew at least this incarnation; the owner
            // merely confirmed it.
            Some((node, epoch)) if node == report.node && epoch >= report.epoch => {
                if report.via == ResolveVia::Shard {
                    report.via = ResolveVia::Cache;
                }
            }
            // The cache was behind (or empty): adopt the answer.
            _ => {
                if hint.is_some() {
                    t.naming_repairs_total.inc();
                }
                self.learn_location(id, report.node, report.epoch);
            }
        }
        Ok(report)
    }

    /// Resolves a complet's current host (see [`Core::locate_explain`]
    /// for the how).
    ///
    /// # Errors
    ///
    /// Fails when no Core admits to knowing the complet.
    pub fn locate(&self, id: CompletId) -> Result<u32> {
        self.locate_explain(id).map(|r| r.node)
    }

    /// Current size of this Core's authoritative shard:
    /// `(total entries, live entries)`.
    pub fn naming_shard_size(&self) -> (usize, usize) {
        let total = self.inner.shard.len();
        let alive = self.inner.shard.alive().len();
        (total, alive)
    }

    /// The live entries of the authoritative shard at `node` — `(id,
    /// host, epoch)` triples; this Core's own shard when `node` is
    /// itself. The union across all Cores is the cluster's placement in
    /// one RPC per Core, however many complets each Core hosts.
    ///
    /// # Errors
    ///
    /// Fails when the peer is unknown or unreachable.
    pub fn shard_live_at(&self, node: u32) -> Result<Vec<(CompletId, u32, u64)>> {
        if node == self.inner.node.index() {
            return Ok(self
                .inner
                .shard
                .alive()
                .into_iter()
                .map(|(id, e)| (id, e.node, e.epoch))
                .collect());
        }
        match self.rpc(node, Request::ShardList)? {
            Reply::ShardEntries { entries } => Ok(entries),
            Reply::Err(e) => Err(e),
            other => Err(FargoError::Protocol(format!("unexpected reply {other:?}"))),
        }
    }
}
