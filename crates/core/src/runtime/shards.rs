//! The sharded location service: Core-side integration of `fargo-naming`.
//!
//! The one authority on where a complet lives: each complet id is
//! consistent-hashed to an *owning* Core whose
//! [`fargo_naming::LocationShard`] holds the authoritative `(node,
//! move_epoch)` entry for it. A layout change publishes once, to the
//! owner (locally or as a directed [`Notify::ShardDelta`], which is
//! also the handoff vehicle); nothing is broadcast. Every Core's
//! tracker table is a hint cache — the only one — that learns from the
//! replies passing it (§3.1) or from a descriptor it was handed, and a
//! caller at a dead end asks the shard (`shard_consult`). Resolution
//! ([`Core::locate_explain`]) goes cache → shard → chain walk, with a
//! stale cache detected by a move-epoch mismatch and repaired in place.

use std::collections::BTreeMap;

use fargo_naming::{ApplyOutcome, HashRing, ShardEntry};
use fargo_telemetry::JournalKind;
use fargo_wire::CompletId;

use crate::error::{FargoError, Result};
use crate::proto::{DeltaTuple, Notify, Reply, Request};
use crate::reference::tracker::TrackerTarget;
use crate::runtime::{Core, MAX_HOPS};

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
    /// The tracker chain was walked, `WhereIs` hop by hop.
    Chain,
}

impl ResolveVia {
    /// Short label for shell output and test assertions.
    pub fn label(self) -> &'static str {
        match self {
            ResolveVia::Hosted => "hosted",
            ResolveVia::Cache => "cache",
            ResolveVia::Shard => "shard",
            ResolveVia::Chain => "chain",
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
    /// Whether the sharded location service is active on this Core.
    pub(crate) fn naming_enabled(&self) -> bool {
        self.inner.config.naming_shards
    }

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
        let members: Vec<u32> = self
            .inner
            .net
            .node_ids()
            .iter()
            .map(|n| n.index())
            .collect();
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
        if !self.naming_enabled() {
            return;
        }
        self.inner.telemetry.naming_publishes_total.inc();
        let Some(owner) = self.ring_owner(id) else {
            return;
        };
        if owner == self.inner.node.index() {
            self.apply_shard_delta(id, ShardEntry { node, epoch, alive });
        } else {
            let entries = vec![(id, node, epoch, alive)];
            let _ = self.send_notify(owner, &Notify::ShardDelta { entries });
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

    /// Consults the owning location shard for `id`: the local shard when
    /// this Core owns it (0 hops), otherwise one `LocateQuery` round
    /// trip. Returns `(node, epoch, hops)` for a live entry, `None` for
    /// no entry / a tombstone / naming disabled / owner unreachable.
    ///
    /// Without a live entry — the owner restarted without its slice, or
    /// a one-way publish was lost — it asks every peer whether it hosts
    /// `id` (one `WhereIs` each, the answer at epoch 0): the last resort,
    /// paid only where a lookup would otherwise dead-end.
    pub(crate) fn shard_consult(&self, id: CompletId) -> Option<(u32, u64, u32)> {
        if !self.naming_enabled() {
            return None;
        }
        let owner = self.ring_owner(id)?;
        let entry = if owner == self.inner.node.index() {
            let e = self.inner.shard.lookup(id);
            e.filter(|e| e.alive).map(|e| (e.node, e.epoch, 0))
        } else {
            match self.rpc(owner, Request::LocateQuery { id }) {
                Ok(Reply::LocateOk {
                    node: Some(n),
                    epoch,
                }) => Some((n, epoch, 1)),
                _ => None,
            }
        };
        entry.or_else(|| {
            let answers = self.ask_peers(&Request::WhereIs { id });
            answers.into_iter().find_map(|(n, reply)| match reply {
                Reply::WhereOk { node: Some(host) } if host == n => Some((n, 0, 1)),
                _ => None,
            })
        })
    }

    /// The local hint for `id`: the tracker's forward and the move epoch
    /// it was learned at, unless it points at this Core itself.
    fn tracker_hint(&self, id: CompletId) -> Option<(u32, u64)> {
        match self.inner.trackers.peek_with_epoch(id) {
            Some((TrackerTarget::Forward(n), e)) if n != self.inner.node.index() => Some((n, e)),
            _ => None,
        }
    }

    /// Resolves a complet's current host and reports how: local slot →
    /// hint cache → owning shard → tracker-chain walk. The shard answer
    /// also repairs a stale cache in place (epoch mismatch), so the next
    /// resolution short-circuits.
    ///
    /// # Errors
    ///
    /// Fails when no layer admits to knowing the complet, or the chain
    /// walk exhausts [`MAX_HOPS`].
    pub fn locate_explain(&self, id: CompletId) -> Result<LocateReport> {
        let me = self.inner.node.index();
        let t = &self.inner.telemetry;
        t.naming_lookups_total.inc();
        if self.hosts(id) {
            t.naming_lookup_hops.observe(0);
            return Ok(LocateReport {
                node: me,
                via: ResolveVia::Hosted,
                hops: 0,
                epoch: self.current_move_epoch(id),
            });
        }
        let hint = self.tracker_hint(id);
        if let Some((node, epoch, shard_hops)) = self.shard_consult(id) {
            let via = match hint {
                // The cache already knew at least this incarnation; the
                // shard merely confirmed it.
                Some((hn, he)) if hn == node && he >= epoch => ResolveVia::Cache,
                // The cache was behind (or empty): adopt the shard's
                // belief so the next lookup is local.
                _ => {
                    if hint.is_some() {
                        t.naming_repairs_total.inc();
                    }
                    self.learn_location(id, node, epoch);
                    ResolveVia::Shard
                }
            };
            if node != me {
                t.naming_lookup_hops.observe(u64::from(shard_hops));
                return Ok(LocateReport {
                    node,
                    via,
                    hops: shard_hops,
                    epoch,
                });
            }
            // The shard says "here" but the slot is gone: a departure is
            // mid-flight and the shard has not heard yet. Fall through to
            // the chain, whose forward was repointed before our slot was
            // released.
            return self.chain_walk(id, hint, shard_hops);
        }
        self.chain_walk(id, hint, 0)
    }

    /// The demoted resolution path (and the only one in the chains
    /// ablation): walk `WhereIs` answers tracker by tracker, from the
    /// local hint — or, lacking one, from the head of the chain, the
    /// Core the complet was created on — until some Core claims the
    /// complet. `spent` seeds the hop count with round trips the caller
    /// already paid.
    fn chain_walk(
        &self,
        id: CompletId,
        hint: Option<(u32, u64)>,
        spent: u32,
    ) -> Result<LocateReport> {
        let me = self.inner.node.index();
        let t = &self.inner.telemetry;
        let mut cur = match hint {
            Some((n, _)) => n,
            None => id.origin,
        };
        if cur == me {
            // No outbound hint and the trail leads to ourselves: nothing
            // left to ask.
            return Err(FargoError::UnknownComplet(id));
        }
        let mut hops = spent;
        for _ in 0..MAX_HOPS {
            hops += 1;
            match self.rpc(cur, Request::WhereIs { id })? {
                Reply::WhereOk { node: Some(n) } => {
                    if n == cur {
                        t.naming_lookup_hops.observe(u64::from(hops));
                        return Ok(LocateReport {
                            node: n,
                            via: ResolveVia::Chain,
                            hops,
                            epoch: hint.map(|(_, e)| e).unwrap_or(0),
                        });
                    }
                    cur = n;
                }
                Reply::WhereOk { node: None } => return Err(FargoError::UnknownComplet(id)),
                Reply::Err(e) => return Err(e),
                other => return Err(FargoError::Protocol(format!("unexpected reply {other:?}"))),
            }
        }
        Err(FargoError::HopLimit(MAX_HOPS))
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
