//! The Movement unit: relocation under layout constraints (§3.3).
//!
//! Movement marshals the moved complet's closure, applying a per-relocator
//! routine to every outgoing complet reference it detects:
//!
//! * `link` — keep tracking;
//! * `pull` — the target joins the move stream (transitively);
//! * `duplicate` — a *copy* of the target joins the stream and the moved
//!   source is re-bound to the copy;
//! * `stamp` — only the target's type travels; the destination re-binds
//!   to a local complet of that type.
//!
//! Everything that moves as a result of one request — one root's
//! closure, or the closures of every root given to `move_many` — ships
//! in **one** inter-Core message. Incoming references are preserved by
//! repointing the local trackers to the destination; outgoing references
//! are preserved because descriptors keep tracking their targets.
//!
//! A move issued away from the roots' host is one `MoveRequest` to
//! where the issuer's tracker points; only when that Core does not host
//! them does the issuer ask the authoritative `locate`. The host answers
//! where each complet went, and the issuer's trackers follow.
//!
//! The sending half is the two-phase protocol's steps, in order:
//! `marshal_closure`, the `MovePrepare` round trip, `decide`, then
//! `commit` and `finalize_departure` — or one `restore` — and the shard
//! publish of what left (`publish_departures`). Once the commit verdict
//! is recorded the source does nothing more: the destination's held-move
//! sweep (`sweep_held_moves`) is the one resolver of a move in doubt.
//!
//! A transaction is named once, by its first packet's `(id, epoch)` —
//! the first root's — minted above the source's incarnation, and a
//! destination refuses another stream under a key it holds, so no
//! restart commits a transaction its source forgot. Each side records
//! the verdict once: in its one decision log and in one `Decision`
//! record, which at the source also lists who left.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use fargo_telemetry::{JournalKind, TraceContext};
use fargo_wire::{CompletId, RefDescriptor, Value};

use crate::complet::Complet;
use crate::error::{FargoError, Result};
use crate::events::EventPayload;
use crate::proto::{CompletPacket, Continuation, MoveTxnState, Reply, Request};
use crate::reference::relocator::{ArrivalAction, MarshalAction};
use crate::reference::tracker::TrackerTarget;
use crate::reference::CompletRef;
use crate::runtime::dispatch::Job;
use crate::runtime::wal::{WalHeld, WalRecord};
use crate::runtime::{CompletSlot, Core, SlotState};
use crate::telemetry::SpanParent;

/// A complet taken out of its slot for departure.
struct Departing {
    /// The slot it was taken out of, marked in transit.
    slot: Arc<CompletSlot>,
    complet: Box<dyn Complet>,
    names: Vec<String>,
    /// The departure's move epoch (its packet's).
    epoch: u64,
}

/// What a marshaled closure leaves behind at the source until the
/// verdict (its packets travel in `MovePrepare`).
struct Closure {
    /// Taken out of their slots, first root first.
    departing: Vec<Departing>,
    /// `pull` targets hosted elsewhere: they follow with moves of their
    /// own once the closure has left.
    remote_pulls: Vec<CompletId>,
}

/// A move stream that passed `MovePrepare` validation and now waits for
/// the source's commit or abort. The complets are fully reconstructed
/// but **not** installed — invisible to invocation until committed.
pub(crate) struct HeldMove {
    /// The stream as it was logged: the source Core and one image per
    /// complet, the root's first.
    image: WalHeld,
    /// `image.packets` reconstructed, in the same order.
    complets: Vec<Box<dyn Complet>>,
    /// Invoked on the root once the stream is activated.
    continuation: Option<Continuation>,
    /// When to ask the source for its verdict, in `Clock` µs; re-armed
    /// after each unanswered query so monitor ticks don't stack resolvers.
    deadline: u64,
}

impl Core {
    /// Moves a complet (and everything its references co-locate with it)
    /// to the Core named `dest`, optionally invoking
    /// `continuation = (method, args)` on it after arrival.
    ///
    /// The complet need not be hosted here: the request goes to its
    /// current host.
    ///
    /// # Errors
    ///
    /// Fails when the destination or complet is unknown, the complet is
    /// already in transit, or the transfer fails; the complet then
    /// remains usable at its current Core. The one exception is
    /// [`FargoError::MoveInDoubt`]: the move was decided but its commit
    /// went unanswered, and the destination activates the complet — on
    /// the commit, or on its next held-move sweep.
    pub fn move_complet(
        &self,
        id: CompletId,
        dest: &str,
        continuation: Option<(String, Vec<Value>)>,
    ) -> Result<()> {
        self.move_roots(&[id], dest, continuation)
    }

    /// Moves the complets `ids`, which share one host, to the Core named
    /// `dest` as **one** transaction (keyed by the first id): one
    /// `MovePrepare` carries all their closures, and they commit or abort
    /// as a unit. The request goes to the host of the first.
    ///
    /// # Errors
    ///
    /// As [`Core::move_complet`]; [`FargoError::UnknownComplet`] when one
    /// of `ids` is not hosted where the first is.
    pub fn move_many(&self, ids: &[CompletId], dest: &str) -> Result<()> {
        self.move_roots(ids, dest, None)
    }

    /// The one move path: the sending half when this Core hosts the first
    /// root, else a `MoveRequest` to where its tracker points, and only
    /// when that Core does not host it the authoritative `locate`.
    fn move_roots(
        &self,
        roots: &[CompletId],
        dest: &str,
        continuation: Option<(String, Vec<Value>)>,
    ) -> Result<()> {
        let (dest, me) = (self.core_index(dest)?, self.inner.node.index());
        let Some(&root) = roots.first() else {
            return Ok(());
        };
        if self.hosts(root) {
            return self.move_hosted(roots, dest, continuation, None).map(drop);
        }
        // The host's answer names where each complet went: the trackers
        // here follow, so the next move goes straight to the host.
        let ask = |host, ids| match self.rpc(host, Request::MoveRequest { ids, dest })? {
            Reply::ShardEntries { entries } => {
                self.learn_departures(&entries);
                Ok(())
            }
            Reply::Err(e) => Err(e),
            other => Err(FargoError::Protocol(format!("unexpected reply {other:?}"))),
        };
        if let Some((hint, _)) = self.tracker_hint(root) {
            // A hint that does not host the root, or a send that never
            // left, falls back to the authority.
            match ask(hint, roots.to_vec()) {
                Err(FargoError::UnknownComplet(id)) if id == root => {}
                Err(FargoError::Net(_)) => {}
                done => return done,
            }
        }
        match self.locate(root)? {
            host if host == me => Err(FargoError::UnknownComplet(root)),
            host => ask(host, roots.to_vec()),
        }
    }

    /// The sending half of the mobility protocol for `roots`, the first
    /// hosted here, step by step, in a `move` span (root, or a child of
    /// the ambient trace when moved from inside an invocation). Returns
    /// `(id, dest, epoch)` per complet of the committed stream, whose
    /// shard entries the parties to the move apply (`publish_departures`):
    /// `requester`, when another Core asked, applies its own from them.
    pub(crate) fn move_hosted(
        &self,
        roots: &[CompletId],
        dest: u32,
        continuation: Option<(String, Vec<Value>)>,
        requester: Option<u32>,
    ) -> Result<Vec<(CompletId, u32, u64)>> {
        if dest == self.inner.node.index() {
            return match roots.iter().find(|&&id| !self.hosts(id)) {
                Some(&id) => Err(FargoError::UnknownComplet(id)),
                None => Ok(Vec::new()),
            };
        }
        let t = &self.inner.telemetry;
        let _span = t.span(SpanParent::Ambient, || {
            format!("move {} -> {}", roots[0], self.core_name_of(dest))
        });
        t.moves_attempted_total.inc();
        let result = self
            .marshal_closure(roots, dest)
            .and_then(|(closure, packets)| {
                let placed: Vec<_> = packets.iter().map(|p| (p.id, dest, p.epoch)).collect();
                // Prepare: the closure in one `MovePrepare`, which the
                // destination validates, reconstructs and holds.
                let continuation = continuation.map(|(method, args)| Continuation { method, args });
                let prepare = Request::MovePrepare {
                    packets,
                    continuation,
                };
                let prepared = match self.rpc(dest, prepare) {
                    Ok(Reply::PrepareOk { .. }) => Ok(()),
                    Ok(Reply::Err(e)) | Err(e) => Err(e),
                    Ok(other) => Err(FargoError::Protocol(format!("unexpected reply {other:?}"))),
                };
                let (root, epoch) = self.decide(dest, &closure, prepared.as_ref().err());
                match prepared {
                    Ok(()) => {
                        let committed = self.commit(root, epoch, dest);
                        // Before the pull follow-ups' threads, whose sends
                        // would race this Core's own shard apply.
                        let answered = requester.filter(|_| committed.is_ok());
                        self.publish_departures(&placed, dest, answered);
                        self.finalize_departure(closure, dest);
                        committed.map(|()| placed)
                    }
                    Err(e) => {
                        // Fire and forget: a lost abort is recovered by the
                        // destination's held-move sweep asking the decision
                        // log.
                        self.send_request_oneway(dest, Request::MoveAbort { root, epoch });
                        self.restore(closure.departing);
                        Err(e)
                    }
                }
            });
        if result.is_err() {
            t.move_failures_total.inc();
        }
        result
    }

    /// Marshal: walks the closure from `roots` (§3.3), taking every
    /// complet it reaches here out of its slot (`marshal_one`);
    /// a `pull` target hosted elsewhere is left to a move of its own,
    /// while a root that is not here fails the whole walk.
    /// Returns what stays behind and the packets that leave — one per
    /// departing complet, in the same order, then one per `duplicate`
    /// copy; the first root's packet first, whose `(id, epoch)` names
    /// the transaction. On failure whatever was taken out is restored.
    fn marshal_closure(
        &self,
        roots: &[CompletId],
        dest: u32,
    ) -> Result<(Closure, Vec<CompletPacket>)> {
        let t = &self.inner.telemetry;
        let marshal_start = t.phase_timing.then(|| t.phase_now_us());
        let (mut departing, mut packets, mut remote_pulls) = (Vec::new(), Vec::new(), Vec::new());
        // Original target -> its copy, for `duplicate` references.
        let mut copies: HashMap<CompletId, CompletPacket> = HashMap::new();
        let mut visited = HashSet::new();
        let mut queue: VecDeque<_> = roots
            .iter()
            .copied()
            .filter(|&r| visited.insert(r))
            .collect();
        while let Some(cur) = queue.pop_front() {
            let Some(slot) = self.inner.complets.read().get(&cur).cloned() else {
                if roots.contains(&cur) {
                    self.restore(departing);
                    return Err(FargoError::UnknownComplet(cur));
                }
                remote_pulls.push(cur);
                continue;
            };
            match self.marshal_one(&slot, dest, &mut copies) {
                Ok((d, packet, pulls)) => {
                    departing.push(d);
                    packets.push(packet);
                    queue.extend(pulls.into_iter().filter(|p| visited.insert(*p)));
                }
                Err(e) => {
                    self.restore(departing);
                    return Err(e);
                }
            }
        }
        packets.extend(copies.into_values());
        // One inter-Core message carries the whole co-moving closure.
        t.move_comoved.observe(packets.len() as u64);
        t.move_update_set.observe(departing.len() as u64);
        t.move_marshal_bytes
            .observe(packets.iter().map(|p| p.state.deep_size() as u64).sum());
        if let Some(t0) = marshal_start {
            // Closure marshalling (relocator walks + state capture) is
            // the marshal phase of a move.
            t.latency_marshal_us
                .observe(t.phase_now_us().saturating_sub(t0));
        }
        let closure = Closure {
            departing,
            remote_pulls,
        };
        Ok((closure, packets))
    }

    /// Takes one complet of the closure out of its slot and marshals it:
    /// `pre_departure`, its state, then the relocator routine of every
    /// reference in that state. A `duplicate` target is copied once per
    /// move into `copies` and the reference re-bound to the copy. Returns
    /// the departing complet, its packet and its `pull` targets.
    fn marshal_one(
        &self,
        slot: &Arc<CompletSlot>,
        dest: u32,
        copies: &mut HashMap<CompletId, CompletPacket>,
    ) -> Result<(Departing, CompletPacket, Vec<CompletId>)> {
        let (id, t) = (slot.id, &self.inner.telemetry);
        let mut complet = self.take_out(slot)?;
        let mut ctx = self.make_ctx(id, &slot.type_name, vec![]);
        complet.pre_departure(&mut ctx);
        let mut state = complet.marshal();
        let mut pulls = Vec::new();
        for r in state.collect_refs() {
            let action = match self.inner.relocators.resolve(&r.relocator) {
                Ok(rl) => rl.marshal_action(),
                Err(e) => {
                    *slot.state.lock() = SlotState::Present(complet);
                    return Err(e);
                }
            };
            let target = r.target.to_string();
            t.record_relocator(&r.relocator);
            for (kind, peer) in [
                (JournalKind::RelocatorDecision, Some(dest)),
                (JournalKind::RefEdgeCreated, None),
            ] {
                t.journal(kind, &id, &target, &r.relocator, peer);
            }
            match action {
                MarshalAction::KeepTracking | MarshalAction::StampType => {}
                MarshalAction::PullTarget => pulls.push(r.target),
                MarshalAction::DuplicateTarget => {
                    if let Entry::Vacant(e) = copies.entry(r.target) {
                        // An unreachable target falls back to tracking
                        // the original.
                        if let Some(copy) = self.duplicate(r.target, r.last_known) {
                            e.insert(copy);
                        }
                    }
                }
            }
        }
        if !copies.is_empty() {
            state = state.transform_refs(&mut |r| match copies.get(&r.target) {
                Some(copy) if r.relocator == "duplicate" => RefDescriptor {
                    target: copy.id,
                    last_known: dest,
                    ..r
                },
                _ => r,
            });
        }
        let (names, epoch) = (self.take_names(id), self.bump_move_epoch(id));
        let packet = CompletPacket {
            id,
            type_name: slot.type_name.clone(),
            state,
            names: names.clone(),
            epoch,
        };
        let slot = slot.clone();
        Ok((
            Departing {
                slot,
                complet,
                names,
                epoch,
            },
            packet,
            pulls,
        ))
    }

    /// Decide: records the verdict — commit unless `abort` says why not —
    /// in the decision log the destination's sweep asks (`MoveDecision`),
    /// in the write-ahead log and in the journal, before the destination
    /// hears it, and returns the transaction's key: the first root and
    /// its epoch. A commit is the point of no return: the destination
    /// owns the closure from here and the source must never restore it
    /// (that would duplicate it); its `Decision` record names the
    /// complets given away, each with its epoch, so recovery neither
    /// resurrects them nor forgets where they went.
    fn decide(&self, dest: u32, closure: &Closure, abort: Option<&FargoError>) -> (CompletId, u64) {
        let t = &self.inner.telemetry;
        let (root, epoch) = (closure.departing[0].slot.id, closure.departing[0].epoch);
        let committed = abort.is_none();
        let mut left = Vec::new();
        if committed {
            // Journaled before the verdict is visible: an arrival — on
            // `MoveCommit` or on the sweep's answer — is stamped after
            // these departures and orders after them in the merged
            // timeline.
            for Departing { slot, epoch, .. } in &closure.departing {
                let (id, type_name) = (&slot.id, &slot.type_name);
                t.journal(
                    JournalKind::CompletDeparted,
                    id,
                    type_name,
                    "move",
                    Some(dest),
                );
                left.push((slot.id, *epoch));
            }
        }
        self.inner.move_verdicts.record(root, epoch, committed);
        self.wal_append(&WalRecord::Decision {
            root,
            epoch,
            committed,
            left,
            dest,
        });
        let (kind, detail) = match abort {
            None => (JournalKind::MoveCommitted, epoch.to_string()),
            Some(e) => (JournalKind::MoveAborted, e.to_string()),
        };
        t.journal(kind, &root, "", &detail, Some(dest));
        (root, epoch)
    }

    /// Commit: tells the destination to activate the held closure. The
    /// commit verdict is already recorded, so the closure is the
    /// destination's whatever this returns: an unanswered commit is
    /// [`FargoError::MoveInDoubt`], and the destination's held-move sweep
    /// resolves it against the decision log.
    fn commit(&self, root: CompletId, epoch: u64, dest: u32) -> Result<()> {
        match self.rpc(dest, Request::MoveCommit { root, epoch }) {
            Ok(Reply::Ok) => Ok(()),
            _ => {
                self.inner.telemetry.move_indoubt_total.inc();
                Err(FargoError::MoveInDoubt(root))
            }
        }
    }

    /// Completes a committed departure: `post_departure` callbacks, slot
    /// release, tracker forwarding, events, and the follow-up moves of
    /// remotely hosted pull targets. Nothing is logged: the `Decision`
    /// record already says who left, where, and at which epoch.
    fn finalize_departure(&self, closure: Closure, dest: u32) {
        let me = self.inner.node.index();
        for mut d in closure.departing {
            let (id, type_name) = (d.slot.id, d.slot.type_name.clone());
            let mut ctx = self.make_ctx(id, &type_name, vec![]);
            d.complet.post_departure(&mut ctx);
            *d.slot.state.lock() = SlotState::Gone;
            // Release the old copy; the tracker forwards from now on (the
            // incoming-reference fix-up of §3.3). A complet that is back
            // already — the commit's answer can be slower than a move
            // back — has a slot, tracker and log of its own to keep.
            let released = {
                let mut complets = self.inner.complets.write();
                let ours = complets.get(&id).is_some_and(|s| Arc::ptr_eq(s, &d.slot));
                ours && complets.remove(&id).is_some()
            };
            if released {
                // The departure's epoch rides on the repoint, so
                // stragglers from earlier incarnations can never undo it.
                let _ = self
                    .inner
                    .trackers
                    .point(id, TrackerTarget::Forward(dest), d.epoch);
                self.inner.telemetry.journal(
                    JournalKind::TrackerForwarded,
                    &id,
                    &type_name,
                    "",
                    Some(dest),
                );
            }
            self.fire_event(EventPayload::CompletDeparted {
                id,
                type_name,
                dest,
                core: me,
            });
        }
        for id in closure.remote_pulls {
            self.pull_after(id, dest);
        }
    }

    /// Moves a pull target hosted elsewhere after the closure it belongs
    /// to, as a task on the worker pool. One retry covers transient
    /// faults; a complet already in transit belongs to another move. A
    /// final failure, or a follow-up the full pool sheds, is journaled
    /// and surfaced as a `moveFailed` event instead of vanishing.
    fn pull_after(&self, id: CompletId, dest: u32) {
        let follow_up = move |core: &Core| {
            let dest_name = core.core_name_of(dest);
            let result = match core.move_complet(id, &dest_name, None) {
                Err(e) if !matches!(e, FargoError::AlreadyMoving(_)) => {
                    core.move_complet(id, &dest_name, None)
                }
                first => first,
            };
            if let Err(e) = result {
                core.pull_failed(id, dest, e.to_string());
            }
        };
        if !self.submit(Job::Task(Box::new(follow_up))) {
            self.pull_failed(id, dest, "worker queue full".into());
        }
    }

    fn pull_failed(&self, id: CompletId, dest: u32, error: String) {
        self.inner.telemetry.journal(
            JournalKind::RelocatorDecision,
            &id,
            &self.core_name_of(dest),
            &format!("pull follow-up failed: {error}"),
            Some(dest),
        );
        self.fire_event(EventPayload::MoveFailed {
            id,
            dest,
            core: self.inner.node.index(),
            error,
        });
    }

    /// Puts complets that will not leave back in their slots, with their
    /// names; nothing was journaled for them, so nothing is compensated.
    fn restore(&self, departing: Vec<Departing>) {
        for d in departing {
            *d.slot.state.lock() = SlotState::Present(d.complet);
            self.bind_names(d.slot.id, &d.slot.type_name, d.names);
        }
    }

    /// Binds `names` to a complet hosted here: names travel, and are
    /// recovered, with the complet.
    fn bind_names(&self, id: CompletId, type_name: &str, names: impl IntoIterator<Item = String>) {
        let me = self.inner.node.index();
        let mut naming = self.inner.naming.lock();
        for name in names {
            naming.insert(name, RefDescriptor::link(id, type_name, me));
        }
    }

    /// Bumps and returns the move epoch of a departing complet: monotonic
    /// across hosts (arrival records the packet's epoch here), and floored
    /// at this life's id base, so a restart that forgot an epoch bumped by
    /// a failed move never names a new transaction with its key.
    fn bump_move_epoch(&self, id: CompletId) -> u64 {
        let mut g = self.inner.move_epochs.lock();
        let e = g.entry(id).or_insert(0);
        *e = (*e + 1).max(self.inner.id_base);
        *e
    }

    /// Takes a complet out of its slot, marking it in transit.
    fn take_out(&self, slot: &CompletSlot) -> Result<Box<dyn Complet>> {
        let Some(mut guard) = slot.state.try_lock_for(self.inner.config.transit_wait) else {
            return Err(FargoError::Timeout);
        };
        match std::mem::replace(&mut *guard, SlotState::InTransit) {
            SlotState::Present(c) => Ok(c),
            SlotState::InTransit => Err(FargoError::AlreadyMoving(slot.id)),
            SlotState::Gone => {
                *guard = SlotState::Gone;
                Err(FargoError::UnknownComplet(slot.id))
            }
        }
    }

    /// A `duplicate` target's copy: a brand-new complet minted here (no
    /// move history, epoch 0) with the target's current state, marshaled
    /// without removing it — fetched from its host when not local.
    /// `None` when the target cannot be read.
    fn duplicate(&self, id: CompletId, hint: u32) -> Option<CompletPacket> {
        let (type_name, state) = match self.marshal_in_place(id) {
            Err(FargoError::UnknownComplet(_)) => {
                let host = self.locate(id).unwrap_or(hint);
                match self.rpc(host, Request::FetchState { id }).ok()? {
                    Reply::StateOk { type_name, state } => (type_name, state),
                    _ => return None,
                }
            }
            image => image.ok()?,
        };
        let seq = self.inner.complet_seq.fetch_add(1, Ordering::Relaxed);
        Some(CompletPacket {
            id: CompletId::new(self.inner.node.index(), seq),
            type_name,
            state,
            names: vec![],
            epoch: 0,
        })
    }

    /// Unbinds and returns every logical name bound to `id` here; the
    /// bindings travel with the complet.
    fn take_names(&self, id: CompletId) -> Vec<String> {
        let mut names = Vec::new();
        self.inner.naming.lock().retain(|n, d| {
            let bound = d.target == id;
            if bound {
                names.push(n.clone());
            }
            !bound
        });
        names
    }

    /// Pass 1 of arrival: resolves arrival actions (notably `stamp`) for
    /// every packet, then reconstructs (constructs + unmarshals) each
    /// complet — without installing anything, so a failure anywhere
    /// rejects the whole stream and the sender can restore. A `stamp`
    /// reference that finds no complet of its type here keeps its old
    /// target.
    fn reconstruct_stream(&self, packets: &[CompletPacket]) -> Result<Vec<Box<dyn Complet>>> {
        let me = self.inner.node.index();
        packets
            .iter()
            .map(|packet| {
                let state = packet.state.clone().transform_refs(&mut |r| {
                    let action = self
                        .inner
                        .relocators
                        .resolve(&r.relocator)
                        .map(|rl| rl.arrival_action())
                        .unwrap_or(ArrivalAction::Keep);
                    match action {
                        ArrivalAction::Keep => r,
                        ArrivalAction::ResolveByType => {
                            match self.find_local_by_type(&r.target_type) {
                                Some(local) => RefDescriptor {
                                    target: local,
                                    last_known: me,
                                    ..r
                                },
                                None => r,
                            }
                        }
                    }
                });
                self.inner.registry.reconstruct(&packet.type_name, state)
            })
            .collect()
    }

    /// Makes one reconstructed complet live on this Core at `epoch` (a
    /// move's packet epoch; WAL recovery's recorded one; checkpoint
    /// restore's one past it) with its tracker and names, and returns the
    /// epoch, which the caller publishes. The epoch is seeded *before*
    /// installing, or the fresh Local tracker would carry epoch 0 and any
    /// stale Forward straggler could overwrite it.
    pub(crate) fn install_image(
        &self,
        image: &CompletPacket,
        epoch: u64,
        complet: Box<dyn Complet>,
    ) -> u64 {
        {
            let mut epochs = self.inner.move_epochs.lock();
            let e = epochs.entry(image.id).or_insert(0);
            *e = (*e).max(epoch);
        }
        let epoch = self.install_complet_with_id(image.id, &image.type_name, complet);
        self.bind_names(image.id, &image.type_name, image.names.iter().cloned());
        epoch
    }

    /// Pass 2 of arrival: installs one reconstructed complet between its
    /// arrival callbacks, logs it, and fires the arrival event. Its shard
    /// entry is applied here only when this Core owns the slice: an
    /// arrival sends no delta (the source publishes the rest).
    fn install_arrival(&self, packet: &CompletPacket, mut complet: Box<dyn Complet>) {
        let mut ctx = self.make_ctx(packet.id, &packet.type_name, vec![]);
        complet.pre_arrival(&mut ctx);
        let epoch = self.install_image(packet, packet.epoch, complet);
        self.apply_if_owned((packet.id, self.inner.node.index(), epoch, true));
        self.run_post_arrival(packet.id);
        // Write-ahead: from this point the arrival is visible to
        // invocation, so its state (possibly rewritten by
        // `post_arrival`) must survive a crash of this Core.
        self.wal_capture(packet.id);
        self.fire_event(EventPayload::CompletArrived {
            id: packet.id,
            type_name: packet.type_name.clone(),
            core: self.inner.node.index(),
        });
    }

    /// Runs a move continuation on the arrived `root` as a task on the
    /// worker pool (the invocation joins the normal dispatch path through
    /// a local reference); one the full pool sheds is only counted.
    fn spawn_continuation(&self, root: CompletId, cont: Continuation) {
        self.submit(Job::Task(Box::new(move |core| {
            let r =
                CompletRef::from_descriptor(RefDescriptor::link(root, "", core.inner.node.index()));
            let _ = core.invoke(&r, &cont.method, &cont.args);
        })));
    }

    // --- two-phase arrival (prepare / commit / abort) ----------------------

    /// Serves `MovePrepare`: validates and reconstructs the stream, then
    /// holds it — invisible to invocation — until the source's verdict.
    /// The first packet's `(id, epoch)` names the transaction; a stream
    /// without packets names none and is refused.
    pub(crate) fn handle_move_prepare(
        &self,
        origin: u32,
        packets: Vec<CompletPacket>,
        continuation: Option<Continuation>,
    ) -> Reply {
        let Some(key @ (root, epoch)) = packets.first().map(|p| (p.id, p.epoch)) else {
            return Reply::Err(FargoError::Protocol("move prepare without packets".into()));
        };
        // Retransmits and replays of a transaction we already know. Another
        // stream under a held key is from a restarted source that forgot
        // the held move: committing it would revive that move, so refuse.
        if let Some(held) = self.inner.held_moves.lock().get(&key) {
            return if held.image.packets == packets {
                Reply::PrepareOk { epoch }
            } else {
                Reply::Err(FargoError::Protocol(format!(
                    "move of {root} (epoch {epoch}) is held for another stream"
                )))
            };
        }
        match self.inner.move_verdicts.get(root, epoch) {
            Some(true) => return Reply::PrepareOk { epoch },
            Some(false) => {
                return Reply::Err(FargoError::Protocol(format!(
                    "move of {root} (epoch {epoch}) was already aborted"
                )))
            }
            None => {}
        }
        if let Err(e) = self.admit(packets.len()) {
            return Reply::Err(e);
        }
        let complets = match self.reconstruct_stream(&packets) {
            Ok(c) => c,
            Err(e) => return Reply::Err(e),
        };
        // Write-ahead: once this Core replies `PrepareOk` it may hold the
        // only copy of a committed move, so the held stream must survive
        // a crash of this process. The record takes the packets as they
        // are and gives them back: nothing is copied for the log, and a
        // Core without one encodes nothing.
        let record = WalRecord::Held(WalHeld {
            source: origin,
            packets,
        });
        self.wal_append(&record);
        let WalRecord::Held(image) = record else {
            unreachable!("built as Held above")
        };
        self.hold(key, image, complets, continuation);
        let detail = epoch.to_string();
        let t = &self.inner.telemetry;
        t.journal(JournalKind::MovePrepared, &root, "", &detail, Some(origin));
        Reply::PrepareOk { epoch }
    }

    /// Serves `MoveCommit`: activates a held stream and answers `Ok`. A
    /// duplicate commit (the stream already activated) is acknowledged
    /// idempotently.
    pub(crate) fn handle_move_commit(
        &self,
        root: CompletId,
        epoch: u64,
        trace: Option<TraceContext>,
    ) -> Reply {
        let held = self.inner.held_moves.lock().remove(&(root, epoch));
        match held {
            Some(h) => {
                self.activate_held(root, epoch, h, trace);
                Reply::Ok
            }
            None => match self.inner.move_verdicts.get(root, epoch) {
                Some(true) => Reply::Ok,
                Some(false) => Reply::Err(FargoError::Protocol(format!(
                    "move of {root} (epoch {epoch}) was aborted"
                ))),
                None => Reply::Err(FargoError::Protocol(format!(
                    "no prepared move of {root} (epoch {epoch})"
                ))),
            },
        }
    }

    /// Serves `MoveAbort`: discards a held stream. Recording the abort
    /// verdict (unless already committed) lets a late retransmitted
    /// `MovePrepare` be refused instead of re-held forever.
    pub(crate) fn handle_move_abort(&self, root: CompletId, epoch: u64) -> Reply {
        let held = self.inner.held_moves.lock().remove(&(root, epoch));
        if self.inner.move_verdicts.get(root, epoch) != Some(true) {
            self.inner.move_verdicts.record(root, epoch, false);
        }
        if held.is_some() {
            self.log_held_verdict(root, epoch, JournalKind::MoveAborted, None);
        }
        Reply::Ok
    }

    /// Logs this destination's verdict on a held move — its `Decision`
    /// record, which keeps replay from re-holding the stream — and
    /// journals it.
    fn log_held_verdict(&self, root: CompletId, epoch: u64, kind: JournalKind, peer: Option<u32>) {
        let (committed, dest) = (kind == JournalKind::MoveCommitted, self.inner.node.index());
        let left = vec![];
        self.wal_append(&WalRecord::Decision {
            root,
            epoch,
            committed,
            left,
            dest,
        });
        let (t, detail) = (&self.inner.telemetry, epoch.to_string());
        t.journal(kind, &root, "", &detail, peer);
    }

    /// Serves `MoveDecision` (destination asking the source): the verdict
    /// this Core recorded for a move it coordinated.
    pub(crate) fn handle_move_decision(&self, root: CompletId, epoch: u64) -> Reply {
        let state = match self.inner.move_verdicts.get(root, epoch) {
            Some(true) => MoveTxnState::Committed,
            Some(false) => MoveTxnState::Aborted,
            None => MoveTxnState::Unknown,
        };
        Reply::MoveState { state }
    }

    /// Activates a held stream: installs every complet, records the
    /// committed outcome, and fires the continuation.
    fn activate_held(
        &self,
        root: CompletId,
        epoch: u64,
        held: HeldMove,
        trace: Option<TraceContext>,
    ) {
        let t = &self.inner.telemetry;
        let _span = t.span(SpanParent::Remote(trace), || {
            format!("arrive[{}]", held.complets.len())
        });
        self.inner.move_verdicts.record(root, epoch, true);
        for (packet, complet) in held.image.packets.iter().zip(held.complets) {
            // A packet is stale if this Core already advanced the
            // complet to the packet's epoch or past it. That happens
            // when a crash landed between `install_arrival`'s State
            // appends and the verdict's append: recovery re-installs
            // the survivor from its fresher State records *and*
            // re-holds the transaction, so the late Committed verdict
            // re-runs this activation. Re-installing would clobber
            // acknowledged (possibly since-mutated) state with the
            // pre-arrival snapshot and re-fire the arrival callbacks —
            // acknowledge the duplicate without installing instead.
            if packet.epoch > 0 && self.current_move_epoch(packet.id) >= packet.epoch {
                continue;
            }
            self.install_arrival(packet, complet);
        }
        // The live State records written by `install_arrival` supersede
        // the Held snapshot, which the verdict resolves.
        let source = Some(held.image.source);
        self.log_held_verdict(root, epoch, JournalKind::MoveCommitted, source);
        if let Some(cont) = held.continuation {
            self.spawn_continuation(root, cont);
        }
    }

    /// Resolves held moves whose deadline passed, each a worker-pool task
    /// asking the source for its recorded verdict; called from the monitor
    /// thread each tick. This is the one resolver of a move in doubt: a
    /// source whose commit went unanswered reports `MoveInDoubt` and leaves
    /// the rest to it. While the source is unreachable the stream stays
    /// held (re-armed past the query round-trip; a shed task waits for a
    /// later sweep): holding duplicates nothing, discarding could lose the
    /// only copy of a committed move.
    pub(crate) fn sweep_held_moves(&self) {
        let cfg = &self.inner.config;
        let re_arm = cfg
            .clock
            .deadline_us(cfg.move_hold_timeout + cfg.rpc_timeout);
        for (root, epoch, source) in self.held_keys(Some(re_arm)) {
            self.submit(Job::Task(Box::new(move |core| {
                core.resolve_held(root, epoch, source);
            })));
        }
    }

    /// `(root, epoch, source)` of every held move — with `re_arm`, of
    /// those whose deadline passed, each deadline moved to `re_arm`.
    fn held_keys(&self, re_arm: Option<u64>) -> Vec<(CompletId, u64, u32)> {
        let now = self.inner.config.clock.now_us();
        let mut held = self.inner.held_moves.lock();
        let due = held
            .iter_mut()
            .filter(|(_, h)| re_arm.is_none_or(|_| h.deadline <= now));
        let key = |(k, h): (&(CompletId, u64), &mut HeldMove)| {
            h.deadline = re_arm.unwrap_or(h.deadline);
            (k.0, k.1, h.image.source)
        };
        due.map(key).collect()
    }

    /// Asks `source` for its recorded verdict on the held move
    /// `(root, epoch)` and acts on it: activate on commit, discard on
    /// abort. Unknown or unreachable keeps holding (a later sweep
    /// retries). Returns whether the hold was resolved.
    fn resolve_held(&self, root: CompletId, epoch: u64, source: u32) -> bool {
        use MoveTxnState::{Aborted, Committed};
        match self.rpc(source, Request::MoveDecision { root, epoch }) {
            Ok(Reply::MoveState { state: Committed }) => {
                matches!(self.handle_move_commit(root, epoch, None), Reply::Ok)
            }
            Ok(Reply::MoveState { state: Aborted }) => {
                let _ = self.handle_move_abort(root, epoch);
                true
            }
            _ => false,
        }
    }

    /// Holds a reconstructed move stream — invisible to invocation —
    /// until the source's verdict arrives or the hold deadline asks for
    /// it.
    fn hold(
        &self,
        key: (CompletId, u64),
        image: WalHeld,
        complets: Vec<Box<dyn Complet>>,
        continuation: Option<Continuation>,
    ) {
        let cfg = &self.inner.config;
        let held = HeldMove {
            image,
            complets,
            continuation,
            deadline: cfg.clock.deadline_us(cfg.move_hold_timeout),
        };
        self.inner.held_moves.lock().insert(key, held);
    }

    /// Re-holds a move stream recovered from the write-ahead log after a
    /// Core restart: the complets are reconstructed but stay invisible
    /// until the source's verdict arrives (via `MoveCommit`/`MoveAbort`
    /// retransmits, the monitor sweep, or [`Core::resolve_held_now`]).
    /// The continuation does not survive the crash — it had not been
    /// acknowledged to any caller. Returns `false` when reconstruction
    /// fails (e.g. the type is no longer registered).
    pub(crate) fn rehold_recovered(&self, held: WalHeld) -> bool {
        let Some(key @ (root, epoch)) = held.key() else {
            return false;
        };
        if self.inner.held_moves.lock().contains_key(&key)
            || self.inner.move_verdicts.get(root, epoch).is_some()
        {
            return false;
        }
        let Ok(complets) = self.reconstruct_stream(&held.packets) else {
            return false;
        };
        self.hold(key, held, complets, None);
        true
    }

    /// Synchronously resolves every held move by asking its source for
    /// the recorded verdict — the deterministic counterpart of the
    /// monitor-thread sweep, for recovery paths and tests that park the
    /// monitor. Streams whose source answers `Unknown` (or is
    /// unreachable) stay held. Returns how many were resolved.
    pub fn resolve_held_now(&self) -> usize {
        let pending = self.held_keys(None).into_iter();
        pending
            .filter(|&(root, epoch, source)| self.resolve_held(root, epoch, source))
            .count()
    }

    /// Runs the `post_arrival` callback on a freshly installed complet,
    /// honouring any deferred moves it requests (itineraries).
    fn run_post_arrival(&self, id: CompletId) {
        let Some(slot) = self.inner.complets.read().get(&id).cloned() else {
            return;
        };
        let mut guard = slot.state.lock();
        if let SlotState::Present(complet) = &mut *guard {
            let mut ctx = self.make_ctx(id, &slot.type_name, vec![]);
            complet.post_arrival(&mut ctx);
            drop(guard);
            self.run_deferred(ctx);
        }
    }

    /// A hosted complet's type and current state, marshaled without
    /// taking it out: what a `duplicate` copies, here or for a peer's
    /// `FetchState`.
    pub(crate) fn marshal_in_place(&self, id: CompletId) -> Result<(String, Value)> {
        let Some(slot) = self.inner.complets.read().get(&id).cloned() else {
            return Err(FargoError::UnknownComplet(id));
        };
        let Some(guard) = slot.state.try_lock_for(self.inner.config.transit_wait) else {
            return Err(FargoError::Timeout);
        };
        match &*guard {
            SlotState::Present(c) => Ok((slot.type_name.clone(), c.marshal())),
            _ => Err(FargoError::AlreadyMoving(id)),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;
    use std::time::Duration;

    use fargo_wire::{CompletId, RefDescriptor, Value};
    use simnet::{LinkConfig, Network, NetworkConfig};

    use crate::proto::{CompletPacket, Reply};
    use crate::runtime::wal::{Wal, WalHeld, WalRecord};
    use crate::runtime::Core;
    use crate::{CompletRef, CompletRegistry, CoreConfig};

    crate::define_complet! {
        complet HeldCounter {
            state { n: i64 = 0 }
            fn add(&mut self, _ctx, args) {
                self.n += args.first().and_then(Value::as_i64).unwrap_or(1);
                Ok(Value::I64(self.n))
            }
            fn get(&mut self, _ctx, _args) {
                Ok(Value::I64(self.n))
            }
        }
    }

    /// A prepare without packets names no transaction: it is refused,
    /// and nothing is held.
    #[test]
    fn a_prepare_without_packets_is_refused() {
        let net = Network::new(NetworkConfig {
            default_link: Some(LinkConfig::instant()),
            ..NetworkConfig::default()
        });
        let core = Core::builder(&net, "core0").spawn().unwrap();
        let reply = core.handle_move_prepare(1, vec![], None);
        assert!(matches!(reply, Reply::Err(_)), "{reply:?}");
        assert!(core.inner.held_moves.lock().is_empty());
        core.stop();
    }

    fn scratch(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("fargo-movement-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// Crash window between `install_arrival`'s State appends and the
    /// verdict's append: recovery re-installs the survivor from its
    /// fresher State records *and* re-holds the transaction. When the
    /// source later answers Committed, the duplicate activation must not
    /// re-run `install_arrival` — that would overwrite acknowledged
    /// (since-mutated) state with the stale pre-arrival packet snapshot.
    #[test]
    fn recovered_partial_activation_does_not_clobber_newer_state() {
        let root_dir = scratch("partial-activation");
        let id = CompletId::new(0, 7);
        let arrived_state = |n: i64| CompletPacket {
            id,
            type_name: "HeldCounter".into(),
            state: Value::map([("n", Value::from(n))]),
            epoch: 1,
            names: vec![],
        };
        // Source core0 recorded the commit verdict (point of no return)
        // before the crash; recovery reloads it into the decision log.
        {
            let wal = Wal::open(&root_dir.join("core0"), "core0", false).unwrap();
            wal.append(&WalRecord::Decision {
                root: id,
                epoch: 1,
                committed: true,
                left: vec![(id, 1)],
                dest: 1,
            })
            .unwrap();
        }
        // Destination core1 crashed mid-activation: the Held record and
        // the installed State are on disk, the verdict is not.
        {
            let wal = Wal::open(&root_dir.join("core1"), "core1", false).unwrap();
            wal.append(&WalRecord::Held(WalHeld {
                source: 0,
                packets: vec![arrived_state(7)],
            }))
            .unwrap();
            wal.append(&WalRecord::State(arrived_state(7))).unwrap();
        }

        let net = Network::new(NetworkConfig {
            default_link: Some(LinkConfig::instant()),
            ..NetworkConfig::default()
        });
        let reg = CompletRegistry::new();
        HeldCounter::register(&reg);
        // A long hold timeout keeps the monitor sweep from racing the
        // explicit resolve below.
        let config = |i: usize| {
            let mut c = CoreConfig::default().with_wal_dir(root_dir.join(format!("core{i}")));
            c.move_hold_timeout = Duration::from_secs(60);
            c
        };
        let core0 = Core::builder(&net, "core0")
            .registry(&reg)
            .config(config(0))
            .spawn()
            .unwrap();
        let core1 = Core::builder(&net, "core1")
            .registry(&reg)
            .config(config(1))
            .spawn()
            .unwrap();

        // Recovery re-installed the survivor and re-held the transaction.
        let report = core1.recovery_report().expect("recovery ran");
        assert_eq!(report.replayed, 1, "{report:?}");
        assert_eq!(report.held, 1, "{report:?}");
        assert!(core1.hosts(id));

        // New acknowledged work lands on the recovered complet before the
        // in-doubt transaction resolves.
        let stub = core1.stub(CompletRef::from_descriptor(RefDescriptor::link(
            id,
            "HeldCounter",
            core1.node().index(),
        )));
        assert_eq!(stub.call("add", &[Value::I64(1)]).unwrap(), Value::I64(8));

        // The source answers Committed; the duplicate activation must be
        // acknowledged without re-installing the stale packet.
        assert_eq!(core1.resolve_held_now(), 1);
        assert_eq!(
            stub.call("get", &[]).unwrap(),
            Value::I64(8),
            "duplicate activation clobbered acknowledged state"
        );
        assert!(!core0.hosts(id), "exactly one live copy");

        core0.stop();
        core1.stop();
        let _ = std::fs::remove_dir_all(&root_dir);
    }
}
