//! Durability: checkpoint/restore snapshots and the write-ahead log.
//!
//! The paper defers persistence to §7 future work; this module gives the
//! Core two complementary durability mechanisms built on the same
//! marshal path movement uses:
//!
//! * **Checkpoints** — explicit, portable snapshots. [`Core::checkpoint`]
//!   captures every resident complet as the log's own `State` frame
//!   (state, type, move epoch, logical names), so a snapshot is a folded
//!   log; [`Core::restore_checkpoint`] replays it with the log's own
//!   reader into another (or a restarted) Core with identities
//!   preserved, through the install routine move arrival and WAL
//!   recovery use. Restore publishes each complet's new placement to
//!   its owning location shard at an epoch *above* the checkpointed
//!   one, so the restored location wins over stale shard entries and
//!   trackers repoint exactly as after a move.
//!   A checkpoint is a *cold* snapshot: it waits for each complet's
//!   current invocation to finish, and complets in transit are skipped —
//!   they are owned by the move in progress — with the skipped ids
//!   reported in [`Checkpoint::skipped`] and journaled.
//!
//! * **The write-ahead log** — implicit, incremental durability
//!   ([`wal`](crate::runtime::wal)). When [`CoreConfig::wal_dir`] is
//!   set, the Core appends every state the caller could have observed as
//!   acknowledged — instantiation, each successful invocation,
//!   arrival, release, and each two-phase move's verdict (one record,
//!   which at the source also says who left) — *before* the
//!   acknowledgement leaves this process, and (under `wal_fsync`, the
//!   default) fsyncs each append so the guarantee covers OS crashes and
//!   power loss, not just process deaths. A restarted Core replays the
//!   log ([`Core::recover_from_wal`], run automatically at spawn — which
//!   fails on a log it cannot read), folds it to crash-time truth,
//!   re-installs survivors at their recorded epochs, re-holds
//!   prepared-but-undecided move streams, and republishes everything to
//!   the location shards.
//!   The monitor thread compacts the log once it grows past
//!   `wal_compact_records` appends.
//!
//! [`CoreConfig::wal_dir`]: crate::config::CoreConfig

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use fargo_telemetry::JournalKind;
use fargo_wire::{CompletId, Value};

use crate::complet::Complet;
use crate::error::{FargoError, Result};
use crate::events::EventPayload;
use crate::proto::CompletPacket;
use crate::reference::tracker::TrackerTarget;
use crate::runtime::{wal, Core, SlotState};

/// The result of [`Core::checkpoint`]: the snapshot plus the ids the
/// snapshot does **not** cover.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// The snapshot (feed to [`Core::restore_checkpoint`]): one
    /// write-ahead `State` frame per captured complet, the bytes a log
    /// compacted at this instant would hold for them.
    pub snapshot: Vec<u8>,
    /// Complets that were in transit (or already gone) at capture time
    /// and are therefore absent from the snapshot. Callers that need a
    /// complete image must re-checkpoint once these moves settle.
    pub skipped: Vec<CompletId>,
}

impl Core {
    /// Captures all resident complets into a portable snapshot: one WAL
    /// `State` frame per complet, so a checkpoint is a folded log and
    /// restore is a replay of it.
    ///
    /// Complets in transit are owned by their in-flight move and cannot
    /// be captured; their ids come back in [`Checkpoint::skipped`] (and
    /// are journaled as `ckpt_skip`) instead of being silently dropped.
    ///
    /// # Errors
    ///
    /// Fails with [`FargoError::Timeout`] if a complet stays locked past
    /// the configured transit wait, and with
    /// [`FargoError::InvalidArgument`] if one complet's state exceeds
    /// the frame bound.
    pub fn checkpoint(&self) -> Result<Checkpoint> {
        let slots: Vec<_> = self.inner.complets.read().values().cloned().collect();
        let mut snapshot = Vec::new();
        let mut skipped = Vec::new();
        for slot in slots {
            let guard = slot
                .state
                .try_lock_for(self.inner.config.transit_wait)
                .ok_or(FargoError::Timeout)?;
            match &*guard {
                SlotState::Present(c) => {
                    let image = self.image_of(slot.id, &slot.type_name, c.marshal());
                    let frame = wal::encode_record(&wal::WalRecord::State(image))
                        .map_err(|e| FargoError::InvalidArgument(e.to_string()))?;
                    snapshot.extend_from_slice(&frame);
                }
                other => {
                    let detail = match other {
                        SlotState::InTransit => "in_transit",
                        _ => "gone",
                    };
                    self.inner.telemetry.journal(
                        JournalKind::CheckpointSkipped,
                        &slot.id,
                        &slot.type_name,
                        detail,
                        None,
                    );
                    skipped.push(slot.id);
                }
            }
        }
        Ok(Checkpoint { snapshot, skipped })
    }

    /// Installs a snapshot's complets (and the names bound to them) into
    /// this Core.
    ///
    /// Identities are preserved: references that tracked the complets
    /// re-resolve here once their trackers or the location shards learn
    /// the new placement — which this method publishes at an epoch above
    /// the checkpointed one, so the restored location beats any stale
    /// entry left by the pre-checkpoint host. Complets are revived
    /// through the side-effect-free reviver path: constructor (`init`)
    /// side effects ran at instantiation and do **not** run again here.
    ///
    /// Returns the ids restored.
    ///
    /// # Errors
    ///
    /// Fails with [`FargoError::InvalidArgument`] on a snapshot with a
    /// torn, corrupted or undecodable frame, and on unknown complet
    /// types or state mismatches. The whole snapshot is folded and
    /// every complet reconstructed before any is installed, so a
    /// rejected snapshot leaves the Core untouched. Restoring is
    /// idempotent per complet — re-restore overwrites.
    pub fn restore_checkpoint(&self, snapshot: &[u8]) -> Result<Vec<CompletId>> {
        let invalid = |e| FargoError::InvalidArgument(format!("checkpoint: {e}"));
        let folded =
            wal::fold(wal::Frames::new(snapshot, snapshot.len() as u64)).map_err(invalid)?;
        if folded.corrupt != 0 {
            return Err(FargoError::InvalidArgument(
                "checkpoint: torn or corrupted frame".into(),
            ));
        }
        let mut revived = Vec::new();
        for frame in &folded.survivors {
            let wal::WalRecord::State(mut image) = wal::decode_frame(frame).map_err(invalid)?
            else {
                return Err(FargoError::InvalidArgument(
                    "checkpoint: not a state".into(),
                ));
            };
            let state = std::mem::take(&mut image.state);
            let complet = self.inner.registry.reconstruct(&image.type_name, state)?;
            revived.push((image, complet));
        }
        let mut restored = Vec::with_capacity(revived.len());
        for (image, complet) in revived {
            // One past the checkpointed epoch: only that beats the stale
            // shard entry still naming the pre-checkpoint host.
            self.install_revived(&image, image.epoch + 1, complet);
            self.wal_capture(image.id);
            restored.push(image.id);
        }
        Ok(restored)
    }

    /// Makes one revived complet live on this Core — behind WAL recovery
    /// and checkpoint restore, which differ only in the `epoch` they pass
    /// (the recorded one; the recorded one + 1). Constructor and arrival
    /// callbacks ran in the complet's first life and do not run again.
    fn install_revived(&self, image: &CompletPacket, epoch: u64, complet: Box<dyn Complet>) {
        let epoch = self.install_image(image, epoch, complet);
        self.publish_location(image.id, self.inner.node.index(), epoch, true);
        self.fire_event(EventPayload::CompletArrived {
            id: image.id,
            type_name: image.type_name.clone(),
            core: self.inner.node.index(),
        });
    }

    // --- write-ahead log ---------------------------------------------------

    /// Appends one record to the write-ahead log; a no-op when the log is
    /// disabled. Append failures are counted, not surfaced — durability
    /// degrades, the running cluster does not stop. `false` once `stop`
    /// closed the log: what the record stands for must not be acked.
    pub(crate) fn wal_append(&self, record: &wal::WalRecord) -> bool {
        let Some(wal) = &self.inner.wal else {
            return true;
        };
        match wal.append(record) {
            Ok(()) => self.inner.telemetry.wal_appends_total.inc(),
            Err(_) if self.inner.shutdown.load(Ordering::SeqCst) => return false,
            Err(_) => self.inner.telemetry.wal_errors_total.inc(),
        }
        true
    }

    /// Captures a resident complet's current state into the log (no-op
    /// when the log is disabled, the complet is absent, or it is not
    /// `Present`). Must not be called while the caller holds the slot
    /// lock — use [`Core::wal_capture_state`] with a pre-marshaled state
    /// from inside a locked section.
    ///
    /// The record is appended before the slot lock is released, as the
    /// invocation path does: callers have already made the complet
    /// reachable, and an invocation acknowledged after the release could
    /// otherwise append its newer state first and be durably superseded
    /// by this older image (fold keeps the last record per id).
    pub(crate) fn wal_capture(&self, id: CompletId) {
        if self.inner.wal.is_none() {
            return;
        }
        let Some(slot) = self.inner.complets.read().get(&id).cloned() else {
            return;
        };
        let guard = slot.state.lock();
        if let SlotState::Present(c) = &*guard {
            self.wal_capture_state(id, &slot.type_name, c.marshal());
        }
    }

    /// Appends a `State` record from an already-marshaled state. Safe
    /// to call while the caller holds the slot lock — the invocation
    /// path does exactly that, so a concurrent invocation of the same
    /// complet cannot interleave a newer append under this one. `false`
    /// as [`Core::wal_append`].
    pub(crate) fn wal_capture_state(&self, id: CompletId, type_name: &str, state: Value) -> bool {
        self.inner.wal.is_none()
            || self.wal_append(&wal::WalRecord::State(self.image_of(id, type_name, state)))
    }

    /// The image of one resident complet: its marshaled state stamped
    /// with the current move epoch and the names bound to it here.
    fn image_of(&self, id: CompletId, type_name: &str, state: Value) -> CompletPacket {
        let names = self
            .inner
            .naming
            .lock()
            .iter()
            .filter(|(_, d)| d.target == id)
            .map(|(n, _)| n.clone())
            .collect();
        CompletPacket {
            id,
            type_name: type_name.to_owned(),
            state,
            epoch: self.current_move_epoch(id),
            names,
        }
    }

    /// Replays this Core's write-ahead log after a restart: re-installs
    /// every complet whose state was acknowledged before the crash (at
    /// its recorded move epoch, republished to the location shards),
    /// reloads the two-phase verdict log, and re-holds
    /// prepared-but-undecided move streams for resolution against their
    /// sources. `spawn` folds the log (and refuses to start on one it
    /// cannot read) and hands over the fold and the time reading the log
    /// took; only the survivors are decoded again, to be installed, and
    /// the fold's image is written over the log afterwards so the next
    /// restart replays the minimum. `spawn` runs this before any worker
    /// or the receiver starts, so nothing appends to the log and no
    /// request is served mid-recovery.
    pub(crate) fn recover_from_wal(&self, folded: wal::WalFold, read: Duration) {
        if folded.records == 0 && folded.corrupt == 0 {
            return;
        }
        let started = Instant::now();
        let me = self.inner.node.index();
        let t = &self.inner.telemetry;
        t.journal(
            JournalKind::RecoveryStarted,
            &CompletId::new(me, 0),
            "",
            &folded.records.to_string(),
            None,
        );
        // The verdict log first: a recovered survivor set is only safe
        // to expose once in-doubt queries from peers answer correctly.
        for &(root, epoch, committed) in &folded.verdicts {
            self.inner.move_verdicts.record(root, epoch, committed);
        }
        let (mut replayed, mut dropped) = (0usize, 0usize);
        for frame in &folded.survivors {
            // A kept frame that does not decode to a state is dropped like
            // a state the registry refuses.
            let Ok(wal::WalRecord::State(mut s)) = wal::decode_frame(frame) else {
                t.wal_errors_total.inc();
                dropped += 1;
                continue;
            };
            if self.hosts(s.id) {
                continue;
            }
            let state = std::mem::take(&mut s.state);
            let Ok(complet) = self.inner.registry.reconstruct(&s.type_name, state) else {
                t.wal_errors_total.inc();
                dropped += 1;
                continue;
            };
            // The recorded epoch — the one the shards already associate
            // with this placement — so the republished delta is
            // idempotent rather than a spurious new incarnation.
            self.install_revived(&s, s.epoch, complet);
            t.journal(
                JournalKind::RecoveryReplayed,
                &s.id,
                &s.type_name,
                &s.epoch.to_string(),
                None,
            );
            replayed += 1;
        }
        // Rebuild the routing state the crash destroyed: every departure
        // still in effect becomes a forwarding tracker again. A restarted
        // Core that forgot its forwards dead-ends every tracker chain
        // through it.
        let mut forwards = 0usize;
        for &(id, epoch, dest) in &folded.departed {
            if self.hosts(id) || dest == me {
                continue;
            }
            let _ = self
                .inner
                .trackers
                .point(id, TrackerTarget::Forward(dest), epoch);
            t.journal(
                JournalKind::TrackerForwarded,
                &id,
                "",
                "recovered",
                Some(dest),
            );
            forwards += 1;
        }
        let mut held = 0usize;
        for frame in &folded.held {
            match wal::decode_frame(frame) {
                Ok(wal::WalRecord::Held(h)) => held += usize::from(self.rehold_recovered(h)),
                _ => t.wal_errors_total.inc(),
            }
        }
        t.recovery_replayed_total.add(replayed as u64);
        t.recovery_held_total.add(held as u64);
        t.recovery_corrupt_total.add(folded.corrupt as u64);
        let report = wal::RecoveryReport {
            replayed,
            dropped,
            held,
            forwards,
            corrupt: folded.corrupt,
            duration_us: (read + started.elapsed()).as_micros() as u64,
        };
        t.recovery_duration_us.set(report.duration_us as f64);
        *self.inner.recovery.lock() = Some(report);
        // Rewrite from the fold spawn read: the replayed prefix
        // (including any corrupt tail) is dead weight for the next
        // restart, and nothing has appended since the fold.
        self.wal_compact(Some(&folded));
    }

    /// What the last [`Core::recover_from_wal`] run replayed, or `None`
    /// when this Core did not recover from a log.
    pub fn recovery_report(&self) -> Option<wal::RecoveryReport> {
        self.inner.recovery.lock().clone()
    }

    /// Rewrites the write-ahead log to its folded minimum: one `State`
    /// per resident complet, the unresolved held streams, the retained
    /// two-phase verdicts, and one `Departed` per live forward. A no-op
    /// when the log is disabled.
    ///
    /// The log itself is the source of truth — every acknowledged state
    /// change is already a record in it — so compaction folds the file
    /// under the append lock ([`wal::Wal::compact`]) instead of
    /// re-marshaling live slots. Re-marshaling raced the invoke path: a
    /// mutation acknowledged between the slot snapshot and the file
    /// swap was silently erased from the log.
    pub fn wal_compact_now(&self) {
        self.wal_compact(None);
    }

    /// As [`Core::wal_compact_now`]; given `folded`, a fold of the log
    /// nothing has appended to since, writes its image instead of folding
    /// the file again.
    fn wal_compact(&self, folded: Option<&wal::WalFold>) {
        let Some(wal) = &self.inner.wal else { return };
        // Departures are already folded into the image's Departed
        // records; the verdict itself must outlive the restart so
        // in-doubt peers still get an answer — hence empty `left`.
        let mut extra: Vec<wal::WalRecord> = self
            .inner
            .move_verdicts
            .snapshot()
            .into_iter()
            .map(|(root, epoch, committed)| wal::WalRecord::Decision {
                root,
                epoch,
                committed,
                left: vec![],
                dest: 0,
            })
            .collect();
        // Forwarding trackers are durable routing state: an origin Core
        // that compacted away its Departed records and then crashed would
        // otherwise dead-end every chain that runs through it. The
        // tracker table is at least as fresh as the log's own Departed
        // records (repoints land before the WAL append) and goes last,
        // so it wins the next fold.
        for t in self.inner.trackers.snapshot() {
            if let TrackerTarget::Forward(dest) = t.target {
                extra.push(wal::WalRecord::Departed {
                    id: t.id,
                    epoch: t.epoch,
                    dest: Some(dest),
                });
            }
        }
        let written = match folded {
            Some(folded) => wal.rewrite(folded, &extra),
            None => wal.compact(&extra),
        };
        match written {
            Ok(n) => {
                self.inner.telemetry.wal_compactions_total.inc();
                self.inner.telemetry.journal(
                    JournalKind::WalCompacted,
                    &CompletId::new(self.inner.node.index(), 0),
                    "",
                    &n.to_string(),
                    None,
                );
            }
            Err(_) if self.inner.shutdown.load(Ordering::SeqCst) => {} // closed by `stop`
            Err(_) => self.inner.telemetry.wal_errors_total.inc(),
        }
    }

    /// Monitor-tick hook: compacts once the log accumulates
    /// `wal_compact_records` appends since the last rewrite.
    pub(crate) fn wal_compact_if_due(&self) {
        let Some(wal) = &self.inner.wal else { return };
        if wal.appends_since_rewrite() >= self.inner.config.wal_compact_records {
            self.wal_compact_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use fargo_wire::Value;
    use simnet::{LinkConfig, Network, NetworkConfig};

    use crate::proto::CompletPacket;
    use crate::runtime::wal::{self, WalRecord};
    use crate::runtime::Core;
    use crate::{CompletRegistry, CoreConfig};

    crate::define_complet! {
        complet Tally {
            state { n: i64 = 0 }
            fn add(&mut self, _ctx, args) {
                self.n += args.first().and_then(Value::as_i64).unwrap_or(1);
                Ok(Value::I64(self.n))
            }
        }
    }

    /// A checkpoint is a folded log: the log's own `replay` reads it back
    /// to the images that were captured, and it is byte for byte what
    /// compaction leaves in the log file for the same complets.
    #[test]
    fn checkpoint_is_a_folded_log() {
        let dir = std::env::temp_dir().join(format!("fargo-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let net = Network::new(NetworkConfig {
            default_link: Some(LinkConfig::instant()),
            ..NetworkConfig::default()
        });
        let reg = CompletRegistry::new();
        Tally::register(&reg);
        let core = Core::builder(&net, "core0")
            .registry(&reg)
            .config(CoreConfig::default().with_wal_dir(dir.clone()))
            .spawn()
            .unwrap();
        let tally = core.new_named_complet("tally", "Tally", &[]).unwrap();
        tally.call("add", &[Value::I64(7)]).unwrap();

        let snapshot = core.checkpoint().unwrap().snapshot;
        let replay = wal::replay(snapshot.clone().into()).unwrap();
        assert_eq!(replay.corrupt, 0);
        assert_eq!(
            replay.records,
            vec![WalRecord::State(CompletPacket {
                id: tally.id(),
                type_name: "Tally".into(),
                state: Value::map([("n", Value::I64(7))]),
                names: vec!["tally".into()],
                epoch: 0,
            })]
        );
        core.wal_compact_now();
        let log = std::fs::read(wal::Wal::log_path(&dir, "core0")).unwrap();
        assert_eq!(log, snapshot);
        core.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
