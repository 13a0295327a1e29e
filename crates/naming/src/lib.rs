//! # fargo-naming — the sharded location service
//!
//! The paper (§7) names *location-independent naming* as the successor to
//! tracker chains: instead of every departure growing a forwarding chain
//! rooted at wherever a reference happens to live, **one authoritative
//! location registry is sharded across Cores** by a consistent-hash ring
//! (no single origin Core carries the load, or is a single point of
//! failure, for the complets it happened to create). Each
//! Core runs one [`LocationShard`] holding the authoritative
//! `(complet → Core, move_epoch)` entries for the slice of the id space
//! it owns; a layout change is published once to that owner, so a
//! remote lookup resolves in one hop with lazy invalidation (a stale
//! hint is detected by a move-epoch mismatch and repaired on the reply
//! path).
//!
//! This crate is the pure data-structure layer — no I/O, no clocks, no
//! threads beyond a mutex:
//!
//! * [`HashRing`] — a deterministic consistent-hash ring with virtual
//!   nodes. Determinism matters: every Core must compute the *same*
//!   owner for an id from the same membership list, including under the
//!   checker's virtual clock, so the hash is a fixed splitmix64 mix with
//!   no per-process state.
//! * [`LocationShard`] — the epoch-guarded authoritative map. Updates
//!   carrying an older move epoch are rejected (the same guard the
//!   tracker table applies); at equal epochs a tombstone wins, so a
//!   release cannot be resurrected by a delayed publish.

use std::collections::BTreeMap;
use std::sync::Mutex;

use fargo_wire::CompletId;

// --- hashing ---------------------------------------------------------------

/// splitmix64: a fixed, high-quality 64-bit mixer. Chosen over a hasher
/// from std because `DefaultHasher` is explicitly unstable across
/// releases, and ring placement must agree across every Core (and every
/// toolchain) forever.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn hash_vnode(node: u32, vnode: u32) -> u64 {
    splitmix64((u64::from(node) << 32) | u64::from(vnode))
}

fn hash_id(id: CompletId) -> u64 {
    splitmix64(splitmix64(u64::from(id.origin)) ^ id.seq)
}

// --- the ring --------------------------------------------------------------

/// Consistent-hash ring mapping complet ids to owning Cores.
///
/// Each member contributes `vnodes` points; an id is owned by the first
/// point clockwise from its hash. Adding or removing one Core therefore
/// moves only ~1/N of the id space — the property that makes shard
/// handoff on membership change cheap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashRing {
    /// `(point, node)` sorted by point.
    points: Vec<(u64, u32)>,
    /// The membership the ring was built from, sorted.
    nodes: Vec<u32>,
    vnodes: u32,
}

impl HashRing {
    /// Builds a ring over `nodes` with `vnodes` virtual nodes each
    /// (clamped to at least 1). Duplicate members are collapsed.
    pub fn new(nodes: &[u32], vnodes: usize) -> HashRing {
        let vnodes = vnodes.max(1) as u32;
        let mut members: Vec<u32> = nodes.to_vec();
        members.sort_unstable();
        members.dedup();
        let mut points = Vec::with_capacity(members.len() * vnodes as usize);
        for &n in &members {
            for v in 0..vnodes {
                points.push((hash_vnode(n, v), n));
            }
        }
        // Ties between vnode points are broken by node index so every
        // Core sorts to the identical ring.
        points.sort_unstable();
        HashRing {
            points,
            nodes: members,
            vnodes,
        }
    }

    /// The Core owning `id`'s slice of the ring, or `None` on an empty
    /// ring.
    pub fn owner_of(&self, id: CompletId) -> Option<u32> {
        if self.points.is_empty() {
            return None;
        }
        let h = hash_id(id);
        let i = self.points.partition_point(|&(p, _)| p < h);
        Some(self.points[i % self.points.len()].1)
    }

    /// The membership this ring was built from, sorted ascending.
    pub fn nodes(&self) -> &[u32] {
        &self.nodes
    }

    /// Whether `members` (in any order, duplicates allowed) differs from
    /// the membership this ring was built from.
    pub fn membership_changed(&self, members: &[u32]) -> bool {
        let mut m: Vec<u32> = members.to_vec();
        m.sort_unstable();
        m.dedup();
        m != self.nodes
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Virtual nodes per member.
    pub fn vnodes(&self) -> usize {
        self.vnodes as usize
    }
}

// --- the shard -------------------------------------------------------------

/// One authoritative location record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardEntry {
    /// Node index of the Core hosting the complet.
    pub node: u32,
    /// Move epoch that put it there (0 = never moved).
    pub epoch: u64,
    /// `false` = tombstone: the complet was released at this epoch.
    pub alive: bool,
}

/// What [`LocationShard::apply`] did with an update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyOutcome {
    /// The entry was inserted or replaced.
    Applied,
    /// The update repeated what the shard already holds; nothing
    /// changed, nothing to journal.
    Unchanged,
    /// The update carried a stale epoch (or lost an equal-epoch tie to a
    /// tombstone) and was rejected.
    Stale {
        /// The epoch the shard keeps.
        current_epoch: u64,
    },
}

/// The epoch-guarded authoritative `(complet → Core)` map one Core holds
/// for its slice of the ring.
///
/// A `BTreeMap` keeps snapshots in id order, so everything derived from
/// a snapshot (handoff streams, shard listings, journal entries) is a
/// pure function of the content — the deterministic checker compares
/// such artifacts byte-for-byte across replays.
#[derive(Debug, Default)]
pub struct LocationShard {
    entries: Mutex<BTreeMap<CompletId, ShardEntry>>,
}

impl LocationShard {
    pub fn new() -> LocationShard {
        LocationShard::default()
    }

    /// Applies one location delta under the epoch guard: a higher epoch
    /// always wins; at equal epochs a tombstone beats a live entry (a
    /// release is final for that incarnation) and everything else is
    /// kept as-is.
    pub fn apply(&self, id: CompletId, update: ShardEntry) -> ApplyOutcome {
        let mut map = self.entries.lock().unwrap_or_else(|p| p.into_inner());
        match map.entry(id) {
            std::collections::btree_map::Entry::Occupied(mut e) => {
                let cur = *e.get();
                if cur == update {
                    return ApplyOutcome::Unchanged;
                }
                let wins = update.epoch > cur.epoch
                    || (update.epoch == cur.epoch && !update.alive && cur.alive);
                if wins {
                    e.insert(update);
                    ApplyOutcome::Applied
                } else {
                    ApplyOutcome::Stale {
                        current_epoch: cur.epoch,
                    }
                }
            }
            std::collections::btree_map::Entry::Vacant(v) => {
                v.insert(update);
                ApplyOutcome::Applied
            }
        }
    }

    /// The entry for `id`, tombstones included.
    pub fn lookup(&self, id: CompletId) -> Option<ShardEntry> {
        self.entries
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get(&id)
            .copied()
    }

    /// Live entries only (the view lookups and the planner want).
    pub fn alive(&self) -> Vec<(CompletId, ShardEntry)> {
        self.entries
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .filter(|(_, e)| e.alive)
            .map(|(&id, &e)| (id, e))
            .collect()
    }

    /// Removes and returns every entry whose id is no longer owned by
    /// `me` under `ring` — the handoff stream after a membership change.
    pub fn drain_not_owned(&self, ring: &HashRing, me: u32) -> Vec<(CompletId, ShardEntry)> {
        let mut map = self.entries.lock().unwrap_or_else(|p| p.into_inner());
        let mut out = Vec::new();
        map.retain(|&id, e| {
            let keep = ring.owner_of(id) == Some(me);
            if !keep {
                out.push((id, *e));
            }
            keep
        });
        out
    }

    /// Number of entries held (tombstones included).
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(origin: u32, seq: u64) -> CompletId {
        CompletId::new(origin, seq)
    }

    #[test]
    fn ring_is_deterministic_and_total() {
        let a = HashRing::new(&[0, 1, 2], 16);
        let b = HashRing::new(&[2, 1, 0, 1], 16); // order/dupes irrelevant
        assert_eq!(a, b);
        for o in 0..3u32 {
            for s in 0..50u64 {
                let owner = a.owner_of(id(o, s)).unwrap();
                assert_eq!(b.owner_of(id(o, s)), Some(owner));
                assert!(a.nodes().contains(&owner));
            }
        }
        assert!(HashRing::new(&[], 16).owner_of(id(0, 1)).is_none());
    }

    #[test]
    fn ring_spreads_ownership_roughly_evenly() {
        let ring = HashRing::new(&[0, 1, 2, 3, 4, 5, 6, 7], 16);
        let mut counts = [0usize; 8];
        for o in 0..4u32 {
            for s in 0..2_000u64 {
                counts[ring.owner_of(id(o, s)).unwrap() as usize] += 1;
            }
        }
        let total: usize = counts.iter().sum();
        assert_eq!(total, 8_000);
        for (n, &c) in counts.iter().enumerate() {
            // 1/8th is 1000; 16 vnodes keeps every share within a loose
            // 3x band — the point is "no starved Core", not perfection.
            assert!(c > 300 && c < 3_000, "node {n} owns {c} of {total}");
        }
    }

    #[test]
    fn membership_change_moves_a_minority_of_ids() {
        let before = HashRing::new(&[0, 1, 2, 3], 16);
        let after = HashRing::new(&[0, 1, 2, 3, 4], 16);
        assert!(before.membership_changed(&[0, 1, 2, 3, 4]));
        assert!(!before.membership_changed(&[3, 2, 1, 0]));
        let mut moved = 0usize;
        let total = 4_000usize;
        for s in 0..total as u64 {
            if before.owner_of(id(0, s)) != after.owner_of(id(0, s)) {
                moved += 1;
            }
        }
        // Consistent hashing: adding one of five members should move
        // about 1/5th of the space, certainly well under half.
        assert!(moved < total / 2, "moved {moved}/{total}");
        assert!(moved > 0, "a new member must take over something");
    }

    #[test]
    fn shard_applies_under_epoch_guard() {
        let shard = LocationShard::new();
        let e = |node, epoch, alive| ShardEntry { node, epoch, alive };
        assert_eq!(shard.apply(id(0, 1), e(2, 1, true)), ApplyOutcome::Applied);
        // Stale epoch is rejected.
        assert_eq!(
            shard.apply(id(0, 1), e(9, 0, true)),
            ApplyOutcome::Stale { current_epoch: 1 }
        );
        // Re-publishing the identical entry is a no-op.
        assert_eq!(
            shard.apply(id(0, 1), e(2, 1, true)),
            ApplyOutcome::Unchanged
        );
        // Equal epoch: a tombstone wins over a live entry ...
        assert_eq!(shard.apply(id(0, 1), e(2, 1, false)), ApplyOutcome::Applied);
        // ... and a live entry never resurrects the same epoch.
        assert_eq!(
            shard.apply(id(0, 1), e(2, 1, true)),
            ApplyOutcome::Stale { current_epoch: 1 }
        );
        // A higher epoch resurrects (new incarnation of the id space).
        assert_eq!(shard.apply(id(0, 1), e(3, 2, true)), ApplyOutcome::Applied);
        assert_eq!(shard.lookup(id(0, 1)), Some(e(3, 2, true)));
        assert_eq!(shard.alive().len(), 1);
    }

    #[test]
    fn shard_drains_entries_lost_on_membership_change() {
        let shard = LocationShard::new();
        for s in 0..200u64 {
            shard.apply(
                id(0, s),
                ShardEntry {
                    node: 1,
                    epoch: 0,
                    alive: true,
                },
            );
        }
        let ring = HashRing::new(&[0, 1], 16);
        let lost = shard.drain_not_owned(&ring, 0);
        assert_eq!(lost.len() + shard.len(), 200);
        assert!(!lost.is_empty(), "node 1 must own part of the ring");
        for (i, _) in &lost {
            assert_eq!(ring.owner_of(*i), Some(1));
        }
        for kept in (0..200u64).map(|s| id(0, s)) {
            if shard.lookup(kept).is_some() {
                assert_eq!(ring.owner_of(kept), Some(0));
            }
        }
    }
}
