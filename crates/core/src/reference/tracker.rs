//! The per-Core tracker table.
//!
//! A tracker is the second half of the stub/tracker split (§3.1): exactly
//! one exists per target complet per Core, shared by every local stub
//! pointing at that target. While the target is local the tracker points
//! at it directly; when the target leaves, the tracker is repointed to the
//! destination Core, forming a forwarding chain that invocation returns
//! shorten.
//!
//! Repoints are **epoch-guarded**: every update carries the move epoch of
//! the location it reports, and the table rejects updates older than what
//! it already knows. Without the guard, a delayed chain-shortening reply
//! from move epoch *n* can repoint a tracker away from the epoch *n+1*
//! location — in the worst case two such stragglers form a forwarding
//! cycle and the complet becomes unreachable from that Core.

use std::collections::HashMap;
use std::time::Duration;

use fargo_telemetry::Clock;
use fargo_wire::CompletId;
use parking_lot::Mutex;

/// Where a tracker currently points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrackerTarget {
    /// The complet lives in this Core.
    Local,
    /// The complet left; forward to the Core at this node index.
    Forward(u32),
}

#[derive(Debug)]
struct Tracker {
    target: TrackerTarget,
    /// Invocations successfully dispatched through this tracker.
    hits: u64,
    /// Move epoch of the location this tracker reflects; updates carrying
    /// an older epoch are rejected.
    epoch: u64,
    /// Last update or successful dispatch, in [`Clock`] microseconds.
    updated_at: u64,
}

/// An externally visible view of one tracker (for the shell and monitor).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrackerSnapshot {
    /// The tracked complet.
    pub id: CompletId,
    /// Current direction.
    pub target: TrackerTarget,
    /// Invocations successfully dispatched through this tracker so far.
    pub hits: u64,
    /// Move epoch the tracker last accepted.
    pub epoch: u64,
}

/// What [`TrackerTable::point`] did with an update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PointOutcome {
    /// The tracker now points at the given target; `prev` is where it
    /// pointed before (`None` = freshly created), so callers can tell an
    /// actual repoint (a chain shortening) from a no-op confirmation.
    Updated { prev: Option<TrackerTarget> },
    /// The update carried a stale move epoch and was rejected; the
    /// tracker keeps pointing at `current` (epoch `current_epoch`).
    Stale {
        current: TrackerTarget,
        current_epoch: u64,
    },
}

/// The Core's map of trackers, keyed by target complet id.
#[derive(Debug)]
pub(crate) struct TrackerTable {
    map: Mutex<HashMap<CompletId, Tracker>>,
    clock: Clock,
}

impl TrackerTable {
    pub fn new(clock: Clock) -> Self {
        TrackerTable {
            map: Mutex::new(HashMap::new()),
            clock,
        }
    }

    /// Looks up where invocations for `id` should go. Routing alone does
    /// not count as a hit: the caller reports back with
    /// [`TrackerTable::credit`] once the dispatch actually succeeded, so
    /// failed or retried invokes do not inflate the traffic statistics
    /// the planner feeds on.
    pub fn route(&self, id: CompletId) -> Option<TrackerTarget> {
        self.map.lock().get(&id).map(|t| t.target)
    }

    /// Reads a tracker together with the move epoch it was accepted at,
    /// so resolvers can rank it against other location hints.
    pub fn peek_with_epoch(&self, id: CompletId) -> Option<(TrackerTarget, u64)> {
        self.map.lock().get(&id).map(|t| (t.target, t.epoch))
    }

    /// Records one successful dispatch through the tracker for `id` and
    /// refreshes its idle timestamp.
    pub fn credit(&self, id: CompletId) {
        let mut map = self.map.lock();
        if let Some(t) = map.get_mut(&id) {
            t.hits += 1;
            t.updated_at = self.clock.now_us();
        }
    }

    /// Points the tracker for `id` at the given target, creating it if
    /// needed. This is both tracker creation on arrival (`Local`) and
    /// repointing on departure or chain shortening (`Forward`). `epoch`
    /// is the move epoch of the reported location: an update older than
    /// what the tracker already accepted is rejected as stale.
    pub fn point(&self, id: CompletId, target: TrackerTarget, epoch: u64) -> PointOutcome {
        let mut map = self.map.lock();
        let now = self.clock.now_us();
        match map.entry(id) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                let t = e.get_mut();
                if epoch < t.epoch {
                    return PointOutcome::Stale {
                        current: t.target,
                        current_epoch: t.epoch,
                    };
                }
                let prev = t.target;
                t.target = target;
                t.epoch = epoch;
                t.updated_at = now;
                PointOutcome::Updated { prev: Some(prev) }
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(Tracker {
                    target,
                    hits: 0,
                    epoch,
                    updated_at: now,
                });
                PointOutcome::Updated { prev: None }
            }
        }
    }

    /// Creates a forwarding tracker only if none exists yet (used when a
    /// reference with a location hint arrives at a Core that has never
    /// seen the target).
    pub fn seed_forward(&self, id: CompletId, node: u32) {
        let mut map = self.map.lock();
        map.entry(id).or_insert(Tracker {
            target: TrackerTarget::Forward(node),
            hits: 0,
            epoch: 0,
            updated_at: self.clock.now_us(),
        });
    }

    /// Removes the tracker for `id` (complet garbage collected).
    pub fn remove(&self, id: CompletId) -> bool {
        self.map.lock().remove(&id).is_some()
    }

    /// Drops forwarding trackers that have not been touched for `max_idle`
    /// — the runtime's analog of the paper's tracker garbage collection.
    /// Idleness is measured on the table's [`Clock`], so under the
    /// deterministic checker retirement is a function of the schedule
    /// (explicit clock advances), not of how fast the host ran the test.
    /// Local trackers are never collected. Returns the ids dropped, so the
    /// caller can journal each retirement.
    pub fn collect_idle(&self, max_idle: Duration) -> Vec<CompletId> {
        let mut map = self.map.lock();
        let now = self.clock.now_us();
        let max_idle_us = max_idle.as_micros() as u64;
        let mut dropped = Vec::new();
        map.retain(|&id, t| {
            let keep =
                t.target == TrackerTarget::Local || now.saturating_sub(t.updated_at) < max_idle_us;
            if !keep {
                dropped.push(id);
            }
            keep
        });
        dropped.sort();
        dropped
    }

    /// Snapshot of every tracker, for inspection tools.
    pub fn snapshot(&self) -> Vec<TrackerSnapshot> {
        let map = self.map.lock();
        let mut out: Vec<TrackerSnapshot> = map
            .iter()
            .map(|(&id, t)| TrackerSnapshot {
                id,
                target: t.target,
                hits: t.hits,
                epoch: t.epoch,
            })
            .collect();
        out.sort_by_key(|s| s.id);
        out
    }

    /// Number of trackers currently in the table.
    pub fn len(&self) -> usize {
        self.map.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u64) -> CompletId {
        CompletId::new(0, n)
    }

    fn table() -> TrackerTable {
        TrackerTable::new(Clock::new_virtual(1_000_000))
    }

    #[test]
    fn point_and_route() {
        let t = table();
        assert_eq!(t.route(id(1)), None);
        t.point(id(1), TrackerTarget::Local, 0);
        assert_eq!(t.route(id(1)), Some(TrackerTarget::Local));
        t.point(id(1), TrackerTarget::Forward(3), 1);
        assert_eq!(t.route(id(1)), Some(TrackerTarget::Forward(3)));
    }

    #[test]
    fn hits_accumulate_on_credit_not_route() {
        let t = table();
        t.point(id(1), TrackerTarget::Local, 0);
        t.route(id(1));
        t.route(id(1));
        assert_eq!(t.snapshot()[0].hits, 0, "routing alone is not traffic");
        t.credit(id(1));
        t.credit(id(1));
        assert_eq!(t.snapshot()[0].hits, 2);
        t.credit(id(9));
        assert_eq!(t.len(), 1, "crediting a missing tracker is a no-op");
    }

    #[test]
    fn stale_epoch_is_rejected() {
        let t = table();
        t.point(id(1), TrackerTarget::Forward(2), 2);
        let out = t.point(id(1), TrackerTarget::Forward(9), 1);
        assert_eq!(
            out,
            PointOutcome::Stale {
                current: TrackerTarget::Forward(2),
                current_epoch: 2
            }
        );
        assert_eq!(t.route(id(1)), Some(TrackerTarget::Forward(2)));
        // Same epoch is allowed: chain shortening within one incarnation.
        let out = t.point(id(1), TrackerTarget::Forward(5), 2);
        assert_eq!(
            out,
            PointOutcome::Updated {
                prev: Some(TrackerTarget::Forward(2))
            }
        );
        assert_eq!(t.snapshot()[0].epoch, 2);
        // Newer epochs advance the guard.
        t.point(id(1), TrackerTarget::Local, 3);
        assert_eq!(t.snapshot()[0].epoch, 3);
    }

    #[test]
    fn seed_forward_does_not_clobber() {
        let t = table();
        t.point(id(1), TrackerTarget::Local, 0);
        t.seed_forward(id(1), 9);
        assert_eq!(t.route(id(1)), Some(TrackerTarget::Local));
        t.seed_forward(id(2), 9);
        assert_eq!(t.route(id(2)), Some(TrackerTarget::Forward(9)));
    }

    #[test]
    fn collect_idle_is_clock_driven_and_spares_local() {
        let clock = Clock::new_virtual(0);
        let t = TrackerTable::new(clock.clone());
        t.point(id(1), TrackerTarget::Local, 0);
        t.point(id(2), TrackerTarget::Forward(4), 1);
        assert!(
            t.collect_idle(Duration::from_millis(1)).is_empty(),
            "no virtual time has passed, nothing is idle"
        );
        clock.advance(Duration::from_millis(5));
        let dropped = t.collect_idle(Duration::from_millis(1));
        assert_eq!(dropped, vec![id(2)]);
        assert_eq!(t.route(id(1)), Some(TrackerTarget::Local));
        assert_eq!(t.route(id(2)), None);
    }

    #[test]
    fn credit_refreshes_idleness() {
        let clock = Clock::new_virtual(0);
        let t = TrackerTable::new(clock.clone());
        t.point(id(2), TrackerTarget::Forward(4), 1);
        clock.advance(Duration::from_millis(5));
        t.credit(id(2));
        assert!(
            t.collect_idle(Duration::from_millis(1)).is_empty(),
            "a fresh dispatch keeps the tracker alive"
        );
    }

    #[test]
    fn remove_and_len() {
        let t = table();
        t.point(id(1), TrackerTarget::Local, 0);
        assert_eq!(t.len(), 1);
        assert!(t.remove(id(1)));
        assert!(!t.remove(id(1)));
        assert_eq!(t.len(), 0);
    }
}
