//! The reliable-messaging layer (at-most-once semantics).
//!
//! Three pieces cooperate:
//!
//! * senders retransmit un-answered requests with capped exponential
//!   backoff inside the overall `rpc_timeout` budget ([`retry_delay`]);
//! * receivers remember what they replied per `(origin, req_id)` in a
//!   bounded [`ReplyCache`], so a retransmitted request re-sends the
//!   recorded reply instead of executing a second time;
//! * two-phase moves record their commit/abort verdicts in a bounded
//!   [`DecisionLog`], which is what peers consult to resolve in-doubt
//!   transactions after lost replies.

use std::collections::{HashMap, VecDeque};
use std::time::Duration;

use fargo_wire::CompletId;
use parking_lot::Mutex;

use crate::proto::{Reply, ReqId};

/// One request as a receiver identifies it: origin Core + correlation id.
type Key = (u32, ReqId);

/// What the dedup cache knows about one request.
enum CacheSlot {
    /// The first copy is still executing; retransmits are dropped (the
    /// eventual reply answers them implicitly via sender retransmission).
    InFlight,
    /// Execution finished; retransmits get this reply re-sent verbatim.
    Done(Reply),
}

/// Outcome of admitting one copy of a request.
pub(crate) enum CacheDecision {
    /// First sighting: execute it (an `InFlight` marker is now held and
    /// must be resolved with `complete` or `forget`).
    Execute,
    /// Another copy is still executing: drop this one.
    DropInFlight,
    /// Already executed: re-send this cached reply, do not re-execute.
    Replay(Reply),
}

/// Bounded `(origin, req_id) → reply` cache with FIFO eviction; the
/// receiver half of at-most-once execution. Capacity `0` disables it
/// (every copy executes — the historical behaviour).
pub(crate) struct ReplyCache {
    capacity: usize,
    inner: Mutex<CacheState>,
}

struct CacheState {
    slots: HashMap<Key, CacheSlot>,
    /// Insertion order for eviction; may hold stale keys after `forget`.
    order: VecDeque<Key>,
}

impl ReplyCache {
    pub(crate) fn new(capacity: usize) -> Self {
        ReplyCache {
            capacity,
            inner: Mutex::new(CacheState {
                slots: HashMap::new(),
                order: VecDeque::new(),
            }),
        }
    }

    /// Admits one copy of a request. Returns the decision plus how many
    /// old entries were evicted to make room (for the eviction counter).
    pub(crate) fn begin(&self, origin: u32, req_id: ReqId) -> (CacheDecision, u64) {
        if self.capacity == 0 {
            return (CacheDecision::Execute, 0);
        }
        let mut g = self.inner.lock();
        let key = (origin, req_id);
        if let Some(slot) = g.slots.get(&key) {
            return match slot {
                CacheSlot::InFlight => (CacheDecision::DropInFlight, 0),
                CacheSlot::Done(r) => (CacheDecision::Replay(r.clone()), 0),
            };
        }
        let mut evicted = 0u64;
        while g.slots.len() >= self.capacity {
            let Some(old) = g.order.pop_front() else {
                break;
            };
            if g.slots.remove(&old).is_some() {
                evicted += 1;
            }
        }
        g.slots.insert(key, CacheSlot::InFlight);
        g.order.push_back(key);
        (CacheDecision::Execute, evicted)
    }

    /// Records the reply produced for a request admitted with `begin`.
    /// A no-op when the entry was evicted meanwhile or never admitted
    /// (idempotent requests skip the cache entirely).
    pub(crate) fn complete(&self, origin: u32, req_id: ReqId, reply: &Reply) {
        if self.capacity == 0 {
            return;
        }
        let mut g = self.inner.lock();
        if let Some(slot) = g.slots.get_mut(&(origin, req_id)) {
            *slot = CacheSlot::Done(reply.clone());
        }
    }

    /// Drops a request's entry without recording a reply. Forwarding hops
    /// call this: the reply is produced (and cached) at the executing
    /// Core, and a lingering `InFlight` marker here would swallow every
    /// retransmission for good.
    pub(crate) fn forget(&self, origin: u32, req_id: ReqId) {
        if self.capacity == 0 {
            return;
        }
        self.inner.lock().slots.remove(&(origin, req_id));
    }

    /// Live entries (tests).
    #[cfg(test)]
    fn len(&self) -> usize {
        self.inner.lock().slots.len()
    }
}

/// The capped exponential retransmission backoff: `base * 2^attempt`,
/// saturating at `cap`.
pub(crate) fn retry_delay(attempt: u32, base: Duration, cap: Duration) -> Duration {
    let factor = 1u32.checked_shl(attempt).unwrap_or(u32::MAX);
    base.checked_mul(factor).unwrap_or(cap).min(cap)
}

/// One request's retransmission budget, shared by the blocking
/// [`Core::rpc`](crate::Core) path and asynchronous
/// [`PendingCall`](crate::PendingCall) waits so both age a request by
/// exactly the same rules.
///
/// The overall deadline is a *protocol* deadline and reads the Core's
/// shared [`Clock`] (the deterministic checker's virtual time governs
/// when a request is declared dead); the per-attempt channel waits the
/// caller performs with [`RetryBudget::attempt_wait`] are physical
/// blocking and stay on real time.
pub(crate) struct RetryBudget {
    clock: fargo_telemetry::Clock,
    deadline_us: u64,
    max_retries: u32,
    base: Duration,
    cap: Duration,
    attempt: u32,
}

impl RetryBudget {
    /// Opens a budget of `timeout` total with up to `max_retries`
    /// retransmissions, starting now on `clock`.
    pub(crate) fn new(
        clock: fargo_telemetry::Clock,
        timeout: Duration,
        max_retries: u32,
        base: Duration,
        cap: Duration,
    ) -> Self {
        let deadline_us = clock.deadline_us(timeout);
        RetryBudget {
            clock,
            deadline_us,
            max_retries,
            base,
            cap,
            attempt: 0,
        }
    }

    /// Budget time left on the protocol clock.
    pub(crate) fn remaining(&self) -> Duration {
        Duration::from_micros(self.deadline_us.saturating_sub(self.clock.now_us()))
    }

    /// How long the current attempt should block waiting for the reply:
    /// the final attempt waits out the rest of the budget, earlier ones
    /// wait one backoff step (never past the deadline). `None` when the
    /// budget is already exhausted.
    pub(crate) fn attempt_wait(&self) -> Option<Duration> {
        let remaining = self.remaining();
        if remaining.is_zero() {
            return None;
        }
        Some(if self.attempt >= self.max_retries {
            remaining
        } else {
            retry_delay(self.attempt, self.base, self.cap).min(remaining)
        })
    }

    /// Call after a wait expired unanswered: advances to the next
    /// attempt. Returns `false` when no retransmission is allowed (the
    /// retry count or the deadline ran out) — the request is dead.
    pub(crate) fn advance(&mut self) -> bool {
        if self.attempt >= self.max_retries || self.clock.now_us() >= self.deadline_us {
            return false;
        }
        self.attempt += 1;
        true
    }
}

/// Bounded log of two-phase move verdicts, keyed `(root, epoch)`:
/// `true` = committed, `false` = aborted. The source Core records its
/// decision here *before* sending `MoveCommit`, so either side can
/// resolve a lost reply by asking; FIFO eviction bounds memory.
pub(crate) struct DecisionLog {
    capacity: usize,
    inner: Mutex<DecisionState>,
}

struct DecisionState {
    verdicts: HashMap<(CompletId, u64), bool>,
    order: VecDeque<(CompletId, u64)>,
}

impl DecisionLog {
    pub(crate) fn new(capacity: usize) -> Self {
        DecisionLog {
            capacity,
            inner: Mutex::new(DecisionState {
                verdicts: HashMap::new(),
                order: VecDeque::new(),
            }),
        }
    }

    pub(crate) fn record(&self, root: CompletId, epoch: u64, committed: bool) {
        let mut g = self.inner.lock();
        while g.verdicts.len() >= self.capacity.max(1) {
            let Some(old) = g.order.pop_front() else {
                break;
            };
            g.verdicts.remove(&old);
        }
        if g.verdicts.insert((root, epoch), committed).is_none() {
            g.order.push_back((root, epoch));
        }
    }

    /// `Some(true)` committed, `Some(false)` aborted, `None` unknown.
    pub(crate) fn get(&self, root: CompletId, epoch: u64) -> Option<bool> {
        self.inner.lock().verdicts.get(&(root, epoch)).copied()
    }

    /// Every recorded verdict in insertion order — the write-ahead log's
    /// compaction snapshot, so verdict queries survive a Core restart.
    pub(crate) fn snapshot(&self) -> Vec<(CompletId, u64, bool)> {
        let g = self.inner.lock();
        g.order
            .iter()
            .filter_map(|k| g.verdicts.get(k).map(|v| (k.0, k.1, *v)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_copy_executes_then_replays() {
        let cache = ReplyCache::new(8);
        let (d, _) = cache.begin(1, 10);
        assert!(matches!(d, CacheDecision::Execute));
        // A retransmit while executing is dropped.
        let (d, _) = cache.begin(1, 10);
        assert!(matches!(d, CacheDecision::DropInFlight));
        cache.complete(1, 10, &Reply::Pong);
        // A retransmit after completion replays the recorded reply.
        let (d, _) = cache.begin(1, 10);
        match d {
            CacheDecision::Replay(Reply::Pong) => {}
            _ => panic!("expected replay"),
        }
        // A different origin with the same req_id is a distinct request.
        let (d, _) = cache.begin(2, 10);
        assert!(matches!(d, CacheDecision::Execute));
    }

    #[test]
    fn zero_capacity_disables_dedup() {
        let cache = ReplyCache::new(0);
        for _ in 0..3 {
            let (d, e) = cache.begin(1, 1);
            assert!(matches!(d, CacheDecision::Execute));
            assert_eq!(e, 0);
        }
    }

    #[test]
    fn eviction_is_fifo_and_counted() {
        let cache = ReplyCache::new(2);
        cache.begin(1, 1);
        cache.complete(1, 1, &Reply::Pong);
        cache.begin(1, 2);
        cache.complete(1, 2, &Reply::Ok);
        let (_, evicted) = cache.begin(1, 3);
        assert_eq!(evicted, 1);
        assert_eq!(cache.len(), 2);
        // The oldest entry (1,1) is gone: it now re-executes.
        let (d, _) = cache.begin(1, 1);
        assert!(matches!(d, CacheDecision::Execute));
    }

    #[test]
    fn forget_reopens_the_entry() {
        let cache = ReplyCache::new(8);
        cache.begin(1, 1);
        cache.forget(1, 1);
        let (d, _) = cache.begin(1, 1);
        assert!(
            matches!(d, CacheDecision::Execute),
            "forgotten entry must re-admit"
        );
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(70);
        assert_eq!(retry_delay(0, base, cap), Duration::from_millis(10));
        assert_eq!(retry_delay(1, base, cap), Duration::from_millis(20));
        assert_eq!(retry_delay(2, base, cap), Duration::from_millis(40));
        assert_eq!(retry_delay(3, base, cap), cap);
        assert_eq!(retry_delay(40, base, cap), cap);
    }

    #[test]
    fn retry_budget_paces_and_expires() {
        let clock = fargo_telemetry::Clock::new_virtual(0);
        let mut b = RetryBudget::new(
            clock.clone(),
            Duration::from_millis(100),
            2,
            Duration::from_millis(10),
            Duration::from_millis(40),
        );
        assert_eq!(b.attempt_wait(), Some(Duration::from_millis(10)));
        assert!(b.advance());
        assert_eq!(b.attempt_wait(), Some(Duration::from_millis(20)));
        assert!(b.advance());
        // The final attempt waits out the whole remaining budget.
        assert_eq!(b.attempt_wait(), Some(Duration::from_millis(100)));
        assert!(!b.advance(), "retry count exhausted");
        clock.advance(Duration::from_millis(200));
        assert_eq!(b.attempt_wait(), None, "deadline passed");
    }

    #[test]
    fn retry_budget_deadline_preempts_retries() {
        let clock = fargo_telemetry::Clock::new_virtual(0);
        let mut b = RetryBudget::new(
            clock.clone(),
            Duration::from_millis(50),
            8,
            Duration::from_millis(10),
            Duration::from_millis(40),
        );
        assert!(b.advance());
        clock.advance(Duration::from_millis(60));
        assert!(!b.advance(), "past the deadline no retry is allowed");
        assert_eq!(b.attempt_wait(), None);
    }

    #[test]
    fn decision_log_records_and_evicts() {
        let log = DecisionLog::new(2);
        let c = |n| CompletId::new(0, n);
        log.record(c(1), 1, true);
        log.record(c(2), 1, false);
        assert_eq!(log.get(c(1), 1), Some(true));
        assert_eq!(log.get(c(2), 1), Some(false));
        assert_eq!(log.get(c(1), 2), None);
        log.record(c(3), 1, true);
        assert_eq!(log.get(c(1), 1), None, "oldest verdict evicted");
        assert_eq!(log.get(c(3), 1), Some(true));
    }
}
