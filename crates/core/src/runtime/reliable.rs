//! The reliable-messaging layer (at-most-once semantics).
//!
//! Three pieces cooperate:
//!
//! * senders retransmit un-answered requests with capped exponential
//!   backoff inside the overall `rpc_timeout` budget ([`retry_delay`]);
//! * receivers remember what they replied per `(origin, req_id)` in a
//!   bounded [`ReplyCache`], so a retransmitted request re-sends the
//!   recorded reply instead of executing a second time — or, at a Core
//!   that forwarded it, retraces its first copy's path to the Core that
//!   did. A reply's bytes are held only until its caller has it: every
//!   request carries its origin's answered-below mark, and the entries
//!   of that origin below the mark keep their key but drop their bytes;
//! * two-phase moves record their commit/abort verdicts in a bounded
//!   [`DecisionLog`], which is what peers consult to resolve in-doubt
//!   transactions after lost replies.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::time::Duration;

use bytes::Bytes;
use fargo_wire::CompletId;
use parking_lot::Mutex;

use crate::proto::ReqId;

/// One request as a receiver identifies it: origin Core + correlation id.
type Key = (u32, ReqId);

/// Bytes of encoded replies one Core's dedup cache may hold, whatever
/// `dedup_cache_capacity` (the knob, in entries) says. A backstop only:
/// the callers' marks release each reply once it has been received.
pub const DEDUP_CACHE_MAX_BYTES: usize = 16 << 20;

/// What the dedup cache knows about a request it has seen before.
#[derive(Clone)]
pub(crate) enum CacheSlot {
    /// The first copy is still executing; retransmits are dropped (the
    /// eventual reply answers them implicitly via sender retransmission).
    InFlight,
    /// Execution finished; retransmits get this encoded reply body
    /// re-sent verbatim and nothing re-executes.
    Done(Bytes),
    /// Execution finished and the caller has the reply (or gave up on
    /// it): its mark passed this id. The bytes are gone; a late copy is
    /// dropped, neither executed nor answered.
    Answered,
    /// Forwarded along a tracker chain to this node; retransmits are
    /// re-sent there, wherever the tracker points now, so they retrace
    /// the first copy's path to the Core whose entry replays the reply.
    Forwarded(u32),
}

/// Bounded `(origin, req_id) → reply` cache with FIFO eviction; the
/// receiver half of at-most-once execution. Replies are kept as the
/// bytes the responder encoded until their origin's mark passes them,
/// bounded in entries by the capacity and in bytes by
/// [`DEDUP_CACHE_MAX_BYTES`]. Capacity `0` disables it (every copy
/// executes — the historical behaviour).
pub(crate) struct ReplyCache {
    capacity: usize,
    inner: Mutex<CacheState>,
}

#[derive(Default)]
struct CacheState {
    slots: HashMap<Key, CacheSlot>,
    /// Insertion order for eviction: exactly the keys of `slots`.
    order: VecDeque<Key>,
    /// Sum of the lengths of the `Done` bodies.
    bytes: usize,
    /// Per origin, what its marks have said so far.
    origins: HashMap<u32, Origin>,
}

#[derive(Default)]
struct Origin {
    /// The highest mark seen: every id below it has been answered or
    /// abandoned at the origin, which never sends it again.
    acked: ReqId,
    /// The ids of the origin's `Done` slots, in order: what the next
    /// mark releases.
    done: BTreeSet<ReqId>,
}

impl CacheState {
    fn remove(&mut self, at: usize) {
        let key = self.order.remove(at).expect("index taken from `order`");
        if let Some(CacheSlot::Done(body)) = self.slots.remove(&key) {
            self.bytes -= body.len();
            if let Some(o) = self.origins.get_mut(&key.0) {
                o.done.remove(&key.1);
            }
        }
    }
}

impl ReplyCache {
    pub(crate) fn new(capacity: usize) -> Self {
        ReplyCache {
            capacity,
            inner: Mutex::default(),
        }
    }

    /// Admits one copy of a request: what is known of it, or `None` on a
    /// first sighting — execute it (an `InFlight` marker is now held and
    /// must be resolved with `complete` or `forwarded`) — plus how many
    /// old entries were evicted to make room. An entry still executing
    /// is never evicted, or a copy would run beside it; the worker queue
    /// bounds how far the cache can overshoot its capacity for them.
    pub(crate) fn begin(&self, origin: u32, req_id: ReqId) -> (Option<CacheSlot>, u64) {
        if self.capacity == 0 {
            return (None, 0);
        }
        let mut g = self.inner.lock();
        let key = (origin, req_id);
        if let Some(slot) = g.slots.get(&key) {
            return (Some(slot.clone()), 0);
        }
        let mut evicted = 0u64;
        while g.order.len() >= self.capacity {
            let oldest_settled = g
                .order
                .iter()
                .position(|k| !matches!(g.slots[k], CacheSlot::InFlight));
            let Some(at) = oldest_settled else { break };
            g.remove(at);
            evicted += 1;
        }
        g.slots.insert(key, CacheSlot::InFlight);
        g.order.push_back(key);
        (None, evicted)
    }

    /// Records the encoded reply of a request admitted with `begin` —
    /// only that it was answered, if its origin's mark has already passed
    /// it — then evicts the oldest recorded replies (never this one)
    /// until the byte bound holds; returns how many. A no-op when the
    /// entry was evicted meanwhile or never admitted (idempotent requests
    /// skip the cache).
    pub(crate) fn complete(&self, origin: u32, req_id: ReqId, body: Bytes) -> u64 {
        let mut g = self.inner.lock();
        let g = &mut *g;
        let key = (origin, req_id);
        let Some(slot) = g.slots.get_mut(&key) else {
            return 0;
        };
        let o = g.origins.entry(origin).or_default();
        let settled = if req_id < o.acked {
            CacheSlot::Answered
        } else {
            o.done.insert(req_id);
            g.bytes += body.len();
            CacheSlot::Done(body)
        };
        if let CacheSlot::Done(old) = std::mem::replace(slot, settled) {
            g.bytes -= old.len();
        }
        let (mut evicted, mut at) = (0u64, 0);
        while g.bytes > DEDUP_CACHE_MAX_BYTES && at < g.order.len() {
            let k = g.order[at];
            // Only a `Done` entry owns bytes, and dropping an `InFlight`
            // or `Forwarded` one would let a retransmission execute
            // beside the first copy.
            if k != key && matches!(g.slots[&k], CacheSlot::Done(_)) {
                g.remove(at);
                evicted += 1;
            } else {
                at += 1;
            }
        }
        evicted
    }

    /// Applies `origin`'s answered-below mark: each of its `Done` entries
    /// below `acked` becomes `Answered` — its key kept, its bytes
    /// dropped. A mark no higher than one seen before changes nothing.
    /// Returns how many replies were released, each at O(log n).
    pub(crate) fn release(&self, origin: u32, acked: ReqId) -> usize {
        if self.capacity == 0 {
            return 0;
        }
        let mut g = self.inner.lock();
        let g = &mut *g;
        let o = g.origins.entry(origin).or_default();
        if acked <= o.acked {
            return 0;
        }
        o.acked = acked;
        let mut released = 0;
        while let Some(&id) = o.done.first() {
            if id >= acked {
                break;
            }
            o.done.pop_first();
            if let Some(slot) = g.slots.get_mut(&(origin, id)) {
                if let CacheSlot::Done(body) = std::mem::replace(slot, CacheSlot::Answered) {
                    g.bytes -= body.len();
                    released += 1;
                }
            }
        }
        released
    }

    /// Records that a request admitted with `begin` was forwarded to
    /// `next` rather than executed here. The slot owns no bytes; like any
    /// entry it is evicted by the capacity.
    pub(crate) fn forwarded(&self, origin: u32, req_id: ReqId, next: u32) {
        if let Some(slot @ CacheSlot::InFlight) = self.inner.lock().slots.get_mut(&(origin, req_id))
        {
            *slot = CacheSlot::Forwarded(next);
        }
    }

    /// `(entries, bytes of recorded reply bodies)` held right now.
    pub(crate) fn usage(&self) -> (usize, usize) {
        let g = self.inner.lock();
        (g.order.len(), g.bytes)
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
/// decision here *before* sending `MoveCommit`, so a destination whose
/// commit never came can ask for it (`MoveDecision`); a destination
/// records its outcomes in one too, to answer retransmitted prepares and
/// commits. FIFO eviction bounds memory.
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

    fn body(len: usize, fill: u8) -> Bytes {
        Bytes::from(vec![fill; len])
    }

    /// The sides of the cache agree: `order` lists exactly the keys of
    /// `slots`, `bytes` is what the recorded bodies add up to, and the
    /// per-origin index lists exactly the `Done` slots.
    fn assert_consistent(cache: &ReplyCache) {
        let g = cache.inner.lock();
        assert_eq!(g.order.len(), g.slots.len());
        assert!(g.order.iter().all(|k| g.slots.contains_key(k)));
        let held: usize = g
            .slots
            .values()
            .map(|s| match s {
                CacheSlot::Done(b) => b.len(),
                CacheSlot::InFlight | CacheSlot::Answered | CacheSlot::Forwarded(_) => 0,
            })
            .sum();
        assert_eq!(g.bytes, held);
        let mut done: Vec<Key> = g
            .slots
            .iter()
            .filter(|(_, s)| matches!(s, CacheSlot::Done(_)))
            .map(|(k, _)| *k)
            .collect();
        done.sort_unstable();
        let mut indexed: Vec<Key> = g
            .origins
            .iter()
            .flat_map(|(&o, marks)| marks.done.iter().map(move |&id| (o, id)))
            .collect();
        indexed.sort_unstable();
        assert_eq!(done, indexed);
    }

    /// Admits and completes `(origin, req_id)` with a `len`-byte reply.
    fn answer(cache: &ReplyCache, origin: u32, req_id: ReqId, len: usize) {
        assert!(cache.begin(origin, req_id).0.is_none());
        cache.complete(origin, req_id, body(len, req_id as u8));
    }

    #[test]
    fn first_copy_executes_then_replays() {
        let cache = ReplyCache::new(8);
        let (d, _) = cache.begin(1, 10);
        assert!(d.is_none());
        // A retransmit while executing is dropped.
        let (d, _) = cache.begin(1, 10);
        assert!(matches!(d, Some(CacheSlot::InFlight)));
        cache.complete(1, 10, body(3, 7));
        // A retransmit after completion replays the recorded bytes.
        let (d, _) = cache.begin(1, 10);
        match d {
            Some(CacheSlot::Done(b)) => assert_eq!(b, body(3, 7)),
            _ => panic!("expected replay"),
        }
        // A different origin with the same req_id is a distinct request.
        let (d, _) = cache.begin(2, 10);
        assert!(d.is_none());
        assert_eq!(cache.usage(), (2, 3));
        assert_consistent(&cache);
    }

    #[test]
    fn zero_capacity_disables_dedup() {
        let cache = ReplyCache::new(0);
        for _ in 0..3 {
            let (d, e) = cache.begin(1, 1);
            assert!(d.is_none());
            assert_eq!(e, 0);
        }
    }

    #[test]
    fn eviction_is_fifo_and_counted() {
        let cache = ReplyCache::new(2);
        cache.begin(1, 1);
        cache.complete(1, 1, body(10, 1));
        cache.begin(1, 2);
        cache.complete(1, 2, body(20, 2));
        let (_, evicted) = cache.begin(1, 3);
        assert_eq!(evicted, 1);
        assert_eq!(cache.usage(), (2, 20));
        // The oldest entry (1,1) is gone: it now re-executes.
        let (d, _) = cache.begin(1, 1);
        assert!(d.is_none());
        assert_consistent(&cache);
    }

    #[test]
    fn capacity_eviction_never_drops_an_executing_request() {
        let cache = ReplyCache::new(2);
        for req_id in 1..=3 {
            let (d, evicted) = cache.begin(1, req_id);
            assert!(d.is_none());
            assert_eq!(evicted, 0, "every entry is still executing");
        }
        // The cache overshoots its capacity rather than forget one.
        assert_eq!(cache.usage(), (3, 0));
        let (d, _) = cache.begin(1, 1);
        assert!(matches!(d, Some(CacheSlot::InFlight)), "1 would run twice");
        // Once settled, the oldest entries go first again.
        cache.complete(1, 1, body(4, 1));
        let (_, evicted) = cache.begin(1, 4);
        assert_eq!(evicted, 1);
        assert!(cache.begin(1, 1).0.is_none(), "1 was the one evicted");
        assert_consistent(&cache);
    }

    #[test]
    fn a_mark_drops_the_bytes_below_it_and_keeps_the_keys() {
        let cache = ReplyCache::new(8);
        for req_id in 1..=4 {
            answer(&cache, 1, req_id, 100);
        }
        answer(&cache, 2, 1, 50);
        assert_eq!(cache.usage(), (5, 450));
        // Origin 1 has every reply below 3: two released, two kept.
        assert_eq!(cache.release(1, 3), 2);
        assert_eq!(cache.usage(), (5, 250));
        assert!(matches!(cache.begin(1, 2).0, Some(CacheSlot::Answered)));
        assert!(matches!(cache.begin(1, 3).0, Some(CacheSlot::Done(_))));
        // Another origin's entry with the same id is its own.
        assert!(matches!(cache.begin(2, 1).0, Some(CacheSlot::Done(_))));
        assert_consistent(&cache);
    }

    /// A copy of a released request finds `Answered`, never a first
    /// sighting: the dispatcher drops it, neither executed nor answered.
    #[test]
    fn a_late_copy_of_a_released_request_is_not_admitted() {
        let cache = ReplyCache::new(8);
        answer(&cache, 1, 7, 10);
        cache.release(1, 8);
        for _ in 0..3 {
            let (d, evicted) = cache.begin(1, 7);
            assert!(matches!(d, Some(CacheSlot::Answered)));
            assert_eq!(evicted, 0);
        }
        assert_eq!(cache.usage(), (1, 0));
        assert_consistent(&cache);
    }

    /// A request whose caller gave up while it executed: the mark passed
    /// it before its reply was recorded, so nothing is kept but the key.
    #[test]
    fn complete_below_the_mark_stores_no_bytes() {
        let cache = ReplyCache::new(8);
        assert!(cache.begin(1, 5).0.is_none());
        assert_eq!(cache.release(1, 9), 0, "nothing recorded yet");
        assert!(matches!(cache.begin(1, 5).0, Some(CacheSlot::InFlight)));
        assert_eq!(cache.complete(1, 5, body(1_000, 5)), 0);
        assert_eq!(cache.usage(), (1, 0));
        assert!(matches!(cache.begin(1, 5).0, Some(CacheSlot::Answered)));
        // At or above the mark a reply is recorded as before.
        answer(&cache, 1, 9, 30);
        assert_eq!(cache.usage(), (2, 30));
        assert_consistent(&cache);
    }

    /// Marks travel on different requests and workers, so they arrive in
    /// any order; a lower one after a higher one releases nothing more
    /// and brings nothing back.
    #[test]
    fn marks_out_of_order_never_unrelease_an_entry() {
        let cache = ReplyCache::new(16);
        for req_id in 1..=6 {
            answer(&cache, 1, req_id, 10);
        }
        assert_eq!(cache.release(1, 5), 4);
        assert_eq!(cache.release(1, 2), 0);
        assert_eq!(cache.release(1, 5), 0);
        // The origin's mark is still 5: a late reply below it is not kept.
        assert!(cache.begin(1, 3).0.is_some());
        answer(&cache, 1, 0, 10);
        assert!(matches!(cache.begin(1, 0).0, Some(CacheSlot::Answered)));
        for req_id in 1..=4 {
            assert!(matches!(
                cache.begin(1, req_id).0,
                Some(CacheSlot::Answered)
            ));
        }
        assert_eq!(cache.usage(), (7, 20));
        assert_eq!(cache.release(1, 7), 2);
        assert_eq!(cache.usage(), (7, 0));
        assert_consistent(&cache);
    }

    /// A Core that only forwards keeps one slot per request naming the
    /// next hop, bounded by the capacity like any entry, owning no bytes
    /// and never evicted for a reply's bytes.
    #[test]
    fn forwarded_slots_are_bounded_by_the_capacity_and_own_no_bytes() {
        let cache = ReplyCache::new(8);
        for req_id in 0..100_000 {
            let (d, evicted) = cache.begin(3, req_id);
            assert!(d.is_none());
            assert_eq!(evicted, u64::from(req_id >= 8));
            cache.forwarded(3, req_id, 2);
            assert!(cache.inner.lock().order.len() <= 8);
        }
        assert_eq!(cache.usage(), (8, 0));
        // A retransmission of a forwarded request is told where it went.
        let (d, _) = cache.begin(3, 99_999);
        assert!(matches!(d, Some(CacheSlot::Forwarded(2))));
        // Only a slot still executing turns into a forward.
        cache.begin(1, 1);
        cache.complete(1, 1, body(5, 0));
        cache.forwarded(1, 1, 2);
        let (d, _) = cache.begin(1, 1);
        assert!(matches!(d, Some(CacheSlot::Done(b)) if b == body(5, 0)));
        // A reply over the byte budget evicts recorded replies, never
        // forwarded slots.
        cache.begin(1, 2);
        cache.complete(1, 2, body(DEDUP_CACHE_MAX_BYTES, 1));
        assert_eq!(cache.usage(), (7, DEDUP_CACHE_MAX_BYTES));
        assert_consistent(&cache);
    }

    #[test]
    fn the_byte_bound_evicts_oldest_replies_first() {
        const REPLY: usize = 64 << 10;
        let cache = ReplyCache::new(1024);
        let mut evicted = 0;
        for req_id in 0..1024 {
            cache.begin(1, req_id);
            evicted += cache.complete(1, req_id, body(REPLY, req_id as u8));
            assert!(cache.usage().1 <= DEDUP_CACHE_MAX_BYTES);
        }
        let fit = DEDUP_CACHE_MAX_BYTES / REPLY;
        assert_eq!(cache.usage(), (fit, fit * REPLY));
        assert_eq!(evicted as usize, 1024 - fit);
        assert_consistent(&cache);
        // The newest replies are the ones kept.
        let (d, _) = cache.begin(1, 1023);
        assert!(matches!(d, Some(CacheSlot::Done(b)) if b == body(REPLY, 1023u64 as u8)));
        let (d, _) = cache.begin(1, 0);
        assert!(d.is_none());
    }

    #[test]
    fn a_reply_over_the_whole_budget_is_kept_alone_and_replayed() {
        let cache = ReplyCache::new(8);
        cache.begin(1, 1);
        cache.complete(1, 1, body(100, 1));
        // Still executing: owns no bytes, and must survive the eviction.
        cache.begin(1, 2);
        cache.begin(1, 3);
        let huge = body(DEDUP_CACHE_MAX_BYTES + 1, 9);
        assert_eq!(cache.complete(1, 3, huge.clone()), 1);
        assert_eq!(cache.usage(), (2, huge.len()));
        let (d, _) = cache.begin(1, 3);
        assert!(matches!(d, Some(CacheSlot::Done(b)) if b == huge));
        let (d, _) = cache.begin(1, 2);
        assert!(matches!(d, Some(CacheSlot::InFlight)));
        // The next reply displaces it.
        cache.complete(1, 2, body(10, 2));
        assert_eq!(cache.usage(), (1, 10));
        assert_consistent(&cache);
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
