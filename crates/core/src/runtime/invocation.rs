//! The Invocation unit: parameter passing and tracker-routed dispatch
//! (§3.1).
//!
//! * Regular values are passed **by value**; complet references inside a
//!   passed object graph travel with it but are **degraded to `link`**,
//!   and the referenced complets themselves are never copied.
//! * An invocation is routed by the local tracker: directly when the
//!   target is local, along the tracker chain otherwise. The reply walks
//!   the chain back, repointing every tracker to the target's final
//!   location (chain shortening).

use std::sync::atomic::Ordering;
use std::thread;
use std::time::Duration;

use bytes::Bytes;
use fargo_telemetry::{JournalKind, TraceContext};
use fargo_wire::{CompletId, Value};

use crate::error::{FargoError, Result};
use crate::proto::{invoke_args, put_invoke, Header, Reply, ReqId};
use crate::reference::tracker::TrackerTarget;
use crate::reference::CompletRef;
use crate::runtime::rpc::PendingRpc;
use crate::runtime::{Core, SlotState, APP_SEQ, MAX_HOPS};
use crate::telemetry::SpanParent;

/// Outcome of attempting to run an invocation on a local slot.
enum LocalExec {
    /// The invocation ran; here is its result.
    Done(Result<Value>),
    /// The complet moved away meanwhile; re-route.
    Moved,
}

/// Where the router decided an invocation should go.
enum Route {
    Local,
    Remote(u32),
    Unknown,
}

/// The arguments of a call being routed: the caller's own graph, or —
/// for a [`PendingCall`], which outlives that borrow — the body of the
/// request already sent. No second tree is held while a call is in flight.
#[derive(Clone, Copy)]
enum CallArgs<'a> {
    Borrowed(&'a [Value]),
    Encoded(&'a Bytes),
}

impl CallArgs<'_> {
    /// By-value semantics for a route that ends here: the one copy the
    /// callee gets, its complet references degraded to `link` (§3.1; a
    /// request body was degraded by its encoder).
    fn to_local_copy(self) -> Result<Vec<Value>> {
        match self {
            CallArgs::Borrowed(args) => Ok(args
                .iter()
                .map(|v| v.clone().transform_refs(&mut |r| r.degraded()))
                .collect()),
            CallArgs::Encoded(body) => invoke_args(body.clone()),
        }
    }
}

impl Core {
    /// Invokes `method(args)` on the complet behind `target`.
    ///
    /// This is the stub's call path for application code; complet code
    /// calls through [`Ctx::call`](crate::Ctx::call) so the call chain is
    /// threaded for re-entrancy detection.
    ///
    /// # Errors
    ///
    /// Fails when the target cannot be found, the chain exceeds the hop
    /// limit, the method is unknown, or the application method fails.
    pub fn invoke(&self, target: &CompletRef, method: &str, args: &[Value]) -> Result<Value> {
        self.invoke_chained(target, method, args, Vec::new())
    }

    /// Begins an invocation without blocking for its result (the engine
    /// behind [`BoundRef::call_async`](crate::BoundRef::call_async)).
    ///
    /// A remote target costs one request transmission here — no parked
    /// thread, no pool slot — and the returned [`PendingCall`] owns the
    /// correlation slot until waited or dropped. Local (and unroutable)
    /// targets resolve through the blocking path at issue time, since
    /// in-process execution has nothing to overlap with.
    pub fn invoke_async(&self, target: &CompletRef, method: &str, args: &[Value]) -> PendingCall {
        let id = target.id();
        let state = match self.route(id, target) {
            Route::Remote(node) => {
                self.inner.telemetry.invoke_total.inc();
                self.account_call(id, &[]);
                match self.begin_invoke(node, id, method, CallArgs::Borrowed(args), &[]) {
                    Ok(rpc) => PendingCallState::Remote {
                        rpc: Box::new(rpc),
                        target: target.clone(),
                        method: method.to_owned(),
                    },
                    Err(e) => PendingCallState::Ready(Err(e)),
                }
            }
            Route::Local | Route::Unknown => {
                PendingCallState::Ready(self.invoke(target, method, args))
            }
        };
        PendingCall { state }
    }

    pub(crate) fn invoke_chained(
        &self,
        target: &CompletRef,
        method: &str,
        args: &[Value],
        chain: Vec<CompletId>,
    ) -> Result<Value> {
        let t = &self.inner.telemetry;
        t.invoke_total.inc();
        // Root span (or child of the ambient one, when called from inside
        // another traced invocation); ambient while routing so outbound
        // requests carry the context.
        let span = t.span(SpanParent::Ambient, || {
            format!("invoke {}.{}", target.target_type(), method)
        });
        let started = self.inner.config.clock.now_us();
        let id = target.id();
        let result = if chain.contains(&id) {
            Err(FargoError::ReentrantInvocation(id))
        } else {
            self.account_call(id, &chain);
            self.route_and_settle(target, method, CallArgs::Borrowed(args), &chain, None)
        };
        let total_us = self.inner.config.clock.now_us().saturating_sub(started);
        t.invoke_latency_us.observe(total_us);
        let trace_id = span.ctx().map(|ctx| ctx.trace_id);
        drop(span);
        // Tail-based retention: requests slower than everything the
        // bounded slow-log already holds are admitted with a snapshot of
        // their local span tree, so the worst tail stays inspectable
        // (`shell slow`) long after the span ring has moved on.
        if t.phase_timing && total_us >= t.slow.threshold_us() {
            let spans = trace_id.map(|id| t.spans.for_trace(id)).unwrap_or_default();
            t.slow.offer(fargo_telemetry::SlowRecord {
                trace_id: trace_id.unwrap_or(0),
                name: format!("invoke {}.{}", target.target_type(), method),
                total_us,
                at_us: started,
                spans,
            });
        }
        result
    }

    /// What every application call does exactly once, whichever entry
    /// point issued it and however often it is re-routed: count it on
    /// its reference's row of the call-edge table — application-level
    /// profiling at the reference's source (§4.1; seq 0 = the
    /// application pseudo-complet). (The by-value copy is made where the
    /// route ends: by the encoder, or by [`CallArgs::to_local_copy`].)
    fn account_call(&self, id: CompletId, chain: &[CompletId]) {
        let src = chain
            .last()
            .copied()
            .unwrap_or(CompletId::new(self.inner.node.index(), APP_SEQ));
        self.inner.telemetry.edges.record((src, id), 0, 0, 0);
    }

    /// Issues the `Invoke` request for an accounted call to `node`,
    /// encoded straight from the borrowed arguments (or from the body
    /// this call already sent elsewhere: the fields are the same). The
    /// same `req_id` rides on every retransmitted copy, so a retried
    /// non-idempotent method is deduplicated (or replayed) at the
    /// executing Core.
    fn begin_invoke(
        &self,
        node: u32,
        target: CompletId,
        method: &str,
        args: CallArgs<'_>,
        chain: &[CompletId],
    ) -> Result<PendingRpc> {
        let path = [self.inner.node.index()];
        self.rpc_begin(node, "invoke", |w| match args {
            CallArgs::Borrowed(args) => put_invoke(w, target, method, args, chain, &path),
            CallArgs::Encoded(body) => w.put_raw(body),
        })
    }

    /// Routes an accounted call until it settles: executes it here,
    /// issues it to where the tracker points and waits, and re-routes
    /// when the target turns out to have moved on. `issued` is a request
    /// already in flight ([`PendingCall::wait`] hands over the one
    /// `invoke_async` sent); the blocking path starts with none.
    fn route_and_settle(
        &self,
        target: &CompletRef,
        method: &str,
        args: CallArgs<'_>,
        chain: &[CompletId],
        mut issued: Option<PendingRpc>,
    ) -> Result<Value> {
        let id = target.id();
        let me = self.inner.node.index();
        let clock = &self.inner.config.clock;
        let deadline = clock.deadline_us(self.inner.config.rpc_timeout);
        // A virtual clock only advances when the schedule says so; the
        // spin budget keeps a stale-route loop from hanging the checker
        // where wall time would eventually trip the deadline.
        let mut spins: u32 = 1 + self.inner.config.rpc_timeout.as_millis() as u32;
        let mut missing_retries = 0u32;
        loop {
            // The budget bounds the whole loop — re-routes, rpc rounds,
            // and backoff sleeps alike — so a flapping location can't
            // spin past the configured timeout.
            spins = spins.saturating_sub(1);
            if clock.now_us() > deadline || spins == 0 {
                return Err(FargoError::Timeout);
            }
            let rpc = match issued.take() {
                Some(rpc) => rpc,
                None => match self.route(id, target) {
                    Route::Local => {
                        match self.execute_local(id, method, &args.to_local_copy()?, chain) {
                            LocalExec::Done(res) => {
                                if res.is_ok() {
                                    target.set_last_known(me);
                                    self.inner.trackers.credit(id);
                                }
                                self.inner.telemetry.invoke_hops.observe(0);
                                return res;
                            }
                            LocalExec::Moved => continue,
                        }
                    }
                    Route::Remote(node) => self.begin_invoke(node, id, method, args, chain)?,
                    Route::Unknown => return Err(FargoError::UnknownComplet(id)),
                },
            };
            let node = rpc.node;
            match rpc.wait()? {
                Reply::InvokeOk {
                    value,
                    final_location,
                    ..
                } => {
                    // The dispatch through the tracker succeeded: only
                    // now does it count as traffic.
                    self.inner.trackers.credit(id);
                    target.set_last_known(final_location);
                    return Ok(value);
                }
                Reply::Err(FargoError::UnknownComplet(_)) if missing_retries < 3 => {
                    missing_retries += 1;
                    // The Core we routed to neither hosts nor tracks the
                    // target — our forward is a dead end (its tracker may
                    // have been idle-collected). Drop the stale edge; if
                    // the location shard knows better, re-seed from it
                    // and retry without backing off.
                    if self.inner.trackers.remove(id) {
                        self.inner.telemetry.journal(
                            JournalKind::TrackerRetired,
                            &id,
                            "",
                            "dead-end",
                            Some(node),
                        );
                    }
                    if let Route::Remote(n) = self.route_via_shard(id, Some(node)) {
                        self.inner.trackers.seed_forward(id, n);
                        continue;
                    }
                    // Location knowledge may lag a concurrent move; back
                    // off briefly (never past the deadline) and
                    // re-resolve.
                    let remaining = Duration::from_micros(deadline.saturating_sub(clock.now_us()));
                    if self.inner.shutdown.load(Ordering::SeqCst) {
                        return Err(FargoError::ShuttingDown);
                    }
                    if remaining.is_zero() {
                        return Err(FargoError::Timeout);
                    }
                    thread::sleep(Duration::from_millis(2).min(remaining));
                }
                Reply::Err(e) => return Err(e),
                other => {
                    return Err(FargoError::Protocol(format!(
                        "unexpected invoke reply {other:?}"
                    )))
                }
            }
        }
    }

    /// Decides where an invocation of `id` should go from this Core: the
    /// tracker table is the hint cache, the owning location shard the
    /// authority behind it.
    fn route(&self, id: CompletId, target: &CompletRef) -> Route {
        let me = self.inner.node.index();
        match self.inner.trackers.route(id) {
            Some(TrackerTarget::Local) => Route::Local,
            Some(TrackerTarget::Forward(n)) if n != me => Route::Remote(n),
            Some(TrackerTarget::Forward(_)) => {
                // A forward pointing at ourselves is stale.
                if self.hosts(id) {
                    let epoch = self.current_move_epoch(id);
                    let _ = self.inner.trackers.point(id, TrackerTarget::Local, epoch);
                    Route::Local
                } else {
                    Route::Unknown
                }
            }
            None => {
                // First use of a received reference: seed a tracker
                // from the descriptor's location hint.
                let hint = target.last_known();
                if hint != me {
                    self.inner.trackers.seed_forward(id, hint);
                    Route::Remote(hint)
                } else if self.hosts(id) {
                    let epoch = self.current_move_epoch(id);
                    let _ = self.inner.trackers.point(id, TrackerTarget::Local, epoch);
                    Route::Local
                } else {
                    // The tracker may have been garbage-collected.
                    self.route_via_shard(id, None)
                }
            }
        }
    }

    /// Last-resort routing: ask the resolver — the owning location shard,
    /// then the peers — whoever originated the complet; `dead_end` is the
    /// Core just found without it.
    fn route_via_shard(&self, id: CompletId, dead_end: Option<u32>) -> Route {
        match self.shard_consult(id, dead_end) {
            Some(r) if r.node != self.inner.node.index() => Route::Remote(r.node),
            _ => Route::Unknown,
        }
    }

    /// Runs an invocation against a local slot, waiting out transits.
    fn execute_local(
        &self,
        id: CompletId,
        method: &str,
        args: &[Value],
        chain: &[CompletId],
    ) -> LocalExec {
        let clock = &self.inner.config.clock;
        let wait_deadline = clock.deadline_us(self.inner.config.transit_wait);
        // Under a virtual clock the deadline only fires when the schedule
        // advances time; the poll budget (one per 1ms sleep below) keeps
        // the transit wait bounded regardless.
        let mut polls: u64 = 1 + self.inner.config.transit_wait.as_millis() as u64;
        loop {
            let Some(slot) = self.inner.complets.read().get(&id).cloned() else {
                return LocalExec::Moved;
            };
            let Some(mut guard) = slot.state.try_lock_for(self.inner.config.transit_wait) else {
                return LocalExec::Done(Err(FargoError::Timeout));
            };
            match &mut *guard {
                SlotState::Present(complet) => {
                    let t = &self.inner.telemetry;
                    let mut ctx = self.make_ctx(
                        id,
                        &slot.type_name,
                        chain.iter().copied().chain([id]).collect(),
                    );
                    let accounting = t.accounting;
                    let start = if accounting { t.phase_now_us() } else { 0 };
                    let mut result = complet.invoke(&mut ctx, method, args);
                    if accounting {
                        let exec_us = t.phase_now_us().saturating_sub(start);
                        let bytes_in: u64 = args.iter().map(|a| a.deep_size() as u64).sum();
                        let bytes_out = result.as_ref().map(|v| v.deep_size() as u64).unwrap_or(0);
                        t.account_exec(id, exec_us, bytes_in, bytes_out);
                    }
                    if result.is_err() {
                        t.invoke_errors_total.inc();
                    }
                    // Write-ahead before acknowledging: a successful
                    // reply promises the caller that the complet's
                    // post-invocation state survives a Core crash. The
                    // record is appended while the slot is still locked
                    // so log order matches invocation order — released
                    // first, a concurrent invocation could mutate the
                    // complet, append its newer state, and then be
                    // durably superseded by this one's stale snapshot
                    // (fold keeps the last record per id).
                    let mut acked = result.is_ok() && self.inner.wal.is_some();
                    if acked && !self.wal_capture_state(id, &slot.type_name, complet.marshal()) {
                        // The Core stopped mid-call: not logged, not acked.
                        acked = false;
                        result = Err(FargoError::ShuttingDown);
                    }
                    drop(guard);
                    if acked {
                        let detail = match result.as_ref() {
                            Ok(Value::I64(v)) => v.to_string(),
                            _ => String::new(),
                        };
                        t.journal(JournalKind::ExecAcked, &id, method, &detail, None);
                    }
                    // Weak mobility: deferred self-moves run only now,
                    // after the method body released the complet (§3.3).
                    self.run_deferred(ctx);
                    return LocalExec::Done(result);
                }
                SlotState::InTransit => {
                    drop(guard);
                    if self.inner.shutdown.load(Ordering::SeqCst) {
                        return LocalExec::Done(Err(FargoError::ShuttingDown));
                    }
                    polls = polls.saturating_sub(1);
                    if clock.now_us() > wait_deadline || polls == 0 {
                        return LocalExec::Done(Err(FargoError::Timeout));
                    }
                    thread::sleep(Duration::from_millis(1));
                }
                SlotState::Gone => return LocalExec::Moved,
            }
        }
    }

    /// Network-side handler: executes the invocation here and returns its
    /// reply, or forwards the request along the chain and returns `None`
    /// — the Core that executes it answers (and owns the dedup entry).
    /// `retrace` is the node this Core forwarded an earlier copy of the
    /// request to: a retransmission goes there, not where the tracker
    /// points now, so it ends at the Core whose entry replays the reply.
    /// A forward passes the origin's mark `acked` on as it came: no Core
    /// claims more for the origin than the origin did.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn handle_invoke(
        &self,
        origin: u32,
        req_id: ReqId,
        acked: ReqId,
        trace: Option<TraceContext>,
        target: CompletId,
        method: String,
        args: Vec<Value>,
        chain: Vec<CompletId>,
        path: &[u32],
        mut retrace: Option<u32>,
    ) -> Option<Reply> {
        let me = self.inner.node.index();
        // Tracker hops so far: the path lists the origin and each Core
        // that forwarded the request.
        let hops = path.len().saturating_sub(1) as u32;
        loop {
            let route = retrace.take().map(TrackerTarget::Forward);
            match route.or_else(|| self.inner.trackers.route(target)) {
                Some(TrackerTarget::Local) => {
                    // Execution span, parented on the requesting Core's
                    // invoke (or forward) span; ambient while the method
                    // body runs so nested calls join the trace.
                    let t = &self.inner.telemetry;
                    let span = t.span(SpanParent::Remote(trace), || format!("exec {method}"));
                    let exec_start = t.phase_timing.then(|| t.phase_now_us());
                    let exec = self.execute_local(target, &method, &args, &chain);
                    if let Some(t0) = exec_start {
                        t.latency_exec_us
                            .observe(t.phase_now_us().saturating_sub(t0));
                    }
                    drop(span);
                    match exec {
                        LocalExec::Done(res) => {
                            self.inner.telemetry.invoke_hops.observe(u64::from(hops));
                            return Some(match res {
                                Ok(value) => {
                                    self.inner.trackers.credit(target);
                                    // Stamp the executing incarnation's
                                    // epoch: every tracker the reply
                                    // passes can tell this location report
                                    // from a stale straggler.
                                    Reply::InvokeOk {
                                        value,
                                        final_location: me,
                                        target,
                                        epoch: self.current_move_epoch(target),
                                    }
                                }
                                Err(e) => Reply::Err(e),
                            });
                        }
                        LocalExec::Moved => continue,
                    }
                }
                Some(TrackerTarget::Forward(next)) if next != me => {
                    if hops + 1 > MAX_HOPS {
                        return Some(Reply::Err(FargoError::HopLimit(MAX_HOPS)));
                    }
                    let t = &self.inner.telemetry;
                    t.tracker_forwards_served_total.inc();
                    t.tracker_chain_length.observe(u64::from(hops) + 1);
                    // The forwarded request carries a span of its own so
                    // the rendered tree shows each chain hop; a Core that
                    // records none passes the requester's context on.
                    let span = t.span(SpanParent::Remote(trace), || format!("forward {method}"));
                    let head = Header::Request(req_id, origin, acked, span.ctx().or(trace));
                    let fwd_path = [path, &[me]].concat();
                    let fwd_start = t.phase_timing.then(|| t.phase_now_us());
                    // Straight from the decoded parts, nothing cloned.
                    let sent = self.send(next, "invoke", &head, |w| {
                        put_invoke(w, target, &method, &args, &chain, &fwd_path);
                    });
                    if let Some(t0) = fwd_start {
                        t.latency_forward_us
                            .observe(t.phase_now_us().saturating_sub(t0));
                    }
                    drop(span);
                    if let Err(e) = sent {
                        return Some(Reply::Err(e));
                    }
                    // The forward left this Core successfully — that is
                    // this tracker's dispatch, so count the hit now.
                    self.inner.trackers.credit(target);
                    // The executing Core downstream caches the reply. The
                    // slot here names where the request went: a
                    // retransmission follows the first copy, not the
                    // tracker, which may point elsewhere by then — and
                    // there the copy would execute a second time.
                    self.inner.reply_cache.forwarded(origin, req_id, next);
                    self.publish_reply_cache_usage();
                    return None;
                }
                Some(TrackerTarget::Forward(_)) | None => {
                    if self.hosts(target) {
                        let epoch = self.current_move_epoch(target);
                        let _ = self
                            .inner
                            .trackers
                            .point(target, TrackerTarget::Local, epoch);
                        continue;
                    }
                    // A dead end (idle-tracker collection may have
                    // retired this Core's tracker while stubs elsewhere
                    // still route through it): the caller drops its stale
                    // edge and re-resolves through the location shard.
                    return Some(Reply::Err(FargoError::UnknownComplet(target)));
                }
            }
        }
    }
}

/// An invocation in flight, returned by [`BoundRef::call_async`] /
/// [`Core::invoke_async`]. The request was transmitted at issue time;
/// [`PendingCall::wait`] collects the result (retransmitting within the
/// rpc budget as needed). Dropping it abandons the call.
///
/// [`BoundRef::call_async`]: crate::BoundRef::call_async
pub struct PendingCall {
    state: PendingCallState,
}

enum PendingCallState {
    /// The target was remote at issue time; a request is in flight.
    /// Boxed: the in-flight arm is several hundred bytes of retry
    /// state, the resolved arm just a `Result`.
    Remote {
        rpc: Box<PendingRpc>,
        target: CompletRef,
        method: String,
    },
    /// Resolved at issue time (local execution or an immediate error).
    Ready(Result<Value>),
}

impl PendingCall {
    /// Blocks until the invocation resolves and returns its result.
    ///
    /// # Errors
    ///
    /// Propagates invocation failures exactly as [`BoundRef::call`]
    /// does.
    ///
    /// [`BoundRef::call`]: crate::BoundRef::call
    pub fn wait(self) -> Result<Value> {
        match self.state {
            PendingCallState::Ready(r) => r,
            // The same loop the blocking call runs, entered with the
            // request already on the wire: if its destination turns out
            // to be a dead end the call is re-routed, not re-issued.
            PendingCallState::Remote {
                rpc,
                target,
                method,
            } => {
                let (core, body) = (rpc.core.clone(), rpc.body.clone());
                core.route_and_settle(&target, &method, CallArgs::Encoded(&body), &[], Some(*rpc))
            }
        }
    }
}

impl std::fmt::Debug for PendingCall {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.state {
            PendingCallState::Remote { rpc, method, .. } => f
                .debug_struct("PendingCall")
                .field("req_id", &rpc.req_id)
                .field("method", method)
                .finish(),
            PendingCallState::Ready(r) => f
                .debug_struct("PendingCall")
                .field("ready", &r.is_ok())
                .finish(),
        }
    }
}
