//! The caller side of the peer channel: everything this Core sends, and
//! every request it originates and waits on.
//!
//! There is one way out ([`Core::send`]: [`Core::frame`], then
//! [`Core::transmit`]), one place a request is given its id, one table
//! of requests awaiting their reply — whose smallest id is the mark every
//! request header carries ([`Core::request_head`]) — and one
//! retransmitting wait
//! ([`PendingRpc::wait`]) — the blocking [`Core::rpc`] is
//! `rpc_begin(..)?.wait()`, and both invocation styles issue and settle
//! through the same two calls.

use std::sync::atomic::Ordering;

use bytes::Bytes;
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError};
use fargo_telemetry::TraceContext;
use fargo_wire::WireWriter;

use crate::error::{FargoError, Result};
use crate::proto::{Header, Notify, Reply, ReqId, Request, Wire};
use crate::runtime::reliable::RetryBudget;
use crate::runtime::Core;
use crate::telemetry::current_trace;

/// Bytes reserved for an outgoing envelope before encoding: covers the
/// header plus a small invocation, so the common message never regrows
/// its buffer (larger ones grow normally).
const ENVELOPE_CAPACITY_HINT: usize = 128;

impl Core {
    /// Encodes and sends one envelope of `kind` (its metrics label).
    pub(crate) fn send(
        &self,
        node: u32,
        kind: &'static str,
        head: &Header<'_>,
        body: impl FnOnce(&mut WireWriter),
    ) -> Result<()> {
        let (frame, _) = self.frame(head, body);
        self.transmit(node, kind, frame)
    }

    pub(crate) fn send_notify(&self, node: u32, n: &Notify) -> Result<()> {
        self.send(node, "notify", &Header::Notify, |w| n.put(w))
    }

    /// Encodes one envelope under this Core's current stamps: `head`,
    /// then whatever `body` writes. Returns the frame and its body — a
    /// window into the frame, not a second copy — for a caller that may
    /// have to send the body again.
    pub(crate) fn frame(
        &self,
        head: &Header<'_>,
        body: impl FnOnce(&mut WireWriter),
    ) -> (Bytes, Bytes) {
        let t = &self.inner.telemetry;
        // Every outbound envelope carries this Core's send stamp when the
        // journal or phase timing is on: a journaling receiver merges it
        // so the global timeline stays causally consistent, and a timing
        // one subtracts its `wall_us` from its own clock to attribute
        // the network phase. The stamp is read before encoding (it rides
        // inside the payload), so the network measurement absorbs the
        // marshal time also recorded here.
        let hlc = t.hlc_send_stamp();
        let mut w = WireWriter::with_capacity(ENVELOPE_CAPACITY_HINT);
        head.encode(hlc, &mut w);
        let body_at = w.len();
        body(&mut w);
        // `Bytes` takes the buffer over, capacity and all, and a window
        // into the frame may be held for long (a recorded reply, a
        // request kept for retransmission). A frame that outgrew the
        // reserve doubled its way there, so it is shrunk before it is
        // shared; one that did not pins under 128 spare bytes.
        let mut frame = w.into_vec();
        if frame.capacity() > ENVELOPE_CAPACITY_HINT {
            frame.shrink_to_fit();
        }
        let frame = Bytes::from(frame);
        if let Some(sent) = hlc.filter(|_| t.phase_timing) {
            t.latency_marshal_us
                .observe(t.phase_now_us().saturating_sub(sent.wall_us));
        }
        let body = frame.slice(body_at..);
        (frame, body)
    }

    /// Hands one encoded envelope to the transport and counts it by
    /// kind. What crossed which link is counted once, by the network's
    /// admission.
    pub(crate) fn transmit(&self, node: u32, kind: &'static str, frame: Bytes) -> Result<()> {
        self.inner.telemetry.record_msg_out(kind, frame.len());
        self.inner
            .transport
            .send(node, frame)
            .map_err(FargoError::from)
    }

    /// Sends a request and waits for its reply. Unanswered requests are
    /// retransmitted with capped exponential backoff until the overall
    /// `rpc_timeout` budget runs out; receiver-side dedup keeps the
    /// retries at-most-once.
    pub(crate) fn rpc(&self, node: u32, body: Request) -> Result<Reply> {
        let kind = body.kind_name();
        self.rpc_begin(node, kind, |w| body.put(w))?.wait()
    }

    /// Issues a request without waiting for its reply: the envelope is
    /// transmitted immediately and a [`PendingRpc`] tracks the
    /// correlation slot. The caller later blocks in
    /// [`PendingRpc::wait`]. This is what lets one Core hold tens of
    /// thousands of requests in flight: issuing costs one send, not one
    /// parked thread. `body` writes the request body: it is encoded once,
    /// and the same id, ambient trace context and bytes ride on every
    /// retransmitted copy, which is what lets the receiver deduplicate.
    pub(crate) fn rpc_begin(
        &self,
        node: u32,
        kind: &'static str,
        body: impl FnOnce(&mut WireWriter),
    ) -> Result<PendingRpc> {
        let cfg = &self.inner.config;
        let budget = RetryBudget::new(
            cfg.clock.clone(),
            cfg.rpc_timeout,
            cfg.rpc_max_retries,
            cfg.rpc_retry_base,
            cfg.rpc_retry_cap,
        );
        let (tx, rx) = bounded(1);
        // Minted under the table's lock, so no id below the table's
        // smallest is ever still on its way in: that is what makes the
        // smallest the mark.
        let req_id = {
            let mut pending = self.inner.pending.lock();
            let req_id = self.inner.req_seq.fetch_add(1, Ordering::Relaxed);
            pending.insert(req_id, tx);
            req_id
        };
        // From here the slot is released by `PendingRpc`'s `Drop`,
        // whichever way this function or the wait ends.
        let mut pending = PendingRpc {
            core: self.clone(),
            node,
            req_id,
            kind,
            trace: current_trace(),
            body: Bytes::new(),
            rx,
            budget,
        };
        // Checked after the slot is registered: `stop` raises the flag
        // and then empties the table, so a request that slips past the
        // flag is still in the table when it is emptied.
        if self.inner.shutdown.load(Ordering::SeqCst) {
            return Err(FargoError::ShuttingDown);
        }
        // First transmission happens at issue time, so the request ages
        // (and the peer works on it) while the caller does other things.
        // A synchronous send failure (unknown or down node) is
        // definitive — retransmitting cannot answer it.
        let head = self.request_head(req_id, pending.trace);
        let (frame, body) = self.frame(&head, body);
        pending.body = body;
        self.transmit(node, kind, frame)?;
        Ok(pending)
    }

    /// Sends a request without registering a pending reply slot: the
    /// answer (if any) is dropped by `handle_reply`. Used for a move's
    /// abort, whose delivery the destination's held-move sweep
    /// guarantees, not retransmission.
    pub(crate) fn send_request_oneway(&self, node: u32, body: Request) {
        let req_id = self.inner.req_seq.fetch_add(1, Ordering::Relaxed);
        let head = self.request_head(req_id, None);
        let _ = self.send(node, body.kind_name(), &head, |w| body.put(w));
    }

    /// The header of one copy of request `req_id`, originated here. It
    /// carries this Core's answered-below mark as of now: the smallest id
    /// still awaiting its reply, capped at `req_id`. Every id below it
    /// has been answered or abandoned and is never sent again, so the
    /// Core that executed it may drop its reply's bytes.
    fn request_head(&self, req_id: ReqId, trace: Option<TraceContext>) -> Header<'static> {
        let lowest = self.inner.pending.lock().keys().next().copied();
        let acked = lowest.map_or(req_id, |low| low.min(req_id));
        Header::Request(req_id, self.inner.node.index(), acked, trace)
    }

    /// Hands a reply that reached its final hop to the caller waiting on
    /// it. A reply nobody waits for (a duplicate, an abandoned call, a
    /// one-way request) is dropped.
    pub(crate) fn complete_rpc(&self, req_id: ReqId, body: Reply) {
        if let Some(tx) = self.inner.pending.lock().remove(&req_id) {
            let _ = tx.send(body);
        }
    }

    /// Wakes every caller blocked in [`PendingRpc::wait`] with
    /// `ShuttingDown`: dropping the reply senders disconnects their
    /// channels.
    pub(crate) fn fail_pending_rpcs(&self) {
        self.inner.pending.lock().clear();
    }

    /// Requests issued by this Core still awaiting their reply (both
    /// blocking rpcs and unresolved [`PendingCall`](crate::PendingCall)s).
    pub fn inflight_rpcs(&self) -> usize {
        self.inner.pending.lock().len()
    }

    /// Asks every other member the same question, one peer at a time in
    /// node order, and returns the answers with the node that gave them.
    /// Unreachable peers are skipped.
    pub(crate) fn ask_peers(&self, body: &Request) -> Vec<(u32, Reply)> {
        let me = self.inner.node.index();
        self.member_indices()
            .into_iter()
            .filter(|&n| n != me)
            .filter_map(|n| Some((n, self.rpc(n, body.clone()).ok()?)))
            .collect()
    }
}

/// One issued request awaiting its reply (transport-level correlation).
///
/// Created by [`Core::rpc_begin`]; dropping it — waited or not —
/// releases its correlation slot.
pub(crate) struct PendingRpc {
    pub(super) core: Core,
    pub(super) node: u32,
    pub(super) req_id: ReqId,
    kind: &'static str,
    trace: Option<TraceContext>,
    /// As first sent; a retransmission is a fresh header (a new stamp,
    /// the mark as of then) around it.
    pub(super) body: Bytes,
    rx: Receiver<Reply>,
    budget: RetryBudget,
}

impl PendingRpc {
    /// Blocks for the reply, retransmitting on the request's
    /// [`RetryBudget`] (the request has been aging since `rpc_begin`, so
    /// a long-issued call may time out immediately).
    pub(crate) fn wait(mut self) -> Result<Reply> {
        loop {
            let wait = self.budget.attempt_wait().ok_or(FargoError::Timeout)?;
            match self.rx.recv_timeout(wait) {
                Ok(reply) => return Ok(reply),
                // Only `stop` drops a reply sender without using it.
                Err(RecvTimeoutError::Disconnected) => return Err(FargoError::ShuttingDown),
                Err(RecvTimeoutError::Timeout) => {
                    if !self.budget.advance() {
                        return Err(FargoError::Timeout);
                    }
                    self.core.inner.telemetry.rpc_retries_total.inc();
                    let (core, body) = (&self.core, &self.body);
                    let head = core.request_head(self.req_id, self.trace);
                    core.send(self.node, self.kind, &head, |w| w.put_raw(body))?;
                }
            }
        }
    }
}

impl Drop for PendingRpc {
    fn drop(&mut self) {
        // Answered requests were already removed by `complete_rpc`;
        // timed-out and abandoned ones must not leak their slot.
        self.core.inner.pending.lock().remove(&self.req_id);
    }
}
