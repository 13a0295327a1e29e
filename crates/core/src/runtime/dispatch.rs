//! The receiver side of the peer channel: datagrams in, decoded,
//! dispatched — requests to the bounded worker pool (or served inline
//! when that is safe), replies to the caller waiting on them or onward
//! along their route, notifies to their handlers.
//!
//! A served request is answered in exactly one place,
//! [`Core::respond`], which also records the reply for the dedup cache.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;

use bytes::Bytes;
use crossbeam::channel::Receiver;
use fargo_net::Datagram;
use fargo_telemetry::{JournalKind, TraceContext};

use crate::error::FargoError;
use crate::events::Delivery;
use crate::proto::{Header, Message, Notify, Reply, ReqId, Request, Wire};
use crate::runtime::reliable::CacheSlot;
use crate::runtime::Core;

/// One request, as the receiver loop serves it inline or hands it over.
pub(crate) struct WorkRequest {
    pub origin: u32,
    pub req_id: ReqId,
    pub acked: ReqId,
    pub trace: Option<TraceContext>,
    /// Shared-clock µs at which the receiver enqueued the request
    /// (`None` when phase timing is off); the worker that picks it up
    /// attributes the difference to the queue-wait phase.
    pub enqueued_us: Option<u64>,
    pub body: Request,
}

/// One unit of work for the worker pool, the Core's one executor.
pub(crate) enum Job {
    /// A request the receiver loop handed over.
    Request(WorkRequest),
    /// Work the Core started itself: events, follow-ups, resolutions.
    Task(Box<dyn FnOnce(&Core) + Send>),
}

/// What a caught panic said, for the error its caller receives.
fn panic_message(cause: &(dyn Any + Send)) -> String {
    let said = cause
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| cause.downcast_ref::<String>().map(String::as_str));
    format!("panicked: {}", said.unwrap_or("(no message)"))
}

impl Core {
    /// Starts the receiver: every datagram in, until the transport shuts.
    pub(super) fn spawn_receiver(&self) {
        self.spawn_thread(format!("fargo-core-{}", self.inner.name), |core| {
            while let Ok(incoming) = core.inner.transport.recv() {
                core.receive(incoming);
            }
        });
    }

    /// Starts the bounded worker pool. Workers share one queue; replies
    /// and notifies bypass it (handled inline on the receiver loop), so a
    /// pool saturated with jobs blocked in nested rpcs can still be
    /// unblocked by incoming replies. A worker ends when `stop` has
    /// dropped the queue's sender and the queue is empty; jobs still
    /// queued then are dropped unrun.
    pub(super) fn spawn_workers(&self, work_rx: &Receiver<Job>) {
        for i in 0..self.inner.config.worker_threads {
            let rx = work_rx.clone();
            self.spawn_thread(
                format!("fargo-worker-{}-{i}", self.inner.name),
                move |core| {
                    while let Ok(job) = rx.recv() {
                        if core.inner.shutdown.load(Ordering::SeqCst) {
                            continue;
                        }
                        core.inner.busy_workers.fetch_add(1, Ordering::SeqCst);
                        match job {
                            // A panicking method fails its call, not the
                            // worker: the caller hears at once.
                            Job::Request(req) => {
                                let (origin, req_id) = (req.origin, req.req_id);
                                let served = AssertUnwindSafe(|| core.handle_request(req));
                                if let Err(cause) = panic::catch_unwind(served) {
                                    let err = FargoError::App(panic_message(&*cause));
                                    core.respond(origin, req_id, &[], Reply::Err(err));
                                }
                            }
                            // A panicking listener ends its delivery only.
                            Job::Task(task) => {
                                let _ = panic::catch_unwind(AssertUnwindSafe(|| task(core)));
                            }
                        }
                        core.inner.busy_workers.fetch_sub(1, Ordering::SeqCst);
                    }
                },
            );
        }
    }

    /// Hands `job` to the worker pool, or sheds it (counted once) when the
    /// queue is full: never blocks, since the receiver loop and running
    /// jobs submit. Returns whether the pool accepted it. After `stop`
    /// the job is dropped, uncounted.
    pub(crate) fn submit(&self, job: Job) -> bool {
        let senders = self.inner.senders.read();
        let Some((work_tx, _)) = senders.as_ref() else {
            return false;
        };
        let accepted = work_tx.try_send(job).is_ok();
        if !accepted {
            self.inner.telemetry.worker_rejections_total.inc();
        }
        accepted
    }

    /// Decodes one datagram (in place — the reader walks the transport's
    /// buffer), absorbs its envelope metadata and dispatches the message.
    fn receive(&self, incoming: Datagram) {
        let t = &self.inner.telemetry;
        let wire_len = incoming.payload.len();
        let Ok((msg, hlc)) = Message::decode(incoming.payload) else {
            // Malformed, truncated or unknown-version frame: dropped, as
            // a real Core would, and counted.
            t.msg_decode_errors_total.inc();
            return;
        };
        if let Some(h) = hlc {
            t.observe_hlc(h);
            // One-way delivery latency as the application experienced it
            // (propagation + queueing + marshal), measured on the shared
            // clock the sender's `wall_us` was read from. Fed back to the
            // substrate so the layout cost model calibrates from
            // observations.
            let us = t.phase_now_us().saturating_sub(h.wall_us);
            t.observe_phase(&t.latency_network_us, us);
            self.record_link_latency(incoming.src, us);
        }
        t.record_msg_in(msg.kind_label(), wire_len);
        t.queue_depth.set(self.inner.transport.queue_len() as f64);
        self.dispatch(msg);
    }

    fn dispatch(&self, msg: Message) {
        match msg {
            Message::Request {
                req_id,
                origin,
                acked,
                trace,
                body,
            } => {
                // The origin has every reply below its mark: their bytes
                // go, whatever becomes of this request.
                if self.inner.reply_cache.release(origin, acked) > 0 {
                    self.publish_reply_cache_usage();
                }
                // Read-only snapshot requests are served right here on
                // the dispatch loop: they never run complet code, never
                // block, and never rpc, so they cannot stall the loop —
                // and they no longer occupy (or get shed from) pool
                // slots while the pool is saturated with slow work.
                let mut req = WorkRequest {
                    origin,
                    req_id,
                    acked,
                    trace,
                    enqueued_us: None,
                    body,
                };
                if req.body.inline_safe() {
                    self.inner.telemetry.worker_inline_total.inc();
                    self.inner.busy_workers.fetch_add(1, Ordering::SeqCst);
                    self.handle_request(req);
                    self.inner.busy_workers.fetch_sub(1, Ordering::SeqCst);
                    return;
                }
                // Everything else runs on the bounded worker pool. A full
                // queue drops the request — never blocks the receiver
                // loop (replies must keep flowing or workers blocked in
                // nested rpcs would deadlock) — and the sender's
                // retransmission recovers it once workers drain.
                req.enqueued_us = self.inner.telemetry.phase_send_stamp();
                self.submit(Job::Request(req));
            }
            Message::Reply {
                req_id,
                route,
                body,
            } => self.handle_reply(req_id, route, body),
            Message::Notify(n) => self.handle_notify(n),
        }
    }

    fn handle_request(&self, req: WorkRequest) {
        let WorkRequest {
            origin,
            req_id,
            acked,
            trace,
            enqueued_us,
            body,
        } = req;
        let t = &self.inner.telemetry;
        if let Some(enq) = enqueued_us {
            // Queue-wait phase: receiver enqueue to worker pickup.
            t.observe_phase(&t.latency_queue_us, t.phase_now_us().saturating_sub(enq));
        }
        if self.inner.shutdown.load(Ordering::SeqCst) {
            return self.respond(origin, req_id, &[], Reply::Err(FargoError::ShuttingDown));
        }
        // At-most-once admission: a retransmitted copy of a request we
        // already executed replays the recorded reply; one we are still
        // executing, or whose caller already has the reply, is dropped;
        // one we forwarded follows the first copy. Idempotent
        // (read-only) kinds skip the cache and simply re-execute.
        let mut retrace = None;
        if !body.idempotent() {
            let (decision, evicted) = self.inner.reply_cache.begin(origin, req_id);
            if evicted > 0 {
                self.inner.telemetry.dedup_evictions_total.add(evicted);
            }
            match decision {
                None => {}
                Some(CacheSlot::InFlight) => {
                    self.inner.telemetry.dedup_inflight_total.inc();
                    return;
                }
                Some(CacheSlot::Answered) => return,
                Some(CacheSlot::Done(body)) => {
                    // The recorded body, as it is, under a fresh header.
                    self.inner.telemetry.dedup_hits_total.inc();
                    let head = Header::Reply(req_id, &[]);
                    let (frame, _) = self.frame(&head, |w| w.put_raw(&body));
                    return self.send_reply(origin, req_id, frame);
                }
                // Forwarded from here before: the copy retraces the first
                // one's path (only an invocation is ever forwarded).
                Some(CacheSlot::Forwarded(next)) => retrace = Some(next),
            }
        }
        let reply = match body {
            Request::Invoke {
                target,
                method,
                args,
                chain,
                path,
            } => {
                // The one kind whose reply retraces the request's path.
                // `None`: forwarded along the chain — the Core that
                // executes it answers.
                if let Some(reply) = self.handle_invoke(
                    origin, req_id, acked, trace, target, method, args, chain, &path, retrace,
                ) {
                    self.respond(origin, req_id, &path, reply);
                }
                return;
            }
            Request::MovePrepare {
                packets,
                continuation,
            } => self.handle_move_prepare(origin, packets, continuation),
            Request::MoveCommit { root, epoch } => self.handle_move_commit(root, epoch, trace),
            Request::MoveAbort { root, epoch } => self.handle_move_abort(root, epoch),
            Request::MoveDecision { root, epoch } => self.handle_move_decision(root, epoch),
            Request::NewComplet { type_name, args } => match self.new_complet(&type_name, &args) {
                Ok(b) => Reply::NewOk {
                    desc: b.complet_ref().descriptor(),
                },
                Err(e) => Reply::Err(e),
            },
            Request::NameLookup { name } => Reply::NameOk {
                desc: self.lookup(&name).map(|r| r.descriptor()),
            },
            Request::FetchState { id } => match self.marshal_in_place(id) {
                Ok((type_name, state)) => Reply::StateOk { type_name, state },
                Err(e) => Reply::Err(e),
            },
            // Moved for `origin` when this Core hosts the first id, and
            // answered with where each complet of the stream went. A Core
            // that does not host it says so and asks nobody: a worker
            // blocked in a nested request could starve the very prepare
            // it waits on.
            Request::MoveRequest { ids, dest } => {
                let moved = match ids.first() {
                    Some(&root) if !self.hosts(root) => Err(FargoError::UnknownComplet(root)),
                    Some(_) => self.move_hosted(&ids, dest, None, Some(origin)),
                    None => Ok(Vec::new()),
                };
                match moved {
                    Ok(entries) => Reply::ShardEntries { entries },
                    Err(e) => Reply::Err(e),
                }
            }
            Request::LocateQuery { id } => {
                let (node, epoch) = self.locate_answer(id);
                Reply::LocateOk { node, epoch }
            }
            Request::ShardList => Reply::ShardEntries {
                entries: self
                    .inner
                    .shard
                    .alive()
                    .into_iter()
                    .map(|(id, e)| (id, e.node, e.epoch))
                    .collect(),
            },
            Request::Subscribe {
                selector,
                threshold,
                above,
                listener,
            } => {
                self.start_profiling_for_selector(&selector);
                self.inner
                    .hub
                    .subscribe(&selector, threshold, above, Delivery::Remote(listener));
                Reply::Ok
            }
            Request::Unsubscribe { selector, listener } => {
                // One release per subscription removed: each started one.
                for _ in 0..self.inner.hub.unsubscribe_remote(&selector, &listener) {
                    self.stop_profiling_for_selector(&selector);
                }
                Reply::Ok
            }
            Request::ListComplets => Reply::Complets {
                items: self.complet_inventory(),
            },
            Request::ListTrackers => Reply::Trackers {
                items: self.tracker_rows(),
            },
            Request::TraceSpans { trace_id } => Reply::Spans {
                spans: self.inner.telemetry.spans.for_trace(trace_id),
            },
            Request::JournalEvents => Reply::Journal {
                events: self.inner.telemetry.journal.snapshot(),
            },
            Request::TopComplets { n } => Reply::TopComplets {
                rows: self.inner.telemetry.accountant.top(n as usize),
            },
            Request::TrafficMatrix => Reply::Matrix {
                cells: self.traffic_matrix(),
            },
            Request::Ping => Reply::Pong,
            Request::InvokeEdges => Reply::InvokeEdges {
                rows: self.invoke_edges(),
            },
        };
        self.respond(origin, req_id, &[], reply);
    }

    /// Answers a served request — the only place a reply is encoded.
    ///
    /// The encoded body is first recorded against `(origin, req_id)` so a
    /// retransmitted copy replays it instead of re-executing (a no-op for
    /// idempotent kinds, which were never admitted to the cache). It then
    /// walks `path` — the nodes the request traversed, origin first —
    /// backwards, so every tracker on an invocation chain learns the
    /// final location (§3.1); an empty path answers the origin directly.
    /// The walk skips the last forwarder: it forwarded to this Core, so
    /// its tracker already names it, and with one forwarder the reply
    /// goes straight to the origin.
    fn respond(&self, origin: u32, req_id: ReqId, path: &[u32], body: Reply) {
        let path = path.split_last().map_or(path, |(_, rest)| rest);
        let (first, route) = match path.split_last() {
            Some((&last, rest)) => (last, rest.iter().rev().copied().collect()),
            None => (origin, Vec::new()),
        };
        let (frame, body) = self.frame(&Header::Reply(req_id, &route), |w| body.put(w));
        let evicted = self.inner.reply_cache.complete(origin, req_id, body);
        self.inner.telemetry.dedup_evictions_total.add(evicted);
        self.publish_reply_cache_usage();
        self.send_reply(first, req_id, frame);
    }

    fn send_reply(&self, first: u32, req_id: ReqId, frame: Bytes) {
        if let Err(e) = self.transmit(first, "reply", frame) {
            // A dropped reply leaves the requester to retransmit or time
            // out; count and journal it so lost-reply scenarios show up
            // in diagnostics instead of vanishing.
            self.inner.telemetry.reply_send_failures.inc();
            self.inner.telemetry.journal(
                JournalKind::ReplyDropped,
                &req_id,
                "",
                &e.to_string(),
                Some(first),
            );
        }
    }

    /// Brings the dedup-cache gauges up to date (an entry was settled or
    /// a mark released some).
    pub(crate) fn publish_reply_cache_usage(&self) {
        let (entries, bytes) = self.inner.reply_cache.usage();
        let t = &self.inner.telemetry;
        t.dedup_cache_entries.set(entries as f64);
        t.dedup_cache_bytes.set(bytes as f64);
    }

    fn handle_reply(&self, req_id: ReqId, route: Vec<u32>, body: Reply) {
        // Chain shortening (§3.1): every Core a reply passes through
        // learns the target's final location and repoints its tracker.
        // The move epoch stamped by the executing Core lets stragglers
        // from an earlier incarnation be recognised and rejected.
        if let Reply::InvokeOk {
            final_location,
            target,
            epoch,
            ..
        } = &body
        {
            self.learn_location(*target, *final_location, *epoch);
        }
        let Some((&next, rest)) = route.split_first() else {
            return self.complete_rpc(req_id, body);
        };
        let _ = self.send(next, "reply", &Header::Reply(req_id, rest), |w| body.put(w));
    }

    fn handle_notify(&self, n: Notify) {
        match n {
            Notify::Event { token, payload } => {
                let handler = self.inner.sinks.lock().get(&token).cloned();
                if let Some(h) = handler {
                    self.submit(Job::Task(Box::new(move |_| h(&payload))));
                }
            }
            Notify::ShardDelta { entries } => {
                self.absorb_shard_publishes(entries);
            }
        }
    }

    /// Work the Core has accepted but not yet finished: undelivered
    /// datagrams, queued worker jobs, and jobs or inline requests running.
    /// Zero across every Core (with the network drained) means the
    /// cluster is quiescent — the deterministic checker's step barrier.
    #[doc(hidden)]
    pub fn pending_work(&self) -> usize {
        self.inner.transport.queue_len()
            + self.inner.work_rx.len()
            + self.inner.busy_workers.load(Ordering::SeqCst) as usize
    }
}
