//! What an operator can ask a running Core: traces, the layout journal,
//! the tail-latency, heavy-hitter and traffic-matrix observatories, the
//! metrics exposition, and remote table inspection.

use fargo_telemetry::{
    merge_timelines, render_snapshots_json, render_span_tree, AccountRecord, Histogram, Hlc,
    JournalEvent, JournalKind, LayoutHistory, MatrixCell, SlowRecord, SpanRecord,
};
use fargo_wire::CompletId;
use simnet::LinkStats;

use crate::error::{FargoError, Result};
use crate::events::EventPayload;
use crate::proto::{Reply, Request};
use crate::reference::tracker::TrackerTarget;
use crate::runtime::Core;

/// Percentile summary of one latency histogram, as returned by
/// [`Core::latency_summaries`]. Percentiles are geometric log-bucket
/// estimates in µs; `None` while the histogram is empty.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencySummary {
    /// Which component of the request this row covers (`queue`,
    /// `marshal`, `network`, `exec`, `forward`, `invoke`,
    /// `invoke(recent)`).
    pub phase: &'static str,
    /// Observations behind the estimates.
    pub count: u64,
    /// Estimated median in µs.
    pub p50: Option<f64>,
    /// Estimated 99th percentile in µs.
    pub p99: Option<f64>,
    /// Estimated 99.9th percentile in µs.
    pub p999: Option<f64>,
}

impl Core {
    /// Appends a decision/annotation event to this Core's journal (no-op
    /// when journaling is disabled). Used by subsystems layered on top of
    /// the Core — notably the layout planner — so their decisions land in
    /// the same causally-ordered timeline as the moves they cause.
    pub fn journal_note(
        &self,
        kind: JournalKind,
        subject: &str,
        object: &str,
        detail: &str,
        peer: Option<u32>,
    ) {
        self.inner
            .telemetry
            .journal(kind, &subject, object, detail, peer);
    }

    /// Reliable-messaging counters for this Core, in order:
    /// (rpc retransmissions, dedup-cache replays, reply send failures,
    /// moves whose commit round went unanswered — each returned
    /// [`FargoError::MoveInDoubt`] and was left to the destination's
    /// held-move sweep).
    pub fn reliability_stats(&self) -> (u64, u64, u64, u64) {
        let t = &self.inner.telemetry;
        (
            t.rpc_retries_total.get(),
            t.dedup_hits_total.get(),
            t.reply_send_failures.get(),
            t.move_indoubt_total.get(),
        )
    }

    /// Received datagrams this Core dropped because they did not decode
    /// (`fargo_msg_decode_errors_total`).
    pub fn decode_errors(&self) -> u64 {
        self.inner.telemetry.msg_decode_errors_total.get()
    }

    /// The trace id of the most recently recorded span here, if any.
    pub fn last_trace_id(&self) -> Option<u64> {
        self.inner.telemetry.spans.last_trace_id()
    }

    /// Collects the spans of `trace_id` from this Core **and** every peer
    /// Core on the network, so a multi-Core invocation or move can be
    /// reassembled into one tree. Unreachable peers are skipped.
    pub fn collect_trace(&self, trace_id: u64) -> Vec<SpanRecord> {
        let mut spans = self.inner.telemetry.spans.for_trace(trace_id);
        for (_, reply) in self.ask_peers(&Request::TraceSpans { trace_id }) {
            if let Reply::Spans { spans: remote } = reply {
                spans.extend(remote);
            }
        }
        spans.sort_by_key(|s| (s.start_us, s.span_id));
        spans.dedup_by_key(|s| s.span_id);
        spans
    }

    /// Renders the full multi-Core span tree of `trace_id` as text.
    pub fn render_trace(&self, trace_id: u64) -> String {
        render_span_tree(&self.collect_trace(trace_id))
    }

    // --- tail-latency observatory ------------------------------------------

    /// The slowest requests this Core has retained (slowest first), each
    /// with the local span snapshot taken at admission.
    pub fn slow_records(&self) -> Vec<SlowRecord> {
        self.inner.telemetry.slow.records()
    }

    /// Drops every retained slow request (shell `slow clear`).
    pub fn clear_slow_log(&self) {
        self.inner.telemetry.slow.clear();
    }

    /// Every span currently held in this Core's local ring, oldest
    /// first — the checker snapshots this to assert span determinism.
    pub fn span_snapshot(&self) -> Vec<SpanRecord> {
        self.inner.telemetry.spans.all()
    }

    /// Percentile summaries of every latency histogram this Core keeps:
    /// the per-phase decomposition (queue / marshal / network / exec /
    /// forward) plus end-to-end invoke latency, lifetime and — for
    /// invokes — over the recent window.
    pub fn latency_summaries(&self) -> Vec<LatencySummary> {
        let t = &self.inner.telemetry;
        let phase = |phase: &'static str, h: &Histogram| LatencySummary {
            phase,
            count: h.count(),
            p50: h.quantile(0.50),
            p99: h.quantile(0.99),
            p999: h.quantile(0.999),
        };
        let recent = &t.invoke_latency_us;
        vec![
            phase("queue", &t.latency_queue_us),
            phase("marshal", &t.latency_marshal_us),
            phase("network", &t.latency_network_us),
            phase("exec", &t.latency_exec_us),
            phase("forward", &t.latency_forward_us),
            phase("invoke", recent.lifetime()),
            LatencySummary {
                phase: "invoke(recent)",
                count: recent.recent_count(),
                p50: recent.quantile_recent(0.50),
                p99: recent.quantile_recent(0.99),
                p999: recent.quantile_recent(0.999),
            },
        ]
    }

    // --- flight recorder ---------------------------------------------------

    /// This Core's layout-event journal, oldest first.
    pub fn journal_snapshot(&self) -> Vec<JournalEvent> {
        self.inner.telemetry.journal.snapshot()
    }

    /// Collects the journals of this Core **and** every reachable peer
    /// Core and merges them into one causally-consistent timeline ordered
    /// by hybrid logical clock. Unreachable peers are skipped.
    pub fn collect_journal(&self) -> Vec<JournalEvent> {
        let mut batches = vec![self.journal_snapshot()];
        for (_, reply) in self.ask_peers(&Request::JournalEvents) {
            if let Reply::Journal { events } = reply {
                batches.push(events);
            }
        }
        merge_timelines(batches)
    }

    /// The layout observatory: the merged cluster-wide timeline wrapped
    /// for reconstruction (`at`), final-state queries, and the anomaly
    /// pass.
    pub fn layout_history(&self) -> LayoutHistory {
        LayoutHistory::from_events(self.collect_journal())
    }

    /// The current reading of this Core's hybrid logical clock (no tick).
    pub fn hlc_now(&self) -> Hlc {
        self.inner.telemetry.clock.peek()
    }

    /// Replays journal-recorded layout events newer than `since` through
    /// this Core's event hub, so listeners subscribed to `completArrived`
    /// / `completDeparted` — including complet listeners that have since
    /// migrated to another Core — observe reconstructed history. Returns
    /// how many events were fired.
    pub fn replay_layout_events(&self, since: Option<Hlc>) -> usize {
        let since = since.unwrap_or(Hlc::ZERO);
        let mut fired = 0;
        for ev in self.collect_journal() {
            if ev.hlc <= since {
                continue;
            }
            if let Some(payload) = EventPayload::from_journal(&ev) {
                self.fire_event(payload);
                fired += 1;
            }
        }
        fired
    }

    /// The links leaving this node that have admitted or dropped
    /// anything, in node order, each with its peer's name: the network's
    /// one count of what crossed a link, which both the link gauges and
    /// the traffic matrix read.
    fn outbound_links(&self) -> Vec<(String, LinkStats)> {
        let me = self.inner.node.index();
        self.members()
            .into_iter()
            .filter(|peer| peer.index != me)
            .map(|peer| (peer.name, self.link(me, peer.index).stats))
            .filter(|(_, stats)| stats.messages > 0 || stats.dropped > 0)
            .collect()
    }

    /// Folds simnet's per-link traffic counters (for links leaving this
    /// node) into the metrics registry as gauges, so the exposition also
    /// covers the network layer. Links that never carried traffic are
    /// skipped.
    pub fn refresh_link_metrics(&self) {
        for (peer_name, stats) in self.outbound_links() {
            let l = &[
                ("src", self.inner.name.as_str()),
                ("dst", peer_name.as_str()),
            ][..];
            let reg = &self.inner.telemetry.registry;
            reg.gauge("fargo_link_messages", l)
                .set(stats.messages as f64);
            reg.gauge("fargo_link_bytes", l).set(stats.bytes as f64);
            reg.gauge("fargo_link_dropped", l).set(stats.dropped as f64);
            reg.gauge("fargo_link_throughput_bytes_per_sec", l)
                .set(stats.throughput);
        }
    }

    /// Prometheus-style text exposition of this Core's registry, with the
    /// link gauges refreshed first.
    pub fn render_metrics(&self) -> String {
        self.refresh_link_metrics();
        self.inner.telemetry.registry.render_prometheus()
    }

    /// JSON exposition of this Core's registry (same refresh pass as
    /// [`Core::render_metrics`]), for machine consumers like `stats json`.
    pub fn render_metrics_json(&self) -> String {
        self.refresh_link_metrics();
        render_snapshots_json(&self.inner.telemetry.registry.snapshot())
    }

    // --- cluster health observatory ----------------------------------------

    /// The heaviest complets tracked by this Core's accountant, heaviest
    /// first. Load is `exec_µs + invokes`; `err` bounds the overcount a
    /// Space-Saving eviction may have introduced.
    pub fn account_top(&self, n: usize) -> Vec<AccountRecord> {
        self.inner.telemetry.accountant.top(n)
    }

    /// The heaviest complets **cluster-wide**: this Core's top-`n` merged
    /// with every reachable peer's, re-ranked by load, truncated to `n`.
    /// Each row carries the name of the Core that reported it.
    pub fn collect_top(&self, n: usize) -> Vec<(String, AccountRecord)> {
        let mut rows: Vec<(String, AccountRecord)> = self
            .account_top(n)
            .into_iter()
            .map(|r| (self.inner.name.clone(), r))
            .collect();
        for (node, reply) in self.ask_peers(&Request::TopComplets { n: n as u32 }) {
            if let Reply::TopComplets { rows: remote } = reply {
                let peer = self.core_name_of(node);
                rows.extend(remote.into_iter().map(|r| (peer.clone(), r)));
            }
        }
        rows.sort_by(|(ca, a), (cb, b)| {
            b.load.cmp(&a.load).then(a.key.cmp(&b.key)).then(ca.cmp(cb))
        });
        rows.truncate(n);
        rows
    }

    /// This Core's call-edge table in key order: `(source, target, calls
    /// issued here)`, `cN.0` being the source of calls made outside any
    /// complet. A pair the sketch evicted starts again from 0.
    pub fn invoke_edges(&self) -> Vec<(CompletId, CompletId, u64)> {
        let rows = self.inner.telemetry.edges.records();
        rows.iter().map(|r| (r.key.0, r.key.1, r.invokes)).collect()
    }

    /// Who talks to whom **cluster-wide**: every reachable Core's rows,
    /// each with the name of the Core that counted it, most calls first.
    /// A pair whose source has moved is reported by each Core it was
    /// called from; the sum is the pair's total.
    pub fn collect_edges(&self) -> Vec<(String, (CompletId, CompletId, u64))> {
        let mut rows: Vec<_> = self
            .invoke_edges()
            .into_iter()
            .map(|r| (self.inner.name.clone(), r))
            .collect();
        for (node, reply) in self.ask_peers(&Request::InvokeEdges) {
            if let Reply::InvokeEdges { rows: remote } = reply {
                let peer = self.core_name_of(node);
                rows.extend(remote.into_iter().map(|r| (peer.clone(), r)));
            }
        }
        rows.sort_by(|(ca, a), (cb, b)| b.2.cmp(&a.2).then(a.cmp(b)).then(ca.cmp(cb)));
        rows
    }

    /// This Core's outbound Core↔Core traffic matrix cells (src is always
    /// this Core), ordered by destination: what each outbound link has
    /// admitted since the network was built, so a cell survives this
    /// Core's restarts. Links that admitted nothing are skipped.
    pub fn traffic_matrix(&self) -> Vec<MatrixCell> {
        self.outbound_links()
            .into_iter()
            .filter(|(_, stats)| stats.messages > 0)
            .map(|(dst, stats)| MatrixCell {
                src: self.inner.name.clone(),
                dst,
                msgs: stats.messages,
                bytes: stats.bytes,
            })
            .collect()
    }

    /// The **cluster-wide** traffic matrix: every Core reports its own
    /// outbound cells, so the union covers all directed pairs that have
    /// carried messages. Ordered by (src, dst).
    pub fn collect_matrix(&self) -> Vec<MatrixCell> {
        let mut cells = self.traffic_matrix();
        for (_, reply) in self.ask_peers(&Request::TrafficMatrix) {
            if let Reply::Matrix { cells: remote } = reply {
                cells.extend(remote);
            }
        }
        cells.sort_by(|a, b| (&a.src, &a.dst).cmp(&(&b.src, &b.dst)));
        cells
    }

    /// This Core's tracker table in the shape `ListTrackers` ships it.
    pub(super) fn tracker_rows(&self) -> Vec<(CompletId, Option<u32>, u64)> {
        self.tracker_snapshot()
            .into_iter()
            .map(|t| {
                let fwd = match t.target {
                    TrackerTarget::Local => None,
                    TrackerTarget::Forward(n) => Some(n),
                };
                (t.id, fwd, t.hits)
            })
            .collect()
    }

    /// The tracker table of a (possibly remote) Core, for reference
    /// inspection: `(target, forward-to node — None when local, hits)`.
    ///
    /// # Errors
    ///
    /// Fails when the Core is unknown or unreachable.
    pub fn trackers_at(&self, core_name: &str) -> Result<Vec<(CompletId, Option<u32>, u64)>> {
        if core_name == self.inner.name {
            return Ok(self.tracker_rows());
        }
        let node = self.core_index(core_name)?;
        match self.rpc(node, Request::ListTrackers)? {
            Reply::Trackers { items } => Ok(items),
            Reply::Err(e) => Err(e),
            other => Err(FargoError::Protocol(format!("unexpected reply {other:?}"))),
        }
    }

    /// The complets resident at a (possibly remote) Core:
    /// `(id, type_name)` pairs.
    ///
    /// # Errors
    ///
    /// Fails when the Core is unknown or unreachable.
    pub fn complets_at(&self, core_name: &str) -> Result<Vec<(CompletId, String)>> {
        if core_name == self.inner.name {
            return Ok(self.complet_inventory());
        }
        let node = self.core_index(core_name)?;
        match self.rpc(node, Request::ListComplets)? {
            Reply::Complets { items } => Ok(items),
            Reply::Err(e) => Err(e),
            other => Err(FargoError::Protocol(format!("unexpected reply {other:?}"))),
        }
    }
}
