//! The Core: FarGo's stationary per-host runtime component (§3).
//!
//! One [`Core`] runs per network node. It hosts complets, realises complet
//! references (stub/tracker), moves complets under layout constraints,
//! implements the invocation parameter-passing scheme, serves naming, and
//! runs the monitoring facility — the architecture of the paper's
//! Figure 1, with `simnet` as the Peer Interface.

pub(crate) mod invocation;
pub(crate) mod movement;
pub(crate) mod naming;
pub(crate) mod persistence;
pub(crate) mod reliable;
pub(crate) mod shards;
pub(crate) mod wal;

#[cfg(test)]
mod envelope_tests;

pub use persistence::Checkpoint;
pub use shards::{LocateReport, ResolveVia};
pub use wal::RecoveryReport;

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::thread;
use std::time::Duration;

use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use fargo_net::{
    Datagram, DeliveryGate, SimnetTransport, TcpTransport, TcpTransportConfig, Transport,
    TransportError,
};
use fargo_telemetry::{
    merge_timelines, render_snapshots_json, render_span_tree, AccountRecord, HealthEngine,
    HealthSample, Histogram, Hlc, JournalEvent, JournalKind, LayoutHistory, MatrixCell,
    Registry as TelemetryRegistry, RuleStatus, SlowRecord, SpanRecord, TraceContext,
};
use fargo_wire::{CompletId, RefDescriptor, Value, WireWriter};
use parking_lot::{Mutex, RwLock};
use simnet::{Endpoint, Network, NodeId};

use crate::complet::{Complet, CompletRegistry};
use crate::config::{CoreConfig, TransportKind};
use crate::ctx::Ctx;
use crate::error::{FargoError, Result};
use crate::events::{Delivery, EventHandler, EventHub, EventPayload};
use crate::monitor::{Monitor, Service};
use crate::proto::{EnvelopeMeta, ListenerAddr, Message, Notify, Reply, ReqId, Request};
use crate::reference::relocator::RelocatorRegistry;
use crate::reference::tracker::{PointOutcome, TrackerSnapshot, TrackerTable, TrackerTarget};
use crate::reference::{CompletRef, MetaRef};
use crate::runtime::movement::HeldMove;
use crate::runtime::reliable::{CacheDecision, DecisionLog, ReplyCache, WorkRequest};
use crate::telemetry::CoreTelemetry;

/// How many two-phase move verdicts each Core retains for in-doubt
/// resolution (FIFO-evicted; far above any realistic concurrent load).
const MOVE_DECISION_LOG: usize = 1024;

/// How many recent shard deltas the gossip log retains. A cursor that
/// falls off this window resumes at the window start; anti-entropy
/// republish covers the gap.
const SHARD_DELTA_LOG: usize = 1024;

/// Smoothing factor of the monitor's exponential averages, in `(0, 1]`;
/// higher weighs recent samples more.
const MONITOR_ALPHA: f64 = 0.3;

/// Bytes reserved for an outgoing envelope before encoding: covers the
/// header plus a small invocation, so the common message never regrows
/// its buffer (larger ones grow normally).
const ENVELOPE_CAPACITY_HINT: usize = 128;

/// The synthetic "source complet" id used when application code outside
/// any complet invokes through a reference; profiling keys on it.
pub(crate) const APP_SEQ: u64 = 0;

/// Lifecycle of a complet slot.
pub(crate) enum SlotState {
    /// The complet lives here and is invocable.
    Present(Box<dyn Complet>),
    /// The complet is being marshaled away; invocations wait.
    InTransit,
    /// The complet has left; the tracker knows where.
    Gone,
}

pub(crate) struct CompletSlot {
    pub id: CompletId,
    pub type_name: String,
    pub state: Mutex<SlotState>,
}

pub(crate) struct CoreInner {
    pub name: String,
    pub node: NodeId,
    pub net: Network,
    /// The backend carrying this Core's envelopes: the simnet adapter or
    /// real TCP sockets, chosen at spawn. Everything above this field is
    /// backend-agnostic.
    pub transport: Arc<dyn Transport>,
    pub registry: CompletRegistry,
    pub relocators: RelocatorRegistry,
    pub config: CoreConfig,
    pub complets: RwLock<HashMap<CompletId, Arc<CompletSlot>>>,
    pub trackers: TrackerTable,
    pub naming: Mutex<HashMap<String, RefDescriptor>>,
    pub pending: Mutex<HashMap<ReqId, Sender<Reply>>>,
    /// Local sinks receiving events from remote subscriptions.
    pub sinks: Mutex<HashMap<u64, EventHandler>>,
    pub sink_seq: AtomicU64,
    pub req_seq: AtomicU64,
    pub complet_seq: AtomicU64,
    pub monitor: Monitor,
    pub hub: EventHub,
    pub telemetry: CoreTelemetry,
    pub shutdown: AtomicBool,
    /// Receiver-side reply-dedup cache: the at-most-once half of the
    /// reliable messaging layer.
    pub reply_cache: ReplyCache,
    /// Bounded queue feeding the request-worker pool.
    pub work_tx: Sender<WorkRequest>,
    /// A receiver handle kept only so queue depth is observable
    /// (crossbeam senders cannot report length).
    pub work_rx: Receiver<WorkRequest>,
    /// Workers currently executing a request (quiescence detection).
    pub busy_workers: AtomicU64,
    /// Per-complet move-epoch counters (updated on departure and arrival
    /// so epochs stay monotonic across hosts).
    pub move_epochs: Mutex<HashMap<CompletId, u64>>,
    /// Source-side verdicts of two-phase moves this Core coordinated.
    pub move_decisions: DecisionLog,
    /// Destination-side verdicts of two-phase moves this Core received.
    pub move_outcomes: DecisionLog,
    /// Prepared-but-uncommitted move streams, keyed `(root, epoch)`.
    pub held_moves: Mutex<HashMap<(CompletId, u64), HeldMove>>,
    /// Callbacks run by the monitor thread after each tick (the adaptive
    /// layout planner's cadence source), keyed for removal.
    pub tick_hooks: Mutex<Vec<(u64, TickHook)>>,
    pub tick_hook_seq: AtomicU64,
    /// The SLO/health engine, fed one [`HealthSample`] per monitor tick.
    pub health: Mutex<HealthEngine>,
    /// Consistent-hash ring assigning each complet id's authoritative
    /// location shard to a Core (rebuilt when membership changes).
    pub ring: Mutex<fargo_naming::HashRing>,
    /// This Core's slice of the sharded location service: the
    /// authoritative `(complet → node, epoch)` entries for ids the ring
    /// assigns here.
    pub shard: fargo_naming::LocationShard,
    /// Recent accepted shard deltas — the feed piggybacked gossip and
    /// anti-entropy republish drain from.
    pub shard_deltas: fargo_naming::DeltaLog,
    /// Per-peer read cursor into `shard_deltas` (next sequence to ship).
    pub gossip_cursors: Mutex<HashMap<u32, u64>>,
    /// Rotation position of the anti-entropy republish pass.
    pub antientropy_pos: AtomicU64,
    /// Write-ahead passivation log; `None` when durability is off
    /// (`CoreConfig::wal_dir` unset).
    pub wal: Option<wal::Wal>,
    /// What the spawn-time recovery pass replayed (`None` when no pass
    /// ran: durability off or an empty log).
    pub recovery: Mutex<Option<wal::RecoveryReport>>,
}

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

/// A callback invoked by the Core's monitor thread once per tick.
///
/// Hooks must be cheap and non-blocking: they run on the monitor thread
/// itself, between the sampling pass and the next sleep. Anything heavy
/// (like a planning round) should flip a flag or send on a channel for a
/// worker thread to pick up.
pub type TickHook = Arc<dyn Fn() + Send + Sync + 'static>;

/// A handle to a running Core. Cloning yields another handle to the same
/// Core.
///
/// ```no_run
/// # use fargo_core::{Core, CompletRegistry};
/// # use simnet::{Network, NetworkConfig};
/// # fn main() -> Result<(), fargo_core::FargoError> {
/// let net = Network::new(NetworkConfig::default());
/// let registry = CompletRegistry::new();
/// let core = Core::builder(&net, "acadia").registry(&registry).spawn()?;
/// assert_eq!(core.name(), "acadia");
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct Core {
    pub(crate) inner: Arc<CoreInner>,
}

/// Configures and starts a [`Core`]; created by [`Core::builder`].
pub struct CoreBuilder<'a> {
    net: &'a Network,
    name: String,
    endpoint: Option<Endpoint>,
    registry: Option<CompletRegistry>,
    relocators: Option<RelocatorRegistry>,
    config: CoreConfig,
    telemetry: Option<TelemetryRegistry>,
    tcp: Option<(std::net::TcpListener, Vec<String>)>,
}

impl<'a> CoreBuilder<'a> {
    /// Runs the Core on an endpoint that already exists on the network
    /// (e.g. one produced by [`simnet::Topology::build`]); the Core takes
    /// the endpoint's registered name.
    pub fn endpoint(mut self, endpoint: Endpoint) -> Self {
        self.endpoint = Some(endpoint);
        self
    }

    /// Shares a complet type registry (the "classpath") with this Core.
    pub fn registry(mut self, registry: &CompletRegistry) -> Self {
        self.registry = Some(registry.clone());
        self
    }

    /// Shares a relocator registry with this Core.
    pub fn relocators(mut self, relocators: &RelocatorRegistry) -> Self {
        self.relocators = Some(relocators.clone());
        self
    }

    /// Replaces the Core configuration.
    pub fn config(mut self, config: CoreConfig) -> Self {
        self.config = config;
        self
    }

    /// Shares a metrics registry with this Core (so one registry can
    /// aggregate several Cores; series are disambiguated by the `core`
    /// label). A fresh registry is created when none is shared.
    pub fn telemetry(mut self, registry: &TelemetryRegistry) -> Self {
        self.telemetry = Some(registry.clone());
        self
    }

    /// Runs the Core over real TCP sockets on an **already-bound**
    /// listener (binding first lets callers discover ephemeral ports and
    /// hand out a consistent peer table). `peers[i]` is the listen
    /// address of the Core registered `i`-th on `net`. Overrides
    /// [`CoreConfig::transport`](crate::CoreConfig); the network passed
    /// to [`Core::builder`] stays attached as the cluster directory and
    /// fault-injection control plane.
    pub fn tcp_transport(mut self, listener: std::net::TcpListener, peers: Vec<String>) -> Self {
        self.tcp = Some((listener, peers));
        self
    }

    /// Registers the node, starts the Core's threads, and returns the
    /// handle.
    ///
    /// # Errors
    ///
    /// Fails if the Core name is already registered on the network, if
    /// the worker pool is configured with zero threads or zero queue
    /// depth, or if the TCP transport cannot start.
    pub fn spawn(self) -> Result<Core> {
        // A zero here used to be silently clamped to 1, which made
        // "depth 0" mean "depth 1" while reading like "no queue". It is
        // a configuration error now.
        if self.config.worker_threads == 0 {
            return Err(FargoError::InvalidArgument(
                "worker_threads must be at least 1".into(),
            ));
        }
        if self.config.worker_queue_depth == 0 {
            return Err(FargoError::InvalidArgument(
                "worker_queue_depth must be at least 1".into(),
            ));
        }
        let (endpoint, name) = match self.endpoint {
            Some(ep) => {
                let name = self.net.node_name(ep.id())?;
                (ep, name)
            }
            None => (self.net.add_node(&self.name)?, self.name),
        };
        let node = endpoint.id();
        let config = self.config;
        // Whatever the backend, simnet stays the control plane: TCP sends
        // are first *offered* to the network model, so partitions, loss
        // and link statistics behave identically on both backends. Simnet
        // sends run the same admission inside `Network::send` itself.
        let gate_net = self.net.clone();
        let gate: DeliveryGate = Arc::new(move |src, dst, len| {
            gate_net
                .offer(NodeId::from_index(src), NodeId::from_index(dst), len)
                .map_err(TransportError::from)
        });
        let transport: Arc<dyn Transport> = if let Some((listener, peers)) = self.tcp {
            Arc::new(TcpTransport::start(
                TcpTransportConfig {
                    local: node.index(),
                    peers,
                },
                listener,
                Some(gate),
            )?)
        } else {
            match &config.transport {
                TransportKind::Simnet => {
                    Arc::new(SimnetTransport::new(endpoint, config.clock.clone()))
                }
                TransportKind::Tcp { bind, peers } => Arc::new(TcpTransport::bind(
                    TcpTransportConfig {
                        local: node.index(),
                        peers: peers.clone(),
                    },
                    bind,
                    Some(gate),
                )?),
            }
        };
        let telemetry = CoreTelemetry::new(
            self.telemetry.unwrap_or_default(),
            &name,
            node.index(),
            &config,
        );
        let monitor = Monitor::new(
            config.monitor_cache_ttl,
            MONITOR_ALPHA,
            config.clock.clone(),
        );
        monitor.register_metrics(&telemetry.registry, &name);
        let wal_log = match &config.wal_dir {
            Some(dir) => Some(
                wal::Wal::open(dir, &name, config.wal_fsync)
                    .map_err(|e| FargoError::App(format!("wal open: {e}")))?,
            ),
            None => None,
        };
        let (work_tx, work_rx) = bounded(config.worker_queue_depth);
        let inner = Arc::new(CoreInner {
            name,
            node,
            net: self.net.clone(),
            transport,
            registry: self.registry.unwrap_or_default(),
            relocators: self.relocators.unwrap_or_default(),
            monitor,
            telemetry,
            complets: RwLock::new(HashMap::new()),
            trackers: TrackerTable::new(config.clock.clone()),
            naming: Mutex::new(HashMap::new()),
            pending: Mutex::new(HashMap::new()),
            sinks: Mutex::new(HashMap::new()),
            sink_seq: AtomicU64::new(1),
            // Salt request ids with the WAL's durable incarnation number:
            // a restarted Core that re-minted ids from 1 would hit peers'
            // reply-dedup caches and be served the previous incarnation's
            // cached replies instead of executing.
            req_seq: AtomicU64::new(wal_log.as_ref().map_or(1, |w| (w.generation() << 32) | 1)),
            // Seq 0 is reserved for the application pseudo-complet.
            complet_seq: AtomicU64::new(1),
            hub: EventHub::new(),
            shutdown: AtomicBool::new(false),
            reply_cache: ReplyCache::new(config.dedup_cache_capacity),
            work_tx,
            work_rx: work_rx.clone(),
            busy_workers: AtomicU64::new(0),
            move_epochs: Mutex::new(HashMap::new()),
            move_decisions: DecisionLog::new(MOVE_DECISION_LOG),
            move_outcomes: DecisionLog::new(MOVE_DECISION_LOG),
            held_moves: Mutex::new(HashMap::new()),
            tick_hooks: Mutex::new(Vec::new()),
            tick_hook_seq: AtomicU64::new(1),
            health: Mutex::new(HealthEngine::new(fargo_telemetry::default_slo_rules())),
            // Membership may still be growing while Cores spawn one by
            // one; every use refreshes the ring against the live node
            // list, so starting from what is visible now is safe.
            ring: Mutex::new(fargo_naming::HashRing::new(
                &self
                    .net
                    .node_ids()
                    .iter()
                    .map(|n| n.index())
                    .collect::<Vec<u32>>(),
                shards::NAMING_VNODES,
            )),
            shard: fargo_naming::LocationShard::new(),
            shard_deltas: fargo_naming::DeltaLog::new(SHARD_DELTA_LOG),
            gossip_cursors: Mutex::new(HashMap::new()),
            antientropy_pos: AtomicU64::new(0),
            wal: wal_log,
            recovery: Mutex::new(None),
            config,
        });
        let core = Core { inner };
        core.install_sampler();
        core.spawn_workers(work_rx);
        core.spawn_receiver();
        core.spawn_monitor_thread();
        core.recover_from_wal();
        Ok(core)
    }
}

impl Core {
    /// Starts building a Core named `name` on `net`.
    pub fn builder<'a>(net: &'a Network, name: &str) -> CoreBuilder<'a> {
        CoreBuilder {
            net,
            name: name.to_owned(),
            endpoint: None,
            registry: None,
            relocators: None,
            config: CoreConfig::default(),
            telemetry: None,
            tcp: None,
        }
    }

    /// This Core's name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// This Core's network node id.
    pub fn node(&self) -> NodeId {
        self.inner.node
    }

    /// The network this Core is attached to.
    pub fn network(&self) -> &Network {
        &self.inner.net
    }

    /// The complet type registry this Core constructs from.
    pub fn registry(&self) -> &CompletRegistry {
        &self.inner.registry
    }

    /// The relocator registry governing reference semantics here.
    pub fn relocators(&self) -> &RelocatorRegistry {
        &self.inner.relocators
    }

    /// The monitoring facility (§4.1).
    pub fn monitor(&self) -> &Monitor {
        &self.inner.monitor
    }

    /// This Core's metrics registry (possibly shared with other Cores).
    pub fn telemetry(&self) -> &TelemetryRegistry {
        &self.inner.telemetry.registry
    }

    /// This Core's configuration (immutable once spawned).
    pub fn config(&self) -> &CoreConfig {
        &self.inner.config
    }

    /// Registers a callback run by the monitor thread after every tick
    /// and returns a handle for [`Core::remove_monitor_tick_hook`].
    ///
    /// This is the extension point the adaptive layout planner hangs off:
    /// the Core does not know about planning, it just provides cadence.
    /// Hooks must be cheap (see [`TickHook`]).
    pub fn add_monitor_tick_hook(&self, hook: TickHook) -> u64 {
        let id = self.inner.tick_hook_seq.fetch_add(1, Ordering::SeqCst);
        self.inner.tick_hooks.lock().push((id, hook));
        id
    }

    /// Removes a tick hook by the handle `add_monitor_tick_hook` returned.
    /// Unknown handles are ignored.
    pub fn remove_monitor_tick_hook(&self, id: u64) {
        self.inner.tick_hooks.lock().retain(|(h, _)| *h != id);
    }

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
    /// in-doubt moves resolved by epoch query).
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
        for node in self.inner.net.node_ids() {
            if node == self.inner.node {
                continue;
            }
            if let Ok(Reply::Spans { spans: remote }) =
                self.rpc(node.index(), Request::TraceSpans { trace_id })
            {
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

    /// The sequence number this Core's next journal entry will take.
    /// Restart harnesses feed it to
    /// [`CoreConfig::with_journal_seq_base`](crate::CoreConfig) so a
    /// replacement incarnation's entries never collide with this one's.
    pub fn journal_next_seq(&self) -> u64 {
        self.inner.telemetry.journal.next_seq()
    }

    /// Collects the journals of this Core **and** every reachable peer
    /// Core and merges them into one causally-consistent timeline ordered
    /// by hybrid logical clock. Unreachable peers are skipped.
    pub fn collect_journal(&self) -> Vec<JournalEvent> {
        let mut batches = vec![self.journal_snapshot()];
        for node in self.inner.net.node_ids() {
            if node == self.inner.node {
                continue;
            }
            if let Ok(Reply::Journal { events }) = self.rpc(node.index(), Request::JournalEvents) {
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

    /// Folds simnet's per-link traffic counters (for links leaving this
    /// node) into the metrics registry as gauges, so the exposition also
    /// covers the network layer. Links that never carried traffic are
    /// skipped.
    pub fn refresh_link_metrics(&self) {
        let me = self.inner.node;
        for peer in self.inner.net.node_ids() {
            if peer == me {
                continue;
            }
            let stats = self.inner.net.link_stats(me, peer);
            if stats.messages == 0 && stats.dropped == 0 {
                continue;
            }
            let peer_name = self.core_name_of(peer.index());
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
        self.refresh_accounting_metrics();
        self.inner.telemetry.registry.render_prometheus()
    }

    /// JSON exposition of this Core's registry (same refresh pass as
    /// [`Core::render_metrics`]), for machine consumers like `stats json`.
    pub fn render_metrics_json(&self) -> String {
        self.refresh_link_metrics();
        self.refresh_accounting_metrics();
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
        for node in self.inner.net.node_ids() {
            if node == self.inner.node {
                continue;
            }
            if let Ok(Reply::TopComplets { rows: remote }) =
                self.rpc(node.index(), Request::TopComplets { n: n as u32 })
            {
                let peer = self.core_name_of(node.index());
                rows.extend(remote.into_iter().map(|r| (peer.clone(), r)));
            }
        }
        rows.sort_by(|(ca, a), (cb, b)| {
            b.load.cmp(&a.load).then(a.key.cmp(&b.key)).then(ca.cmp(cb))
        });
        rows.truncate(n);
        rows
    }

    /// This Core's outbound Core↔Core traffic matrix cells (src is always
    /// this Core), ordered by destination.
    pub fn traffic_matrix(&self) -> Vec<MatrixCell> {
        self.inner.telemetry.matrix.snapshot()
    }

    /// The **cluster-wide** traffic matrix: every Core reports its own
    /// outbound cells, so the union covers all directed pairs that have
    /// carried messages. Ordered by (src, dst).
    pub fn collect_matrix(&self) -> Vec<MatrixCell> {
        let mut cells = self.traffic_matrix();
        for node in self.inner.net.node_ids() {
            if node == self.inner.node {
                continue;
            }
            if let Ok(Reply::Matrix { cells: remote }) =
                self.rpc(node.index(), Request::TrafficMatrix)
            {
                cells.extend(remote);
            }
        }
        cells.sort_by(|a, b| (&a.src, &a.dst).cmp(&(&b.src, &b.dst)));
        cells
    }

    /// Current state of every SLO rule on this Core: short/long window
    /// burn rates and whether the alert is firing.
    pub fn health_status(&self) -> Vec<RuleStatus> {
        self.inner.health.lock().status()
    }

    /// Every alert transition journaled cluster-wide, oldest first.
    pub fn collect_alerts(&self) -> Vec<JournalEvent> {
        self.collect_journal()
            .into_iter()
            .filter(|ev| ev.kind == JournalKind::Alert)
            .collect()
    }

    /// Folds the accountant's current top complets into `fargo_complet_*`
    /// gauges (bounded by the sketch capacity, so exposition cardinality
    /// stays safe no matter how many complets exist).
    pub fn refresh_accounting_metrics(&self) {
        let t = &self.inner.telemetry;
        if !t.accounting {
            return;
        }
        let reg = &t.registry;
        for row in t.accountant.top(usize::MAX) {
            let complet = CompletId {
                origin: row.key.0,
                seq: row.key.1,
            }
            .to_string();
            let l = &[
                ("complet", complet.as_str()),
                ("core", self.inner.name.as_str()),
            ][..];
            reg.gauge("fargo_complet_load", l).set(row.load as f64);
            reg.gauge("fargo_complet_invokes", l)
                .set(row.invokes as f64);
            reg.gauge("fargo_complet_exec_us", l)
                .set(row.exec_us as f64);
            reg.gauge("fargo_complet_bytes_in", l)
                .set(row.bytes_in as f64);
            reg.gauge("fargo_complet_bytes_out", l)
                .set(row.bytes_out as f64);
        }
    }

    /// Builds the cumulative [`HealthSample`] the SLO engine consumes —
    /// one call per monitor tick, but public so tests and the checker can
    /// drive the engine deterministically.
    pub fn health_sample(&self) -> HealthSample {
        let t = &self.inner.telemetry;
        HealthSample {
            p99_invoke_us: t.invoke_latency_us.quantile_recent(0.99),
            invokes: t.invoke_total.get(),
            errors: t.invoke_errors_total.get(),
            sheds: t.worker_rejections_total.get(),
            moves: t.moves_attempted_total.get(),
            move_failures: t.move_failures_total.get(),
        }
    }

    /// Feeds one sample to the SLO engine, journals every alert
    /// transition, and updates the per-rule alert counter/status gauge.
    /// Called by the monitor thread each tick; public for deterministic
    /// tests.
    pub fn evaluate_health(&self) {
        let sample = self.health_sample();
        let transitions = self.inner.health.lock().observe(sample);
        let t = &self.inner.telemetry;
        for tr in &transitions {
            let detail = format!(
                "short={:.4} long={:.4} threshold={:.4}",
                tr.short, tr.long, tr.threshold
            );
            let object = if tr.firing { "firing" } else { "resolved" };
            t.journal(JournalKind::Alert, &tr.rule, object, &detail, None);
            if let Some((fired, status)) = t.health_series.get(&tr.rule) {
                if tr.firing {
                    fired.inc();
                    status.set(1.0);
                } else {
                    status.set(0.0);
                }
            }
        }
    }

    /// Whether the Core is still accepting work.
    pub fn is_running(&self) -> bool {
        !self.inner.shutdown.load(Ordering::SeqCst)
    }

    // --- complet management ----------------------------------------------

    /// Instantiates a complet of a registered type on this Core and
    /// returns a bound reference to it — the Rust form of Figure 3's
    /// `msg = new Message_()`.
    ///
    /// # Errors
    ///
    /// Fails if the type is unregistered or its constructor fails.
    pub fn new_complet(&self, type_name: &str, args: &[Value]) -> Result<BoundRef> {
        self.admit(1)?;
        let complet = self.inner.registry.construct(type_name, args)?;
        let id = self.install_complet(type_name, complet);
        self.wal_capture(id);
        self.fire_event(EventPayload::CompletArrived {
            id,
            type_name: type_name.to_owned(),
            core: self.inner.node.index(),
        });
        Ok(self.stub(self.make_ref(id, type_name)))
    }

    /// Instantiates a complet on a *remote* Core.
    ///
    /// # Errors
    ///
    /// Fails if the Core is unknown, unreachable, or cannot construct the
    /// type.
    pub fn new_complet_at(
        &self,
        core_name: &str,
        type_name: &str,
        args: &[Value],
    ) -> Result<BoundRef> {
        if core_name == self.inner.name {
            return self.new_complet(type_name, args);
        }
        let node = self.resolve_core(core_name)?;
        match self.rpc(
            node,
            Request::NewComplet {
                type_name: type_name.to_owned(),
                args: args.to_vec(),
            },
        )? {
            Reply::NewOk { desc } => Ok(self.stub(CompletRef::from_descriptor(desc))),
            Reply::Err(e) => Err(e),
            other => Err(FargoError::Protocol(format!("unexpected reply {other:?}"))),
        }
    }

    pub(crate) fn install_complet(&self, type_name: &str, complet: Box<dyn Complet>) -> CompletId {
        let id = CompletId::new(
            self.inner.node.index(),
            self.inner.complet_seq.fetch_add(1, Ordering::Relaxed),
        );
        self.install_complet_with_id(id, type_name, complet);
        id
    }

    pub(crate) fn install_complet_with_id(
        &self,
        id: CompletId,
        type_name: &str,
        complet: Box<dyn Complet>,
    ) {
        let slot = Arc::new(CompletSlot {
            id,
            type_name: type_name.to_owned(),
            state: Mutex::new(SlotState::Present(complet)),
        });
        self.inner.complets.write().insert(id, slot);
        let epoch = self.current_move_epoch(id);
        let _ = self.inner.trackers.point(id, TrackerTarget::Local, epoch);
        self.inner
            .telemetry
            .journal(JournalKind::CompletArrived, &id, type_name, "", None);
        self.inner
            .telemetry
            .journal(JournalKind::TrackerCreated, &id, type_name, "", None);
        self.publish_location(id, self.inner.node.index(), epoch, true);
    }

    /// Whether a complet currently lives on this Core.
    pub fn hosts(&self, id: CompletId) -> bool {
        self.inner.complets.read().contains_key(&id)
    }

    /// Ids of all complets resident here.
    pub fn complet_ids(&self) -> Vec<CompletId> {
        let mut ids: Vec<CompletId> = self.inner.complets.read().keys().copied().collect();
        ids.sort();
        ids
    }

    /// `(id, type_name)` of all complets resident here.
    pub fn complet_inventory(&self) -> Vec<(CompletId, String)> {
        let map = self.inner.complets.read();
        let mut out: Vec<(CompletId, String)> =
            map.values().map(|s| (s.id, s.type_name.clone())).collect();
        out.sort();
        out
    }

    /// Number of complets resident here (the `completLoad` measure).
    pub fn complet_count(&self) -> usize {
        self.inner.complets.read().len()
    }

    /// The first local complet whose anchor type is `type_name` (stamp
    /// resolution, §3.3).
    pub fn find_local_by_type(&self, type_name: &str) -> Option<CompletId> {
        let map = self.inner.complets.read();
        let mut ids: Vec<CompletId> = map
            .values()
            .filter(|s| s.type_name == type_name)
            .map(|s| s.id)
            .collect();
        ids.sort();
        ids.first().copied()
    }

    /// Snapshot of this Core's tracker table.
    pub fn tracker_snapshot(&self) -> Vec<TrackerSnapshot> {
        self.inner.trackers.snapshot()
    }

    /// Garbage-collects forwarding trackers idle for at least `max_idle`
    /// (local trackers are never collected). Returns how many were
    /// dropped — the runtime analog of the paper's tracker reclamation.
    pub fn collect_trackers(&self, max_idle: Duration) -> usize {
        let collected = self.inner.trackers.collect_idle(max_idle);
        for id in &collected {
            self.inner
                .telemetry
                .journal(JournalKind::TrackerRetired, id, "", "idle", None);
        }
        collected.len()
    }

    /// Drops a complet hosted here, releasing its tracker and bindings.
    ///
    /// # Errors
    ///
    /// Fails if the complet is not hosted on this Core.
    pub fn release_complet(&self, id: CompletId) -> Result<()> {
        let slot = self
            .inner
            .complets
            .write()
            .remove(&id)
            .ok_or(FargoError::UnknownComplet(id))?;
        *slot.state.lock() = SlotState::Gone;
        self.inner.trackers.remove(id);
        let mut naming = self.inner.naming.lock();
        naming.retain(|_, d| d.target != id);
        drop(naming);
        let t = &self.inner.telemetry;
        t.journal(
            JournalKind::CompletDeparted,
            &id,
            &slot.type_name,
            "released",
            None,
        );
        t.journal(JournalKind::TrackerRetired, &id, "", "released", None);
        t.journal(JournalKind::RefEdgeDropped, &id, "*", "", None);
        // Tombstone the shard entry at the current epoch so a delayed
        // publish cannot resurrect the released complet.
        self.publish_location(
            id,
            self.inner.node.index(),
            self.current_move_epoch(id),
            false,
        );
        self.wal_append(&wal::WalRecord::Departed {
            id,
            epoch: self.current_move_epoch(id),
            dest: None,
        });
        Ok(())
    }

    /// Number of active event subscriptions at this Core.
    pub fn subscription_count(&self) -> usize {
        self.inner.hub.len()
    }

    /// Number of trackers (local and forwarding) in this Core's table.
    pub fn tracker_count(&self) -> usize {
        self.inner.trackers.len()
    }

    // --- references --------------------------------------------------------

    /// Binds a portable reference to this Core, yielding a callable stub.
    pub fn stub(&self, r: CompletRef) -> BoundRef {
        BoundRef {
            core: self.clone(),
            r,
        }
    }

    /// The reflective meta-reference of a reference (§3.2) — the Rust form
    /// of `Core.getMetaRef(msg)`.
    pub fn meta_ref(&self, r: &CompletRef) -> MetaRef {
        MetaRef::new(self.clone(), r.clone())
    }

    pub(crate) fn make_ref(&self, id: CompletId, type_name: &str) -> CompletRef {
        CompletRef::from_descriptor(RefDescriptor::link(id, type_name, self.inner.node.index()))
    }

    // --- events ------------------------------------------------------------

    /// Registers a local listener for this Core's events; returns a token
    /// for [`Core::unsubscribe`].
    ///
    /// Subscribing to a profiling-service selector implicitly starts
    /// continuous profiling of that service, as in §4.2: "the event
    /// registration mechanism invokes the proper start method".
    pub fn on_event(
        &self,
        selector: &str,
        threshold: Option<f64>,
        above: bool,
        handler: EventHandler,
    ) -> u64 {
        self.start_profiling_for_selector(selector);
        self.inner
            .hub
            .subscribe_local(selector, threshold, above, handler)
    }

    /// If the selector names a profiling service, begin continuous
    /// profiling so the corresponding events are produced.
    ///
    /// The implicit sampling interval is ten monitor ticks — coarse
    /// enough that sporadic traffic does not alias into rate spikes; an
    /// explicit [`Core::profile_start`] with a finer interval tightens it.
    fn start_profiling_for_selector(&self, selector: &str) {
        if let Ok(service) = Service::parse(selector) {
            self.inner.monitor.start(
                service,
                (self.inner.config.monitor_tick * 10).max(Duration::from_millis(1)),
            );
        }
    }

    fn stop_profiling_for_selector(&self, selector: &str) {
        if let Ok(service) = Service::parse(selector) {
            self.inner.monitor.stop(&service);
        }
    }

    /// The tracker table of a (possibly remote) Core, for reference
    /// inspection: `(target, forward-to node — None when local, hits)`.
    ///
    /// # Errors
    ///
    /// Fails when the Core is unknown or unreachable.
    pub fn trackers_at(&self, core_name: &str) -> Result<Vec<(CompletId, Option<u32>, u64)>> {
        if core_name == self.inner.name {
            return Ok(self
                .tracker_snapshot()
                .into_iter()
                .map(|t| {
                    let fwd = match t.target {
                        TrackerTarget::Local => None,
                        TrackerTarget::Forward(n) => Some(n),
                    };
                    (t.id, fwd, t.hits)
                })
                .collect());
        }
        let node = self.resolve_core(core_name)?;
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
        let node = self.resolve_core(core_name)?;
        match self.rpc(node, Request::ListComplets)? {
            Reply::Complets { items } => Ok(items),
            Reply::Err(e) => Err(e),
            other => Err(FargoError::Protocol(format!("unexpected reply {other:?}"))),
        }
    }

    /// Removes a local subscription.
    pub fn unsubscribe(&self, token: u64) -> bool {
        self.inner.hub.unsubscribe(token)
    }

    /// Registers a complet as a listener at this Core. Delivery is an
    /// `on_event` invocation through the reference, so it follows the
    /// listener when it moves (distributed events, §4.2).
    pub fn subscribe_complet(
        &self,
        selector: &str,
        threshold: Option<f64>,
        above: bool,
        listener: CompletRef,
    ) -> u64 {
        self.start_profiling_for_selector(selector);
        self.inner.hub.subscribe_remote(
            selector,
            threshold,
            above,
            ListenerAddr::Complet(listener.descriptor()),
        )
    }

    /// Subscribes a local handler to events fired by a **remote** Core.
    ///
    /// # Errors
    ///
    /// Fails if the remote Core is unknown or unreachable.
    pub fn subscribe_at(
        &self,
        core_name: &str,
        selector: &str,
        threshold: Option<f64>,
        above: bool,
        handler: EventHandler,
    ) -> Result<RemoteSubscription> {
        if core_name == self.inner.name {
            let token = self.on_event(selector, threshold, above, handler);
            return Ok(RemoteSubscription {
                core: self.clone(),
                peer: None,
                token,
                selector: selector.to_owned(),
            });
        }
        let node = self.resolve_core(core_name)?;
        let token = self.inner.sink_seq.fetch_add(1, Ordering::Relaxed);
        self.inner.sinks.lock().insert(token, handler);
        let listener = ListenerAddr::Core {
            node: self.inner.node.index(),
            token,
        };
        match self.rpc(
            node,
            Request::Subscribe {
                selector: selector.to_owned(),
                threshold,
                above,
                listener,
            },
        )? {
            Reply::Ok => Ok(RemoteSubscription {
                core: self.clone(),
                peer: Some(node),
                token,
                selector: selector.to_owned(),
            }),
            Reply::Err(e) => {
                self.inner.sinks.lock().remove(&token);
                Err(e)
            }
            other => Err(FargoError::Protocol(format!("unexpected reply {other:?}"))),
        }
    }

    /// Fires an event: delivers to every matching listener, each on its
    /// own thread (the paper's asynchronous notification).
    pub(crate) fn fire_event(&self, payload: EventPayload) {
        for delivery in self.inner.hub.matching(&payload) {
            match delivery {
                Delivery::Local(handler) => {
                    let p = payload.clone();
                    thread::spawn(move || handler(&p));
                }
                Delivery::Remote(ListenerAddr::Core { node, token }) => {
                    let msg = Message::Notify(Notify::Event {
                        token,
                        payload: payload.clone(),
                    });
                    let _ = self.send_to(node, &msg);
                }
                Delivery::Remote(ListenerAddr::Complet(desc)) => {
                    let core = self.clone();
                    let p = payload.clone();
                    thread::spawn(move || {
                        let r = CompletRef::from_descriptor(desc);
                        let _ = core.invoke(&r, "on_event", &[p.to_value()]);
                    });
                }
            }
        }
    }

    // --- monitoring convenience ---------------------------------------------

    /// Instant measurement of a profiling service (cached, §4.1).
    ///
    /// # Errors
    ///
    /// Fails when the service cannot be measured on this Core.
    pub fn profile_instant(&self, service: &Service) -> Result<f64> {
        self.inner.monitor.instant(service)
    }

    /// Starts continuous profiling of a service.
    pub fn profile_start(&self, service: Service, interval: Duration) {
        self.inner.monitor.start(service, interval);
    }

    /// Current exponential average of a continuously profiled service.
    pub fn profile_get(&self, service: &Service) -> Option<f64> {
        self.inner.monitor.get(service)
    }

    /// Releases interest in a continuously profiled service.
    pub fn profile_stop(&self, service: &Service) {
        self.inner.monitor.stop(service);
    }

    // --- lifecycle -----------------------------------------------------------

    /// Measures round-trip time to a peer Core.
    ///
    /// # Errors
    ///
    /// Fails if the peer is unknown or unreachable.
    pub fn ping(&self, core_name: &str) -> Result<Duration> {
        let node = self.resolve_core(core_name)?;
        let start = self.inner.config.clock.now_us();
        match self.rpc(node, Request::Ping)? {
            Reply::Pong => Ok(Duration::from_micros(
                self.inner.config.clock.now_us().saturating_sub(start),
            )),
            Reply::Err(e) => Err(e),
            other => Err(FargoError::Protocol(format!("unexpected reply {other:?}"))),
        }
    }

    /// Announces shutdown: fires `coreShutdown` to local and remote
    /// listeners (who typically evacuate complets), waits out the grace
    /// period, then stops the Core.
    pub fn shutdown(&self, grace: Duration) {
        let payload = EventPayload::CoreShutdown {
            core: self.inner.node.index(),
        };
        self.fire_event(payload);
        thread::sleep(grace);
        self.stop();
    }

    /// Stops the Core immediately: no more requests are served.
    pub fn stop(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        // Mark the node down on the control plane first (so peers' sends
        // start refusing), then tear the transport down.
        let _ = self.inner.net.set_node_up(self.inner.node, false);
        self.inner.transport.shutdown();
    }

    // --- internals -------------------------------------------------------------

    /// Admission control (§7 resource negotiation): refuses work that
    /// would push the Core past its configured complet capacity.
    pub(crate) fn admit(&self, incoming: usize) -> Result<()> {
        if let Some(capacity) = self.inner.config.capacity {
            let resident = self.inner.complets.read().len();
            if resident + incoming > capacity {
                return Err(FargoError::CapacityExceeded {
                    core: self.inner.name.clone(),
                    capacity,
                });
            }
        }
        Ok(())
    }

    pub(crate) fn resolve_core(&self, core_name: &str) -> Result<u32> {
        self.inner
            .net
            .node_by_name(core_name)
            .map(|n| n.index())
            .ok_or_else(|| FargoError::UnknownCore(core_name.to_owned()))
    }

    /// The name of the Core at a node index.
    pub fn core_name_of(&self, node: u32) -> String {
        self.inner
            .net
            .node_name(NodeId::from_index(node))
            .unwrap_or_else(|_| format!("n{node}"))
    }

    pub(crate) fn send_to(&self, node: u32, msg: &Message) -> Result<()> {
        let t = &self.inner.telemetry;
        // Every outbound envelope carries this Core's HLC (when the
        // journal is on), so the receiver's merge keeps the global
        // timeline causally consistent — plus, when phase timing is on,
        // the shared-clock send stamp the receiver subtracts from its
        // own clock to attribute the network phase. The stamp is read
        // before encoding (it rides inside the payload), so the network
        // measurement absorbs the marshal time also recorded here.
        let ts = t.phase_send_stamp();
        // Gossip piggyback: whatever shard deltas this peer has not seen
        // yet ride along in the envelope's `nd` section (absent when the
        // peer is caught up).
        let meta = EnvelopeMeta {
            hlc: t.hlc_send_stamp(),
            ts,
            nd: self.gossip_batch_for(node),
        };
        let mut w = WireWriter::with_capacity(ENVELOPE_CAPACITY_HINT);
        let nd_bytes = msg.encode(&meta, &mut w);
        if nd_bytes > 0 {
            t.naming_gossip_bytes_total.add(nd_bytes as u64);
        }
        let payload = w.finish();
        if let Some(t0) = ts {
            t.latency_marshal_us
                .observe(t.phase_now_us().saturating_sub(t0));
        }
        t.record_msg_out(msg.kind_label(), payload.len());
        if t.accounting && node != self.inner.node.index() {
            t.matrix
                .record(self.inner.node.index(), node, payload.len() as u64, || {
                    (self.inner.name.clone(), self.core_name_of(node))
                });
        }
        self.inner
            .transport
            .send(node, payload)
            .map_err(FargoError::from)
    }

    /// Sends a request and waits for its reply. The ambient trace context
    /// (set while a traced invocation or move is in progress on this
    /// thread) rides along in the envelope. Unanswered requests are
    /// retransmitted with capped exponential backoff until the overall
    /// `rpc_timeout` budget runs out; receiver-side dedup keeps the
    /// retries at-most-once.
    pub(crate) fn rpc(&self, node: u32, body: Request) -> Result<Reply> {
        if self.inner.shutdown.load(Ordering::SeqCst) {
            return Err(FargoError::ShuttingDown);
        }
        let req_id = self.inner.req_seq.fetch_add(1, Ordering::Relaxed);
        let msg = Message::Request {
            req_id,
            origin: self.inner.node.index(),
            trace: crate::telemetry::current_trace(),
            body,
        };
        self.rpc_send_wait(node, req_id, &msg)
    }

    /// The retransmitting send-and-wait shared by [`Core::rpc`] and the
    /// invocation unit (which builds its own request envelope). The same
    /// `req_id` rides on every copy, so receivers can deduplicate.
    pub(crate) fn rpc_send_wait(&self, node: u32, req_id: ReqId, msg: &Message) -> Result<Reply> {
        let mut budget = self.retry_budget();
        let (tx, rx) = bounded(1);
        self.inner.pending.lock().insert(req_id, tx);
        let result = loop {
            if budget.attempt() > 0 {
                self.inner.telemetry.rpc_retries_total.inc();
            }
            // A synchronous send failure (unknown or down node) is
            // definitive — retransmitting cannot answer it.
            if let Err(e) = self.send_to(node, msg) {
                break Err(e);
            }
            let Some(wait) = budget.attempt_wait() else {
                break Err(FargoError::Timeout);
            };
            match rx.recv_timeout(wait) {
                Ok(reply) => break Ok(reply),
                Err(_) => {
                    if !budget.advance() {
                        break Err(FargoError::Timeout);
                    }
                }
            }
        };
        if result.is_err() {
            self.inner.pending.lock().remove(&req_id);
        }
        result
    }

    /// A fresh [`RetryBudget`] from this Core's rpc configuration.
    pub(crate) fn retry_budget(&self) -> reliable::RetryBudget {
        let cfg = &self.inner.config;
        reliable::RetryBudget::new(
            cfg.clock.clone(),
            cfg.rpc_timeout,
            cfg.rpc_max_retries,
            cfg.rpc_retry_base,
            cfg.rpc_retry_cap,
        )
    }

    /// Issues a request without waiting for its reply: the envelope is
    /// transmitted immediately and a [`PendingRpc`] tracks the
    /// correlation slot. The caller later blocks in
    /// [`PendingRpc::wait`], which retransmits on the same budget rules
    /// as [`Core::rpc`]. This is what lets one Core hold tens of
    /// thousands of requests in flight: issuing costs one send, not one
    /// parked thread.
    pub(crate) fn rpc_begin(&self, node: u32, body: Request) -> Result<PendingRpc> {
        if self.inner.shutdown.load(Ordering::SeqCst) {
            return Err(FargoError::ShuttingDown);
        }
        let req_id = self.inner.req_seq.fetch_add(1, Ordering::Relaxed);
        let msg = Message::Request {
            req_id,
            origin: self.inner.node.index(),
            trace: crate::telemetry::current_trace(),
            body,
        };
        let budget = self.retry_budget();
        let (tx, rx) = bounded(1);
        self.inner.pending.lock().insert(req_id, tx);
        // First transmission happens at issue time, so the request ages
        // (and the peer works on it) while the caller does other things.
        if let Err(e) = self.send_to(node, &msg) {
            self.inner.pending.lock().remove(&req_id);
            return Err(e);
        }
        Ok(PendingRpc {
            core: self.clone(),
            node,
            req_id,
            msg,
            rx,
            budget,
        })
    }

    /// Requests issued by this Core still awaiting their reply (both
    /// blocking rpcs and unresolved [`PendingCall`]s).
    pub fn inflight_rpcs(&self) -> usize {
        self.inner.pending.lock().len()
    }

    pub(crate) fn reply_to(&self, node: u32, req_id: ReqId, body: Reply) {
        let msg = Message::Reply {
            req_id,
            route: vec![],
            body,
        };
        if let Err(e) = self.send_to(node, &msg) {
            // A dropped reply leaves the requester to retransmit or time
            // out; count and journal it so lost-reply scenarios show up
            // in diagnostics instead of vanishing.
            self.inner.telemetry.reply_send_failures.inc();
            self.inner.telemetry.journal(
                JournalKind::ReplyDropped,
                &req_id,
                "",
                &e.to_string(),
                Some(node),
            );
        }
    }

    /// Records the reply for a deduplicated request, then sends it. Every
    /// reply-producing branch of `handle_request` funnels through here so
    /// retransmitted requests replay instead of re-executing.
    pub(crate) fn finish_request(&self, origin: u32, req_id: ReqId, body: Reply) {
        self.inner.reply_cache.complete(origin, req_id, &body);
        self.reply_to(origin, req_id, body);
    }

    // --- background threads -----------------------------------------------------

    fn spawn_receiver(&self) {
        let core = self.clone();
        thread::Builder::new()
            .name(format!("fargo-core-{}", self.inner.name))
            .spawn(move || core.receiver_loop())
            .expect("failed to spawn core receiver thread");
    }

    /// Starts the bounded request-worker pool. Workers share one queue;
    /// replies and notifies bypass it (handled inline on the receiver
    /// loop), so a pool saturated with requests blocked in nested rpcs
    /// can still be unblocked by incoming replies.
    fn spawn_workers(&self, work_rx: Receiver<WorkRequest>) {
        for i in 0..self.inner.config.worker_threads {
            let core = self.clone();
            let rx = work_rx.clone();
            thread::Builder::new()
                .name(format!("fargo-worker-{}-{i}", self.inner.name))
                .spawn(move || loop {
                    if core.inner.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    match rx.recv_timeout(Duration::from_millis(25)) {
                        Ok(job) => {
                            core.inner.busy_workers.fetch_add(1, Ordering::SeqCst);
                            let t = &core.inner.telemetry;
                            if let Some(enq) = job.enqueued_us {
                                // Queue-wait phase: receiver enqueue to
                                // worker pickup.
                                t.observe_phase(
                                    &t.latency_queue_us,
                                    t.phase_now_us().saturating_sub(enq),
                                );
                            }
                            core.handle_request(job.origin, job.req_id, job.trace, job.body);
                            core.inner.busy_workers.fetch_sub(1, Ordering::SeqCst);
                        }
                        Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
                        Err(crossbeam::channel::RecvTimeoutError::Disconnected) => return,
                    }
                })
                .expect("failed to spawn core worker thread");
        }
    }

    fn receiver_loop(&self) {
        loop {
            if self.inner.shutdown.load(Ordering::SeqCst) {
                return;
            }
            match self.inner.transport.recv_timeout(Duration::from_millis(25)) {
                Ok(incoming) => self.receive(incoming),
                Err(e) if e.is_timeout() => {}
                Err(_) => return,
            }
        }
    }

    /// Decodes one datagram (in place — the reader walks the transport's
    /// buffer), absorbs its envelope metadata and dispatches the message.
    fn receive(&self, incoming: Datagram) {
        let t = &self.inner.telemetry;
        let wire_len = incoming.payload.len();
        let Ok((msg, meta, nd_bytes)) = Message::decode(incoming.payload) else {
            // Malformed, truncated or unknown-version frame: dropped, as
            // a real Core would, and counted.
            t.msg_decode_errors_total.inc();
            return;
        };
        if let Some(h) = meta.hlc {
            t.observe_hlc(h);
        }
        if let Some(sent_us) = meta.ts {
            // One-way delivery latency as the application experienced it
            // (propagation + queueing + marshal), measured on the shared
            // clock. Fed back to the substrate so the layout cost model
            // calibrates from observations.
            let us = t.phase_now_us().saturating_sub(sent_us);
            t.observe_phase(&t.latency_network_us, us);
            self.inner.net.record_observed_latency(
                NodeId::from_index(incoming.src),
                self.inner.node,
                us,
            );
        }
        t.record_msg_in(msg.kind_label(), wire_len);
        t.queue_depth.set(self.inner.transport.queue_len() as f64);
        if nd_bytes > 0 {
            t.naming_gossip_bytes_total.add(nd_bytes as u64);
        }
        self.absorb_gossip(meta.nd);
        self.dispatch(msg);
    }

    fn dispatch(&self, msg: Message) {
        match msg {
            Message::Request {
                req_id,
                origin,
                trace,
                body,
            } => {
                // Read-only snapshot requests are served right here on
                // the dispatch loop: they never run complet code, never
                // block, and never rpc, so they cannot stall the loop —
                // and they no longer occupy (or get shed from) pool
                // slots while the pool is saturated with slow work.
                if body.inline_safe() {
                    self.inner.telemetry.worker_inline_total.inc();
                    self.inner.busy_workers.fetch_add(1, Ordering::SeqCst);
                    self.handle_request(origin, req_id, trace, body);
                    self.inner.busy_workers.fetch_sub(1, Ordering::SeqCst);
                    return;
                }
                // Everything else runs on the bounded worker pool. A full
                // queue drops the request — never blocks the receiver
                // loop (replies must keep flowing or workers blocked in
                // nested rpcs would deadlock) — and the sender's
                // retransmission recovers it once workers drain.
                let job = WorkRequest {
                    origin,
                    req_id,
                    trace,
                    enqueued_us: self.inner.telemetry.phase_send_stamp(),
                    body,
                };
                match self.inner.work_tx.try_send(job) {
                    Ok(()) => {}
                    // One shed, one count. Disconnection is shutdown, not
                    // load shedding — counting it inflated the rejection
                    // series on every teardown.
                    Err(TrySendError::Full(_)) => {
                        self.inner.telemetry.worker_rejections_total.inc();
                    }
                    Err(TrySendError::Disconnected(_)) => {}
                }
            }
            Message::Reply {
                req_id,
                route,
                body,
            } => self.handle_reply(req_id, route, body),
            Message::Notify(n) => self.handle_notify(n),
        }
    }

    fn handle_request(
        &self,
        origin: u32,
        req_id: ReqId,
        trace: Option<TraceContext>,
        body: Request,
    ) {
        if self.inner.shutdown.load(Ordering::SeqCst) {
            self.reply_to(origin, req_id, Reply::Err(FargoError::ShuttingDown));
            return;
        }
        // At-most-once admission: a retransmitted copy of a request we
        // already executed replays the recorded reply; one we are still
        // executing is dropped. Idempotent (read-only) kinds skip the
        // cache and simply re-execute.
        if !body.idempotent() {
            let (decision, evicted) = self.inner.reply_cache.begin(origin, req_id);
            if evicted > 0 {
                self.inner.telemetry.dedup_evictions_total.add(evicted);
            }
            match decision {
                CacheDecision::Execute => {}
                CacheDecision::DropInFlight => {
                    self.inner.telemetry.dedup_inflight_total.inc();
                    return;
                }
                CacheDecision::Replay(reply) => {
                    self.inner.telemetry.dedup_hits_total.inc();
                    self.reply_to(origin, req_id, reply);
                    return;
                }
            }
        }
        match body {
            Request::Invoke {
                target,
                method,
                args,
                chain,
                path,
                hops,
            } => self.handle_invoke(
                origin, req_id, trace, target, method, args, chain, path, hops,
            ),
            Request::Move {
                packets,
                continuation,
            } => {
                let reply = self.handle_move_stream(packets, continuation, trace);
                self.finish_request(origin, req_id, reply);
            }
            Request::MovePrepare {
                root,
                epoch,
                packets,
                continuation,
            } => {
                let reply = self.handle_move_prepare(origin, root, epoch, packets, continuation);
                self.finish_request(origin, req_id, reply);
            }
            Request::MoveCommit { root, epoch } => {
                let reply = self.handle_move_commit(root, epoch, trace);
                self.finish_request(origin, req_id, reply);
            }
            Request::MoveAbort { root, epoch } => {
                let reply = self.handle_move_abort(root, epoch);
                self.finish_request(origin, req_id, reply);
            }
            Request::MoveQuery { root, epoch } => {
                let reply = self.handle_move_query(root, epoch);
                self.finish_request(origin, req_id, reply);
            }
            Request::MoveDecision { root, epoch } => {
                let reply = self.handle_move_decision(root, epoch);
                self.finish_request(origin, req_id, reply);
            }
            Request::NewComplet { type_name, args } => {
                let reply = match self.new_complet(&type_name, &args) {
                    Ok(b) => Reply::NewOk {
                        desc: b.r.descriptor(),
                    },
                    Err(e) => Reply::Err(e),
                };
                self.finish_request(origin, req_id, reply);
            }
            Request::NameLookup { name } => {
                let reply = Reply::NameOk {
                    desc: self.lookup(&name).map(|r| r.descriptor()),
                };
                self.finish_request(origin, req_id, reply);
            }
            Request::FetchState { id } => {
                let reply = self.handle_fetch_state(id);
                self.finish_request(origin, req_id, reply);
            }
            Request::MoveRequest { id, dest } => {
                let dest_name = self.core_name_of(dest);
                let reply = match self.move_complet(id, &dest_name, None) {
                    Ok(()) => Reply::Ok,
                    Err(e) => Reply::Err(e),
                };
                self.finish_request(origin, req_id, reply);
            }
            Request::WhereIs { id } => {
                let reply = Reply::WhereOk {
                    node: self.local_belief(id),
                };
                self.finish_request(origin, req_id, reply);
            }
            Request::LocateQuery { id } => {
                // The authoritative answer of this Core's shard slice.
                // `None` covers tombstones and unknown ids alike; the
                // epoch still rides back so the asker can rank hints.
                let (node, epoch) = match self.inner.shard.lookup(id) {
                    Some(e) if e.alive => (Some(e.node), e.epoch),
                    Some(e) => (None, e.epoch),
                    None => (None, 0),
                };
                self.reply_to(origin, req_id, Reply::LocateOk { node, epoch });
            }
            Request::ShardList => {
                let entries = self
                    .inner
                    .shard
                    .alive()
                    .into_iter()
                    .map(|(id, e)| (id, e.node, e.epoch))
                    .collect();
                self.reply_to(origin, req_id, Reply::ShardEntries { entries });
            }
            Request::Subscribe {
                selector,
                threshold,
                above,
                listener,
            } => {
                self.start_profiling_for_selector(&selector);
                self.inner
                    .hub
                    .subscribe_remote(&selector, threshold, above, listener);
                self.finish_request(origin, req_id, Reply::Ok);
            }
            Request::Unsubscribe { selector, listener } => {
                if self.inner.hub.unsubscribe_remote(&selector, &listener) > 0 {
                    self.stop_profiling_for_selector(&selector);
                }
                self.finish_request(origin, req_id, Reply::Ok);
            }
            Request::ListComplets => {
                let reply = Reply::Complets {
                    items: self.complet_inventory(),
                };
                self.reply_to(origin, req_id, reply);
            }
            Request::ListTrackers => {
                let items = self
                    .tracker_snapshot()
                    .into_iter()
                    .map(|t| {
                        let fwd = match t.target {
                            TrackerTarget::Local => None,
                            TrackerTarget::Forward(n) => Some(n),
                        };
                        (t.id, fwd, t.hits)
                    })
                    .collect();
                self.reply_to(origin, req_id, Reply::Trackers { items });
            }
            Request::TraceSpans { trace_id } => {
                let spans = self.inner.telemetry.spans.for_trace(trace_id);
                self.reply_to(origin, req_id, Reply::Spans { spans });
            }
            Request::JournalEvents => {
                let events = self.inner.telemetry.journal.snapshot();
                self.reply_to(origin, req_id, Reply::Journal { events });
            }
            Request::TopComplets { n } => {
                let rows = self.inner.telemetry.accountant.top(n as usize);
                self.reply_to(origin, req_id, Reply::TopComplets { rows });
            }
            Request::TrafficMatrix => {
                let cells = self.inner.telemetry.matrix.snapshot();
                self.reply_to(origin, req_id, Reply::Matrix { cells });
            }
            Request::Ping => self.reply_to(origin, req_id, Reply::Pong),
        }
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
        if route.is_empty() {
            if let Some(tx) = self.inner.pending.lock().remove(&req_id) {
                let _ = tx.send(body);
            }
            return;
        }
        let next = route[0];
        let msg = Message::Reply {
            req_id,
            route: route[1..].to_vec(),
            body,
        };
        let _ = self.send_to(next, &msg);
    }

    fn handle_notify(&self, n: Notify) {
        match n {
            Notify::Event { token, payload } => {
                let handler = self.inner.sinks.lock().get(&token).cloned();
                if let Some(h) = handler {
                    thread::spawn(move || h(&payload));
                }
            }
            Notify::ShardDelta { entries } => {
                self.absorb_shard_publishes(entries);
            }
            Notify::CoreShutdown { node } => {
                self.fire_event(EventPayload::CoreShutdown { core: node });
            }
        }
    }

    /// Updates tracker knowledge after learning where a complet is now,
    /// at the given move epoch. An actual repoint of an existing
    /// forwarding tracker counts as a chain shortening (§3.1); an update
    /// carrying a stale epoch — a reply or notify delayed across a later
    /// move — is rejected, counted, and journaled instead of corrupting
    /// the chain.
    pub(crate) fn learn_location(&self, target: CompletId, node: u32, epoch: u64) {
        if node == self.inner.node.index() {
            if self.hosts(target) {
                // Hosting is authoritative: our own epoch counter, not the
                // message's, decides the incarnation.
                let here = self.current_move_epoch(target).max(epoch);
                let _ = self
                    .inner
                    .trackers
                    .point(target, TrackerTarget::Local, here);
            }
            return;
        }
        match self
            .inner
            .trackers
            .point(target, TrackerTarget::Forward(node), epoch)
        {
            PointOutcome::Updated {
                prev: Some(TrackerTarget::Forward(p)),
            } if p != node => {
                self.inner.telemetry.chain_shortenings_total.inc();
                self.inner.telemetry.journal(
                    JournalKind::TrackerShortened,
                    &target,
                    "",
                    "",
                    Some(node),
                );
            }
            PointOutcome::Stale {
                current,
                current_epoch,
            } => {
                self.inner.telemetry.tracker_stale_total.inc();
                self.inner.telemetry.journal(
                    JournalKind::TrackerStale,
                    &target,
                    "",
                    &format!("epoch {epoch} < {current_epoch}, kept {current:?}"),
                    Some(node),
                );
            }
            PointOutcome::Updated { .. } => {}
        }
    }

    /// The current move epoch of a complet as this Core knows it
    /// (0 = never moved through here).
    pub(crate) fn current_move_epoch(&self, id: CompletId) -> u64 {
        self.inner.move_epochs.lock().get(&id).copied().unwrap_or(0)
    }

    /// This Core's best belief of where a complet is (for `WhereIs`).
    fn local_belief(&self, id: CompletId) -> Option<u32> {
        if self.hosts(id) {
            return Some(self.inner.node.index());
        }
        match self.inner.trackers.peek(id) {
            Some(TrackerTarget::Forward(n)) => Some(n),
            _ => None,
        }
    }

    /// Work the Core has accepted but not yet finished: undelivered
    /// datagrams, queued worker jobs, and requests currently executing.
    /// Zero across every Core (with the network drained) means the
    /// cluster is quiescent — the deterministic checker's step barrier.
    #[doc(hidden)]
    pub fn pending_work(&self) -> usize {
        self.inner.transport.queue_len()
            + self.inner.work_rx.len()
            + self.inner.busy_workers.load(Ordering::SeqCst) as usize
    }

    /// Feeds a location report into the tracker table exactly as a
    /// passing reply would — test tooling for replaying shrunk schedules
    /// that involve delayed/reordered chain-shortening messages.
    #[doc(hidden)]
    pub fn test_learn_location(&self, target: CompletId, node: u32, epoch: u64) {
        self.learn_location(target, node, epoch);
    }

    fn spawn_monitor_thread(&self) {
        let core = self.clone();
        thread::Builder::new()
            .name(format!("fargo-monitor-{}", self.inner.name))
            .spawn(move || {
                while !core.inner.shutdown.load(Ordering::SeqCst) {
                    thread::sleep(core.inner.config.monitor_tick);
                    for event in core.inner.monitor.tick(core.inner.node.index()) {
                        core.fire_event(event);
                    }
                    core.sweep_held_moves();
                    core.wal_compact_if_due();
                    core.evaluate_health();
                    // Ring refresh + anti-entropy republish for the
                    // sharded location service (a no-op when disabled).
                    core.naming_rebalance();
                    // Clone out of the lock: a hook may add/remove hooks.
                    let hooks: Vec<TickHook> = {
                        let guard = core.inner.tick_hooks.lock();
                        guard.iter().map(|(_, h)| h.clone()).collect()
                    };
                    for hook in hooks {
                        hook();
                    }
                }
            })
            .expect("failed to spawn monitor thread");
    }

    fn install_sampler(&self) {
        let weak: Weak<CoreInner> = Arc::downgrade(&self.inner);
        self.inner
            .monitor
            .install_sampler(Arc::new(move |service: &Service| {
                let inner = weak.upgrade()?;
                sample_service(&inner, service)
            }));
    }
}

/// Measures one profiling service against the live Core state.
fn sample_service(inner: &Arc<CoreInner>, service: &Service) -> Option<f64> {
    match service {
        Service::CompletLoad => Some(inner.complets.read().len() as f64),
        Service::Bandwidth { peer } => {
            let bw = inner
                .net
                .model_bandwidth(inner.node, NodeId::from_index(*peer))
                .ok()?;
            Some(bw.map(|b| b as f64).unwrap_or(f64::MAX / 4.0))
        }
        Service::Latency { peer } => Some(
            inner
                .net
                .model_latency(inner.node, NodeId::from_index(*peer))
                .ok()?
                .as_secs_f64(),
        ),
        Service::MethodInvokeRate { src, dst } => {
            let total = inner.monitor.invocations.total(*src, *dst);
            Some(inner.monitor.rate_from_total(service, total))
        }
        Service::CompletSize { id } => {
            let slot = inner.complets.read().get(id).cloned()?;
            let guard = slot.state.try_lock()?;
            match &*guard {
                SlotState::Present(c) => Some(c.marshal().deep_size() as f64),
                _ => None,
            }
        }
        Service::MemoryUse => {
            let slots: Vec<_> = inner.complets.read().values().cloned().collect();
            let mut total = 0usize;
            for slot in slots {
                if let Some(guard) = slot.state.try_lock() {
                    if let SlotState::Present(c) = &*guard {
                        total += c.marshal().deep_size();
                    }
                }
            }
            Some(total as f64)
        }
        Service::QueueLen => Some(inner.transport.queue_len() as f64),
    }
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("name", &self.inner.name)
            .field("node", &self.inner.node)
            .field("complets", &self.complet_count())
            .finish()
    }
}

/// A handle for cancelling a subscription made with [`Core::subscribe_at`].
#[derive(Debug)]
pub struct RemoteSubscription {
    core: Core,
    /// `None` when the subscription was local after all.
    peer: Option<u32>,
    token: u64,
    selector: String,
}

impl RemoteSubscription {
    /// Cancels the subscription on both sides.
    pub fn cancel(self) {
        match self.peer {
            None => {
                self.core.unsubscribe(self.token);
            }
            Some(node) => {
                self.core.inner.sinks.lock().remove(&self.token);
                let listener = ListenerAddr::Core {
                    node: self.core.inner.node.index(),
                    token: self.token,
                };
                let _ = self.core.rpc(
                    node,
                    Request::Unsubscribe {
                        selector: self.selector.clone(),
                        listener,
                    },
                );
            }
        }
    }
}

/// One issued request awaiting its reply (transport-level correlation).
///
/// Created by [`Core::rpc_begin`]; dropping it abandons the request and
/// releases its correlation slot.
pub(crate) struct PendingRpc {
    core: Core,
    node: u32,
    req_id: ReqId,
    msg: Message,
    rx: Receiver<Reply>,
    budget: reliable::RetryBudget,
}

impl PendingRpc {
    /// Blocks for the reply, retransmitting on the same budget rules as
    /// the synchronous rpc path (the request has been aging since
    /// `rpc_begin`, so a long-issued call may time out immediately).
    pub(crate) fn wait(mut self) -> Result<Reply> {
        let result = loop {
            let Some(wait) = self.budget.attempt_wait() else {
                break Err(FargoError::Timeout);
            };
            match self.rx.recv_timeout(wait) {
                Ok(reply) => break Ok(reply),
                Err(_) => {
                    if !self.budget.advance() {
                        break Err(FargoError::Timeout);
                    }
                    self.core.inner.telemetry.rpc_retries_total.inc();
                    if let Err(e) = self.core.send_to(self.node, &self.msg) {
                        break Err(e);
                    }
                }
            }
        };
        if result.is_err() {
            self.core.inner.pending.lock().remove(&self.req_id);
        }
        result
    }
}

impl Drop for PendingRpc {
    fn drop(&mut self) {
        // Answered requests were already removed by `handle_reply`;
        // abandoned ones must not leak their correlation slot.
        self.core.inner.pending.lock().remove(&self.req_id);
    }
}

/// An invocation in flight, returned by [`BoundRef::call_async`] /
/// [`Core::invoke_async`]. The request was transmitted at issue time;
/// [`PendingCall::wait`] collects the result (retransmitting within the
/// rpc budget as needed). Dropping it abandons the call.
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
        args: Vec<Value>,
    },
    /// Resolved at issue time (local execution or an immediate error).
    Ready(Result<Value>),
}

impl PendingCall {
    pub(crate) fn ready(result: Result<Value>) -> Self {
        PendingCall {
            state: PendingCallState::Ready(result),
        }
    }

    pub(crate) fn remote(
        rpc: PendingRpc,
        target: CompletRef,
        method: String,
        args: Vec<Value>,
    ) -> Self {
        PendingCall {
            state: PendingCallState::Remote {
                rpc: Box::new(rpc),
                target,
                method,
                args,
            },
        }
    }

    /// Blocks until the invocation resolves and returns its result.
    ///
    /// # Errors
    ///
    /// Propagates invocation failures exactly as [`BoundRef::call`]
    /// does.
    pub fn wait(self) -> Result<Value> {
        match self.state {
            PendingCallState::Ready(r) => r,
            PendingCallState::Remote {
                rpc,
                target,
                method,
                args,
            } => {
                let core = rpc.core.clone();
                match rpc.wait()? {
                    Reply::InvokeOk {
                        value,
                        final_location,
                        target: id,
                        ..
                    } => {
                        core.inner.trackers.credit(id);
                        target.set_last_known(final_location);
                        Ok(value)
                    }
                    Reply::Err(FargoError::UnknownComplet(_)) => {
                        // The fast-path destination neither hosts nor
                        // tracks the target (it moved, or the tracker was
                        // collected). The blocking path re-routes through
                        // trackers and the location shard.
                        core.invoke(&target, &method, &args)
                    }
                    Reply::Err(e) => Err(e),
                    other => Err(FargoError::Protocol(format!(
                        "unexpected invoke reply {other:?}"
                    ))),
                }
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

/// A complet reference bound to a local Core: the callable **stub**.
///
/// `BoundRef` is what application code outside any complet holds; it
/// plays the role of the stub object in Figure 2 — interface-identical
/// calls (`call`), plus access to the meta-reference (`meta`).
#[derive(Clone)]
pub struct BoundRef {
    core: Core,
    r: CompletRef,
}

impl BoundRef {
    /// Invokes a method on the target complet, wherever it currently is.
    ///
    /// # Errors
    ///
    /// Propagates invocation failures (unknown complet, no such method,
    /// application errors, network failures, …).
    pub fn call(&self, method: &str, args: &[Value]) -> Result<Value> {
        self.core.invoke(&self.r, method, args)
    }

    /// Begins an invocation without blocking for its result: the request
    /// goes on the wire immediately and the returned [`PendingCall`]
    /// collects it later. Thousands of calls can be in flight from one
    /// thread this way; `wait` applies the same retransmission budget
    /// and at-most-once semantics as [`BoundRef::call`].
    pub fn call_async(&self, method: &str, args: &[Value]) -> PendingCall {
        self.core.invoke_async(&self.r, method, args)
    }

    /// The underlying portable reference (shared, not a copy: retyping
    /// through it is visible to this stub too).
    pub fn complet_ref(&self) -> &CompletRef {
        &self.r
    }

    /// The target's identity.
    pub fn id(&self) -> CompletId {
        self.r.id()
    }

    /// The target anchor's type name.
    pub fn target_type(&self) -> String {
        self.r.target_type()
    }

    /// The Core this stub is bound to.
    pub fn core(&self) -> &Core {
        &self.core
    }

    /// The reference's meta-reference (§3.2).
    pub fn meta(&self) -> MetaRef {
        self.core.meta_ref(&self.r)
    }

    /// Moves the target complet to another Core.
    ///
    /// # Errors
    ///
    /// Fails if the destination is unknown or the move cannot complete.
    pub fn move_to(&self, core_name: &str) -> Result<()> {
        self.core.move_complet(self.r.id(), core_name, None)
    }

    /// Moves the target complet and invokes `method(args)` on it at the
    /// destination (call-with-continuation, §3.3).
    ///
    /// # Errors
    ///
    /// Fails if the destination is unknown or the move cannot complete.
    pub fn move_with(&self, core_name: &str, method: &str, args: Vec<Value>) -> Result<()> {
        self.core
            .move_complet(self.r.id(), core_name, Some((method.to_owned(), args)))
    }
}

impl std::fmt::Debug for BoundRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BoundRef({} @ {})", self.r, self.core.name())
    }
}

/// Invocation context plumbing shared by the invocation and movement
/// units.
impl Core {
    pub(crate) fn make_ctx(&self, id: CompletId, type_name: &str, chain: Vec<CompletId>) -> Ctx {
        Ctx::new(self.clone(), id, type_name.to_owned(), chain)
    }

    /// Builds a bare invocation context for driving complet code outside
    /// the normal dispatch path — benchmarking and test tooling only.
    #[doc(hidden)]
    pub fn test_ctx(&self, id: CompletId, type_name: &str) -> Ctx {
        self.make_ctx(id, type_name, vec![id])
    }

    /// Executes the deferred relocations a [`Ctx`] accumulated.
    pub(crate) fn run_deferred(&self, ctx: Ctx) {
        for d in ctx.deferred {
            let _ = self.move_complet(d.target, &d.dest, d.continuation);
        }
    }
}
