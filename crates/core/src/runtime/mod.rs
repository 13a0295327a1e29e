//! The Core: FarGo's stationary per-host runtime component (§3).
//!
//! One [`Core`] runs per network node. It hosts complets, realises complet
//! references (stub/tracker), moves complets under layout constraints,
//! implements the invocation parameter-passing scheme, serves naming, and
//! runs the monitoring facility — the architecture of the paper's
//! Figure 1, with `simnet` as the Peer Interface.

//!
//! This file holds the shared state ([`CoreInner`]), the builder and
//! `spawn`, lifecycle, complet install/release and the [`BoundRef`]
//! stub. The units that cooperate over that state are `impl Core`
//! blocks in their own files: [`rpc`] (caller side of the peer channel),
//! [`dispatch`] (receiver side), [`invocation`], [`movement`],
//! [`naming`] + [`shards`], [`persistence`] + [`wal`], [`events`] and
//! [`observe`].

pub(crate) mod dispatch;
pub(crate) mod events;
pub(crate) mod invocation;
pub(crate) mod members;
pub(crate) mod movement;
pub(crate) mod naming;
pub(crate) mod observe;
pub(crate) mod persistence;
pub(crate) mod reliable;
pub(crate) mod rpc;
pub(crate) mod shards;
pub(crate) mod wal;

#[cfg(test)]
mod envelope_tests;

pub use events::RemoteSubscription;
pub use invocation::PendingCall;
pub use members::{LinkConfig, LinkStats, LinkView, Member};
pub use observe::LatencySummary;
pub use persistence::Checkpoint;
pub use reliable::{DEDUP_CACHE_MAX_BYTES, DEDUP_CACHE_MAX_ENTRIES};
pub use shards::{LocateReport, ResolveVia};
pub use wal::RecoveryReport;

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::thread;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, Sender};
use fargo_net::{
    DeliveryGate, SimnetTransport, TcpTransport, TcpTransportConfig, Transport, TransportError,
};
use fargo_telemetry::{JournalKind, Registry as TelemetryRegistry};
use fargo_wire::{CompletId, RefDescriptor, Value};
use parking_lot::{Mutex, RwLock};
use simnet::{Endpoint, Network, NodeId};

use crate::complet::{Complet, CompletRegistry};
use crate::config::CoreConfig;
use crate::ctx::Ctx;
use crate::error::{FargoError, Result};
use crate::events::{EventHandler, EventHub, EventPayload};
use crate::monitor::{Monitor, Service};
use crate::proto::{put_new_complet, Reply, ReqId, Request};
use crate::reference::relocator::RelocatorRegistry;
use crate::reference::tracker::{PointOutcome, TrackerSnapshot, TrackerTable, TrackerTarget};
use crate::reference::{CompletRef, MetaRef};
use crate::runtime::dispatch::Job;
use crate::runtime::members::{directory, Directory};
use crate::runtime::movement::HeldMove;
use crate::runtime::reliable::{DecisionLog, ReplyCache};
use crate::telemetry::CoreTelemetry;

/// How many two-phase move verdicts each Core retains for in-doubt
/// resolution, on either side of a move (FIFO-evicted; far above any
/// realistic concurrent load).
const MOVE_DECISION_LOG: usize = 2 * 1024;

/// Maximum tracker hops an invocation may traverse.
pub(crate) const MAX_HOPS: u32 = 64;

/// Smoothing factor of the monitor's exponential averages, in `(0, 1]`;
/// higher weighs recent samples more.
const MONITOR_ALPHA: f64 = 0.3;

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
    pub directory: Directory,
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
    /// Requests awaiting their reply, by id; the smallest is the mark
    /// every outgoing request carries.
    pub pending: Mutex<BTreeMap<ReqId, Sender<Reply>>>,
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
    /// Bounded queue feeding the worker pool: requests and Core tasks.
    pub work_tx: Sender<Job>,
    /// A receiver handle kept only so queue depth is observable
    /// (crossbeam senders cannot report length).
    pub work_rx: Receiver<Job>,
    /// Jobs executing on the workers, and requests served inline
    /// (quiescence detection).
    pub busy_workers: AtomicU64,
    /// Per-complet move-epoch counters (updated on departure and arrival
    /// so epochs stay monotonic across hosts).
    pub move_epochs: Mutex<HashMap<CompletId, u64>>,
    /// This life's first id, `incarnation << 32 | 1`: where every id
    /// counter starts, and the floor of every move epoch it mints.
    pub id_base: u64,
    /// Verdicts of the two-phase moves this Core coordinated or received.
    pub move_verdicts: DecisionLog,
    /// Prepared-but-uncommitted move streams, keyed `(root, epoch)`.
    pub held_moves: Mutex<HashMap<(CompletId, u64), HeldMove>>,
    /// Consistent-hash ring assigning each complet id's authoritative
    /// location shard to a Core (rebuilt when membership changes).
    pub ring: Mutex<fargo_naming::HashRing>,
    /// This Core's slice of the sharded location service: the
    /// authoritative `(complet → node, epoch)` entries for ids the ring
    /// assigns here.
    pub shard: fargo_naming::LocationShard,
    /// Write-ahead passivation log; `None` when durability is off
    /// (`CoreConfig::wal_dir` unset).
    pub wal: Option<wal::Wal>,
    /// What the spawn-time recovery pass replayed (`None` when no pass
    /// ran: durability off or an empty log).
    pub recovery: Mutex<Option<wal::RecoveryReport>>,
}

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
    /// hand out a consistent peer table) instead of the simulated
    /// network. `peers[i]` is the listen address of the Core registered
    /// `i`-th on `net`; this Core's own entry is ignored. The network
    /// passed to [`Core::builder`] stays attached as the cluster
    /// directory and fault-injection control plane: every outbound
    /// envelope is first offered to the network model (loss, partitions
    /// and link statistics apply) and only admitted traffic reaches the
    /// wire.
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
        let restarts = endpoint.restarts();
        let config = self.config;
        // The log is read here, before any thread starts: a log this
        // build cannot decode fails the spawn and stays as it was found.
        let (wal_log, replay, replay_read) = match &config.wal_dir {
            Some(dir) => {
                let log = wal::Wal::open(dir, &name, config.wal_fsync)
                    .map_err(|e| FargoError::App(format!("wal open: {e}")))?;
                let started = Instant::now();
                let replay = wal::Wal::replay_path(log.path())
                    .map_err(|e| FargoError::App(format!("wal replay: {e}")))?;
                (Some(log), replay, started.elapsed())
            }
            None => (None, wal::WalFold::default(), Duration::ZERO),
        };
        // This life's incarnation, above every earlier life the log or the
        // network remembers (a first life is 0). Every id counter starts at
        // its base, so no id of this life names what an earlier one named.
        let incarnation = wal_log
            .as_ref()
            .map_or(0, |w| w.generation().saturating_sub(1))
            .max(restarts);
        let first_id = (incarnation << 32) | 1;
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
        let transport: Arc<dyn Transport> = match self.tcp {
            Some((listener, peers)) => Arc::new(TcpTransport::start(
                TcpTransportConfig {
                    local: node.index(),
                    peers,
                },
                listener,
                Some(gate),
            )?),
            None => Arc::new(SimnetTransport::new(endpoint, config.clock.clone())),
        };
        let telemetry = CoreTelemetry::new(
            self.telemetry.unwrap_or_default(),
            &name,
            node.index(),
            first_id,
            &config,
        );
        let monitor = Monitor::new(
            config.monitor_cache_ttl,
            MONITOR_ALPHA,
            config.clock.clone(),
        );
        monitor.register_metrics(&telemetry.registry, &name);
        let (work_tx, work_rx) = bounded(config.worker_queue_depth);
        let members: Vec<u32> = self.net.node_ids().iter().map(|n| n.index()).collect();
        let inner = Arc::new(CoreInner {
            name,
            node,
            directory: directory(self.net),
            transport,
            registry: self.registry.unwrap_or_default(),
            relocators: self.relocators.unwrap_or_default(),
            monitor,
            telemetry,
            complets: RwLock::new(HashMap::new()),
            trackers: TrackerTable::new(config.clock.clone()),
            naming: Mutex::new(HashMap::new()),
            pending: Mutex::new(BTreeMap::new()),
            sinks: Mutex::new(HashMap::new()),
            sink_seq: AtomicU64::new(first_id),
            req_seq: AtomicU64::new(first_id),
            // Seq 0 is reserved for the application pseudo-complet.
            complet_seq: AtomicU64::new(first_id),
            hub: EventHub::new(),
            shutdown: AtomicBool::new(false),
            reply_cache: ReplyCache::new(DEDUP_CACHE_MAX_ENTRIES),
            work_tx,
            work_rx: work_rx.clone(),
            busy_workers: AtomicU64::new(0),
            move_epochs: Mutex::new(HashMap::new()),
            id_base: first_id,
            move_verdicts: DecisionLog::new(MOVE_DECISION_LOG),
            held_moves: Mutex::new(HashMap::new()),
            // Membership may still be growing while Cores spawn one by
            // one; every use refreshes the ring against the live node
            // list, so starting from what is visible now is safe.
            ring: Mutex::new(fargo_naming::HashRing::new(&members, shards::NAMING_VNODES)),
            shard: fargo_naming::LocationShard::new(),
            wal: wal_log,
            recovery: Mutex::new(None),
            config,
        });
        let core = Core { inner };
        core.install_sampler();
        // Recovery first: no request is served, and nothing appends to
        // the log, until the logged state is back.
        core.recover_from_wal(replay, replay_read);
        core.spawn_workers(work_rx);
        core.spawn_receiver();
        core.spawn_monitor_thread();
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
        let node = self.core_index(core_name)?;
        let request = self.rpc_begin(node, "new", |w| put_new_complet(w, type_name, args))?;
        match request.wait()? {
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
        let epoch = self.install_complet_with_id(id, type_name, complet);
        self.publish_location(id, self.inner.node.index(), epoch, true);
        id
    }

    /// Installs a complet under `id` with its local tracker, at its
    /// current move epoch, which it returns; the caller publishes.
    pub(crate) fn install_complet_with_id(
        &self,
        id: CompletId,
        type_name: &str,
        complet: Box<dyn Complet>,
    ) -> u64 {
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
        epoch
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

    // --- lifecycle -----------------------------------------------------------

    /// Measures round-trip time to a peer Core.
    ///
    /// # Errors
    ///
    /// Fails if the peer is unknown or unreachable.
    pub fn ping(&self, core_name: &str) -> Result<Duration> {
        let node = self.core_index(core_name)?;
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
        self.fail_pending_rpcs();
        // Mark the node down first (so peers' sends start refusing),
        // then tear the transport down.
        self.mark_down();
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
                    // Ring refresh + shard handoff for the sharded
                    // location service (nothing to hand off when it is
                    // disabled: the shard stays empty).
                    core.naming_rebalance();
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
                sample_service(&Core { inner }, service)
            }));
    }
}

/// Measures one profiling service against the live Core state.
fn sample_service(core: &Core, service: &Service) -> Option<f64> {
    let inner = &core.inner;
    match service {
        Service::CompletLoad => Some(inner.complets.read().len() as f64),
        Service::Bandwidth { peer } => {
            let model = core.link(inner.node.index(), *peer).model?;
            Some(model.bandwidth.map_or(f64::MAX / 4.0, |b| b as f64))
        }
        Service::Latency { peer } => {
            let latency = core.link(inner.node.index(), *peer).model_latency?;
            Some(latency.as_secs_f64())
        }
        Service::MethodInvokeRate { src, dst } => {
            let total = inner.telemetry.edges.invokes((*src, *dst));
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
        Service::InvokeP99 => {
            let p99 = inner.telemetry.invoke_latency_us.quantile_recent(0.99);
            Some(p99.unwrap_or(0.0))
        }
        Service::ErrorRate
        | Service::ShedRate
        | Service::MoveFailureRate
        | Service::RemoteShare => {
            let t = &inner.telemetry;
            let (num, den) = match service {
                Service::ErrorRate => (t.invoke_errors_total.get(), t.invoke_total.get()),
                Service::ShedRate => (t.worker_rejections_total.get(), t.invoke_total.get()),
                Service::RemoteShare => (t.msgs_out("invoke"), t.invoke_total.get()),
                _ => (t.move_failures_total.get(), t.moves_attempted_total.get()),
            };
            Some(inner.monitor.ratio_from_totals(service, num, den))
        }
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

    /// Executes the deferred relocations a [`Ctx`] accumulated.
    pub(crate) fn run_deferred(&self, ctx: Ctx) {
        let id = ctx.self_id();
        for d in ctx.deferred {
            let _ = self.move_complet(id, &d.dest, d.continuation);
        }
    }
}
