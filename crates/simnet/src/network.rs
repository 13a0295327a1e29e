//! The [`Network`]: node registry, link table, and send path.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{self, Sender, TrySendError};
use parking_lot::{Mutex, RwLock};

use crate::endpoint::Endpoint;
use crate::error::NetError;
use crate::link::LinkConfig;
use crate::message::{Incoming, NodeId};
use crate::scheduler::{Scheduled, Scheduler};
use crate::stats::{LinkStats, StatsWindow};

/// Global configuration for a [`Network`].
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Multiplier applied to every configured delay (latency, jitter, and
    /// serialisation). A scale of `0.1` runs a model ten times faster than
    /// its nominal timings.
    pub time_scale: f64,
    /// Link used between node pairs that have no explicit configuration;
    /// `None` means sends between unconfigured pairs fail with
    /// [`NetError::NoLink`].
    pub default_link: Option<LinkConfig>,
    /// Width of the sliding window used for observed-throughput statistics.
    pub stats_window: Duration,
    /// Seed for the loss/jitter random generator (deterministic tests).
    pub seed: u64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            time_scale: 1.0,
            default_link: Some(LinkConfig::lan()),
            stats_window: Duration::from_secs(1),
            seed: 0x5eed_f00d,
        }
    }
}

#[derive(Debug)]
struct NodeRecord {
    name: String,
    up: bool,
    tx: Sender<Incoming>,
    /// How many times [`Network::restart_node`] revived this node.
    restarts: u64,
}

/// Datagrams an inbound queue holds — an endpoint's here and the TCP
/// transport's alike. An arrival at a full one is dropped like a loss,
/// and the reliable layer above retransmits.
pub const INBOX_BOUND: usize = 1 << 16;

#[derive(Debug)]
pub(crate) struct LinkState {
    config: LinkConfig,
    /// Instant until which the link's serialiser is occupied (bandwidth
    /// queueing): a packet starts serialising at `max(now, busy_until)`.
    busy_until: Instant,
    stats: StatsWindow,
}

/// The link table, shared with the scheduler to count drops at full queues.
pub(crate) type Links = Arc<Mutex<HashMap<(NodeId, NodeId), LinkState>>>;

/// Puts `msg` into its queue; a full one drops it, counted on its link.
pub(crate) fn deliver(links: &Links, to: &Sender<Incoming>, msg: Incoming) {
    if let Err(TrySendError::Full(msg)) = to.try_send(msg) {
        if let Some(link) = links.lock().get_mut(&(msg.src, msg.dst)) {
            link.stats.record_drop();
        }
    }
}

/// What [`Network::admit`] did with one payload.
enum Admission<T> {
    /// `src == dst`: the link model does not apply.
    Local,
    /// The loss model dropped it; the link counted the drop.
    Lost,
    /// The link counted it; `T` is what the caller's schedule returned.
    Admitted(T),
}

#[derive(Debug)]
pub(crate) struct Inner {
    config: NetworkConfig,
    nodes: RwLock<Vec<NodeRecord>>,
    names: RwLock<HashMap<String, NodeId>>,
    links: Links,
    scheduler: Scheduler,
    rng: Mutex<crate::rng::Rng>,
    seq: AtomicU64,
    /// Packets accepted by [`Network::send`] but not yet placed in their
    /// destination queue. Self-sends bypass the scheduler and never count.
    in_flight: Arc<AtomicU64>,
}

/// An in-process simulated network.
///
/// Cloning a `Network` yields another handle to the same network. See the
/// [crate-level documentation](crate) for an example.
#[derive(Debug, Clone)]
pub struct Network {
    inner: Arc<Inner>,
}

impl Network {
    /// Creates an empty network and starts its delivery scheduler.
    pub fn new(config: NetworkConfig) -> Self {
        let seed = config.seed;
        let in_flight = Arc::new(AtomicU64::new(0));
        let links = Links::default();
        Network {
            inner: Arc::new(Inner {
                config,
                nodes: RwLock::new(Vec::new()),
                names: RwLock::new(HashMap::new()),
                scheduler: Scheduler::spawn(in_flight.clone(), links.clone()),
                links,
                rng: Mutex::new(crate::rng::Rng::seed_from_u64(seed)),
                seq: AtomicU64::new(0),
                in_flight,
            }),
        }
    }

    /// Registers a node and returns its [`Endpoint`].
    ///
    /// # Errors
    ///
    /// Returns [`NetError::DuplicateName`] if the name is taken.
    pub fn add_node(&self, name: &str) -> Result<Endpoint, NetError> {
        let mut names = self.inner.names.write();
        if names.contains_key(name) {
            return Err(NetError::DuplicateName(name.to_owned()));
        }
        let mut nodes = self.inner.nodes.write();
        let id = NodeId(nodes.len() as u32);
        let (tx, rx) = channel::bounded(INBOX_BOUND);
        nodes.push(NodeRecord {
            name: name.to_owned(),
            up: true,
            tx,
            restarts: 0,
        });
        names.insert(name.to_owned(), id);
        Ok(Endpoint::new(self.clone(), id, rx, 0))
    }

    /// Crash-restarts a node: its old inbox (and any [`Endpoint`] still
    /// holding it) is abandoned, a fresh queue is installed, the node is
    /// marked up, and a new [`Endpoint`] for the same id and name is
    /// returned. Packets already scheduled toward the old queue are lost —
    /// exactly what a process crash does to its socket buffers. The name
    /// registration is unchanged, so peers keep addressing the node by the
    /// same id. The node's restart count grows by one, and the new
    /// endpoint reports it ([`Endpoint::restarts`]).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::UnknownNode`] for an id not in this network.
    pub fn restart_node(&self, id: NodeId) -> Result<Endpoint, NetError> {
        let mut nodes = self.inner.nodes.write();
        let rec = nodes
            .get_mut(id.0 as usize)
            .ok_or(NetError::UnknownNode(id))?;
        let (tx, rx) = channel::bounded(INBOX_BOUND);
        rec.tx = tx;
        rec.up = true;
        rec.restarts += 1;
        Ok(Endpoint::new(self.clone(), id, rx, rec.restarts))
    }

    /// Looks up a node by name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.inner.names.read().get(name).copied()
    }

    /// Returns the name a node was registered under.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::UnknownNode`] for an id not in this network.
    pub fn node_name(&self, id: NodeId) -> Result<String, NetError> {
        self.inner
            .nodes
            .read()
            .get(id.0 as usize)
            .map(|n| n.name.clone())
            .ok_or(NetError::UnknownNode(id))
    }

    /// All node ids currently registered.
    pub fn node_ids(&self) -> Vec<NodeId> {
        (0..self.inner.nodes.read().len() as u32)
            .map(NodeId)
            .collect()
    }

    /// Marks a node up or down. Sends to or from a down node fail.
    pub fn set_node_up(&self, id: NodeId, up: bool) -> Result<(), NetError> {
        let mut nodes = self.inner.nodes.write();
        let rec = nodes
            .get_mut(id.0 as usize)
            .ok_or(NetError::UnknownNode(id))?;
        rec.up = up;
        Ok(())
    }

    /// Whether a node is currently up.
    pub fn node_up(&self, id: NodeId) -> Result<bool, NetError> {
        self.inner
            .nodes
            .read()
            .get(id.0 as usize)
            .map(|n| n.up)
            .ok_or(NetError::UnknownNode(id))
    }

    /// Configures the link between `a` and `b` **in both directions**.
    pub fn set_link(&self, a: NodeId, b: NodeId, config: LinkConfig) -> Result<(), NetError> {
        self.set_link_directed(a, b, config.clone())?;
        self.set_link_directed(b, a, config)
    }

    /// Configures only the `src → dst` direction of a link.
    pub fn set_link_directed(
        &self,
        src: NodeId,
        dst: NodeId,
        config: LinkConfig,
    ) -> Result<(), NetError> {
        self.check_node(src)?;
        self.check_node(dst)?;
        let mut links = self.inner.links.lock();
        links
            .entry((src, dst))
            .and_modify(|l| l.config = config.clone())
            .or_insert_with(|| self.link_state(config, Instant::now()));
        Ok(())
    }

    /// Takes the link between `a` and `b` down in both directions
    /// (a network partition between the pair).
    pub fn partition(&self, a: NodeId, b: NodeId) -> Result<(), NetError> {
        self.set_link_up(a, b, false)
    }

    /// Restores a previously partitioned pair.
    pub fn heal(&self, a: NodeId, b: NodeId) -> Result<(), NetError> {
        self.set_link_up(a, b, true)
    }

    fn set_link_up(&self, a: NodeId, b: NodeId, up: bool) -> Result<(), NetError> {
        for (s, d) in [(a, b), (b, a)] {
            let mut cfg = self.link_config(s, d)?;
            cfg.up = up;
            self.set_link_directed(s, d, cfg)?;
        }
        Ok(())
    }

    /// Effective configuration of the `src → dst` link (explicit or the
    /// network default).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::NoLink`] when the pair is unconfigured and the
    /// network has no default link.
    pub fn link_config(&self, src: NodeId, dst: NodeId) -> Result<LinkConfig, NetError> {
        if let Some(l) = self.inner.links.lock().get(&(src, dst)) {
            return Ok(l.config.clone());
        }
        self.inner
            .config
            .default_link
            .clone()
            .ok_or(NetError::NoLink(src, dst))
    }

    /// Traffic statistics of the `src → dst` link.
    pub fn link_stats(&self, src: NodeId, dst: NodeId) -> LinkStats {
        let mut links = self.inner.links.lock();
        match links.get_mut(&(src, dst)) {
            Some(l) => l.stats.snapshot(Instant::now()),
            None => LinkStats::default(),
        }
    }

    /// Feeds one receiver-measured one-way delivery latency (µs) back
    /// into the `src → dst` link's statistics. The transport itself
    /// cannot see queueing and jitter as the application experiences
    /// them, so the application layer reports what its envelope timing
    /// stamps actually measured; consumers (e.g. layout cost models)
    /// read it back through [`Network::link_stats`] as
    /// `observed_latency_us`. Unknown nodes are ignored.
    pub fn record_observed_latency(&self, src: NodeId, dst: NodeId, us: u64) {
        if self.check_node(src).is_err() || self.check_node(dst).is_err() || src == dst {
            return;
        }
        let Ok(cfg) = self.link_config(src, dst) else {
            return;
        };
        let mut links = self.inner.links.lock();
        let link = links
            .entry((src, dst))
            .or_insert_with(|| self.link_state(cfg, Instant::now()));
        link.stats.record_observed_latency(us);
    }

    /// The model's one-way latency between two nodes, after time scaling.
    ///
    /// This is what a zero-byte probe would observe (excluding jitter); the
    /// FarGo monitor exposes it as the `latency` system profiling service.
    pub fn model_latency(&self, src: NodeId, dst: NodeId) -> Result<Duration, NetError> {
        let cfg = self.link_config(src, dst)?;
        Ok(self.scaled(cfg.latency))
    }

    /// The model's bandwidth between two nodes in bytes/second (unscaled;
    /// `None` means unlimited). The FarGo monitor exposes it as the
    /// `bandwidth` system profiling service.
    pub fn model_bandwidth(&self, src: NodeId, dst: NodeId) -> Result<Option<u64>, NetError> {
        Ok(self.link_config(src, dst)?.bandwidth)
    }

    /// A fresh link-table entry: an idle serialiser and empty statistics.
    fn link_state(&self, config: LinkConfig, now: Instant) -> LinkState {
        LinkState {
            config,
            busy_until: now,
            stats: StatsWindow::new(self.inner.config.stats_window),
        }
    }

    /// A configured duration on this network's clock (times the time scale).
    pub fn scaled(&self, d: Duration) -> Duration {
        d.mul_f64(self.inner.config.time_scale.max(0.0))
    }

    fn check_node(&self, id: NodeId) -> Result<(), NetError> {
        if (id.0 as usize) < self.inner.nodes.read().len() {
            Ok(())
        } else {
            Err(NetError::UnknownNode(id))
        }
    }

    /// The one admission of a payload onto the `src → dst` link, shared
    /// by both transports ([`Network::offer`] is exactly this): both
    /// nodes known and up, the link configured and up, the loss draw, and
    /// the link statistics. `schedule` runs on an admitted payload's link
    /// under the same lock, so [`Network::send`]'s bandwidth and jitter
    /// schedule follows the loss draw without another caller's draw in
    /// between.
    fn admit<T>(
        &self,
        src: NodeId,
        dst: NodeId,
        len: usize,
        schedule: impl FnOnce(&mut LinkState, &LinkConfig, Instant) -> T,
    ) -> Result<Admission<T>, NetError> {
        {
            let nodes = self.inner.nodes.read();
            for id in [src, dst] {
                let node = nodes.get(id.0 as usize).ok_or(NetError::UnknownNode(id))?;
                if !node.up {
                    return Err(NetError::NodeDown(id));
                }
            }
        }
        if src == dst {
            return Ok(Admission::Local);
        }
        let cfg = self.link_config(src, dst)?;
        if !cfg.up {
            return Err(NetError::LinkDown(src, dst));
        }
        let now = Instant::now();
        let mut links = self.inner.links.lock();
        let link = links
            .entry((src, dst))
            .or_insert_with(|| self.link_state(cfg.clone(), now));
        if cfg.loss > 0.0 && self.inner.rng.lock().gen_f64() < cfg.loss {
            link.stats.record_drop();
            return Ok(Admission::Lost);
        }
        link.stats.record(now, len as u64);
        Ok(Admission::Admitted(schedule(link, &cfg, now)))
    }

    /// Sends `payload` from `src` to `dst`, subject to the link model.
    ///
    /// Local sends (`src == dst`) bypass the link model and deliver
    /// immediately. Lost packets (loss model) are dropped silently, as on a
    /// real network: the send itself still succeeds.
    ///
    /// # Errors
    ///
    /// Fails if either node is unknown or down, or the link is down or
    /// missing (with no default configured).
    pub fn send(&self, src: NodeId, dst: NodeId, payload: Bytes) -> Result<(), NetError> {
        let size = payload.len();
        let deliver_at = match self.admit(src, dst, size, |link, cfg, now| {
            // Bandwidth queueing: serialisation occupies the link.
            let ser = self.scaled(cfg.serialisation_delay(size));
            let start = link.busy_until.max(now);
            link.busy_until = start + ser;

            // Propagation: latency plus uniform jitter.
            let jitter = if cfg.jitter.is_zero() {
                Duration::ZERO
            } else {
                cfg.jitter.mul_f64(self.inner.rng.lock().gen_f64())
            };
            start + ser + self.scaled(cfg.latency) + self.scaled(jitter)
        })? {
            Admission::Lost => return Ok(()),
            Admission::Local => None,
            Admission::Admitted(at) => Some(at),
        };
        // Admission found `dst`, and nodes are never removed.
        let to = self.inner.nodes.read()[dst.0 as usize].tx.clone();
        let msg = Incoming {
            src,
            dst,
            payload,
            delivered_at: Instant::now(),
            seq: self.inner.seq.fetch_add(1, Ordering::Relaxed),
        };
        let Some(deliver_at) = deliver_at else {
            deliver(&self.inner.links, &to, msg);
            return Ok(());
        };
        self.inner.in_flight.fetch_add(1, Ordering::SeqCst);
        if !self.inner.scheduler.submit(Scheduled {
            deliver_at,
            msg,
            to,
        }) {
            self.inner.in_flight.fetch_sub(1, Ordering::SeqCst);
        }
        Ok(())
    }

    /// Control-plane admission check for out-of-band transports.
    ///
    /// When envelopes travel over a real transport (e.g. TCP loopback),
    /// the simnet network stays attached as the cluster's fault-injection
    /// control plane: the transport consults `offer` before putting a
    /// payload on the wire. `offer` is the admission [`Network::send`]
    /// runs — node/link up checks, the loss model, link statistics —
    /// without the delivery schedule.
    ///
    /// Returns `Ok(true)` if the payload may be transmitted, `Ok(false)`
    /// if the loss model dropped it (the caller must discard it silently,
    /// exactly like a lost packet).
    ///
    /// # Errors
    ///
    /// Fails under the same conditions as [`Network::send`]: unknown or
    /// down node, down or missing link.
    pub fn offer(&self, src: NodeId, dst: NodeId, len: usize) -> Result<bool, NetError> {
        let admission = self.admit(src, dst, len, |_, _, _| ())?;
        Ok(!matches!(admission, Admission::Lost))
    }

    /// Packets currently travelling through the link model: accepted by
    /// [`Network::send`] but not yet delivered into their destination
    /// queue. Reaching zero (with all endpoint queues drained) is the
    /// network half of a quiescence check.
    pub fn in_flight(&self) -> u64 {
        self.inner.in_flight.load(Ordering::SeqCst)
    }

    /// Queues an empty message from `id` to itself, unless a restart since
    /// its `restarts`-th endpoint replaced the queue (or it is full: then
    /// a receiver has a message to take anyway).
    pub(crate) fn wake(&self, id: NodeId, restarts: u64) {
        let nodes = self.inner.nodes.read();
        if let Some(rec) = nodes.get(id.0 as usize).filter(|r| r.restarts == restarts) {
            let _ = rec.tx.try_send(Incoming {
                src: id,
                dst: id,
                payload: Bytes::new(),
                delivered_at: Instant::now(),
                seq: self.inner.seq.fetch_add(1, Ordering::Relaxed),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> Network {
        Network::new(NetworkConfig {
            default_link: Some(LinkConfig::instant()),
            ..NetworkConfig::default()
        })
    }

    #[test]
    fn duplicate_names_rejected() {
        let n = net();
        n.add_node("a").unwrap();
        assert!(matches!(n.add_node("a"), Err(NetError::DuplicateName(_))));
    }

    #[test]
    fn name_lookup_roundtrip() {
        let n = net();
        let a = n.add_node("alpha").unwrap();
        assert_eq!(n.node_by_name("alpha"), Some(a.id()));
        assert_eq!(n.node_name(a.id()).unwrap(), "alpha");
        assert_eq!(n.node_by_name("nope"), None);
    }

    #[test]
    fn basic_delivery() {
        let n = net();
        let a = n.add_node("a").unwrap();
        let b = n.add_node("b").unwrap();
        a.send(b.id(), b"hi".to_vec()).unwrap();
        let m = b.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(m.payload.as_ref(), b"hi");
        assert_eq!(m.src, a.id());
    }

    /// A receiver that does not drain holds `INBOX_BOUND` messages; what
    /// arrives beyond that is dropped and counted on its link as a loss.
    #[test]
    fn a_full_queue_drops_and_counts_the_excess() {
        let n = net();
        let a = n.add_node("a").unwrap();
        let b = n.add_node("b").unwrap();
        for _ in 0..INBOX_BOUND + 10 {
            a.send(b.id(), b"x".to_vec()).unwrap();
        }
        while n.in_flight() > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(b.queue_len(), INBOX_BOUND);
        assert_eq!(n.link_stats(a.id(), b.id()).dropped, 10);
    }

    #[test]
    fn self_send_is_immediate() {
        let n = net();
        let a = n.add_node("a").unwrap();
        a.send(a.id(), b"loop".to_vec()).unwrap();
        let m = a.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(m.payload.as_ref(), b"loop");
    }

    #[test]
    fn latency_is_respected() {
        let n = Network::new(NetworkConfig::default());
        let a = n.add_node("a").unwrap();
        let b = n.add_node("b").unwrap();
        n.set_link(a.id(), b.id(), LinkConfig::new(Duration::from_millis(50)))
            .unwrap();
        let t0 = Instant::now();
        a.send(b.id(), b"x".to_vec()).unwrap();
        b.recv_timeout(Duration::from_secs(2)).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(45));
    }

    #[test]
    fn bandwidth_delays_large_messages() {
        let n = Network::new(NetworkConfig::default());
        let a = n.add_node("a").unwrap();
        let b = n.add_node("b").unwrap();
        // 10 KB/s: a 1 KB message takes ~100 ms to serialise.
        n.set_link(
            a.id(),
            b.id(),
            LinkConfig::new(Duration::ZERO).with_bandwidth(10_000),
        )
        .unwrap();
        let t0 = Instant::now();
        a.send(b.id(), vec![0u8; 1000]).unwrap();
        b.recv_timeout(Duration::from_secs(2)).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(80));
    }

    #[test]
    fn partition_blocks_and_heal_restores() {
        let n = net();
        let a = n.add_node("a").unwrap();
        let b = n.add_node("b").unwrap();
        n.set_link(a.id(), b.id(), LinkConfig::instant()).unwrap();
        n.partition(a.id(), b.id()).unwrap();
        assert!(matches!(
            a.send(b.id(), b"x".to_vec()),
            Err(NetError::LinkDown(_, _))
        ));
        n.heal(a.id(), b.id()).unwrap();
        a.send(b.id(), b"y".to_vec()).unwrap();
        assert!(b.recv_timeout(Duration::from_secs(1)).is_ok());
    }

    #[test]
    fn down_node_rejects_traffic() {
        let n = net();
        let a = n.add_node("a").unwrap();
        let b = n.add_node("b").unwrap();
        n.set_node_up(b.id(), false).unwrap();
        assert!(matches!(
            a.send(b.id(), b"x".to_vec()),
            Err(NetError::NodeDown(_))
        ));
        assert!(!n.node_up(b.id()).unwrap());
    }

    #[test]
    fn restart_replaces_queue_and_revives_node() {
        let n = net();
        let a = n.add_node("a").unwrap();
        let b = n.add_node("b").unwrap();
        // Message sitting in b's old queue is lost across the restart.
        a.send(b.id(), b"pre-crash".to_vec()).unwrap();
        n.set_node_up(b.id(), false).unwrap();
        assert!(matches!(
            a.send(b.id(), b"while-down".to_vec()),
            Err(NetError::NodeDown(_))
        ));
        let b2 = n.restart_node(b.id()).unwrap();
        assert_eq!(b2.id(), b.id());
        assert_eq!((b.restarts(), b2.restarts()), (0, 1));
        assert!(n.node_up(b.id()).unwrap());
        assert_eq!(n.node_name(b2.id()).unwrap(), "b");
        a.send(b.id(), b"post-restart".to_vec()).unwrap();
        let m = b2.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(m.payload.as_ref(), b"post-restart");
        // The fresh queue never saw the pre-crash packet.
        assert!(b2.recv_timeout(Duration::from_millis(50)).is_err());
        assert_eq!(n.restart_node(b.id()).unwrap().restarts(), 2);
    }

    #[test]
    fn restart_unknown_node_fails() {
        let n = net();
        assert!(matches!(
            n.restart_node(NodeId(9)),
            Err(NetError::UnknownNode(_))
        ));
    }

    #[test]
    fn total_loss_drops_silently() {
        let n = net();
        let a = n.add_node("a").unwrap();
        let b = n.add_node("b").unwrap();
        n.set_link(a.id(), b.id(), LinkConfig::instant().with_loss(1.0))
            .unwrap();
        a.send(b.id(), b"x".to_vec()).unwrap();
        assert!(b.recv_timeout(Duration::from_millis(50)).is_err());
        assert_eq!(n.link_stats(a.id(), b.id()).dropped, 1);
    }

    #[test]
    fn in_flight_drains_to_zero() {
        let n = Network::new(NetworkConfig::default());
        let a = n.add_node("a").unwrap();
        let b = n.add_node("b").unwrap();
        n.set_link(a.id(), b.id(), LinkConfig::new(Duration::from_millis(20)))
            .unwrap();
        a.send(b.id(), b"x".to_vec()).unwrap();
        assert_eq!(n.in_flight(), 1);
        b.recv_timeout(Duration::from_secs(2)).unwrap();
        // The scheduler counts a packet down only after handing it over
        // (quiescence must never read 0 early), so the receiver can get
        // here first: wait for the count, bounded.
        let deadline = Instant::now() + Duration::from_secs(2);
        while n.in_flight() != 0 {
            assert!(Instant::now() < deadline, "never drained");
            std::thread::yield_now();
        }
        // Self-sends never enter the scheduler.
        a.send(a.id(), b"y".to_vec()).unwrap();
        assert_eq!(n.in_flight(), 0);
    }

    #[test]
    fn stats_account_bytes_and_messages() {
        let n = net();
        let a = n.add_node("a").unwrap();
        let b = n.add_node("b").unwrap();
        a.send(b.id(), vec![0u8; 10]).unwrap();
        a.send(b.id(), vec![0u8; 30]).unwrap();
        let s = n.link_stats(a.id(), b.id());
        assert_eq!(s.messages, 2);
        assert_eq!(s.bytes, 40);
    }

    #[test]
    fn time_scale_shrinks_latency() {
        let n = Network::new(NetworkConfig {
            time_scale: 0.0,
            ..NetworkConfig::default()
        });
        let a = n.add_node("a").unwrap();
        let b = n.add_node("b").unwrap();
        n.set_link(a.id(), b.id(), LinkConfig::new(Duration::from_secs(10)))
            .unwrap();
        a.send(b.id(), b"x".to_vec()).unwrap();
        // With scale 0, the 10 s link delivers immediately.
        assert!(b.recv_timeout(Duration::from_millis(500)).is_ok());
    }

    #[test]
    fn no_default_link_means_no_route() {
        let n = Network::new(NetworkConfig {
            default_link: None,
            ..NetworkConfig::default()
        });
        let a = n.add_node("a").unwrap();
        let b = n.add_node("b").unwrap();
        assert!(matches!(
            a.send(b.id(), b"x".to_vec()),
            Err(NetError::NoLink(_, _))
        ));
    }

    #[test]
    fn model_probes_reflect_config() {
        let n = Network::new(NetworkConfig::default());
        let a = n.add_node("a").unwrap();
        let b = n.add_node("b").unwrap();
        n.set_link(
            a.id(),
            b.id(),
            LinkConfig::new(Duration::from_millis(7)).with_bandwidth(42),
        )
        .unwrap();
        assert_eq!(
            n.model_latency(a.id(), b.id()).unwrap(),
            Duration::from_millis(7)
        );
        assert_eq!(n.model_bandwidth(a.id(), b.id()).unwrap(), Some(42));
    }

    /// `send` and `offer` are one admission: on two networks with the
    /// same seed, N sends and N offers of the same lengths leave the
    /// same link statistics, and both calls refuse alike.
    #[test]
    fn send_and_offer_admit_alike() {
        let lossy = || {
            let n = Network::new(NetworkConfig {
                seed: 7,
                ..NetworkConfig::default()
            });
            let a = n.add_node("a").unwrap().id();
            let b = n.add_node("b").unwrap().id();
            n.set_link(a, b, LinkConfig::instant().with_loss(0.3))
                .unwrap();
            (n, a, b)
        };
        let (sent, a, b) = lossy();
        let (offered, _, _) = lossy();
        for i in 0..200 {
            let len = 1 + i % 37;
            sent.send(a, b, Bytes::from(vec![0u8; len])).unwrap();
            offered.offer(a, b, len).unwrap();
        }
        let counts = |n: &Network| {
            let s = n.link_stats(a, b);
            (s.messages, s.bytes, s.dropped)
        };
        let (messages, _, dropped) = counts(&sent);
        assert!(
            messages > 0 && dropped > 0,
            "the loss model must draw both ways"
        );
        assert_eq!(counts(&sent), counts(&offered));

        let refusal = |n: &Network| {
            (
                n.send(a, b, Bytes::from_static(b"x")).unwrap_err(),
                n.offer(a, b, 1).unwrap_err(),
            )
        };
        sent.partition(a, b).unwrap();
        let (send_err, offer_err) = refusal(&sent);
        assert_eq!(send_err, NetError::LinkDown(a, b));
        assert_eq!(send_err, offer_err);
        sent.heal(a, b).unwrap();
        sent.set_node_up(b, false).unwrap();
        let (send_err, offer_err) = refusal(&sent);
        assert_eq!(send_err, NetError::NodeDown(b));
        assert_eq!(send_err, offer_err);
    }
}
