//! [`TcpTransport`]: FarGo envelopes over real sockets.
//!
//! Topology: every node knows the listen address of every peer, indexed
//! by node index (the same index order as the cluster directory). One
//! acceptor thread blocks in `accept` (shutdown wakes it with a connect
//! of its own); each accepted connection gets a reader thread that first
//! expects a 4-byte *hello* payload carrying the dialer's node index —
//! within a dial's time, and naming a peer, or it hangs up — then
//! forwards every following frame into the transport's single receive
//! queue. It reads through one buffer, so a burst of frames costs one
//! `recv`. Outbound connections are cached per peer in a links map and
//! lazily (re)dialed; a frame goes out in one write.
//!
//! Failure philosophy: a connect refusal, reset, or short write is
//! *packet loss*, not an error — the link is torn down, the datagram is
//! dropped, and the reliable layer's retransmission dials again. Only
//! conditions retransmission cannot cure (an out-of-range destination, a
//! gate refusal, local shutdown) surface as errors, mirroring
//! `simnet::Network::send`.

use std::collections::HashMap;
use std::io::{BufReader, ErrorKind, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{self, Receiver, Sender};
use parking_lot::Mutex;
use simnet::NetError;

use crate::error::TransportError;
use crate::frame::{read_frame, write_frame, FrameError};
use crate::transport::{Datagram, DeliveryGate, Transport};

/// Poll cadence of the reader threads' read timeout: the worst-case
/// extra shutdown latency. Data arrival wakes a read immediately; this
/// only bounds how stale the shutdown-flag check can get.
const POLL: Duration = Duration::from_millis(25);

/// How long an outbound dial may take before the datagram is dropped.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(500);

/// First re-dial delay after a failed connect to a peer.
const DIAL_BACKOFF_BASE: Duration = Duration::from_millis(50);

/// Ceiling of the per-peer exponential re-dial backoff. A dead peer
/// costs at most one `CONNECT_TIMEOUT` stall every two seconds instead
/// of one per send.
const DIAL_BACKOFF_CAP: Duration = Duration::from_secs(2);

/// Static description of one node's place in a TCP cluster.
#[derive(Debug, Clone)]
pub struct TcpTransportConfig {
    /// This node's index; `peers[local]` is (nominally) our own address.
    pub local: u32,
    /// Listen address of every cluster member, by node index.
    pub peers: Vec<String>,
}

struct Shared {
    local: u32,
    peers: Vec<String>,
    /// The links map: cached outbound connection per peer index. Each
    /// stream has its own lock so concurrent sends to different peers
    /// don't serialise; `None` entries are redialed on the next send.
    links: Mutex<HashMap<u32, Arc<Mutex<TcpStream>>>>,
    /// Per-peer re-dial backoff after a failed connect. Without it every
    /// send to a dead peer eats a full `CONNECT_TIMEOUT`, stalling the
    /// sender far harder than the loss it models.
    backoff: Mutex<HashMap<u32, DialBackoff>>,
    queue_tx: Sender<Datagram>,
    down: AtomicBool,
    /// Datagrams dropped at this sender (dial/write failures). Loss the
    /// retransmission layer is expected to absorb; exposed for tests and
    /// diagnostics.
    dropped: AtomicU64,
    /// Dials skipped because the peer was still in backoff; a subset of
    /// `dropped`.
    suppressed: AtomicU64,
    gate: Option<DeliveryGate>,
    /// Where shutdown connects to wake the acceptor out of `accept`.
    listen_addr: SocketAddr,
}

/// Backoff state for one peer: when the next dial may happen and the
/// delay to impose if that dial fails too.
struct DialBackoff {
    next_allowed: Instant,
    delay: Duration,
}

/// The TCP backend. See the [module docs](self).
pub struct TcpTransport {
    shared: Arc<Shared>,
    queue_rx: Receiver<Datagram>,
}

impl TcpTransport {
    /// Starts the transport on an already-bound listener (binding is the
    /// caller's job so ephemeral ports can be discovered first and raced
    /// rebinds avoided). `gate` optionally keeps a simnet network as the
    /// fault-injection control plane.
    ///
    /// # Errors
    ///
    /// Fails when `peers` has no entry for `local` (every peer would hang
    /// up on this node's hello), when another entry is not a socket
    /// address (no dial could reach it), or when the listener has none.
    pub fn start(
        config: TcpTransportConfig,
        listener: TcpListener,
        gate: Option<DeliveryGate>,
    ) -> Result<Self, TransportError> {
        let (local, peers) = (config.local as usize, &config.peers);
        let refuse = |why: String| Err(TransportError::Io(why));
        if local >= peers.len() {
            return refuse(format!("node {local} is not in a table of {}", peers.len()));
        }
        for (i, peer) in peers.iter().enumerate().filter(|&(i, _)| i != local) {
            if let Err(e) = peer.parse::<SocketAddr>() {
                return refuse(format!("peer {i} ({peer:?}): {e}"));
            }
        }
        let (queue_tx, queue_rx) = channel::unbounded();
        let shared = Arc::new(Shared {
            local: config.local,
            peers: config.peers,
            links: Mutex::new(HashMap::new()),
            backoff: Mutex::new(HashMap::new()),
            queue_tx,
            down: AtomicBool::new(false),
            dropped: AtomicU64::new(0),
            suppressed: AtomicU64::new(0),
            gate,
            listen_addr: listener.local_addr()?,
        });
        spawn_acceptor(Arc::clone(&shared), listener);
        Ok(TcpTransport { shared, queue_rx })
    }

    /// Datagrams this sender dropped on dial or write failures.
    #[must_use]
    pub fn dropped_sends(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed)
    }

    /// Dials skipped because the peer was still in re-dial backoff.
    /// These sends count in [`dropped_sends`](Self::dropped_sends) too;
    /// the difference is that no connect was attempted.
    #[must_use]
    pub fn suppressed_dials(&self) -> u64 {
        self.shared.suppressed.load(Ordering::Relaxed)
    }
}

impl Transport for TcpTransport {
    fn local_index(&self) -> u32 {
        self.shared.local
    }

    fn send(&self, dst: u32, payload: Bytes) -> Result<(), TransportError> {
        if self.shared.down.load(Ordering::SeqCst) {
            return Err(NetError::Closed.into());
        }
        if dst as usize >= self.shared.peers.len() {
            return Err(NetError::UnknownNode(simnet::NodeId::from_index(dst)).into());
        }
        if let Some(gate) = &self.shared.gate {
            if !gate(self.shared.local, dst, payload.len())? {
                return Ok(()); // injected loss: silent, like simnet
            }
        }
        if dst == self.shared.local {
            // Loopback without a socket, like simnet's self-send bypass.
            let _ = self.shared.queue_tx.send(Datagram { src: dst, payload });
            return Ok(());
        }
        // A cached link can be dead without knowing it (the peer
        // restarted): a write that fails on it tears it down and redials
        // once, at once, rather than dropping the datagram until the
        // retransmission timer fires.
        for _ in 0..2 {
            let Some(link) = self.shared.link_to(dst) else {
                break; // dial failed: drop, retransmission redials
            };
            let mut stream = link.lock();
            if write_frame(&mut *stream, &payload).is_ok() {
                return Ok(());
            }
            let _ = stream.shutdown(Shutdown::Both);
            drop(stream);
            self.shared.links.lock().remove(&dst);
        }
        self.shared.dropped.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Datagram, TransportError> {
        use crossbeam::channel::RecvTimeoutError;
        match self.queue_rx.recv_timeout(timeout) {
            Ok(d) => Ok(d),
            Err(RecvTimeoutError::Timeout) => {
                if self.shared.down.load(Ordering::SeqCst) {
                    Err(NetError::Closed.into())
                } else {
                    Err(NetError::RecvTimeout.into())
                }
            }
            Err(RecvTimeoutError::Disconnected) => Err(NetError::Closed.into()),
        }
    }

    fn try_recv(&self) -> Result<Option<Datagram>, TransportError> {
        use crossbeam::channel::TryRecvError;
        match self.queue_rx.try_recv() {
            Ok(d) => Ok(Some(d)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(NetError::Closed.into()),
        }
    }

    fn queue_len(&self) -> usize {
        self.queue_rx.len()
    }

    fn shutdown(&self) {
        if self.shared.down.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the acceptor out of `accept`: it sees `down`, drops the port.
        let _ = TcpStream::connect_timeout(&self.shared.listen_addr, CONNECT_TIMEOUT);
        // Closing the cached outbound streams unblocks the peers' reader
        // threads promptly; our own readers notice `down` within `POLL`.
        let links = std::mem::take(&mut *self.shared.links.lock());
        for (_, link) in links {
            let _ = link.lock().shutdown(Shutdown::Both);
        }
    }

    fn kind(&self) -> &'static str {
        "tcp"
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Shared {
    /// The cached outbound link to `dst`, dialing (with a hello frame
    /// announcing our index) when absent. `None` when the dial failed or
    /// the peer is still in re-dial backoff.
    fn link_to(&self, dst: u32) -> Option<Arc<Mutex<TcpStream>>> {
        if let Some(link) = self.links.lock().get(&dst) {
            return Some(Arc::clone(link));
        }
        if let Some(b) = self.backoff.lock().get(&dst) {
            if Instant::now() < b.next_allowed {
                self.suppressed.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        }
        // Dial outside the map lock: a slow peer must not stall sends to
        // the others. A racing second dial is harmless — last one wins.
        match self.dial(dst) {
            Some(link) => {
                self.backoff.lock().remove(&dst);
                Some(link)
            }
            None => {
                let mut backoff = self.backoff.lock();
                let delay = backoff
                    .get(&dst)
                    .map_or(DIAL_BACKOFF_BASE, |b| (b.delay * 2).min(DIAL_BACKOFF_CAP));
                backoff.insert(
                    dst,
                    DialBackoff {
                        next_allowed: Instant::now() + delay,
                        delay,
                    },
                );
                None
            }
        }
    }

    /// One dial attempt: connect, hello, cache. `None` on any failure.
    fn dial(&self, dst: u32) -> Option<Arc<Mutex<TcpStream>>> {
        let addr: SocketAddr = self.peers.get(dst as usize)?.parse().ok()?;
        let stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT).ok()?;
        stream.set_nodelay(true).ok()?;
        let mut hello = stream.try_clone().ok()?;
        write_frame(&mut hello, &self.local.to_be_bytes()).ok()?;
        let link = Arc::new(Mutex::new(stream));
        self.links.lock().insert(dst, Arc::clone(&link));
        Some(link)
    }
}

fn spawn_acceptor(shared: Arc<Shared>, listener: TcpListener) {
    thread::Builder::new()
        .name(format!("fargo-net-accept-{}", shared.local))
        .spawn(move || {
            for conn in listener.incoming() {
                match conn {
                    _ if shared.down.load(Ordering::SeqCst) => return,
                    Ok(stream) => spawn_reader(Arc::clone(&shared), stream),
                    Err(_) => thread::sleep(POLL), // out of descriptors, say
                }
            }
        })
        .expect("failed to spawn tcp acceptor thread");
}

/// Wraps a read-timeout socket so `read_frame` sees an ordinary blocking
/// stream: timeouts are retried (checking the shutdown flag between
/// slices) instead of surfacing mid-frame and desynchronising it.
struct PatientReader {
    stream: TcpStream,
    down: Arc<Shared>,
    /// While set, reading past it fails: the hello's deadline.
    deadline: Option<Instant>,
}

impl Read for PatientReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            if self.down.down.load(Ordering::SeqCst) {
                return Err(std::io::Error::other("transport shut down"));
            }
            if self.deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(ErrorKind::TimedOut.into());
            }
            match self.stream.read(buf) {
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                other => return other,
            }
        }
    }
}

fn spawn_reader(shared: Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(POLL));
    let _ = stream.set_nodelay(true);
    thread::Builder::new()
        .name(format!("fargo-net-reader-{}", shared.local))
        .spawn(move || {
            let mut reader = BufReader::new(PatientReader {
                stream,
                down: Arc::clone(&shared),
                deadline: Some(Instant::now() + CONNECT_TIMEOUT),
            });
            // The first frame is the hello: the dialer's node index, sent
            // as soon as it connects. A connection that does not send it
            // in a dial's time, or names no peer, is not one of ours:
            // hang up rather than hold this thread for it.
            let src = match read_frame(&mut reader) {
                Ok(b) if b.len() == 4 => u32::from_be_bytes([b[0], b[1], b[2], b[3]]),
                _ => return,
            };
            if src as usize >= shared.peers.len() {
                return;
            }
            reader.get_mut().deadline = None;
            loop {
                match read_frame(&mut reader) {
                    Ok(payload) => {
                        if shared.queue_tx.send(Datagram { src, payload }).is_err() {
                            return;
                        }
                    }
                    // The peer hung up (EOF or a reset): it shut down or
                    // restarted, so our cached link to it is dead too,
                    // though no write has failed on it yet — the kernel
                    // takes the first write after a hang-up and loses it.
                    // Dropping the link makes the next send redial.
                    Err(FrameError::Io(_)) => {
                        if !shared.down.load(Ordering::SeqCst) {
                            shared.links.lock().remove(&src);
                        }
                        return;
                    }
                    // A framing violation is unrecoverable on a stream —
                    // there is no resync point — so the connection dies
                    // and the peer's next send redials.
                    Err(FrameError::BadVersion(_) | FrameError::TooLarge(_)) => return,
                }
            }
        })
        .expect("failed to spawn tcp reader thread");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn listener() -> TcpListener {
        TcpListener::bind("127.0.0.1:0").unwrap()
    }

    fn pair() -> (TcpTransport, TcpTransport) {
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let peers = vec![
            l0.local_addr().unwrap().to_string(),
            l1.local_addr().unwrap().to_string(),
        ];
        let a = TcpTransport::start(
            TcpTransportConfig {
                local: 0,
                peers: peers.clone(),
            },
            l0,
            None,
        )
        .unwrap();
        let b = TcpTransport::start(TcpTransportConfig { local: 1, peers }, l1, None).unwrap();
        (a, b)
    }

    #[test]
    fn round_trip_and_sender_identity() {
        let (a, b) = pair();
        a.send(1, Bytes::from_static(b"over tcp")).unwrap();
        let d = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(d.src, 0);
        assert_eq!(d.payload.as_ref(), b"over tcp");
        // And the other direction (b dials its own connection).
        b.send(0, Bytes::from_static(b"back")).unwrap();
        let d = a.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(d.src, 1);
        assert_eq!(d.payload.as_ref(), b"back");
    }

    #[test]
    fn self_send_loops_back_without_a_socket() {
        let (a, _b) = pair();
        a.send(0, Bytes::from_static(b"me")).unwrap();
        let d = a.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(d.src, 0);
        assert_eq!(d.payload.as_ref(), b"me");
    }

    /// A connection that never says hello, or names an index outside the
    /// peer table, is hung up on instead of holding its reader thread
    /// for the transport's life.
    #[test]
    fn strangers_are_hung_up_on() {
        let (a, _b) = pair();
        let addr = &a.shared.peers[0];
        let silent = TcpStream::connect(addr).unwrap();
        let mut stranger = TcpStream::connect(addr).unwrap();
        write_frame(&mut stranger, &7u32.to_be_bytes()).unwrap();
        for mut conn in [silent, stranger] {
            conn.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            let read = conn.read(&mut [0u8; 1]);
            assert_eq!(read.expect("a hang-up, not a timeout"), 0);
        }
    }

    /// A table with no entry for this node would start a transport whose
    /// hello every peer hangs up on; it is refused at start.
    #[test]
    fn a_peer_table_without_this_node_is_refused() {
        let (l0, l1) = (listener(), listener());
        let peers = vec![l0.local_addr().unwrap().to_string()];
        let config = TcpTransportConfig { local: 1, peers };
        assert!(TcpTransport::start(config, l1, None).is_err());
    }

    /// A peer entry that is not a socket address would fail every dial to
    /// that peer, seen only in `dropped_sends`; it is refused at start.
    /// This node's own entry is never dialed, so it may be anything.
    #[test]
    fn a_peer_address_that_does_not_parse_is_refused() {
        let addr0 = listener().local_addr().unwrap().to_string();
        let start = |peers: Vec<&str>| {
            let peers = peers.into_iter().map(str::to_owned).collect();
            TcpTransport::start(TcpTransportConfig { local: 1, peers }, listener(), None)
        };
        assert!(start(vec!["core0:7000", "me"]).is_err());
        assert!(start(vec![&addr0, "me"]).is_ok());
    }

    /// Shutdown wakes the acceptor out of `accept`, and it lets go of
    /// the listener at once: a restart on the same address binds.
    #[test]
    fn shutdown_frees_the_listen_address_at_once() {
        let (a, _b) = pair();
        let addr = a.shared.listen_addr;
        a.shutdown();
        let deadline = Instant::now() + Duration::from_millis(100);
        while TcpListener::bind(addr).is_err() {
            assert!(Instant::now() < deadline, "{addr} still bound");
            thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn unknown_destination_is_definitive() {
        let (a, _b) = pair();
        assert!(a.send(9, Bytes::from_static(b"x")).is_err());
    }

    #[test]
    fn unreachable_peer_drops_silently() {
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let peers = vec![
            l0.local_addr().unwrap().to_string(),
            // A port nobody listens on: reserve one and close it.
            {
                let tmp = TcpListener::bind("127.0.0.1:0").unwrap();
                tmp.local_addr().unwrap().to_string()
            },
        ];
        let a = TcpTransport::start(TcpTransportConfig { local: 0, peers }, l0, None).unwrap();
        assert!(a.send(1, Bytes::from_static(b"void")).is_ok());
        assert_eq!(a.dropped_sends(), 1);
    }

    #[test]
    fn failed_dials_back_off_exponentially() {
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let peers = vec![
            l0.local_addr().unwrap().to_string(),
            // A port nobody listens on: reserve one and close it.
            {
                let tmp = TcpListener::bind("127.0.0.1:0").unwrap();
                tmp.local_addr().unwrap().to_string()
            },
        ];
        let a = TcpTransport::start(TcpTransportConfig { local: 0, peers }, l0, None).unwrap();
        // First send dials for real and fails, arming the backoff.
        a.send(1, Bytes::from_static(b"x")).unwrap();
        assert_eq!(a.dropped_sends(), 1);
        assert_eq!(a.suppressed_dials(), 0);
        // A send inside the backoff window is dropped without dialing.
        a.send(1, Bytes::from_static(b"x")).unwrap();
        assert_eq!(a.dropped_sends(), 2);
        assert_eq!(a.suppressed_dials(), 1);
        // Past the base delay the dial is retried (and fails again,
        // doubling the delay).
        thread::sleep(DIAL_BACKOFF_BASE + Duration::from_millis(10));
        a.send(1, Bytes::from_static(b"x")).unwrap();
        assert_eq!(a.dropped_sends(), 3);
        assert_eq!(a.suppressed_dials(), 1);
        // The doubled window still covers a point just past the base
        // delay: exponential, not constant.
        thread::sleep(DIAL_BACKOFF_BASE + Duration::from_millis(10));
        a.send(1, Bytes::from_static(b"x")).unwrap();
        assert_eq!(a.dropped_sends(), 4);
        assert_eq!(a.suppressed_dials(), 2);
    }

    #[test]
    fn backoff_resets_after_successful_dial() {
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr1 = l1.local_addr().unwrap();
        let peers = vec![l0.local_addr().unwrap().to_string(), addr1.to_string()];
        let a = TcpTransport::start(
            TcpTransportConfig {
                local: 0,
                peers: peers.clone(),
            },
            l0,
            None,
        )
        .unwrap();
        drop(l1); // peer down: the first dial fails and arms the backoff
        a.send(1, Bytes::from_static(b"void")).unwrap();
        assert_eq!(a.dropped_sends(), 1);
        // The peer comes back on the same port; once the backoff expires
        // the next send dials, succeeds, and clears the backoff state.
        let l1 = TcpListener::bind(addr1).unwrap();
        let b = TcpTransport::start(TcpTransportConfig { local: 1, peers }, l1, None).unwrap();
        thread::sleep(DIAL_BACKOFF_BASE + Duration::from_millis(10));
        a.send(1, Bytes::from_static(b"hello again")).unwrap();
        let d = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(d.payload.as_ref(), b"hello again");
        assert_eq!(a.dropped_sends(), 1);
        assert_eq!(a.suppressed_dials(), 0);
    }

    /// A peer that restarts on its address leaves the sender a cached
    /// link that is dead: the write that finds out redials and delivers,
    /// so no datagram is counted dropped on the way to the new peer.
    #[test]
    fn a_dead_cached_link_is_redialed_by_the_send_that_finds_it() {
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr1 = l1.local_addr().unwrap();
        let peers = vec![l0.local_addr().unwrap().to_string(), addr1.to_string()];
        let start = |local: u32, l: TcpListener| {
            let config = TcpTransportConfig {
                local,
                peers: peers.clone(),
            };
            TcpTransport::start(config, l, None).unwrap()
        };
        let a = start(0, l0);
        let b = start(1, l1);
        a.send(1, Bytes::from_static(b"first life")).unwrap();
        b.recv_timeout(Duration::from_secs(5)).unwrap();
        drop(b);
        // The old acceptor lets go of the port within its poll.
        let l1 = (0..1_000)
            .find_map(|_| {
                let bound = TcpListener::bind(addr1).ok();
                if bound.is_none() {
                    thread::sleep(Duration::from_millis(1));
                }
                bound
            })
            .expect("the port is free again");
        let b = start(1, l1);
        // Writes into the dead link may be taken by the kernel and lost;
        // the first one refused redials, and from then on they arrive.
        let delivered = (0..20).any(|_| {
            a.send(1, Bytes::from_static(b"second life")).unwrap();
            b.recv_timeout(Duration::from_millis(100)).is_ok()
        });
        assert!(delivered);
        assert_eq!(a.dropped_sends(), 0);
    }

    /// A peer that hangs up takes the cached link to it along: the reader
    /// of its connection sees the hang-up and drops the link, so the first
    /// datagram sent after the peer restarts on its address dials the new
    /// peer and arrives, rather than going into the dead link.
    #[test]
    fn a_peer_that_hangs_up_loses_its_cached_link() {
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr1 = l1.local_addr().unwrap();
        let peers = vec![l0.local_addr().unwrap().to_string(), addr1.to_string()];
        let start = |local: u32, l: TcpListener| {
            let config = TcpTransportConfig {
                local,
                peers: peers.clone(),
            };
            TcpTransport::start(config, l, None).unwrap()
        };
        let a = start(0, l0);
        let b = start(1, l1);
        a.send(1, Bytes::from_static(b"to b")).unwrap();
        b.recv_timeout(Duration::from_secs(5)).unwrap();
        b.send(0, Bytes::from_static(b"to a")).unwrap();
        a.recv_timeout(Duration::from_secs(5)).unwrap();
        drop(b);
        let deadline = Instant::now() + Duration::from_secs(5);
        while a.shared.links.lock().contains_key(&1) {
            assert!(
                Instant::now() < deadline,
                "the hang-up left the link cached"
            );
            thread::sleep(Duration::from_millis(1));
        }
        let l1 = (0..1_000)
            .find_map(|_| {
                let bound = TcpListener::bind(addr1).ok();
                if bound.is_none() {
                    thread::sleep(Duration::from_millis(1));
                }
                bound
            })
            .expect("the port is free again");
        let b = start(1, l1);
        a.send(1, Bytes::from_static(b"second life")).unwrap();
        let d = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(d.payload.as_ref(), b"second life");
        assert_eq!(a.dropped_sends(), 0);
    }

    #[test]
    fn gate_refusal_and_loss() {
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let peers = vec![
            l0.local_addr().unwrap().to_string(),
            l1.local_addr().unwrap().to_string(),
        ];
        let gate: DeliveryGate = Arc::new(|_, dst, len| {
            if len > 100 {
                return Err(NetError::LinkDown(
                    simnet::NodeId::from_index(0),
                    simnet::NodeId::from_index(dst),
                )
                .into());
            }
            Ok(len % 2 == 0) // odd payloads "lost"
        });
        let a = TcpTransport::start(
            TcpTransportConfig {
                local: 0,
                peers: peers.clone(),
            },
            l0,
            Some(gate),
        )
        .unwrap();
        let b = TcpTransport::start(TcpTransportConfig { local: 1, peers }, l1, None).unwrap();
        // Refused by the gate: an error, like a partition.
        assert!(a.send(1, Bytes::from(vec![0u8; 128])).is_err());
        // Dropped by the gate: silent.
        a.send(1, Bytes::from(vec![0u8; 3])).unwrap();
        // Admitted.
        a.send(1, Bytes::from(vec![0u8; 4])).unwrap();
        let d = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(d.payload.len(), 4);
        assert!(b.try_recv().unwrap().is_none());
    }

    #[test]
    fn shutdown_refuses_and_closes() {
        let (a, b) = pair();
        a.send(1, Bytes::from_static(b"pre")).unwrap();
        b.recv_timeout(Duration::from_secs(5)).unwrap();
        a.shutdown();
        assert!(a.send(1, Bytes::from_static(b"post")).is_err());
    }

    #[test]
    fn many_messages_keep_order_per_peer() {
        let (a, b) = pair();
        for i in 0..200u32 {
            a.send(1, Bytes::from(i.to_be_bytes().to_vec())).unwrap();
        }
        for i in 0..200u32 {
            let d = b.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(d.payload.as_ref(), i.to_be_bytes());
        }
    }
}
