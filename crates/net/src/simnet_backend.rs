//! [`SimnetTransport`]: the [`Transport`] adapter over [`simnet::Endpoint`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use bytes::Bytes;
use fargo_telemetry::Clock;
use simnet::{Endpoint, NetError, NodeId};

use crate::error::TransportError;
use crate::transport::{Datagram, Transport};

/// How long a virtual-clock receive may block the OS thread in one slice
/// before re-checking the virtual deadline. Arrivals still wake the
/// thread immediately (the underlying channel signals); this only bounds
/// how stale the *deadline* check can get.
const VIRTUAL_SLICE: Duration = Duration::from_millis(1);

/// Adapter presenting a [`simnet::Endpoint`] as a [`Transport`].
///
/// A timed receive joins the shared clock: `Endpoint::recv_timeout`
/// blocks on *wall* time only, so under
/// [`Clock::Virtual`](fargo_telemetry::Clock) the adapter waits in short
/// wall slices and declares the timeout as soon as **either** clock
/// passes its deadline — a schedule that advances virtual time past the
/// wait releases it promptly, and the timeout is the schedule's decision.
pub struct SimnetTransport {
    endpoint: Endpoint,
    clock: Clock,
    down: AtomicBool,
}

impl SimnetTransport {
    /// Wraps an endpoint; `clock` is the runtime's shared clock.
    #[must_use]
    pub fn new(endpoint: Endpoint, clock: Clock) -> Self {
        SimnetTransport {
            endpoint,
            clock,
            down: AtomicBool::new(false),
        }
    }

    /// The underlying endpoint's node id.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.endpoint.id()
    }
}

impl Transport for SimnetTransport {
    fn local_index(&self) -> u32 {
        self.endpoint.id().index()
    }

    fn send(&self, dst: u32, payload: Bytes) -> Result<(), TransportError> {
        self.endpoint
            .send(NodeId::from_index(dst), payload)
            .map_err(TransportError::from)
    }

    fn recv(&self) -> Result<Datagram, TransportError> {
        let m = self.endpoint.recv()?;
        match self.down.load(Ordering::SeqCst) {
            true => Err(NetError::Closed.into()), // maybe `shutdown`'s wake
            false => Ok(datagram(m)),
        }
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Datagram, TransportError> {
        if !self.clock.is_virtual() {
            return Ok(datagram(self.endpoint.recv_timeout(timeout)?));
        }
        // Virtual clock: the protocol deadline lives on virtual time, the
        // wall bound below is pure liveness (a schedule that never
        // advances must not hang the receiver).
        let virtual_deadline = self.clock.deadline_us(timeout);
        let wall_deadline = Instant::now() + timeout;
        loop {
            let slice = VIRTUAL_SLICE.min(wall_deadline.saturating_duration_since(Instant::now()));
            match self.endpoint.recv_timeout(slice) {
                Err(NetError::RecvTimeout)
                    if self.clock.now_us() < virtual_deadline && Instant::now() < wall_deadline => {
                }
                received => return Ok(datagram(received?)),
            }
        }
    }

    fn queue_len(&self) -> usize {
        self.endpoint.queue_len()
    }

    fn shutdown(&self) {
        // No threads to join; marking the node down is the Core's job.
        if !self.down.swap(true, Ordering::SeqCst) {
            self.endpoint.wake();
        }
    }

    fn kind(&self) -> &'static str {
        "simnet"
    }
}

fn datagram(m: simnet::Incoming) -> Datagram {
    Datagram {
        src: m.src.index(),
        payload: m.payload,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{LinkConfig, Network, NetworkConfig};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::thread;

    fn instant_net() -> Network {
        Network::new(NetworkConfig {
            default_link: Some(LinkConfig::instant()),
            ..NetworkConfig::default()
        })
    }

    #[test]
    fn delivers_and_times_out_on_wall_clock() {
        let net = instant_net();
        let a = SimnetTransport::new(net.add_node("a").unwrap(), Clock::Wall);
        let b = SimnetTransport::new(net.add_node("b").unwrap(), Clock::Wall);
        a.send(1, Bytes::from_static(b"ping")).unwrap();
        let d = b.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(d.src, 0);
        assert_eq!(d.payload.as_ref(), b"ping");
        let err = b.recv_timeout(Duration::from_millis(10)).unwrap_err();
        assert!(matches!(err, TransportError::Net(NetError::RecvTimeout)));
    }

    /// The satellite bugfix: a receive wait under `Clock::Virtual` must
    /// observe the shared clock. Advancing virtual time past the wait's
    /// deadline releases it promptly — the thread must not stay parked
    /// for the full 10 s of wall time the old path would have waited.
    #[test]
    fn virtual_clock_advance_releases_the_wait() {
        let net = instant_net();
        let ticks = Arc::new(AtomicU64::new(1_000));
        let clock = Clock::Virtual(ticks.clone());
        let t = SimnetTransport::new(net.add_node("a").unwrap(), clock);
        let advancer = thread::spawn(move || {
            thread::sleep(Duration::from_millis(30));
            // Jump virtual time far past the 10-second deadline.
            ticks.fetch_add(60_000_000, Ordering::SeqCst);
        });
        let t0 = Instant::now();
        let err = t.recv_timeout(Duration::from_secs(10)).unwrap_err();
        assert!(matches!(err, TransportError::Net(NetError::RecvTimeout)));
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "virtual advance must release the wait well before the wall deadline"
        );
        advancer.join().unwrap();
    }

    /// `shutdown` wakes a receiver blocked in `recv`, though nothing was
    /// sent to it. Marked down first, as a stopping Core does, the node
    /// refuses to send.
    #[test]
    fn shutdown_wakes_a_blocked_recv() {
        let net = instant_net();
        let endpoint = net.add_node("a").unwrap();
        let node = endpoint.id();
        let t = Arc::new(SimnetTransport::new(endpoint, Clock::Wall));
        let blocked = {
            let t = Arc::clone(&t);
            thread::spawn(move || t.recv())
        };
        thread::sleep(Duration::from_millis(20));
        net.set_node_up(node, false).unwrap();
        t.shutdown();
        assert!(blocked.join().unwrap().is_err());
        assert!(t.send(0, Bytes::from_static(b"x")).is_err());
    }

    /// Arrivals wake a virtual-clock wait immediately even though virtual
    /// time never moves.
    #[test]
    fn virtual_clock_wait_wakes_on_arrival() {
        let net = instant_net();
        let clock = Clock::Virtual(Arc::new(AtomicU64::new(0)));
        let a = net.add_node("a").unwrap();
        let b = SimnetTransport::new(net.add_node("b").unwrap(), clock);
        a.send(NodeId::from_index(1), Bytes::from_static(b"x"))
            .unwrap();
        let d = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(d.payload.as_ref(), b"x");
    }
}
