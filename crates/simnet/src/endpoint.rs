//! A node's attachment point to the network.

use std::fmt;
use std::time::Duration;

use bytes::Bytes;
use crossbeam::channel::{Receiver, RecvTimeoutError, TryRecvError};

use crate::error::NetError;
use crate::message::{Incoming, NodeId};
use crate::network::Network;

/// A node's handle for sending and receiving messages.
///
/// Returned by [`Network::add_node`]; owns the node's receive queue. See
/// the [crate-level documentation](crate) for an example.
pub struct Endpoint {
    net: Network,
    id: NodeId,
    rx: Receiver<Incoming>,
    restarts: u64,
}

impl Endpoint {
    pub(crate) fn new(net: Network, id: NodeId, rx: Receiver<Incoming>, restarts: u64) -> Self {
        Endpoint {
            net,
            id,
            rx,
            restarts,
        }
    }

    /// This node's identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// How many times [`Network::restart_node`] had revived the node when
    /// it handed out this endpoint (0 from [`Network::add_node`]).
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// The network this endpoint is attached to.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Sends `payload` to `dst` subject to the link model.
    ///
    /// # Errors
    ///
    /// See [`Network::send`].
    pub fn send(&self, dst: NodeId, payload: impl Into<Bytes>) -> Result<(), NetError> {
        self.net.send(self.id, dst, payload.into())
    }

    /// Blocks until a message arrives.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Closed`] if the network has shut down.
    pub fn recv(&self) -> Result<Incoming, NetError> {
        self.rx.recv().map_err(|_| NetError::Closed)
    }

    /// Blocks until a message arrives or `timeout` elapses.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::RecvTimeout`] on timeout and
    /// [`NetError::Closed`] if the network has shut down.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Incoming, NetError> {
        self.rx.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => NetError::RecvTimeout,
            RecvTimeoutError::Disconnected => NetError::Closed,
        })
    }

    /// Returns a pending message if one is queued, without blocking.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Closed`] if the network has shut down; a merely
    /// empty queue yields `Ok(None)`.
    pub fn try_recv(&self) -> Result<Option<Incoming>, NetError> {
        match self.rx.try_recv() {
            Ok(m) => Ok(Some(m)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(NetError::Closed),
        }
    }

    /// Number of messages waiting in the receive queue.
    pub fn queue_len(&self) -> usize {
        self.rx.len()
    }

    /// Wakes a thread blocked in [`Endpoint::recv`] with an empty message
    /// from this node to itself, up or down (not after a restart, which
    /// closed this endpoint's queue).
    pub fn wake(&self) {
        self.net.wake(self.id, self.restarts);
    }
}

impl fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Endpoint")
            .field("id", &self.id)
            .field("queued", &self.rx.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkConfig;

    #[test]
    fn try_recv_and_queue_len() {
        let net = Network::new(NetworkConfig::default());
        let a = net.add_node("a").unwrap();
        assert_eq!(a.try_recv().unwrap(), None);
        a.send(a.id(), b"one".to_vec()).unwrap();
        a.send(a.id(), b"two".to_vec()).unwrap();
        assert_eq!(a.queue_len(), 2);
        let first = a.try_recv().unwrap().unwrap();
        assert_eq!(first.payload.as_ref(), b"one");
    }

    #[test]
    fn recv_timeout_expires() {
        let net = Network::new(NetworkConfig::default());
        let a = net.add_node("a").unwrap();
        assert_eq!(
            a.recv_timeout(Duration::from_millis(10)).unwrap_err(),
            NetError::RecvTimeout
        );
    }
}
