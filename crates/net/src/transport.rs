//! The [`Transport`] trait and its datagram type.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;

use crate::error::TransportError;

/// One received message: who sent it (node index) and its bytes.
#[derive(Debug, Clone)]
pub struct Datagram {
    /// Node index of the sender within the cluster directory.
    pub src: u32,
    /// The encoded envelope.
    pub payload: Bytes,
}

/// Admission hook consulted before a backend puts bytes on the wire.
///
/// `(src, dst, len)` → `Ok(true)` deliver, `Ok(false)` drop silently
/// (loss injection), `Err` refuse the send. The TCP backend uses this to
/// keep a [`simnet::Network`] as its fault-injection control plane, so
/// partition/loss tests behave identically on real sockets.
pub type DeliveryGate = Arc<dyn Fn(u32, u32, usize) -> Result<bool, TransportError> + Send + Sync>;

/// An unreliable point-to-point datagram service between the Cores of one
/// cluster, addressed by node index.
///
/// Contract:
///
/// * **At-most-once.** A returned `Ok(())` from [`send`](Self::send) means
///   the datagram was *accepted*, not that it will arrive. Loss, resets,
///   and unreachable peers drop silently; the reliable-messaging layer
///   above retransmits.
/// * **Per-peer FIFO, best effort.** Both backends preserve arrival order
///   per sender in the common case (simnet models reordering via jitter;
///   TCP is ordered per connection) but the runtime must not depend on it.
/// * **Thread safety.** `send` may be called from any thread; receiving is
///   single-consumer (the Core's dispatch loop).
pub trait Transport: Send + Sync {
    /// This node's index in the cluster directory.
    fn local_index(&self) -> u32;

    /// Accepts `payload` for delivery to node `dst`.
    ///
    /// # Errors
    ///
    /// Fails only for *definitive* conditions retransmission cannot cure
    /// (unknown destination, the local node shut down, an admission-gate
    /// refusal such as a partition). Transient socket trouble is a silent
    /// drop.
    fn send(&self, dst: u32, payload: Bytes) -> Result<(), TransportError>;

    /// Blocks until a datagram arrives (the Core's receiver loop).
    ///
    /// # Errors
    ///
    /// [`NetError::Closed`](simnet::NetError::Closed) once the transport
    /// shuts down, which wakes a blocked call.
    fn recv(&self) -> Result<Datagram, TransportError>;

    /// Blocks until a datagram arrives or `timeout` elapses.
    ///
    /// # Errors
    ///
    /// [`NetError::RecvTimeout`](simnet::NetError::RecvTimeout) (wrapped)
    /// on timeout, [`NetError::Closed`](simnet::NetError::Closed) once the
    /// transport shuts down.
    fn recv_timeout(&self, timeout: Duration) -> Result<Datagram, TransportError>;

    /// Datagrams received but not yet consumed (quiescence/backlog probe).
    fn queue_len(&self) -> usize;

    /// Refuses further traffic, wakes a blocked [`recv`](Self::recv), and
    /// returns once every thread the transport started has exited.
    /// Idempotent.
    fn shutdown(&self);

    /// A short label for diagnostics (`"simnet"`, `"tcp"`).
    fn kind(&self) -> &'static str;
}
