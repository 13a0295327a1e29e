//! # simnet — an in-process simulated network
//!
//! `simnet` is the communication substrate underneath the FarGo-RS runtime
//! (the paper's *Peer Interface* layer). It provides a datagram service
//! between named [`NodeId`]s with configurable per-link characteristics:
//!
//! * **latency** (base + random jitter),
//! * **bandwidth** (serialisation delay and queueing on the link),
//! * **loss** (probabilistic drops),
//! * **partitions** (links or whole nodes taken down),
//!
//! plus per-link **statistics** (bytes, messages, observed throughput) that
//! the FarGo monitoring layer exposes as its system-profiling services.
//!
//! The network is *real-threaded*: a scheduler thread holds a time-ordered
//! heap of in-flight packets and delivers each one into the destination
//! endpoint's queue when its delivery time arrives. Time is wall-clock time
//! scaled by [`NetworkConfig::time_scale`], so experiments can model a slow
//! WAN while running quickly.
//!
//! ## Example
//!
//! ```
//! # use simnet::{Network, NetworkConfig, LinkConfig};
//! # use std::time::Duration;
//! # fn main() -> Result<(), simnet::NetError> {
//! let net = Network::new(NetworkConfig::default());
//! let a = net.add_node("a")?;
//! let b = net.add_node("b")?;
//! net.set_link(a.id(), b.id(), LinkConfig::lan())?;
//! a.send(b.id(), b"hello".to_vec())?;
//! let msg = b.recv_timeout(Duration::from_secs(1))?;
//! assert_eq!(msg.payload.as_ref(), b"hello");
//! # Ok(())
//! # }
//! ```

mod endpoint;
mod error;
mod link;
mod message;
mod network;
mod rng;
mod scheduler;
mod stats;
mod topology;

pub use endpoint::Endpoint;
pub use error::NetError;
pub use link::LinkConfig;
pub use message::{Incoming, NodeId};
pub use network::{Network, NetworkConfig, INBOX_BOUND};
pub use stats::LinkStats;
pub use topology::Topology;
