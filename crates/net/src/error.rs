//! Error type shared by every transport backend.

use std::error::Error;
use std::fmt;

use simnet::NetError;

use crate::frame::FrameError;

/// Errors produced by [`Transport`](crate::Transport) operations.
///
/// Network-model outcomes (down nodes, partitions, timeouts) are carried
/// verbatim as [`NetError`] so the runtime's error handling behaves
/// identically on both backends; socket-level trouble appears as `Io`.
#[derive(Debug)]
#[non_exhaustive]
pub enum TransportError {
    /// An outcome the simulated network also produces (down node,
    /// partitioned link, receive timeout, shutdown, ...).
    Net(NetError),
    /// A framing violation on the TCP byte stream.
    Frame(FrameError),
    /// Socket-level failure that has no network-model equivalent.
    Io(String),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Net(e) => write!(f, "{e}"),
            TransportError::Frame(e) => write!(f, "framing: {e}"),
            TransportError::Io(msg) => write!(f, "io: {msg}"),
        }
    }
}

impl Error for TransportError {}

impl From<NetError> for TransportError {
    fn from(e: NetError) -> Self {
        TransportError::Net(e)
    }
}

impl From<FrameError> for TransportError {
    fn from(e: FrameError) -> Self {
        TransportError::Frame(e)
    }
}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        TransportError::Io(e.to_string())
    }
}
