//! The unified error type of the FarGo-RS runtime.

use std::error::Error;
use std::fmt;

use fargo_wire::{CompletId, WireError};
use simnet::NetError;

/// Errors surfaced by Core operations.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FargoError {
    /// A network-level failure (link down, node down, timeout, …).
    Net(NetError),
    /// A marshal/unmarshal failure.
    Wire(WireError),
    /// No complet with this id is known here or along its tracker chain.
    UnknownComplet(CompletId),
    /// The complet type is not registered (the "class" is missing).
    UnknownType(String),
    /// The target complet's anchor has no such method.
    NoSuchMethod {
        /// The anchor type.
        complet_type: String,
        /// The missing method.
        method: String,
    },
    /// A complet method failed with an application-defined message.
    App(String),
    /// An invocation would re-enter a complet already on the call chain.
    ///
    /// FarGo's Java implementation permits this (at the price of a data
    /// race); Rust's aliasing rules forbid it, so the runtime detects the
    /// cycle via call-chain metadata and rejects it deterministically.
    ReentrantInvocation(CompletId),
    /// A peer Core did not answer within the configured RPC timeout.
    Timeout,
    /// The named Core is unknown to the network.
    UnknownCore(String),
    /// A logical name is not bound in the consulted naming service.
    NameNotBound(String),
    /// A complet was asked to move while already in transit.
    AlreadyMoving(CompletId),
    /// The relocator name is not registered.
    UnknownRelocator(String),
    /// An argument failed validation.
    InvalidArgument(String),
    /// The destination Core refused the work: its complet capacity would
    /// be exceeded (§7 resource negotiation).
    CapacityExceeded {
        /// The refusing Core.
        core: String,
        /// Its configured capacity.
        capacity: usize,
    },
    /// The Core is shutting down.
    ShuttingDown,
    /// A tracker chain was longer than the configured hop limit.
    HopLimit(u32),
    /// A peer returned a malformed or unexpected message.
    Protocol(String),
    /// A two-phase move's commit outcome could not be learned before the
    /// deadline: the destination acknowledged the prepare but the commit
    /// round and the follow-up epoch query both went unanswered. The
    /// complet lives on exactly one Core (the destination holds it and
    /// will learn the recorded commit decision), but the source can no
    /// longer prove which until the partition heals.
    MoveInDoubt(CompletId),
}

impl fmt::Display for FargoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FargoError::Net(e) => write!(f, "network error: {e}"),
            FargoError::Wire(e) => write!(f, "marshal error: {e}"),
            FargoError::UnknownComplet(id) => write!(f, "unknown complet {id}"),
            FargoError::UnknownType(t) => write!(f, "complet type {t:?} is not registered"),
            FargoError::NoSuchMethod {
                complet_type,
                method,
            } => write!(f, "complet type {complet_type:?} has no method {method:?}"),
            FargoError::App(msg) => write!(f, "application error: {msg}"),
            FargoError::ReentrantInvocation(id) => {
                write!(
                    f,
                    "invocation re-enters complet {id} already on the call chain"
                )
            }
            FargoError::Timeout => write!(f, "remote core did not answer in time"),
            FargoError::UnknownCore(name) => write!(f, "unknown core {name:?}"),
            FargoError::NameNotBound(name) => write!(f, "name {name:?} is not bound"),
            FargoError::AlreadyMoving(id) => write!(f, "complet {id} is already in transit"),
            FargoError::UnknownRelocator(name) => {
                write!(f, "relocator {name:?} is not registered")
            }
            FargoError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            FargoError::CapacityExceeded { core, capacity } => {
                write!(f, "core {core:?} is at its capacity of {capacity} complets")
            }
            FargoError::ShuttingDown => write!(f, "core is shutting down"),
            FargoError::HopLimit(n) => write!(f, "tracker chain exceeded {n} hops"),
            FargoError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            FargoError::MoveInDoubt(id) => {
                write!(
                    f,
                    "move of complet {id} is in doubt: commit outcome unknown"
                )
            }
        }
    }
}

impl Error for FargoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FargoError::Net(e) => Some(e),
            FargoError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetError> for FargoError {
    fn from(e: NetError) -> Self {
        FargoError::Net(e)
    }
}

impl From<WireError> for FargoError {
    fn from(e: WireError) -> Self {
        FargoError::Wire(e)
    }
}

impl From<fargo_net::TransportError> for FargoError {
    fn from(e: fargo_net::TransportError) -> Self {
        match e {
            // Simnet-level failures keep their exact variant, so error
            // handling is identical whichever backend is configured.
            fargo_net::TransportError::Net(n) => FargoError::Net(n),
            fargo_net::TransportError::Frame(f) => FargoError::Protocol(f.to_string()),
            fargo_net::TransportError::Io(m) => FargoError::Protocol(m),
            other => FargoError::Protocol(other.to_string()),
        }
    }
}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, FargoError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_preserve_source() {
        let e: FargoError = NetError::RecvTimeout.into();
        assert!(e.source().is_some());
        let e: FargoError = WireError::UnexpectedEof.into();
        assert!(e.source().is_some());
        assert!(FargoError::Timeout.source().is_none());
    }

    #[test]
    fn display_mentions_key_details() {
        let e = FargoError::NoSuchMethod {
            complet_type: "Message".into(),
            method: "print".into(),
        };
        let s = e.to_string();
        assert!(s.contains("Message") && s.contains("print"));
    }
}
