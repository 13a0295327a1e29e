//! Profiling service identification.

use std::fmt;

use fargo_wire::CompletId;

use crate::error::{FargoError, Result};

/// The profiling services a Core can measure (§4.1).
///
/// *System* services measure the environment; *application* services
/// measure the running application through its complet references — the
/// capability FarGo gets "due to the fact that complet references are
/// accessible by the Core".
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Service {
    /// Number of complets resident in this Core (system).
    CompletLoad,
    /// Bytes/second of the link towards a peer Core node (system).
    Bandwidth {
        /// The peer Core's node index.
        peer: u32,
    },
    /// One-way latency towards a peer Core node, in seconds (system).
    Latency {
        /// The peer Core's node index.
        peer: u32,
    },
    /// Invocations/second along the reference `src → dst` (application).
    MethodInvokeRate {
        /// Source complet (the stub's holder).
        src: CompletId,
        /// Target complet.
        dst: CompletId,
    },
    /// Approximate state size of one complet, in bytes (application).
    CompletSize {
        /// The measured complet.
        id: CompletId,
    },
    /// Total approximate state bytes of all resident complets (system).
    MemoryUse,
    /// Pending messages in the Core's receive queue (system).
    QueueLen,
    /// p99 of the recent invoke-latency window, in µs (SLO).
    InvokeP99,
    /// Failed invocations per invocation issued (SLO).
    ErrorRate,
    /// Requests the worker pool shed per invocation issued (SLO).
    ShedRate,
    /// Failed moves per move attempted (SLO).
    MoveFailureRate,
    /// `invoke` envelopes sent per invocation issued (layout): 0 when
    /// every call stays on this Core, 1 when every call leaves it. A
    /// tracker hop counts where it is sent: a Core that forwards other
    /// Cores' calls reads above the share of its own calls that leave,
    /// and a retransmitted request counts again.
    RemoteShare,
}

impl Service {
    /// The service family name (the event selector prefix).
    pub fn name(&self) -> &'static str {
        match self {
            Service::CompletLoad => "completLoad",
            Service::Bandwidth { .. } => "bandwidth",
            Service::Latency { .. } => "latency",
            Service::MethodInvokeRate { .. } => "methodInvokeRate",
            Service::CompletSize { .. } => "completSize",
            Service::MemoryUse => "memoryUse",
            Service::QueueLen => "queueLen",
            Service::InvokeP99 => "invokeP99",
            Service::ErrorRate => "errorRate",
            Service::ShedRate => "shedRate",
            Service::MoveFailureRate => "moveFailureRate",
            Service::RemoteShare => "remoteShare",
        }
    }

    /// The service-specific key (empty for keyless services).
    pub fn key(&self) -> String {
        match self {
            Service::Bandwidth { peer } | Service::Latency { peer } => format!("n{peer}"),
            Service::MethodInvokeRate { src, dst } => format!("{src}->{dst}"),
            Service::CompletSize { id } => id.to_string(),
            _ => String::new(),
        }
    }

    /// Parses the textual form produced by [`Display`](fmt::Display)
    /// (`name` or `name:key`) — used by the scripting layer.
    ///
    /// # Errors
    ///
    /// Returns [`FargoError::InvalidArgument`] on unknown names or
    /// malformed keys.
    pub fn parse(s: &str) -> Result<Service> {
        let (name, key) = match s.split_once(':') {
            Some((n, k)) => (n, k),
            None => (s, ""),
        };
        let bad = |what: &str| FargoError::InvalidArgument(format!("{what} in service {s:?}"));
        let parse_node = |k: &str| -> Result<u32> {
            k.strip_prefix('n')
                .and_then(|x| x.parse().ok())
                .ok_or_else(|| bad("bad node key"))
        };
        let service = match name {
            "completLoad" => Service::CompletLoad,
            "memoryUse" => Service::MemoryUse,
            "queueLen" => Service::QueueLen,
            "invokeP99" => Service::InvokeP99,
            "errorRate" => Service::ErrorRate,
            "shedRate" => Service::ShedRate,
            "moveFailureRate" => Service::MoveFailureRate,
            "remoteShare" => Service::RemoteShare,
            "bandwidth" => Service::Bandwidth {
                peer: parse_node(key)?,
            },
            "latency" => Service::Latency {
                peer: parse_node(key)?,
            },
            "completSize" => Service::CompletSize {
                id: key.parse().map_err(|_| bad("bad complet id"))?,
            },
            "methodInvokeRate" => {
                let (a, b) = key.split_once("->").ok_or_else(|| bad("bad rate key"))?;
                Service::MethodInvokeRate {
                    src: a.parse().map_err(|_| bad("bad src id"))?,
                    dst: b.parse().map_err(|_| bad("bad dst id"))?,
                }
            }
            _ => return Err(bad("unknown service")),
        };
        if service.key().is_empty() && !key.is_empty() {
            return Err(bad("unexpected key"));
        }
        Ok(service)
    }
}

impl fmt::Display for Service {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let key = self.key();
        if key.is_empty() {
            write!(f, "{}", self.name())
        } else {
            write!(f, "{}:{}", self.name(), key)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_parse_roundtrip() {
        let services = [
            Service::CompletLoad,
            Service::MemoryUse,
            Service::QueueLen,
            Service::InvokeP99,
            Service::ErrorRate,
            Service::ShedRate,
            Service::MoveFailureRate,
            Service::RemoteShare,
            Service::Bandwidth { peer: 3 },
            Service::Latency { peer: 0 },
            Service::MethodInvokeRate {
                src: CompletId::new(0, 1),
                dst: CompletId::new(2, 3),
            },
            Service::CompletSize {
                id: CompletId::new(1, 7),
            },
        ];
        for s in services {
            assert_eq!(Service::parse(&s.to_string()).unwrap(), s);
        }
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in [
            "nope",
            "bandwidth",
            "bandwidth:x3",
            "methodInvokeRate:c0.1",
            "methodInvokeRate:c0.1->garbage",
            "completSize:9",
            "errorRate:x",
        ] {
            assert!(Service::parse(bad).is_err(), "{bad} should not parse");
        }
    }

    #[test]
    fn names_match_paper_vocabulary() {
        assert_eq!(Service::CompletLoad.name(), "completLoad");
        assert_eq!(
            Service::MethodInvokeRate {
                src: CompletId::new(0, 0),
                dst: CompletId::new(0, 1)
            }
            .name(),
            "methodInvokeRate"
        );
    }
}
