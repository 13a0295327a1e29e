//! The 3-Core cluster every workload runs on, in one process: `core0`
//! is the client Core, `core1` and `core2` host the data.

use std::net::TcpListener;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use fargo_core::{
    BoundRef, CompletId, CompletRef, CompletRegistry, Core, CoreConfig, FargoError, MetricSnapshot,
    MetricValue, RefDescriptor, TelemetryRegistry,
};
use simnet::{LinkConfig, Network, NetworkConfig};

use crate::chunk::KvChunk;

pub const CORES: usize = 3;

/// What distinguishes one workload's cluster from another's.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// TCP loopback (listeners on `127.0.0.1:0`) or simnet instant links.
    pub tcp: bool,
    /// Root of the per-Core write-ahead logs; `None` runs memory-only.
    pub wal_root: Option<PathBuf>,
    /// The workload's changes to `CoreConfig::default()`, through the
    /// `with_*` builders only.
    pub configure: fn(CoreConfig) -> CoreConfig,
}

pub struct Cluster {
    pub net: Network,
    pub cores: Vec<Core>,
    /// One registry shared by all Cores (series carry a `core` label)
    /// and by every incarnation of a restarted Core.
    pub telemetry: TelemetryRegistry,
    registry: CompletRegistry,
    spec: ClusterSpec,
    /// Listen address per node index (TCP only).
    addrs: Vec<String>,
}

pub fn core_name(i: usize) -> String {
    format!("core{i}")
}

impl Cluster {
    pub fn start(spec: ClusterSpec) -> Result<Cluster, FargoError> {
        let net = Network::new(NetworkConfig {
            default_link: Some(LinkConfig::instant()),
            ..NetworkConfig::default()
        });
        let registry = CompletRegistry::new();
        KvChunk::register(&registry);
        let mut cluster = Cluster {
            net,
            cores: Vec::with_capacity(CORES),
            telemetry: TelemetryRegistry::new(),
            registry,
            spec,
            addrs: Vec::new(),
        };
        // Bind every listener first so the full peer table exists
        // before any Core spawns.
        let mut listeners = Vec::new();
        if cluster.spec.tcp {
            for _ in 0..CORES {
                let l = TcpListener::bind("127.0.0.1:0").map_err(io_err)?;
                cluster
                    .addrs
                    .push(l.local_addr().map_err(io_err)?.to_string());
                listeners.push(l);
            }
        }
        let mut listeners = listeners.into_iter();
        for i in 0..CORES {
            let core = cluster.spawn_core(i, None, listeners.next())?;
            cluster.cores.push(core);
        }
        Ok(cluster)
    }

    fn config(&self, i: usize) -> CoreConfig {
        let mut config = CoreConfig::default().with_rpc_timeout(Duration::from_secs(30));
        if let Some(root) = &self.spec.wal_root {
            config = config.with_wal_dir(root.join(core_name(i)));
        }
        (self.spec.configure)(config)
    }

    fn spawn_core(
        &self,
        i: usize,
        endpoint: Option<simnet::Endpoint>,
        listener: Option<TcpListener>,
    ) -> Result<Core, FargoError> {
        let mut builder = Core::builder(&self.net, &core_name(i))
            .registry(&self.registry)
            .config(self.config(i))
            .telemetry(&self.telemetry);
        if let Some(ep) = endpoint {
            builder = builder.endpoint(ep);
        }
        if let Some(l) = listener {
            builder = builder.tcp_transport(l, self.addrs.clone());
        }
        builder.spawn()
    }

    /// Kills Core `i` and restarts it on the same node, the same listen
    /// address and (if any) the same write-ahead log. Returns the
    /// instant just before `spawn()`, so the caller can time recovery
    /// up to its first served request.
    pub fn restart(&mut self, i: usize) -> Result<Instant, FargoError> {
        self.cores[i].stop();
        let listener = if self.spec.tcp {
            Some(rebind(&self.addrs[i])?)
        } else {
            None
        };
        let endpoint = self
            .net
            .restart_node(self.cores[i].node())
            .map_err(FargoError::Net)?;
        let started = Instant::now();
        self.cores[i] = self.spawn_core(i, Some(endpoint), listener)?;
        Ok(started)
    }

    /// A reference seeded fresh at the client Core, with the location
    /// hint `host` (old stubs carry what they learned before a restart).
    pub fn fresh_ref(&self, id: CompletId, host: usize) -> BoundRef {
        self.cores[0].stub(CompletRef::from_descriptor(RefDescriptor::link(
            id,
            "KvChunk",
            self.cores[host].node().index(),
        )))
    }

    pub fn counters(&self) -> Counters {
        Counters(self.telemetry.snapshot())
    }

    pub fn stop(&self) {
        for core in &self.cores {
            core.stop();
        }
    }
}

fn io_err(e: std::io::Error) -> FargoError {
    FargoError::App(format!("listener: {e}"))
}

/// Binds the address a stopped Core's acceptor is about to release.
fn rebind(addr: &str) -> Result<TcpListener, FargoError> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match TcpListener::bind(addr) {
            Ok(l) => return Ok(l),
            Err(e) if Instant::now() > deadline => return Err(io_err(e)),
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

/// A snapshot of the cluster's exported metrics; counts are read as
/// deltas between two snapshots, summed over Cores.
pub struct Counters(Vec<MetricSnapshot>);

impl Counters {
    fn series<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a MetricSnapshot> {
        self.0.iter().filter(move |s| s.name == name)
    }

    /// Sum of a counter over all its label sets.
    pub fn counter(&self, name: &str) -> u64 {
        self.series(name)
            .map(|s| match s.value {
                MetricValue::Counter(v) => v,
                _ => 0,
            })
            .sum()
    }

    /// Sum of a per-message-kind counter over the kinds a call is made
    /// of: `invoke` requests (retransmissions included) and replies.
    /// Whatever the Cores send on a timer (gossip, anti-entropy) or for
    /// a mover is left out: its share per op would follow the op rate.
    pub fn call_counter(&self, name: &str) -> u64 {
        self.series(name)
            .filter(|s| {
                s.labels
                    .iter()
                    .any(|(k, v)| k == "kind" && (v == "invoke" || v == "reply"))
            })
            .map(|s| match s.value {
                MetricValue::Counter(v) => v,
                _ => 0,
            })
            .sum()
    }

    /// Cumulative `(upper bound, observations at or below it)` buckets
    /// of a histogram, summed over its label sets (which share bounds).
    pub fn buckets(&self, name: &str) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = Vec::new();
        for s in self.series(name) {
            if let MetricValue::Histogram { buckets, .. } = &s.value {
                if out.is_empty() {
                    out.clone_from(buckets);
                } else {
                    for (sum, (_, c)) in out.iter_mut().zip(buckets) {
                        sum.1 += c;
                    }
                }
            }
        }
        out
    }

    /// `(observations at or below bound, all observations)` of a
    /// histogram, summed over its label sets.
    pub fn histogram(&self, name: &str, bound: u64) -> (u64, u64) {
        let mut out = (0, 0);
        for s in self.series(name) {
            if let MetricValue::Histogram { buckets, count, .. } = &s.value {
                out.0 += buckets
                    .iter()
                    .find(|(b, _)| *b >= bound)
                    .map_or(0, |(_, c)| *c);
                out.1 += count;
            }
        }
        out
    }
}
