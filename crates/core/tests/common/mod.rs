//! Shared fixtures for fargo-core integration tests.
// Each test binary compiles this module separately and uses a subset.
#![allow(dead_code)]

use std::collections::BTreeMap;
use std::time::Duration;

use fargo_core::{
    define_complet, CompletId, CompletRegistry, Core, CoreConfig, MetricValue, Value,
};
use fargo_wire::testgen::graph_records;
use simnet::{LinkConfig, Network, NetworkConfig};

define_complet! {
    /// The paper's Figure 3 complet.
    pub complet Message {
        state {
            text: String = "hello fargo".to_owned(),
        }
        init(&mut self, args) {
            if let Some(t) = args.first().and_then(Value::as_str) {
                self.text = t.to_owned();
            }
            Ok(())
        }
        fn print(&mut self, _ctx, _args) {
            Ok(Value::from(self.text.as_str()))
        }
        fn set_text(&mut self, _ctx, args) {
            self.text = args.first().and_then(Value::as_str).unwrap_or("").to_owned();
            Ok(Value::Null)
        }
    }
}

define_complet! {
    /// A counter with history, for state-preservation checks.
    pub complet Counter {
        state {
            n: i64 = 0,
            history: Vec<i64> = Vec::new(),
        }
        fn add(&mut self, _ctx, args) {
            self.n += args.first().and_then(Value::as_i64).unwrap_or(1);
            self.history.push(self.n);
            Ok(Value::I64(self.n))
        }
        fn get(&mut self, _ctx, _args) {
            Ok(Value::I64(self.n))
        }
        fn history_len(&mut self, _ctx, _args) {
            Ok(Value::I64(self.history.len() as i64))
        }
    }
}

define_complet! {
    /// A chunk of graph records that travels by value in both
    /// directions (a `scan` reply, a `put_batch` argument) and counts
    /// the scans it served.
    pub complet GraphChunk {
        state {
            recs: Vec<Value> = graph_records(256, 0),
            scans: i64 = 0,
        }
        fn scan(&mut self, _ctx, _args) {
            self.scans += 1;
            Ok(Value::List(self.recs.clone()))
        }
        fn put_batch(&mut self, _ctx, args) {
            let batch = args.first().and_then(Value::as_list).unwrap_or(&[]);
            let n = batch.len().min(self.recs.len());
            self.recs[..n].clone_from_slice(&batch[..n]);
            Ok(Value::I64(n as i64))
        }
        fn scans(&mut self, _ctx, _args) {
            Ok(Value::I64(self.scans))
        }
    }
}

/// Registers the shared complet types.
pub fn registry() -> CompletRegistry {
    let reg = CompletRegistry::new();
    Message::register(&reg);
    Counter::register(&reg);
    GraphChunk::register(&reg);
    reg
}

/// A fast network: instant links, deterministic.
pub fn fast_network() -> Network {
    Network::new(NetworkConfig {
        default_link: Some(LinkConfig::instant()),
        ..NetworkConfig::default()
    })
}

/// Spawns `n` cores named `core0..core{n-1}` with shared registry.
pub fn cluster(n: usize) -> (Network, CompletRegistry, Vec<Core>) {
    cluster_with_config(n, test_config())
}

/// Spawns `n` cores with a custom configuration.
///
/// Which transport carries the cluster's envelopes is selected by the
/// `FARGO_TRANSPORT` environment variable: unset or `simnet` uses the
/// in-process network, `tcp` pre-binds one loopback listener per Core
/// and runs the whole suite over real sockets (the simnet network stays
/// attached as the fault-injection control plane, so partition/loss
/// scenarios behave identically).
pub fn cluster_with_config(n: usize, config: CoreConfig) -> (Network, CompletRegistry, Vec<Core>) {
    let tcp = std::env::var("FARGO_TRANSPORT").as_deref() == Ok("tcp");
    cluster_on(fast_network(), n, config, tcp)
}

/// Spawns `n` cores on `net`, their envelopes carried by `net` itself
/// or, with `tcp`, by loopback sockets that `net` gates.
pub fn cluster_on(
    net: Network,
    n: usize,
    config: CoreConfig,
    tcp: bool,
) -> (Network, CompletRegistry, Vec<Core>) {
    let reg = registry();
    if tcp {
        // Bind everything first so the full peer table exists before any
        // Core spawns (ephemeral ports — no fixed-port collisions when
        // test binaries run in parallel).
        let listeners: Vec<std::net::TcpListener> = (0..n)
            .map(|_| std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
            .collect();
        let peers: Vec<String> = listeners
            .iter()
            .map(|l| l.local_addr().expect("local addr").to_string())
            .collect();
        let cores = listeners
            .into_iter()
            .enumerate()
            .map(|(i, listener)| {
                Core::builder(&net, &format!("core{i}"))
                    .registry(&reg)
                    .config(config.clone())
                    .tcp_transport(listener, peers.clone())
                    .spawn()
                    .expect("core must spawn")
            })
            .collect();
        return (net, reg, cores);
    }
    let cores = (0..n)
        .map(|i| {
            Core::builder(&net, &format!("core{i}"))
                .registry(&reg)
                .config(config.clone())
                .spawn()
                .expect("core must spawn")
        })
        .collect();
    (net, reg, cores)
}

/// Short timeouts so failing paths fail fast in tests.
pub fn test_config() -> CoreConfig {
    CoreConfig {
        rpc_timeout: Duration::from_secs(5),
        transit_wait: Duration::from_secs(2),
        ..CoreConfig::default()
    }
}

/// Relays `id` from `cores[0]` along `cores`, each move issued at the
/// current host. (Issued elsewhere, a move's answer repoints the
/// issuer's tracker at the destination — cutting the forwarding chain a
/// chain-walk scenario wants to grow.)
pub fn relay(cores: &[Core], id: CompletId) {
    for hop in cores.windows(2) {
        hop[0].move_complet(id, hop[1].name(), None).unwrap();
    }
}

/// Sum of a counter's series in `core`'s metrics registry.
pub fn counter(core: &Core, name: &str) -> u64 {
    core.telemetry()
        .snapshot()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| match s.value {
            MetricValue::Counter(v) => v,
            _ => 0,
        })
        .sum()
}

/// Move messages `core` sends while `f` runs: its `move_prep` and
/// `move_commit` envelopes, less its retransmissions — what the protocol
/// sent, not what a busy host sent again. Shard publishes and lookups
/// are kinds of their own and do not count.
pub fn move_msgs_during(core: &Core, f: impl FnOnce()) -> u64 {
    let count = || {
        let sent = |kind| {
            let labels = [("core", core.name()), ("kind", kind)];
            core.telemetry()
                .counter("fargo_msg_out_total", &labels)
                .get()
        };
        (
            sent("move_prep") + sent("move_commit"),
            core.reliability_stats().0,
        )
    };
    let (sent, resent) = count();
    f();
    let (sent_after, resent_after) = count();
    (sent_after - sent) - (resent_after - resent)
}

/// Messages `cores` send while `f` runs, by kind: the `kind` label of
/// `fargo_msg_out_total` (`locate`, `notify`, `move_req`, `reply`, …),
/// kinds that sent nothing left out. A retransmission would blur the
/// bill, so none may happen.
pub fn msgs_by_kind(cores: &[Core], f: impl FnOnce()) -> BTreeMap<String, u64> {
    let count = || {
        let mut by_kind = BTreeMap::new();
        for s in cores.iter().flat_map(|c| c.telemetry().snapshot()) {
            if let (true, MetricValue::Counter(v)) = (s.name == "fargo_msg_out_total", s.value) {
                let kind = s.labels.into_iter().find(|(k, _)| k == "kind");
                *by_kind
                    .entry(kind.map(|(_, v)| v).unwrap_or_default())
                    .or_insert(0) += v;
            }
        }
        by_kind
    };
    let resent = || -> u64 { cores.iter().map(|c| c.reliability_stats().0).sum() };
    let (before, resent_before) = (count(), resent());
    f();
    let after = count();
    assert_eq!(resent(), resent_before, "a retransmission blurs the bill");
    after
        .into_iter()
        .map(|(kind, n)| {
            let sent = n - before.get(&kind).copied().unwrap_or(0);
            (kind, sent)
        })
        .filter(|&(_, sent)| sent > 0)
        .collect()
}

/// Waits until no message is in flight and no Core has queued work,
/// twice in a row.
pub fn quiesce(net: &Network, cores: &[Core]) {
    let mut stable = 0;
    for _ in 0..4000 {
        let pending =
            net.in_flight() as usize + cores.iter().map(Core::pending_work).sum::<usize>();
        stable = if pending == 0 { stable + 1 } else { 0 };
        if stable >= 2 {
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    panic!("cluster failed to quiesce");
}

/// Sum of a gauge's series in `core`'s metrics registry.
pub fn gauge(core: &Core, name: &str) -> f64 {
    core.telemetry()
        .snapshot()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| match s.value {
            MetricValue::Gauge(v) => v,
            _ => 0.0,
        })
        .sum()
}

/// Stops every core (idempotent).
pub fn teardown(cores: &[Core]) {
    for c in cores {
        c.stop();
    }
}
