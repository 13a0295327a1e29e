//! E22 — sharded location service: O(1) lookups vs tracker-chain walks.
//!
//! The question: does resolving a complet's location stay flat as the
//! population grows, and how does the consistent-hash shard compare to
//! the chain-era resolver it demoted to a cache?
//!
//! Setup, per population size: an 8-Core cluster where `core0` hosts
//! nothing and acts as the querier. `n` complets spread over the other
//! seven Cores; a fixed sample of them is warmed (one call from the
//! querier pins a location hint) and then moved three more times, so the
//! querier's hint is three hops stale. The querier then resolves each
//! sampled complet once via `locate_explain`:
//!
//! * **shard** — the default stack. The owning shard answers in at most
//!   one `LocateQuery` round trip regardless of how stale the hint is or
//!   how many complets exist. Guardrail: p99 resolution ≤ 2 network
//!   hops at every population size.
//! * **chains** — `naming_shards(false)`, the pre-shard resolver. The
//!   stale hint forces a hop-by-hop `WhereIs` walk along the forwarding
//!   trackers the moves left behind, so hops scale with chain length
//!   (four here), not with a constant.
//!
//! A final row repeats the shard sweep with every envelope on real
//! loopback sockets (the TCP backend) — the one-hop bound is a protocol
//! property, not a simnet artefact.

use std::time::{Duration, Instant};

use fargo_core::{Core, CoreConfig, TelemetryRegistry};
use simnet::{LinkConfig, Network, NetworkConfig};

use crate::harness::ClusterSpec;
use crate::table::Table;
use crate::workload::{bench_registry, Samples};

/// Chain-era baseline: the shard service off, trackers authoritative.
fn chains_config(config: CoreConfig) -> CoreConfig {
    config.with_naming_shards(false)
}

/// Waits until nothing is in flight and no Core has queued work, twice
/// in a row. `settle` first absorbs transports the simnet counter cannot
/// see (the TCP backend).
fn quiesce(net: &Network, cores: &[Core], settle: Duration) {
    std::thread::sleep(settle);
    let mut stable = 0;
    for _ in 0..4000 {
        let pending =
            net.in_flight() as usize + cores.iter().map(Core::pending_work).sum::<usize>();
        if pending == 0 {
            stable += 1;
            if stable >= 2 {
                return;
            }
        } else {
            stable = 0;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    panic!("cluster failed to quiesce");
}

struct SweepStats {
    hops_p50: u32,
    hops_p99: u32,
    latency: Samples,
    lookups: usize,
}

/// Runs the population/lookup protocol described in the module docs
/// against an already-built cluster whose `core0` is the empty querier.
fn lookup_sweep(net: &Network, cores: &[Core], n: usize, settle: Duration) -> SweepStats {
    let spokes = cores.len() - 1;
    // Hop `k` of the sampled complet created at spoke `o`: cycles
    // through the spokes, never touching the querier.
    let step = |o: usize, k: usize| ((o - 1 + k) % spokes) + 1;

    let sample = 128.min(n);
    let stride = n / sample;
    let mut sampled = Vec::with_capacity(sample);
    for i in 0..n {
        let origin = (i % spokes) + 1;
        let h = cores[origin]
            .new_complet("Servant", &[])
            .expect("create complet");
        if i % stride == 0 && sampled.len() < sample {
            sampled.push((origin, h));
        }
    }
    // First move: off the origin, so the hint the warm call pins below
    // is a plain intermediate tracker, not the head of the chain.
    for (o, h) in &sampled {
        h.move_to(cores[step(*o, 1)].name()).expect("first move");
    }
    quiesce(net, cores, settle);

    // Warm the querier: one call pins a tracker at the current host.
    let stubs: Vec<_> = sampled
        .iter()
        .map(|(_, h)| cores[0].stub(h.complet_ref().clone()))
        .collect();
    for s in &stubs {
        s.call("touch", &[]).expect("warm call");
    }
    // Three more moves: the querier's hint is now three hops stale.
    for k in 2..=4 {
        for (o, h) in &sampled {
            h.move_to(cores[step(*o, k)].name()).expect("move");
        }
    }
    quiesce(net, cores, settle);

    let mut hops: Vec<u32> = Vec::with_capacity(sampled.len());
    let mut latency = Samples::default();
    for (o, h) in &sampled {
        let expect = cores[step(*o, 4)].node().index();
        let start = Instant::now();
        let r = cores[0].locate_explain(h.id()).expect("locate");
        latency.push(start.elapsed());
        assert_eq!(r.node, expect, "lookup resolved a stale host");
        hops.push(r.hops);
    }
    hops.sort_unstable();
    SweepStats {
        hops_p50: hops[hops.len() / 2],
        hops_p99: hops[hops.len() * 99 / 100],
        lookups: hops.len(),
        latency,
    }
}

/// One simnet sweep at population `n`, shard or chain resolver.
fn simnet_sweep(n: usize, shards: bool) -> SweepStats {
    let mut spec = ClusterSpec::instant(8);
    if !shards {
        spec = spec.config_tweak(chains_config);
    }
    let cluster = spec.build();
    lookup_sweep(&cluster.net, &cluster.cores, n, Duration::ZERO)
}

/// The shard sweep again with every envelope framed over loopback TCP.
fn tcp_sweep(n: usize) -> SweepStats {
    let net = Network::new(NetworkConfig {
        default_link: Some(LinkConfig::instant()),
        ..NetworkConfig::default()
    });
    let registry = bench_registry();
    let telemetry = TelemetryRegistry::new();
    let config = CoreConfig {
        rpc_timeout: Duration::from_secs(30),
        ..CoreConfig::default()
    };
    let listeners: Vec<std::net::TcpListener> = (0..8)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
        .collect();
    let peers: Vec<String> = listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr").to_string())
        .collect();
    let cores: Vec<Core> = listeners
        .into_iter()
        .enumerate()
        .map(|(i, listener)| {
            Core::builder(&net, &format!("core{i}"))
                .registry(&registry)
                .config(config.clone())
                .telemetry(&telemetry)
                .tcp_transport(listener, peers.clone())
                .spawn()
                .expect("core must spawn")
        })
        .collect();
    let stats = lookup_sweep(&net, &cores, n, Duration::from_millis(300));
    for c in &cores {
        c.stop();
    }
    stats
}

fn shard_notes(s: &SweepStats) -> String {
    if s.hops_p99 <= 2 {
        format!(
            "guardrail ok (p99 {} hops <= 2 over {} lookups)",
            s.hops_p99, s.lookups
        )
    } else {
        format!(
            "guardrail FAILED (p99 {} hops > 2 over {} lookups)",
            s.hops_p99, s.lookups
        )
    }
}

pub fn run(full: bool) -> Table {
    let sizes: &[usize] = if full {
        &[1_000, 10_000, 100_000]
    } else {
        &[1_000, 4_000]
    };
    let tcp_n = if full { 2_000 } else { 500 };

    let mut table = Table::new(
        "E22: sharded location service — lookup hops and latency vs population",
        &["complets", "resolver", "hops p50", "hops p99", "lookup mean", "notes"],
    )
    .with_note(
        "guardrail: with the shard service on, p99 resolution from a querier holding a three-hop-stale hint stays <= 2 network hops at every population size (and over the TCP backend); the chain baseline pays the walk, one hop per intermediate tracker.",
    );
    for &n in sizes {
        let shard = simnet_sweep(n, true);
        table.row([
            format!("{n}"),
            "shard".to_owned(),
            format!("{}", shard.hops_p50),
            format!("{}", shard.hops_p99),
            format!("{:.1}us", shard.latency.mean().as_secs_f64() * 1e6),
            shard_notes(&shard),
        ]);
        let chain = simnet_sweep(n, false);
        table.row([
            format!("{n}"),
            "chains".to_owned(),
            format!("{}", chain.hops_p50),
            format!("{}", chain.hops_p99),
            format!("{:.1}us", chain.latency.mean().as_secs_f64() * 1e6),
            format!(
                "chain-era baseline: the stale hint costs the whole walk ({} lookups)",
                chain.lookups
            ),
        ]);
    }
    let tcp = tcp_sweep(tcp_n);
    table.row([
        format!("{tcp_n}"),
        "shard/tcp".to_owned(),
        format!("{}", tcp.hops_p50),
        format!("{}", tcp.hops_p99),
        format!("{:.1}us", tcp.latency.mean().as_secs_f64() * 1e6),
        shard_notes(&tcp),
    ]);
    table
}
