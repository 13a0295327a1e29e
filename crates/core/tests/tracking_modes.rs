//! Finding a moved complet: tracker chains are the hint cache (§3.1),
//! the owning location shard is the authority behind them.

mod common;

use std::time::{Duration, Instant};

use common::{
    cluster, cluster_on, cluster_with_config, counter, fast_network, relay, teardown, test_config,
};
use fargo_core::{CompletId, CompletRef, Core, RefDescriptor, ResolveVia, Value};

/// Index of the Core whose shard holds `id` as living on `host`. Shard
/// publishes are one-shot asynchronous notifies, so this polls until
/// the placement has landed.
fn owner_once_published(cores: &[Core], id: CompletId, host: &Core) -> usize {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let owner = cores.iter().position(|c| {
            let own_shard = c.shard_live_at(c.node().index()).unwrap();
            own_shard
                .iter()
                .any(|&(e, at, _)| e == id && at == host.node().index())
        });
        if let Some(owner) = owner {
            return owner;
        }
        assert!(
            Instant::now() < deadline,
            "{id} at {} never published",
            host.name()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn has_tracker(core: &Core, id: CompletId) -> bool {
    core.tracker_snapshot().iter().any(|t| t.id == id)
}

#[test]
fn chain_finds_wanderer() {
    let (_net, _reg, cores) = cluster(5);
    let msg = cores[0]
        .new_complet("Message", &[Value::from("found me")])
        .unwrap();
    for dest in ["core1", "core2", "core3", "core4"] {
        msg.move_to(dest).unwrap();
    }
    assert_eq!(msg.call("print", &[]).unwrap(), Value::from("found me"));
    assert!(cores[4].hosts(msg.id()));
    teardown(&cores);
}

#[test]
fn shard_resolves_a_stale_hint_in_one_hop_whatever_the_chain_length() {
    // A Core that never saw the complet holds a reference whose hint is
    // k moves stale. The owning shard answers in at most one round trip,
    // and the call that follows goes straight to the host — the chain
    // the moves left behind carries nothing.
    for k in [1usize, 4] {
        let (net, _reg, cores) = cluster(k + 3);
        let msg = cores[0].new_complet("Message", &[]).unwrap();
        let id = msg.id();
        for i in 1..=k {
            msg.move_to(&format!("core{i}")).unwrap();
        }
        owner_once_published(&cores, id, &cores[k]);
        // Ask from a Core off the chain, one that holds no tracker.
        let asker = cores[k + 1..]
            .iter()
            .find(|c| !has_tracker(c, id))
            .expect("a Core without a tracker");
        let stale = asker.stub(CompletRef::from_descriptor(RefDescriptor::link(
            id,
            "Message",
            cores[0].node().index(),
        )));

        let r = asker.locate_explain(id).unwrap();
        assert_eq!(r.node, cores[k].node().index(), "k={k}");
        assert_eq!(r.via, ResolveVia::Shard, "k={k}");
        assert!(r.hops <= 1, "k={k}: {} hops", r.hops);

        // Links into and along the old chain (core0 .. core{k-1}).
        let chain_links = || -> u64 {
            (0..k)
                .map(|i| {
                    net.link_stats(asker.node(), cores[i].node()).messages
                        + net
                            .link_stats(cores[i].node(), cores[i + 1].node())
                            .messages
                })
                .sum()
        };
        let before = chain_links();
        stale.call("print", &[]).unwrap();
        assert_eq!(
            chain_links() - before,
            0,
            "k={k}: the chain must stay quiet"
        );
        teardown(&cores);
    }
}

#[test]
fn a_three_hop_stale_hint_resolves_within_two_hops_at_scale() {
    // Eight Cores; core0 hosts nothing and asks. `n` complets spread over
    // the seven others; a sample of them is called once from core0, which
    // pins a hint, then moved three times more. p99 resolution stays
    // within two network hops at every population, over either
    // transport: the bound is the protocol's, not simnet's.
    for (n, tcp) in [(1_000, false), (4_000, false), (500, true)] {
        let config = test_config().with_rpc_timeout(Duration::from_secs(30));
        let (_net, _reg, cores) = cluster_on(fast_network(), 8, config, tcp);
        let spokes = cores.len() - 1;
        // The host of a sampled complet born at spoke `o` after `k` moves.
        let host = |o: usize, k: usize| &cores[(o - 1 + k) % spokes + 1];
        let stride = n / 128;
        let mut sampled = Vec::new();
        for i in 0..n {
            let origin = i % spokes + 1;
            let c = cores[origin].new_complet("Message", &[]).unwrap();
            if i % stride == 0 && sampled.len() < 128 {
                sampled.push((origin, c));
            }
        }
        for (o, c) in &sampled {
            c.move_to(host(*o, 1).name()).unwrap();
        }
        for (_, c) in &sampled {
            cores[0]
                .stub(c.complet_ref().clone())
                .call("print", &[])
                .unwrap();
        }
        for k in 2..=4 {
            for (o, c) in &sampled {
                c.move_to(host(*o, k).name()).unwrap();
            }
        }
        let mut hops = Vec::new();
        for (o, c) in &sampled {
            owner_once_published(&cores, c.id(), host(*o, 4));
            let r = cores[0].locate_explain(c.id()).unwrap();
            assert_eq!(r.node, host(*o, 4).node().index(), "n={n} tcp={tcp}");
            hops.push(r.hops);
        }
        hops.sort_unstable();
        let p99 = hops[hops.len() * 99 / 100];
        assert!(p99 <= 2, "n={n} tcp={tcp}: p99 {p99} hops");
        teardown(&cores);
    }
}

#[test]
fn resolution_does_not_depend_on_the_origin_core() {
    let (_net, _reg, cores) = cluster(5);
    // The shard slice living on a downed Core is a different failure:
    // pick a complet whose ring owner is not its origin.
    let msg = (0..16)
        .map(|_| {
            cores[0]
                .new_complet("Message", &[Value::from("orphaned")])
                .unwrap()
        })
        .find(|m| owner_once_published(&cores, m.id(), &cores[0]) != 0)
        .expect("a complet whose shard is not on core0");
    let id = msg.id();
    msg.move_to("core1").unwrap();
    msg.move_to("core2").unwrap();
    owner_once_published(&cores, id, &cores[2]);
    cores[0].stop();

    // The asker never saw the complet, and its only hint is the dead
    // origin.
    let asker = cores[3..]
        .iter()
        .find(|c| !has_tracker(c, id))
        .expect("a Core without a tracker");
    let r = asker.locate_explain(id).unwrap();
    assert_eq!(r.node, cores[2].node().index());
    assert_eq!(r.via, ResolveVia::Shard);
    assert!(r.hops <= 1);
    let stale = asker.stub(CompletRef::from_descriptor(RefDescriptor::link(
        id,
        "Message",
        cores[0].node().index(),
    )));
    assert_eq!(stale.call("print", &[]).unwrap(), Value::from("orphaned"));
    teardown(&cores);
}

#[test]
fn chains_mode_walks_every_intermediate_core() {
    let (net, _reg, cores) = cluster(4);
    let msg = cores[0].new_complet("Message", &[]).unwrap();
    relay(&cores, msg.id());
    let hop01_before = net.link_stats(cores[0].node(), cores[1].node()).messages;
    let hop12_before = net.link_stats(cores[1].node(), cores[2].node()).messages;
    msg.call("print", &[]).unwrap();
    let hop01 = net.link_stats(cores[0].node(), cores[1].node()).messages - hop01_before;
    let hop12 = net.link_stats(cores[1].node(), cores[2].node()).messages - hop12_before;
    assert!(hop01 >= 1, "first chain hop must carry the request");
    assert!(hop12 >= 1, "second chain hop must carry the request");
    // After shortening, a second call goes direct: intermediate links are
    // quiet.
    let hop12_before = net.link_stats(cores[1].node(), cores[2].node()).messages;
    msg.call("print", &[]).unwrap();
    let hop12_second = net.link_stats(cores[1].node(), cores[2].node()).messages - hop12_before;
    assert_eq!(hop12_second, 0, "shortened chain must bypass intermediates");
    teardown(&cores);
}

#[test]
fn fresh_core_reaches_wanderer_via_hint_and_learns() {
    // A reference handed to a core that never saw the complet: its first
    // call follows the stale hint, later calls go direct.
    let (_net, _reg, cores) = cluster_with_config(4, test_config());
    let msg = cores[0]
        .new_complet("Message", &[Value::from("hi")])
        .unwrap();
    let stale_ref = msg.complet_ref().clone(); // last_known = core0
    msg.move_to("core1").unwrap();
    msg.move_to("core2").unwrap();
    // core3 got the (now stale) reference out of band.
    let from_core3 = cores[3].stub(stale_ref.degraded());
    assert_eq!(from_core3.call("print", &[]).unwrap(), Value::from("hi"));
    // After the first call, core3's knowledge is direct.
    assert_eq!(
        from_core3.complet_ref().last_known(),
        cores[2].node().index()
    );
    teardown(&cores);
}

#[test]
fn async_call_through_a_dead_end_is_accounted_once() {
    // The caller's tracker points at a Core whose own tracker was
    // idle-collected: the request `call_async` sends dead-ends there and
    // the wait re-routes through the location shard. That is still one
    // application call — one count, one call on its call-edge row.
    let (_net, _reg, cores) = cluster(3);
    let msg = cores[0]
        .new_complet("Message", &[Value::from("once")])
        .unwrap();
    let id = msg.id();
    relay(&cores, id);
    owner_once_published(&cores, id, &cores[2]);
    assert_eq!(cores[1].collect_trackers(Duration::ZERO), 1);
    // Pin core0's belief at the dead end.
    let epoch = cores[0]
        .tracker_snapshot()
        .iter()
        .find(|t| t.id == id)
        .expect("origin keeps a tracker")
        .epoch;
    cores[0].test_learn_location(id, cores[1].node().index(), epoch + 1);

    let invokes = counter(&cores[0], "fargo_invoke_total");
    // The row of the reference the application holds at core0 (`c0.0`).
    let app = CompletId::new(cores[0].node().index(), 0);
    let edge_calls = || {
        let rows = cores[0].invoke_edges();
        let row = rows.iter().find(|r| r.0 == app && r.1 == id);
        row.map_or(0, |r| r.2)
    };
    let calls = edge_calls();
    let pending = msg.call_async("print", &[]);
    assert_eq!(pending.wait().unwrap(), Value::from("once"));
    assert_eq!(counter(&cores[0], "fargo_invoke_total") - invokes, 1);
    assert_eq!(edge_calls() - calls, 1, "one call, one count on its edge");
    teardown(&cores);
}
