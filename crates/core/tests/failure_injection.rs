//! Failure-injection tests: packet loss, partitions, dead Cores, and
//! races between failures and layout operations.

mod common;

use std::time::{Duration, Instant};

use common::{counter, registry, teardown, test_config};
use fargo_core::{Core, CoreConfig, FargoError, Value};
use simnet::{LinkConfig, Network, NetworkConfig};

/// Seed for the simnet loss/jitter generator. CI sweeps several seeds
/// via `FARGO_SIMNET_SEED` so loss schedules differ run to run while
/// every individual run stays deterministic.
fn simnet_seed() -> u64 {
    std::env::var("FARGO_SIMNET_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7)
}

fn lossy_cluster(loss: f64, n: usize) -> (Network, Vec<Core>) {
    lossy_cluster_with(loss, n, |c| c.with_rpc_timeout(Duration::from_millis(150)))
}

fn lossy_cluster_with(
    loss: f64,
    n: usize,
    configure: impl Fn(CoreConfig) -> CoreConfig,
) -> (Network, Vec<Core>) {
    let net = Network::new(NetworkConfig {
        default_link: Some(LinkConfig::instant().with_loss(loss)),
        seed: simnet_seed(),
        ..NetworkConfig::default()
    });
    let reg = registry();
    let cores = (0..n)
        .map(|i| {
            Core::builder(&net, &format!("core{i}"))
                .registry(&reg)
                .config(configure(test_config()))
                .spawn()
                .unwrap()
        })
        .collect();
    (net, cores)
}

#[test]
fn total_loss_times_out_cleanly() {
    let (net, cores) = lossy_cluster(0.0, 2);
    let msg = cores[0].new_complet_at("core1", "Message", &[]).unwrap();
    // Break the link silently (loss, not an admin-down error).
    net.set_link(
        cores[0].node(),
        cores[1].node(),
        LinkConfig::instant().with_loss(1.0),
    )
    .unwrap();
    let err = msg.call("print", &[]).unwrap_err();
    assert_eq!(err, FargoError::Timeout);
    // Restore the link: the same stub works again.
    net.set_link(cores[0].node(), cores[1].node(), LinkConfig::instant())
        .unwrap();
    assert!(msg.call("print", &[]).is_ok());
    teardown(&cores);
}

#[test]
fn moderate_loss_is_survivable_by_application_retry() {
    // The runtime retransmits with capped backoff, but the short 150ms
    // rpc budget here only allows a few attempts, so some calls still
    // fail; application-level retry on top recovers the rest.
    let (_net, cores) = lossy_cluster(0.30, 2);
    // Even instantiation may need retries under loss.
    let msg = (0..10)
        .find_map(|_| cores[0].new_complet_at("core1", "Message", &[]).ok())
        .expect("instantiation should succeed within ten attempts");
    let mut successes = 0;
    for _ in 0..20 {
        if msg.call("print", &[]).is_ok() {
            successes += 1;
        }
    }
    assert!(
        successes >= 5,
        "some calls must get through, got {successes}"
    );
    teardown(&cores);
}

#[test]
fn move_to_dead_core_fails_and_complet_survives() {
    let (_net, cores) = lossy_cluster(0.0, 2);
    let msg = cores[0]
        .new_complet("Message", &[Value::from("alive")])
        .unwrap();
    cores[1].stop();
    let err = msg.move_to("core1").unwrap_err();
    assert!(
        matches!(
            err,
            FargoError::Net(_) | FargoError::Timeout | FargoError::ShuttingDown
        ),
        "got {err:?}"
    );
    assert!(cores[0].hosts(msg.id()));
    assert_eq!(msg.call("print", &[]).unwrap(), Value::from("alive"));
    teardown(&cores);
}

#[test]
fn partition_heals_and_chains_recover() {
    let (net, cores) = lossy_cluster(0.0, 3);
    let msg = cores[0].new_complet("Message", &[]).unwrap();
    msg.move_to("core1").unwrap();
    // Partition core0 from core1: the chain's first hop is cut.
    net.partition(cores[0].node(), cores[1].node()).unwrap();
    assert!(msg.call("print", &[]).is_err());
    // Heal: the same reference works again, and after the complet moves
    // on, the chain routes around through core1 to core2.
    net.heal(cores[0].node(), cores[1].node()).unwrap();
    assert!(msg.call("print", &[]).is_ok());
    msg.move_to("core2").unwrap();
    assert_eq!(msg.call("print", &[]).unwrap(), Value::from("hello fargo"));
    teardown(&cores);
}

#[test]
fn half_open_partition_times_out() {
    // Requests arrive but replies are dropped: the requester must time
    // out rather than hang.
    let (net, cores) = lossy_cluster(0.0, 2);
    let msg = cores[0].new_complet_at("core1", "Message", &[]).unwrap();
    net.set_link_directed(
        cores[1].node(),
        cores[0].node(),
        LinkConfig::instant().with_loss(1.0),
    )
    .unwrap();
    assert_eq!(msg.call("print", &[]).unwrap_err(), FargoError::Timeout);
    teardown(&cores);
}

#[test]
fn shutdown_mid_stream_of_invocations_degrades_cleanly() {
    let (_net, cores) = lossy_cluster(0.0, 2);
    let msg = cores[0].new_complet_at("core1", "Message", &[]).unwrap();
    let m2 = msg.clone();
    let worker = std::thread::spawn(move || {
        let mut errs = 0;
        for _ in 0..200 {
            if m2.call("print", &[]).is_err() {
                errs += 1;
            }
        }
        errs
    });
    std::thread::sleep(Duration::from_millis(5));
    cores[1].stop();
    let errs = worker.join().unwrap();
    // After the stop, calls fail with clean errors rather than panics or
    // hangs; before it, they succeeded.
    assert!(errs > 0, "the stop must have been observed");
    teardown(&cores);
}

#[test]
fn stop_wakes_callers_blocked_in_an_rpc() {
    // No retransmit slot to notice the stop at, and ten seconds of
    // budget to sit out: the stop itself must release the caller.
    let (net, cores) = lossy_cluster_with(0.0, 2, |c| {
        c.with_rpc_timeout(Duration::from_secs(10)).single_shot()
    });
    // A silent partition: requests vanish, the send itself succeeds.
    net.set_link(
        cores[0].node(),
        cores[1].node(),
        LinkConfig::instant().with_loss(1.0),
    )
    .unwrap();
    let caller = cores[0].clone();
    let blocked = std::thread::spawn(move || caller.ping("core1"));
    // Blocked for certain once the link has swallowed the request.
    let deadline = Instant::now() + Duration::from_secs(5);
    while net.link_stats(cores[0].node(), cores[1].node()).dropped == 0 {
        assert!(Instant::now() < deadline, "the ping never went out");
        std::thread::yield_now();
    }
    let stopped = Instant::now();
    cores[0].stop();
    assert_eq!(blocked.join().unwrap(), Err(FargoError::ShuttingDown));
    assert!(
        stopped.elapsed() < Duration::from_secs(1),
        "released after {:?}",
        stopped.elapsed()
    );
    assert_eq!(cores[0].inflight_rpcs(), 0);
    teardown(&cores);
}

#[test]
fn lost_move_replies_leave_exactly_one_copy() {
    // Regression for the duplicated-complet hazard: drop 100% of the
    // dest->source traffic so every reply on the move path is lost. The
    // two-phase transfer must abort (the source never sees PrepareOk,
    // records the abort, and tells the destination), leaving the complet
    // live on exactly one Core — the source — with a working stub.
    let (net, cores) = lossy_cluster(0.0, 2);
    let msg = cores[0]
        .new_complet("Message", &[Value::from("singleton")])
        .unwrap();
    net.set_link_directed(
        cores[1].node(),
        cores[0].node(),
        LinkConfig::instant().with_loss(1.0),
    )
    .unwrap();
    let err = msg.move_to("core1").unwrap_err();
    assert!(
        matches!(err, FargoError::Timeout | FargoError::MoveInDoubt(_)),
        "got {err:?}"
    );
    assert!(cores[0].hosts(msg.id()), "complet restored at the source");
    assert!(!cores[1].hosts(msg.id()), "no duplicate at the destination");
    // Heal the link: the same reference still works.
    net.set_link_directed(cores[1].node(), cores[0].node(), LinkConfig::instant())
        .unwrap();
    assert_eq!(msg.call("print", &[]).unwrap(), Value::from("singleton"));
    teardown(&cores);
}

#[test]
fn a_late_commit_answer_leaves_the_complet_that_came_back_alone() {
    // A move's commit answer can be slower than the complet's way back:
    // core1's answers reach core0 a second late, and before core0 hears
    // that its move of x committed, x has gone on to core2 and back to
    // core0. The late departure must not release the returned complet.
    let (net, cores) = lossy_cluster_with(0.0, 3, |c| c.with_rpc_timeout(Duration::from_secs(5)));
    let x = cores[0].new_complet("Counter", &[]).unwrap();
    x.call("add", &[Value::I64(5)]).unwrap();
    net.set_link_directed(
        cores[1].node(),
        cores[0].node(),
        LinkConfig::new(Duration::from_secs(1)),
    )
    .unwrap();
    let mover = {
        let (core, id) = (cores[0].clone(), x.id());
        std::thread::spawn(move || core.move_complet(id, "core1", None))
    };
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cores[1].hosts(x.id()) {
        assert!(Instant::now() < deadline, "x never arrived at core1");
        std::thread::sleep(Duration::from_millis(1));
    }
    cores[1].move_complet(x.id(), "core2", None).unwrap();
    cores[2].move_complet(x.id(), "core0", None).unwrap();
    mover.join().unwrap().unwrap();
    assert!(cores[0].hosts(x.id()), "the late departure released x");
    assert_eq!(x.call("get", &[]).unwrap(), Value::I64(5));
    teardown(&cores);
}

#[test]
fn retried_invocations_execute_exactly_once() {
    // A non-idempotent method under 30% loss with a generous rpc budget:
    // every call eventually succeeds via retransmission, and the
    // receiver's reply-dedup cache ensures no retransmit re-executes.
    // Without dedup the counter would overshoot. (16 retransmissions
    // put per-call failure odds around 1e-5 — the fixed CI seeds never
    // hit it.)
    // Both call styles run the same engine, so both must hold it.
    for pipelined in [false, true] {
        let (net, cores) = lossy_cluster_with(0.30, 2, |c| {
            c.with_rpc_timeout(Duration::from_secs(10))
                .with_rpc_retries(16)
        });
        let adder = cores[0].new_complet_at("core1", "Counter", &[]).unwrap();
        let calls = 30;
        for _ in 0..calls {
            let one = [Value::I64(1)];
            let result = if pipelined {
                adder.call_async("add", &one).wait()
            } else {
                adder.call("add", &one)
            };
            result.expect("call succeeds");
        }
        assert!(
            counter(&cores[0], "fargo_rpc_retries_total") > 0,
            "pipelined={pipelined}: 30% loss must have forced a retransmission"
        );
        // Read back over a clean link so the assertion itself cannot flake.
        net.set_link(cores[0].node(), cores[1].node(), LinkConfig::instant())
            .unwrap();
        assert_eq!(adder.call("get", &[]).unwrap(), Value::I64(calls));
        teardown(&cores);
    }
}

#[test]
fn retries_recover_every_call_under_loss() {
    // Whatever the loss rate, every call completes; retransmission is
    // what recovers the lost ones, and with nothing lost nothing is
    // resent.
    for loss in [0.0, 0.10, 0.30] {
        let (_net, cores) = lossy_cluster_with(loss, 2, |c| {
            let c = c
                .with_rpc_timeout(Duration::from_secs(10))
                .with_rpc_retries(16);
            if loss > 0.0 {
                return c;
            }
            // Loss-free, a resend could only be the timer firing on a
            // slow host: give the first one a second.
            CoreConfig {
                rpc_retry_base: Duration::from_secs(1),
                ..c
            }
        });
        let msg = cores[0].new_complet_at("core1", "Message", &[]).unwrap();
        for _ in 0..40 {
            msg.call("print", &[]).expect("call succeeds");
        }
        let resent = counter(&cores[0], "fargo_rpc_retries_total");
        if loss > 0.0 {
            assert!(resent > 0, "{loss} loss must have forced a retransmission");
        } else {
            assert_eq!(resent, 0, "a loss-free link needs no retransmission");
        }
        teardown(&cores);
    }
}

#[test]
fn a_retransmission_retraces_its_first_copys_path_after_the_complet_moves_back() {
    // A retransmitted call must not execute twice because the complet
    // moved between its copies. The first copy goes core0 -> core2 ->
    // core1 and executes there; its reply, which skips the forwarder
    // core2, dies on the way back to core0. Then the complet moves back
    // to core2, where core0's stale tracker sends the retransmission:
    // core2 must send it on to core1, as it did the first copy, and
    // core1 replays the recorded reply.
    let (net, cores) = lossy_cluster_with(0.0, 3, |c| {
        c.with_rpc_timeout(Duration::from_secs(5))
            .with_rpc_retries(8)
    });
    let x = cores[0].new_complet_at("core2", "Counter", &[]).unwrap();
    assert_eq!(x.call("get", &[]).unwrap(), Value::I64(0));
    cores[2].move_complet(x.id(), "core1", None).unwrap();
    let back = (cores[1].node(), cores[0].node());
    net.set_link_directed(back.0, back.1, LinkConfig::instant().with_loss(1.0))
        .unwrap();
    let pending = x.call_async("add", &[Value::I64(1)]);
    // The first copy executed at core1; only its reply was lost.
    let deadline = Instant::now() + Duration::from_secs(5);
    while net.link_stats(back.0, back.1).dropped == 0 {
        assert!(Instant::now() < deadline, "the reply never left core1");
        std::thread::sleep(Duration::from_millis(1));
    }
    cores[1].move_complet(x.id(), "core2", None).unwrap();
    net.set_link_directed(back.0, back.1, LinkConfig::instant())
        .unwrap();
    assert_eq!(pending.wait().unwrap(), Value::I64(1));
    assert_eq!(x.call("get", &[]).unwrap(), Value::I64(1), "executed twice");
    teardown(&cores);
}

#[test]
fn retried_graph_scans_execute_exactly_once_and_replay_the_whole_reply() {
    // The same guarantee for a reply the size of the benchmark's
    // `scan(256)`: the dedup cache keeps such a reply as the bytes it
    // was sent as, so a replay must still hand the caller every record.
    let (net, cores) = lossy_cluster_with(0.30, 2, |c| {
        c.with_rpc_timeout(Duration::from_secs(10))
            .with_rpc_retries(16)
    });
    let chunk = cores[0]
        .new_complet_at("core1", "GraphChunk", &[])
        .expect("instantiation retries through the loss");
    let expected = Value::List(fargo_wire::testgen::graph_records(256, 0));
    let calls = 30;
    for i in 0..calls {
        let result = if i % 2 == 0 {
            chunk.call("scan", &[])
        } else {
            chunk.call_async("scan", &[]).wait()
        };
        assert_eq!(result.expect("call succeeds"), expected, "scan {i}");
    }
    assert!(
        counter(&cores[1], "fargo_dedup_hits_total") > 0,
        "30% loss must have lost a reply and had it replayed"
    );
    net.set_link(cores[0].node(), cores[1].node(), LinkConfig::instant())
        .unwrap();
    assert_eq!(chunk.call("scans", &[]).unwrap(), Value::I64(calls));
    teardown(&cores);
}

#[test]
fn a_lost_reply_is_replayed_until_its_callers_next_request_releases_it() {
    // The caller's mark cannot pass a request it still waits on: a reply
    // lost on its link stays in the executing Core's cache, and the
    // retransmission is replayed from it. The caller's next request
    // carries a mark past it, and the entry goes, bytes and key.
    let (net, cores) = lossy_cluster_with(0.0, 2, |c| {
        c.with_rpc_timeout(Duration::from_secs(5))
            .with_rpc_retries(8)
    });
    let chunk = cores[0].new_complet_at("core1", "GraphChunk", &[]).unwrap();
    let back = (cores[1].node(), cores[0].node());
    net.set_link_directed(back.0, back.1, LinkConfig::instant().with_loss(1.0))
        .unwrap();
    let pending = chunk.call_async("scan", &[]);
    let deadline = Instant::now() + Duration::from_secs(5);
    while net.link_stats(back.0, back.1).dropped == 0 {
        assert!(Instant::now() < deadline, "the reply never left core1");
        std::thread::sleep(Duration::from_millis(1));
    }
    net.set_link_directed(back.0, back.1, LinkConfig::instant())
        .unwrap();
    let expected = Value::List(fargo_wire::testgen::graph_records(256, 0));
    assert_eq!(pending.wait().unwrap(), expected);
    assert!(counter(&cores[1], "fargo_dedup_hits_total") > 0, "replayed");
    let scan_body = fargo_wire::encode_value(&expected).len() as f64;
    let held = common::gauge(&cores[1], "fargo_dedup_cache_bytes");
    let entries = common::gauge(&cores[1], "fargo_dedup_cache_entries");
    assert!(held >= scan_body, "{held} bytes: the scan reply is held");
    assert_eq!(
        chunk.call("scans", &[]).unwrap(),
        Value::I64(1),
        "one scan ran"
    );
    let after = common::gauge(&cores[1], "fargo_dedup_cache_bytes");
    assert!(
        after < scan_body,
        "{after} bytes: the scan reply was released"
    );
    assert_eq!(
        common::gauge(&cores[1], "fargo_dedup_cache_entries"),
        entries,
        "its entry went, and the latest call's took its place"
    );
    teardown(&cores);
}

#[test]
fn sequential_calls_leave_the_callee_one_dedup_entry() {
    // Each call carries a mark past every earlier one, so the callee
    // holds the latest call's entry alone: the mark is its only memory
    // of the calls answered before it.
    let (_net, cores) = lossy_cluster_with(0.0, 2, |c| c.with_rpc_timeout(Duration::from_secs(5)));
    let counter = cores[0].new_complet_at("core1", "Counter", &[]).unwrap();
    for _ in 0..300 {
        counter.call("add", &[]).unwrap();
    }
    let entries = common::gauge(&cores[1], "fargo_dedup_cache_entries");
    assert!(entries <= 1.0, "{entries} entries after 300 calls");
    teardown(&cores);
}

#[test]
fn dedup_cache_eviction_under_churn() {
    // A tiny dedup cache under many distinct requests must evict old
    // entries (bounded memory) without disturbing live calls. Ten calls
    // in flight at a time hold the caller's mark at the oldest of them,
    // so more than eight entries sit above it.
    let (_net, cores) = lossy_cluster_with(0.0, 2, |c| {
        c.with_rpc_timeout(Duration::from_secs(5))
            .with_dedup_capacity(8)
    });
    let counter = cores[0].new_complet_at("core1", "Counter", &[]).unwrap();
    for _ in 0..10 {
        let batch: Vec<_> = (0..10)
            .map(|_| counter.call_async("add", &[Value::I64(1)]))
            .collect();
        for pending in batch {
            pending.wait().unwrap();
        }
    }
    assert_eq!(counter.call("get", &[]).unwrap(), Value::I64(100));
    let evictions = common::counter(&cores[1], "fargo_dedup_evictions_total");
    assert!(evictions > 0, "capacity 8 under 100+ requests must evict");
    teardown(&cores);
}

#[test]
fn slow_link_queueing_under_concurrent_load() {
    // A bandwidth-limited link with many concurrent callers: everything
    // completes, nothing interleaves corruptly.
    let net = Network::new(NetworkConfig {
        default_link: Some(LinkConfig::new(Duration::from_micros(100)).with_bandwidth(2_000_000)),
        ..NetworkConfig::default()
    });
    let reg = registry();
    let cores: Vec<Core> = (0..2)
        .map(|i| {
            Core::builder(&net, &format!("core{i}"))
                .registry(&reg)
                .config(test_config())
                .spawn()
                .unwrap()
        })
        .collect();
    let counter = cores[0].new_complet_at("core1", "Counter", &[]).unwrap();
    let payload = Value::Bytes(vec![1u8; 20_000]);
    let mut handles = Vec::new();
    for _ in 0..6 {
        let c = counter.clone();
        let p = payload.clone();
        handles.push(std::thread::spawn(move || {
            for _ in 0..10 {
                // Big argument exercises serialisation queueing.
                c.call("add", &[Value::I64(1), p.clone()]).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(counter.call("get", &[]).unwrap(), Value::I64(60));
    teardown(&cores);
}
