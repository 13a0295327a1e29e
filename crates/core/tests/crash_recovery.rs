//! Crash/restart durability tests: the four crash-mid-move
//! interleavings, partition + crash + heal, restart storms, and
//! checkpoint/restore edge cases. Every scenario runs with the
//! write-ahead log enabled and verifies the invariant the fault checker
//! sweeps for: *no acknowledged state is ever lost* — every state a
//! caller saw acknowledged survives the crash, and the complet stays
//! reachable afterwards.

mod common;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

use common::{fast_network, quiesce, registry, test_config};
use fargo_core::{
    define_complet, BoundRef, CompletId, CompletRef, CompletRegistry, Core, CoreConfig, FargoError,
    JournalKind, RefDescriptor, Value,
};
use simnet::{LinkConfig, Network};

/// Per-test scratch directory for the cores' write-ahead logs.
fn wal_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fargo-crash-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("wal scratch dir");
    dir
}

fn wal_config(base: CoreConfig, root: &Path, i: usize) -> CoreConfig {
    base.with_wal_dir(root.join(format!("core{i}")))
}

/// Spawns `n` cores named `core0..` with per-core WAL directories.
fn wal_cluster_with(
    n: usize,
    tag: &str,
    base: CoreConfig,
) -> (Network, CompletRegistry, Vec<Core>, PathBuf) {
    let root = wal_root(tag);
    let net = fast_network();
    let reg = registry();
    let cores = (0..n)
        .map(|i| {
            Core::builder(&net, &format!("core{i}"))
                .registry(&reg)
                .config(wal_config(base.clone(), &root, i))
                .spawn()
                .expect("core must spawn")
        })
        .collect();
    (net, reg, cores, root)
}

fn wal_cluster(n: usize, tag: &str) -> (Network, CompletRegistry, Vec<Core>, PathBuf) {
    wal_cluster_with(n, tag, test_config())
}

/// Restarts a crashed core on its old node with its old WAL directory;
/// spawn re-runs recovery automatically.
fn restart(
    net: &Network,
    reg: &CompletRegistry,
    base: CoreConfig,
    root: &Path,
    old: &Core,
    i: usize,
) -> Core {
    let ep = net.restart_node(old.node()).expect("restart node");
    Core::builder(net, &format!("core{i}"))
        .endpoint(ep)
        .registry(reg)
        .config(wal_config(base, root, i))
        .spawn()
        .expect("restarted core must spawn")
}

/// A reference seeded fresh at `core` (old stubs die with their Core).
fn fresh_stub(core: &Core, id: CompletId, type_name: &str) -> BoundRef {
    core.stub(CompletRef::from_descriptor(RefDescriptor::link(
        id,
        type_name,
        core.node().index(),
    )))
}

fn cleanup(root: &Path, cores: &[Core]) {
    for c in cores {
        c.stop();
    }
    let _ = std::fs::remove_dir_all(root);
}

// --- the four crash-mid-move interleavings ---------------------------------

/// Interleaving A: the destination is already dead when the move starts.
/// The prepare round fails, the source keeps the complet, and after the
/// destination restarts the same move succeeds.
#[test]
fn crash_a_dest_dead_before_prepare() {
    let (net, reg, mut cores, root) = wal_cluster(2, "a");
    let counter = cores[0].new_complet("Counter", &[]).unwrap();
    counter.call("add", &[Value::I64(5)]).unwrap();

    cores[1].stop();
    assert!(counter.move_to("core1").is_err(), "dest is down");
    assert!(cores[0].hosts(counter.id()), "source keeps the complet");
    assert_eq!(counter.call("get", &[]).unwrap(), Value::I64(5));

    cores[1] = restart(&net, &reg, test_config(), &root, &cores[1], 1);
    counter.move_to("core1").unwrap();
    assert!(cores[1].hosts(counter.id()));
    assert!(!cores[0].hosts(counter.id()));
    assert_eq!(
        counter.call("add", &[Value::I64(1)]).unwrap(),
        Value::I64(6)
    );
    cleanup(&root, &cores);
}

/// Interleaving B: the destination crashes *between* holding the
/// prepared closure and receiving the commit. The source presume-commits
/// off its decision log; the restarted destination finds the held stream
/// in its WAL, queries the source's decision, and activates. Exactly one
/// copy survives, with the acknowledged state.
#[test]
fn crash_b_dest_crash_between_hold_and_commit() {
    let (net, reg, mut cores, root) = wal_cluster(2, "b");
    let counter = cores[0].new_complet("Counter", &[]).unwrap();
    counter.call("add", &[Value::I64(7)]).unwrap();

    // Slow the src->dst direction only: the prepare arrives late, its
    // reply returns instantly, and the commit spends another 400 ms in
    // flight — a wide window where the destination holds but has not
    // committed.
    net.set_link_directed(
        cores[0].node(),
        cores[1].node(),
        LinkConfig::new(Duration::from_millis(400)),
    )
    .unwrap();

    let mover = counter.clone();
    let moving = std::thread::spawn(move || mover.move_to("core1"));

    // Crash the destination as soon as it journals the hold.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let held = cores[1]
            .journal_snapshot()
            .iter()
            .any(|e| e.kind == JournalKind::MovePrepared);
        if held {
            break;
        }
        assert!(Instant::now() < deadline, "prepare never reached the dest");
        std::thread::sleep(Duration::from_millis(2));
    }
    cores[1].stop();

    // The source recorded the commit verdict before sending the commit:
    // it must finalize the departure (presumed commit), not restore.
    let result = moving.join().unwrap();
    assert!(
        matches!(result, Ok(()) | Err(FargoError::MoveInDoubt(_))),
        "got {result:?}"
    );
    assert!(!cores[0].hosts(counter.id()), "source finalized departure");

    // Restart the destination: recovery re-holds the prepared stream and
    // resolves it against the source's decision log.
    net.set_link_directed(cores[0].node(), cores[1].node(), LinkConfig::instant())
        .unwrap();
    cores[1] = restart(&net, &reg, test_config(), &root, &cores[1], 1);
    let report = cores[1].recovery_report().expect("recovery ran");
    assert!(report.held >= 1, "held stream must be re-held: {report:?}");
    cores[1].resolve_held_now();

    assert!(cores[1].hosts(counter.id()), "held move activated");
    assert!(!cores[0].hosts(counter.id()), "exactly one copy");
    let fresh = fresh_stub(&cores[1], counter.id(), "Counter");
    assert_eq!(fresh.call("get", &[]).unwrap(), Value::I64(7));
    cleanup(&root, &cores);
}

/// Interleaving C: the destination crashes *after* the move completed
/// and more acknowledged work landed. Restart replays the WAL and every
/// acknowledged state — including the post-move calls — survives.
#[test]
fn crash_c_dest_crash_after_commit_replays_state() {
    let (net, reg, mut cores, root) = wal_cluster(2, "c");
    let counter = cores[0].new_complet("Counter", &[]).unwrap();
    counter.call("add", &[Value::I64(3)]).unwrap();
    counter.move_to("core1").unwrap();
    counter.call("add", &[Value::I64(4)]).unwrap();

    cores[1].stop();
    cores[1] = restart(&net, &reg, test_config(), &root, &cores[1], 1);
    let report = cores[1].recovery_report().expect("recovery ran");
    assert_eq!(report.replayed, 1, "one survivor: {report:?}");

    assert!(cores[1].hosts(counter.id()));
    // The pre-crash stub at core0 still reaches it, and both
    // acknowledged adds survived.
    assert_eq!(counter.call("get", &[]).unwrap(), Value::I64(7));
    assert_eq!(counter.call("history_len", &[]).unwrap(), Value::I64(2));
    cleanup(&root, &cores);
}

/// Interleaving D: the *source* crashes after a completed move. Restart
/// must not resurrect the departed complet — and must rebuild the
/// forwarding tracker, because the source is the complet's origin and
/// every chain lookup runs through it.
#[test]
fn crash_d_source_crash_after_departure_does_not_resurrect() {
    let (net, reg, mut cores, root) = wal_cluster(2, "d");
    let counter = cores[0].new_complet("Counter", &[]).unwrap();
    counter.call("add", &[Value::I64(2)]).unwrap();
    counter.move_to("core1").unwrap();

    cores[0].stop();
    cores[0] = restart(&net, &reg, test_config(), &root, &cores[0], 0);
    let report = cores[0].recovery_report().expect("recovery ran");
    assert_eq!(report.replayed, 0, "nothing lives here: {report:?}");
    assert!(report.forwards >= 1, "forward rebuilt: {report:?}");

    assert!(!cores[0].hosts(counter.id()), "no resurrection");
    assert!(cores[1].hosts(counter.id()), "the real copy is untouched");
    // A fresh reference seeded at the restarted origin still routes to
    // the complet through the recovered forwarding tracker.
    let fresh = fresh_stub(&cores[0], counter.id(), "Counter");
    assert_eq!(fresh.call("get", &[]).unwrap(), Value::I64(2));
    cleanup(&root, &cores);
}

// --- one name per move transaction ------------------------------------------

/// Takes the `src → dst` direction of a link down, or brings it back.
fn set_direction(net: &Network, src: &Core, dst: &Core, up: bool) {
    let mut link = LinkConfig::instant();
    link.up = up;
    net.set_link_directed(src.node(), dst.node(), link).unwrap();
}

/// Blocks until `core` journals an event of `kind`.
fn await_journaled(core: &Core, kind: JournalKind) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !core.journal_snapshot().iter().any(|e| e.kind == kind) {
        assert!(Instant::now() < deadline, "{kind:?} never journaled");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Moves `ids` from core0 to core1 so that core1 holds the prepare while
/// both of its answers are lost — the `PrepareOk`, then the abort — and
/// heals the links once the move has failed.
fn hold_with_both_answers_lost(net: &Network, cores: &[Core], ids: &[CompletId]) {
    set_direction(net, &cores[1], &cores[0], false);
    let (core0, ids) = (cores[0].clone(), ids.to_vec());
    let moving = std::thread::spawn(move || core0.move_many(&ids, "core1"));
    await_journaled(&cores[1], JournalKind::MovePrepared);
    set_direction(net, &cores[0], &cores[1], false);
    let result = moving.join().unwrap();
    assert!(matches!(result, Err(FargoError::Net(_))), "got {result:?}");
    set_direction(net, &cores[0], &cores[1], true);
    set_direction(net, &cores[1], &cores[0], true);
}

/// After a restarted core0 moved `r` to core1 and core1 resolved the hold
/// the failed move of `{r, s}` left: `s` is still core0's alone, `r`
/// core1's, each with its acknowledged state.
fn assert_one_copy_each(net: &Network, cores: &[Core], r: CompletId, s: CompletId) {
    cores[1].resolve_held_now();
    quiesce(net, cores);
    let hosts = |id| cores.iter().filter(|c| c.hosts(id)).count();
    assert_eq!(hosts(s), 1, "s lives on exactly one Core");
    assert_eq!(hosts(r), 1, "r lives on exactly one Core");
    assert!(cores[0].hosts(s) && cores[1].hosts(r));
    let s = fresh_stub(&cores[0], s, "Counter");
    assert_eq!(s.call("get", &[]).unwrap(), Value::I64(2));
    let r = fresh_stub(&cores[1], r, "Counter");
    assert_eq!(r.call("get", &[]).unwrap(), Value::I64(1));
}

/// A move whose prepare is held at the destination while both of its
/// answers are lost leaves a hold its source forgets the epoch of when
/// it restarts. The next move the restarted source makes of the same
/// root is a new transaction: it must not commit the forgotten hold,
/// whose group named another complet the source still hosts.
#[test]
fn a_restarted_source_never_commits_a_hold_its_aborted_move_left() {
    let (net, reg, mut cores, root) = wal_cluster(2, "forgotten-hold");
    let r = cores[0].new_complet("Counter", &[]).unwrap();
    let s = cores[0].new_complet("Counter", &[]).unwrap();
    r.call("add", &[Value::I64(1)]).unwrap();
    s.call("add", &[Value::I64(2)]).unwrap();

    hold_with_both_answers_lost(&net, &cores, &[r.id(), s.id()]);
    cores[0].stop();
    cores[0] = restart(&net, &reg, test_config(), &root, &cores[0], 0);
    cores[0].move_many(&[r.id()], "core1").unwrap();
    assert_one_copy_each(&net, &cores, r.id(), s.id());
    cleanup(&root, &cores);
}

/// The same hold, but `r` reached core0 from a Core in its third life,
/// so its epoch is above what core0's restart floors its next one at:
/// the restarted core0 names its next move of `r` with the key of the
/// hold. core1 holds another stream under that key and refuses the new
/// one rather than commit the old; a retry names a new transaction.
#[test]
fn a_hold_is_never_committed_for_another_stream_under_its_key() {
    let (net, reg, mut cores, root) = wal_cluster(3, "reminted-key");
    for _ in 0..2 {
        cores[2].stop();
        cores[2] = restart(&net, &reg, test_config(), &root, &cores[2], 2);
    }
    let r = cores[2].new_complet("Counter", &[]).unwrap();
    r.call("add", &[Value::I64(1)]).unwrap();
    r.move_to("core0").unwrap();
    let s = cores[0].new_complet("Counter", &[]).unwrap();
    s.call("add", &[Value::I64(2)]).unwrap();

    hold_with_both_answers_lost(&net, &cores, &[r.id(), s.id()]);
    cores[0].stop();
    cores[0] = restart(&net, &reg, test_config(), &root, &cores[0], 0);
    if cores[0].move_many(&[r.id()], "core1").is_err() {
        cores[0].move_many(&[r.id()], "core1").unwrap();
    }
    assert_one_copy_each(&net, &cores, r.id(), s.id());
    cleanup(&root, &cores);
}

/// A full destination refuses a move, and the source's one-way abort
/// makes it record that transaction as aborted. Once the source restarts
/// and the destination has room, the next move is a new transaction and
/// succeeds on its first try.
#[test]
fn a_move_after_a_refused_one_and_a_restart_succeeds_first_time() {
    let root = wal_root("refused");
    let (net, reg) = (fast_network(), registry());
    let spawn = |i: usize, config: CoreConfig| {
        Core::builder(&net, &format!("core{i}"))
            .registry(&reg)
            .config(wal_config(config, &root, i))
            .spawn()
            .expect("core must spawn")
    };
    let mut cores = vec![
        spawn(0, test_config()),
        spawn(1, test_config().with_capacity(1)),
    ];
    let r = cores[0].new_complet("Counter", &[]).unwrap();
    r.call("add", &[Value::I64(3)]).unwrap();
    let filler = cores[1].new_complet("Counter", &[]).unwrap();

    let refused = r.move_to("core1");
    assert!(
        matches!(refused, Err(FargoError::CapacityExceeded { .. })),
        "got {refused:?}"
    );
    quiesce(&net, &cores);
    cores[0].stop();
    cores[0] = restart(&net, &reg, test_config(), &root, &cores[0], 0);
    cores[1].release_complet(filler.id()).unwrap();

    cores[0].move_complet(r.id(), "core1", None).unwrap();
    assert!(cores[1].hosts(r.id()) && !cores[0].hosts(r.id()));
    let r = fresh_stub(&cores[1], r.id(), "Counter");
    assert_eq!(r.call("get", &[]).unwrap(), Value::I64(3));
    cleanup(&root, &cores);
}

/// Synced appends per committed durable move: the source writes its
/// verdict, which names every complet that left, and nothing else; the
/// destination writes the held stream, one state per arrival, and its
/// verdict.
#[test]
fn a_committed_move_costs_the_source_one_append() {
    let (_net, _reg, cores, root) = wal_cluster(2, "appends");
    let appends = |c: &Core| common::counter(c, "fargo_wal_appends_total");
    for n in [1, 2] {
        let ids: Vec<CompletId> = (0..n)
            .map(|_| cores[0].new_complet("Counter", &[]).unwrap().id())
            .collect();
        let before = (appends(&cores[0]), appends(&cores[1]));
        cores[0].move_many(&ids, "core1").unwrap();
        let source = appends(&cores[0]) - before.0;
        let dest = appends(&cores[1]) - before.1;
        assert_eq!((source, dest), (1, n + 2), "{n} complets moved");
    }
    cleanup(&root, &cores);
}

// --- a population killed cold ------------------------------------------------

/// A Core hosting a population is stopped cold — no checkpoint, no
/// evacuation — and restarted on its log: every complet comes back with
/// both of its acknowledged adds, and a peer holding no hint finds each
/// one within two hops, because recovery republishes the survivors to
/// their shards.
#[test]
fn kill_restart_recovers_every_acked_complet() {
    const N: usize = 128;
    let (net, reg, mut cores, root) = wal_cluster(3, "kill");
    let counters: Vec<_> = (0..N)
        .map(|_| cores[1].new_complet("Counter", &[]).unwrap())
        .collect();
    for c in &counters {
        c.call("add", &[Value::I64(1)]).unwrap();
        c.call("add", &[Value::I64(1)]).unwrap();
    }

    cores[1].stop();
    cores[1] = restart(&net, &reg, test_config(), &root, &cores[1], 1);
    assert_eq!(
        cores[1].recovery_report().expect("recovery ran").replayed,
        N
    );
    quiesce(&net, &cores);

    let mut hops = Vec::with_capacity(N);
    for c in &counters {
        let r = cores[0].locate_explain(c.id()).unwrap();
        assert_eq!(r.node, cores[1].node().index(), "{}", c.id());
        hops.push(r.hops);
        let fresh = fresh_stub(&cores[0], c.id(), "Counter");
        assert_eq!(
            fresh.call("add", &[Value::I64(1)]).unwrap(),
            Value::I64(3),
            "{} lost an acknowledged add",
            c.id()
        );
    }
    hops.sort_unstable();
    assert!(hops[N * 99 / 100] <= 2, "p99 {} hops", hops[N * 99 / 100]);
    cleanup(&root, &cores);
}

/// `Gated::gated_add` has started; the test may stop its Core.
static GATE_ENTERED: Barrier = Barrier::new(2);
/// The test lets `Gated::gated_add` go on.
static GATE_RELEASED: Barrier = Barrier::new(2);

define_complet! {
    /// A counter one of whose adds waits at a gate the test opens.
    pub complet Gated {
        state { n: i64 = 0 }
        fn add(&mut self, _ctx, _args) {
            self.n += 1;
            Ok(Value::I64(self.n))
        }
        fn gated_add(&mut self, _ctx, _args) {
            GATE_ENTERED.wait();
            GATE_RELEASED.wait();
            self.n += 1;
            Ok(Value::I64(self.n))
        }
        fn get(&mut self, _ctx, _args) {
            Ok(Value::I64(self.n))
        }
    }
}

/// Every file under `root` with its bytes.
fn dir_bytes(root: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut files = BTreeMap::new();
    let mut dirs = vec![root.to_path_buf()];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).expect("read wal dir") {
            let path = entry.expect("wal dir entry").path();
            if path.is_dir() {
                dirs.push(path);
            } else {
                let bytes = std::fs::read(&path).expect("read wal file");
                files.insert(path, bytes);
            }
        }
    }
    files
}

/// A stopped Core writes nothing more to its log. A call blocked in its
/// method while another thread stops the Core finishes after `stop`
/// returned: its state is not logged, so it is not acknowledged, and a
/// Core restarted on the log recovers exactly the acknowledged adds.
#[test]
fn a_stopped_core_appends_nothing_and_acks_nothing_more() {
    let (net, reg, cores, root) = wal_cluster(1, "stopped");
    Gated::register(&reg);
    let gated = cores[0].new_complet("Gated", &[]).unwrap();
    for n in 1..=3 {
        assert_eq!(gated.call("add", &[]).unwrap(), Value::I64(n));
    }
    let blocked = {
        let gated = gated.clone();
        thread::spawn(move || gated.call("gated_add", &[]))
    };
    GATE_ENTERED.wait();
    let stopper = {
        let core = cores[0].clone();
        thread::spawn(move || core.stop())
    };
    stopper.join().expect("stopper");
    let at_stop = dir_bytes(&root);
    GATE_RELEASED.wait();
    let outcome = blocked.join().expect("caller");
    // Past a monitor tick, when a compaction would have run.
    thread::sleep(test_config().monitor_tick * 3);
    assert!(dir_bytes(&root) == at_stop, "the log changed after stop");
    assert!(
        matches!(outcome, Err(FargoError::ShuttingDown)),
        "{outcome:?}"
    );
    let restarted = restart(&net, &reg, test_config(), &root, &cores[0], 0);
    let fresh = fresh_stub(&restarted, gated.id(), "Gated");
    assert_eq!(fresh.call("get", &[]).unwrap(), Value::I64(3));
    cleanup(&root, &[restarted]);
}

/// Invokes already waiting at a restarting Core's endpoint when it spawns
/// are served from the recovered state: recovery runs before the
/// receiver and the workers start, so none of them finds the Core
/// without its logged complets, is answered `UnknownComplet`, and makes
/// the caller retire its tracker as a dead end.
#[test]
fn invokes_queued_before_spawn_are_served_from_the_recovered_state() {
    const N: usize = 512;
    let config = test_config().with_wal_fsync(false);
    let (net, reg, mut cores, root) = wal_cluster_with(2, "queued", config.clone());
    let counters: Vec<_> = (0..N)
        .map(|i| {
            let c = cores[0].new_complet_at("core1", "Counter", &[]).unwrap();
            c.call("add", &[Value::I64(i as i64)]).unwrap();
            c
        })
        .collect();
    cores[1].stop();
    let ep = net.restart_node(cores[1].node()).expect("restart node");
    // Nothing serves core1's endpoint yet: the invokes queue there, the
    // last complet recovery installs first.
    let pending: Vec<_> = counters
        .iter()
        .rev()
        .map(|c| c.call_async("get", &[]))
        .collect();
    cores[1] = Core::builder(&net, "core1")
        .endpoint(ep)
        .registry(&reg)
        .config(wal_config(config, &root, 1))
        .spawn()
        .expect("restarted core must spawn");
    for (call, i) in pending.into_iter().zip((0..N).rev()) {
        assert_eq!(call.wait().unwrap(), Value::I64(i as i64));
    }
    let dead_ends = cores[0]
        .journal_snapshot()
        .into_iter()
        .filter(|e| e.kind == JournalKind::TrackerRetired)
        .count();
    assert_eq!(dead_ends, 0, "invokes answered before recovery");
    cleanup(&root, &cores);
}

// --- partition + crash + heal ----------------------------------------------

/// A partition isolates the host, the host crashes mid-partition, the
/// partition heals, and the host restarts: acknowledged state recovers
/// and the old reference works again.
#[test]
fn partition_crash_heal_restart_recovers() {
    let base = test_config().with_rpc_timeout(Duration::from_millis(500));
    let (net, reg, mut cores, root) = wal_cluster_with(2, "phr", base.clone());
    let counter = cores[0].new_complet_at("core1", "Counter", &[]).unwrap();
    counter.call("add", &[Value::I64(5)]).unwrap();

    net.partition(cores[0].node(), cores[1].node()).unwrap();
    assert!(counter.call("get", &[]).is_err(), "partitioned");

    cores[1].stop();
    net.heal(cores[0].node(), cores[1].node()).unwrap();
    cores[1] = restart(&net, &reg, base, &root, &cores[1], 1);

    assert!(cores[1].hosts(counter.id()));
    assert_eq!(counter.call("get", &[]).unwrap(), Value::I64(5));
    assert_eq!(
        counter.call("add", &[Value::I64(1)]).unwrap(),
        Value::I64(6)
    );
    cleanup(&root, &cores);
}

// --- restart storm ----------------------------------------------------------

/// Five crash/restart cycles of the same Core, accumulating state across
/// every incarnation, with the compaction threshold set low enough that
/// the log is rewritten mid-storm. Every acknowledged add must survive
/// every cycle, and each recovery stays fast.
#[test]
fn restart_storm_preserves_accumulated_state() {
    let base = test_config().with_wal_compact_records(4);
    let (net, reg, mut cores, root) = wal_cluster_with(2, "storm", base.clone());
    let counter = cores[0].new_complet_at("core1", "Counter", &[]).unwrap();

    let mut expect = 0i64;
    for round in 1..=5 {
        counter.call("add", &[Value::I64(round)]).unwrap();
        counter.call("add", &[Value::I64(round)]).unwrap();
        expect += 2 * round;

        cores[1].stop();
        cores[1] = restart(&net, &reg, base.clone(), &root, &cores[1], 1);
        let report = cores[1].recovery_report().expect("recovery ran");
        assert_eq!(report.replayed, 1, "round {round}: {report:?}");
        assert!(
            report.duration_us < 5_000_000,
            "round {round}: recovery must be fast, took {}us",
            report.duration_us
        );
        assert_eq!(
            counter.call("get", &[]).unwrap(),
            Value::I64(expect),
            "round {round} lost acknowledged state"
        );
    }
    assert_eq!(counter.call("history_len", &[]).unwrap(), Value::I64(10));
    cleanup(&root, &cores);
}

// --- checkpoint/restore edge cases -----------------------------------------

/// Restoring the same snapshot twice is idempotent: the second restore
/// overwrites the first, leaving one working copy.
#[test]
fn restore_checkpoint_is_idempotent() {
    let (_net, _reg, cores, root) = wal_cluster(2, "idem");
    let counter = cores[0].new_named_complet("tally", "Counter", &[]).unwrap();
    counter.call("add", &[Value::I64(2)]).unwrap();

    let snapshot = cores[0].checkpoint().unwrap().snapshot;
    cores[0].release_complet(counter.id()).unwrap();

    let first = cores[1].restore_checkpoint(&snapshot).unwrap();
    let second = cores[1].restore_checkpoint(&snapshot).unwrap();
    assert_eq!(first, second, "same ids both times");
    assert!(cores[1].hosts(counter.id()));

    let tally = cores[1].lookup_stub("tally").unwrap();
    assert_eq!(tally.call("get", &[]).unwrap(), Value::I64(2));
    assert_eq!(tally.call("add", &[Value::I64(1)]).unwrap(), Value::I64(3));
    cleanup(&root, &cores);
}

/// A snapshot with a torn, corrupted or unrestorable frame is rejected
/// with a typed error, and rejected *whole*: a good frame ahead of the
/// bad one must not be installed (or published) first.
#[test]
fn damaged_snapshots_are_rejected_whole() {
    let (net, _reg, cores, root) = wal_cluster(3, "trunc");
    // One frame each: a Counter's from core1, a Message's from core2.
    let counter = cores[1].new_complet("Counter", &[]).unwrap();
    let counter_frame = cores[1].checkpoint().unwrap().snapshot;
    let message = cores[2].new_complet("Message", &[]).unwrap();
    let message_frame = cores[2].checkpoint().unwrap().snapshot;

    let torn = &counter_frame[..counter_frame.len() - 3];
    let mut flipped = counter_frame.clone();
    *flipped.last_mut().unwrap() ^= 0x01;
    for (snapshot, what) in [
        (torn.to_vec(), "torn"),
        ([&message_frame[..], torn].concat(), "good then torn"),
        (
            [&message_frame[..], &flipped].concat(),
            "good then bit-flipped",
        ),
    ] {
        let err = cores[0].restore_checkpoint(&snapshot);
        assert!(
            matches!(err, Err(FargoError::InvalidArgument(_))),
            "{what}: {err:?}"
        );
        assert_eq!(cores[0].complet_count(), 0, "{what}: a frame was installed");
    }

    // Good then unrestorable: a Core that knows `Message` but not
    // `Counter` must not install the message it could reconstruct.
    let lean_reg = CompletRegistry::new();
    common::Message::register(&lean_reg);
    let lean = Core::builder(&net, "lean")
        .registry(&lean_reg)
        .config(test_config())
        .spawn()
        .unwrap();
    let err = lean.restore_checkpoint(&[&message_frame[..], &counter_frame].concat());
    assert!(matches!(err, Err(FargoError::UnknownType(_))), "{err:?}");
    assert_eq!(lean.complet_count(), 0, "the good frame was installed");
    assert!(!lean.hosts(message.id()) && !cores[0].hosts(counter.id()));

    let rejecting = [cores[0].node().index(), lean.node().index()];
    let published = cores
        .iter()
        .chain([&lean])
        .flat_map(Core::journal_snapshot)
        .filter(|e| {
            e.kind == JournalKind::ShardApplied && e.peer.is_some_and(|p| rejecting.contains(&p))
        })
        .count();
    assert_eq!(published, 0, "a rejected restore published a placement");
    lean.stop();
    cleanup(&root, &cores);
}

/// A restore racing a concurrent inbound move: both land on the same
/// Core at once, and both complets come out live and callable.
#[test]
fn restore_races_concurrent_inbound_move() {
    let (_net, _reg, cores, root) = wal_cluster(3, "race");
    let counter = cores[0].new_complet("Counter", &[]).unwrap();
    counter.call("add", &[Value::I64(3)]).unwrap();
    let snapshot = cores[0].checkpoint().unwrap().snapshot;
    cores[0].release_complet(counter.id()).unwrap();

    let msg = cores[2]
        .new_complet("Message", &[Value::from("racer")])
        .unwrap();

    let restorer = cores[1].clone();
    let restoring = std::thread::spawn(move || restorer.restore_checkpoint(&snapshot));
    msg.move_to("core1").unwrap();
    restoring.join().unwrap().unwrap();

    assert!(cores[1].hosts(counter.id()));
    assert!(cores[1].hosts(msg.id()));
    let fresh = fresh_stub(&cores[1], counter.id(), "Counter");
    assert_eq!(fresh.call("get", &[]).unwrap(), Value::I64(3));
    assert_eq!(msg.call("print", &[]).unwrap(), Value::from("racer"));
    cleanup(&root, &cores);
}

/// Review-found regression: the acked-invocation State record used to
/// be appended *after* the slot lock was released, so with concurrent
/// invocations of the same complet, thread A could marshal state S1,
/// unlock, lose the race to thread B (which locked, mutated, and
/// appended S2), and then append the stale S1 last — which fold() keeps.
/// The append now happens under the slot lock; hammering one complet
/// from many threads and crashing must preserve the final acked state.
#[test]
fn concurrent_acked_invocations_survive_crash() {
    let (net, reg, mut cores, root) = wal_cluster(1, "concurrent-acks");
    let counter = cores[0].new_complet("Counter", &[]).unwrap();

    const THREADS: i64 = 4;
    const PER_THREAD: i64 = 100;
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let stub = counter.clone();
            s.spawn(move || {
                for _ in 0..PER_THREAD {
                    stub.call("add", &[Value::I64(1)]).unwrap();
                }
            });
        }
    });
    assert_eq!(
        counter.call("get", &[]).unwrap(),
        Value::I64(THREADS * PER_THREAD)
    );

    cores[0].stop();
    cores[0] = restart(&net, &reg, test_config(), &root, &cores[0], 0);
    assert_eq!(cores[0].recovery_report().expect("recovered").replayed, 1);

    let fresh = fresh_stub(&cores[0], counter.id(), "Counter");
    assert_eq!(
        fresh.call("get", &[]).unwrap(),
        Value::I64(THREADS * PER_THREAD),
        "a stale snapshot won the log tail over a newer acknowledged state"
    );
    assert_eq!(
        fresh.call("history_len", &[]).unwrap(),
        Value::I64(THREADS * PER_THREAD)
    );
    cleanup(&root, &cores);
}

/// E23-found regression: compaction used to re-marshal live slots and
/// then swap the log file — a mutation acknowledged between the slot
/// snapshot and the swap was silently erased, so a later crash lost
/// acked state. Compaction now folds the log itself under the append
/// lock, so hammering acknowledged adds while compacting concurrently
/// must lose nothing across a crash.
#[test]
fn compaction_never_drops_concurrently_acked_state() {
    let (net, reg, mut cores, root) = wal_cluster(1, "compact-race");
    let counter = cores[0].new_complet("Counter", &[]).unwrap();

    const ACKS: i64 = 300;
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        let compactor = &cores[0];
        s.spawn(|| {
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                compactor.wal_compact_now();
            }
        });
        for _ in 0..ACKS {
            counter.call("add", &[Value::I64(1)]).unwrap();
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });

    cores[0].stop();
    cores[0] = restart(&net, &reg, test_config(), &root, &cores[0], 0);
    assert_eq!(cores[0].recovery_report().expect("recovered").replayed, 1);

    let fresh = fresh_stub(&cores[0], counter.id(), "Counter");
    assert_eq!(
        fresh.call("get", &[]).unwrap(),
        Value::I64(ACKS),
        "every acknowledged add must survive concurrent compaction + crash"
    );
    assert_eq!(
        fresh.call("history_len", &[]).unwrap(),
        Value::I64(ACKS),
        "the acked history must be intact"
    );
    cleanup(&root, &cores);
}

// --- logs this build cannot, or can only partly, read ------------------------

/// A whole log file as the build before the typed record layout wrote
/// it: one `State` record for a `Counter` (`c0.1`, `n = 5`) as a
/// checksummed, string-keyed `Value` map.
const VALUE_TREE_LOG: [u8; 84] = [
    1, 0, 0, 0, 79, 32, 158, 79, 118, 8, 2, 7, 99, 111, 109, 112, 108, 101, 116, 8, 5, 5, 101, 112,
    111, 99, 104, 3, 0, 2, 105, 100, 5, 4, 99, 48, 46, 49, 5, 110, 97, 109, 101, 115, 7, 0, 5, 115,
    116, 97, 116, 101, 8, 1, 1, 110, 3, 10, 4, 116, 121, 112, 101, 5, 7, 67, 111, 117, 110, 116,
    101, 114, 4, 107, 105, 110, 100, 5, 5, 115, 116, 97, 116, 101,
];

/// An intact log in a record layout this build does not read is not a
/// torn tail: the Core must refuse to start — naming the file — and
/// leave it exactly as found, rather than recover "nothing" and compact
/// the acknowledged state away.
#[test]
fn log_in_another_record_layout_fails_spawn_and_is_left_as_found() {
    let root = wal_root("foreign");
    let log = root.join("core0").join("core0.wal");
    std::fs::create_dir_all(log.parent().unwrap()).unwrap();
    std::fs::write(&log, VALUE_TREE_LOG).unwrap();

    let net = fast_network();
    let err = Core::builder(&net, "core0")
        .registry(&registry())
        .config(wal_config(test_config(), &root, 0))
        .spawn()
        .expect_err("a log of another layout must not be recovered from");
    assert!(err.to_string().contains("core0.wal"), "{err}");
    assert_eq!(std::fs::read(&log).unwrap(), VALUE_TREE_LOG);
    let _ = std::fs::remove_dir_all(&root);
}

/// A torn tail is damage, not another layout: the Core starts, recovers
/// the acknowledged prefix, and reports the tear.
#[test]
fn torn_log_tail_still_recovers_its_prefix() {
    let (net, reg, mut cores, root) = wal_cluster(1, "torn");
    let counter = cores[0].new_complet("Counter", &[]).unwrap();
    counter.call("add", &[Value::I64(5)]).unwrap();
    counter.call("add", &[Value::I64(1)]).unwrap();
    cores[0].stop();

    // Tear the last record (the state after the second add).
    let log = root.join("core0").join("core0.wal");
    let len = std::fs::metadata(&log).unwrap().len();
    let file = std::fs::OpenOptions::new().write(true).open(&log).unwrap();
    file.set_len(len - 3).unwrap();
    drop(file);

    cores[0] = restart(&net, &reg, test_config(), &root, &cores[0], 0);
    let report = cores[0].recovery_report().expect("recovery ran");
    assert_eq!((report.replayed, report.corrupt), (1, 1), "{report:?}");
    let fresh = fresh_stub(&cores[0], counter.id(), "Counter");
    assert_eq!(fresh.call("get", &[]).unwrap(), Value::I64(5));
    cleanup(&root, &cores);
}

// --- restarts without a log -------------------------------------------------

/// Crashes core `i` and restarts it on its old node with no write-ahead
/// log: a Core that remembers nothing of its previous life.
fn restart_unlogged(net: &Network, reg: &CompletRegistry, old: &Core, i: usize) -> Core {
    old.stop();
    let ep = net.restart_node(old.node()).expect("restart node");
    Core::builder(net, &format!("core{i}"))
        .endpoint(ep)
        .registry(reg)
        .config(test_config())
        .spawn()
        .expect("restarted core must spawn")
}

/// A reference to `id` whose hint names `host`, as one handed out before
/// a restart still does.
fn hinted_stub(at: &Core, id: CompletId, host: &Core) -> BoundRef {
    at.stub(CompletRef::from_descriptor(RefDescriptor::link(
        id,
        "Counter",
        host.node().index(),
    )))
}

/// A caller restarted without a log mints its request ids above its
/// previous life's, so the callee executes its calls rather than taking
/// them for copies of requests it answered before the restart.
#[test]
fn an_unlogged_caller_restart_is_served_fresh() {
    let (net, reg, mut cores) = common::cluster_on(fast_network(), 2, test_config(), false);
    let counter = cores[0].new_complet_at("core1", "Counter", &[]).unwrap();
    for _ in 0..5 {
        counter.call("add", &[]).unwrap();
    }
    cores[0] = restart_unlogged(&net, &reg, &cores[0], 0);
    let stub = hinted_stub(&cores[0], counter.id(), &cores[1]);
    let budget = test_config().rpc_timeout / 5;
    for (method, expect) in [("add", 6), ("add", 7), ("add", 8), ("get", 8)] {
        let started = Instant::now();
        assert_eq!(stub.call(method, &[]).unwrap(), Value::I64(expect));
        assert!(
            started.elapsed() < budget,
            "{method} took {:?}",
            started.elapsed()
        );
    }
    common::teardown(&cores);
}

/// A host restarted without a log mints its complet ids above its
/// previous life's: a newcomer never takes the id of a complet that
/// moved away before the restart, so a reference still hinted at the old
/// host finds the complet it names.
#[test]
fn an_unlogged_host_restart_never_remints_a_moved_complets_id() {
    let (net, reg, mut cores) = common::cluster_on(fast_network(), 3, test_config(), false);
    let a = cores[1].new_complet("Counter", &[]).unwrap();
    a.call("add", &[Value::I64(100)]).unwrap();
    a.move_to("core2").unwrap();
    cores[1] = restart_unlogged(&net, &reg, &cores[1], 1);
    let b = cores[1].new_complet("Counter", &[]).unwrap();
    b.call("add", &[Value::I64(7)]).unwrap();
    assert_ne!(b.id(), a.id());
    let stale = hinted_stub(&cores[0], a.id(), &cores[1]);
    assert_eq!(stale.call("get", &[]).unwrap(), Value::I64(100));
    common::teardown(&cores);
}

// --- a log the parent build wrote -------------------------------------------

define_complet! {
    /// Holds the value it is given: a complet whose state is records.
    complet Shelf {
        state { item: Value = Value::Null }
        fn put(&mut self, _ctx, args) {
            self.item = args.first().cloned().unwrap_or(Value::Null);
            Ok(Value::Null)
        }
        fn item(&mut self, _ctx, _args) {
            Ok(self.item.clone())
        }
    }
}

fn shelf_item() -> Value {
    Value::map([
        (
            "rows",
            Value::List(fargo_wire::testgen::graph_records(2, 7)),
        ),
        (
            "meta",
            Value::map([("z", Value::I64(1)), ("a", Value::Null)]),
        ),
    ])
}

/// The first two frames of `core0.wal` as commit 91edd09 — the last
/// build whose `Value::Map` was a `BTreeMap<String, Value>` — wrote it
/// for `new_complet("Shelf")` then `put(shelf_item())`: the `State`
/// record of the new complet (`c0.1`, `item` null) and the one the
/// acknowledged `put` left.
const TREE_MAP_LOG: [u8; 198] = [
    1, 0, 0, 0, 24, 180, 90, 65, 215, 16, 0, 0, 1, 5, 83, 104, 101, 108, 102, 0, 0, 8, 1, 4, 105,
    116, 101, 109, 0, 1, 0, 0, 0, 164, 38, 3, 78, 147, 16, 0, 0, 1, 5, 83, 104, 101, 108, 102, 0,
    0, 8, 1, 4, 105, 116, 101, 109, 8, 2, 4, 109, 101, 116, 97, 8, 2, 1, 97, 0, 1, 122, 3, 2, 4,
    114, 111, 119, 115, 7, 2, 8, 3, 1, 107, 5, 16, 107, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48,
    48, 48, 48, 48, 4, 116, 97, 103, 115, 7, 3, 5, 6, 116, 48, 48, 48, 48, 48, 5, 6, 116, 48, 48,
    48, 48, 49, 5, 6, 116, 48, 48, 48, 48, 50, 1, 118, 3, 14, 8, 3, 1, 107, 5, 16, 107, 48, 48, 48,
    48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 49, 4, 116, 97, 103, 115, 7, 3, 5, 6, 116, 48, 48,
    48, 48, 51, 5, 6, 116, 48, 48, 48, 48, 52, 5, 6, 116, 48, 48, 48, 48, 53, 1, 118, 3, 142, 128,
    128, 128, 32,
];

/// The map's representation is not its encoding: a log of the build
/// before the sorted-vector map replays here, and the same state is
/// logged here in the compact forms — shorter, and replayed in turn.
#[test]
fn log_written_before_the_sorted_vector_map_replays_and_is_relogged_shorter() {
    let root = wal_root("treemap");
    let log = root.join("core0").join("core0.wal");
    std::fs::create_dir_all(log.parent().unwrap()).unwrap();
    std::fs::write(&log, TREE_MAP_LOG).unwrap();

    let net = fast_network();
    let reg = registry();
    Shelf::register(&reg);
    let core = Core::builder(&net, "core0")
        .registry(&reg)
        .config(wal_config(test_config(), &root, 0))
        .spawn()
        .expect("the parent's log must replay");
    let report = core.recovery_report().expect("recovery ran");
    assert_eq!((report.replayed, report.corrupt), (1, 0), "{report:?}");
    let shelf = fresh_stub(&core, CompletId::new(0, 1), "Shelf");
    assert_eq!(shelf.call("item", &[]).unwrap(), shelf_item());

    // That acknowledged call logged the state again: the second record
    // names the fields once, and its short strings and lists carry their
    // lengths in their tags.
    core.stop();
    let relogged = std::fs::read(&log).unwrap();
    let relogged = last_frame(&relogged);
    let put_frame = &TREE_MAP_LOG[29..];
    assert!(
        relogged.len() < put_frame.len(),
        "{} bytes relogged, {} in the parent's frame",
        relogged.len(),
        put_frame.len()
    );
    let core = restart(&net, &reg, test_config(), &root, &core, 0);
    let report = core.recovery_report().expect("recovery ran");
    assert_eq!((report.replayed, report.corrupt), (1, 0), "{report:?}");
    let shelf = fresh_stub(&core, CompletId::new(0, 1), "Shelf");
    assert_eq!(shelf.call("item", &[]).unwrap(), shelf_item());
    cleanup(&root, &[core]);
}

/// The last frame of a log: `[version][len u32 BE]` and `len` bytes.
fn last_frame(log: &[u8]) -> &[u8] {
    let mut at = 0;
    loop {
        let len = u32::from_be_bytes(log[at + 1..at + 5].try_into().unwrap()) as usize;
        if at + 5 + len == log.len() {
            return &log[at..];
        }
        at += 5 + len;
    }
}

/// A survivor this Core's registry cannot rebuild is dropped, and the
/// recovery report counts it.
#[test]
fn a_survivor_of_an_unregistered_type_is_reported_dropped() {
    let root = wal_root("dropped");
    let net = fast_network();
    let reg = registry();
    Shelf::register(&reg);
    let core = Core::builder(&net, "core0")
        .registry(&reg)
        .config(wal_config(test_config(), &root, 0))
        .spawn()
        .expect("core must spawn");
    let shelf = core.new_complet("Shelf", &[]).unwrap();
    shelf.call("put", &[shelf_item()]).unwrap();
    core.stop();

    let without_shelf = registry();
    let core = restart(&net, &without_shelf, test_config(), &root, &core, 0);
    let report = core.recovery_report().expect("recovery ran");
    assert_eq!((report.replayed, report.dropped), (0, 1), "{report:?}");
    cleanup(&root, &[core]);
}
