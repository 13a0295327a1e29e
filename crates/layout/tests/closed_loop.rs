//! Closed-loop integration tests: with the layout rule loaded, a skewed
//! workload must converge to co-location under simnet jitter, an idle
//! cluster must plan nothing, and a failed plan step must roll back
//! cleanly with exactly one live copy per complet.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fargo_core::{
    define_complet, BoundRef, CompletRef, CompletRegistry, Core, CoreConfig, FargoError,
    JournalKind, Value,
};
use fargo_layout::{
    register_plan_action, Executor, LayoutPlan, MoveStep, Planner, PlannerConfig, Rebalancer,
    LAYOUT_RULES,
};
use fargo_script::{LoadedScript, ScriptEngine, ScriptValue};
use fargo_wire::CompletId;
use simnet::{LinkConfig, Network, NetworkConfig};

define_complet! {
    /// A tiny service the driver hammers.
    pub complet Echo {
        state {
            hits: i64 = 0,
        }
        fn touch(&mut self, _ctx, _args) {
            self.hits += 1;
            Ok(Value::I64(self.hits))
        }
    }
}

define_complet! {
    /// Calls the services it holds references to.
    pub complet Hub {
        state {
            deps: Vec<CompletRef> = Vec::new(),
        }
        fn add_dep(&mut self, _ctx, args) {
            let d = args.first().and_then(Value::as_ref_desc).cloned()
                .ok_or_else(|| FargoError::InvalidArgument("need a ref".into()))?;
            self.deps.push(CompletRef::from_descriptor(d));
            Ok(Value::Null)
        }
        fn call_dep(&mut self, ctx, args) {
            let i = args.first().and_then(Value::as_i64).unwrap_or(0) as usize;
            let d = self.deps.get(i).cloned()
                .ok_or_else(|| FargoError::App("no such dep".into()))?;
            ctx.call(&d, "touch", &[])
        }
    }
}

fn registry() -> CompletRegistry {
    let reg = CompletRegistry::new();
    Echo::register(&reg);
    Hub::register(&reg);
    reg
}

fn jittery_network(seed: u64) -> Network {
    Network::new(NetworkConfig {
        default_link: Some(
            LinkConfig::new(Duration::from_millis(1)).with_jitter(Duration::from_micros(500)),
        ),
        seed,
        ..NetworkConfig::default()
    })
}

fn spawn_cluster(net: &Network, n: usize, config: &CoreConfig) -> Vec<Core> {
    let reg = registry();
    (0..n)
        .map(|i| {
            Core::builder(net, &format!("core{i}"))
                .registry(&reg)
                .config(config.clone())
                .spawn()
                .expect("core must spawn")
        })
        .collect()
}

/// Loads the shipped layout rule at every Core of `cores`, its `plan`
/// action running `cfg`'s planner at `cores[0]` (what the shell's
/// `autolayout on` does with the default tunables).
fn load_rule(cores: &[Core], cfg: PlannerConfig) -> LoadedScript {
    let engine = ScriptEngine::new(cores[0].clone());
    let rebalancer = Rebalancer::with_config(cores[0].clone(), cfg);
    register_plan_action(&engine, Arc::new(rebalancer));
    let names = cores.iter().map(|c| ScriptValue::Str(c.name().to_owned()));
    let list = ScriptValue::List(names.collect());
    engine
        .load(LAYOUT_RULES, vec![list])
        .expect("the layout rule loads")
}

/// A `fargo_planner_*` counter of `core`.
fn planner_count(core: &Core, name: &str) -> u64 {
    core.telemetry()
        .counter(name, &[("core", core.name())])
        .get()
}

/// The last planning round at `core` found nothing to move.
fn converged(core: &Core) -> bool {
    let labels = [("core", core.name())];
    let stable = core
        .telemetry()
        .gauge("fargo_planner_stable_rounds", &labels);
    stable.get() > 0.0
}

/// The `planner_*` series of `core`, for failure messages.
fn planner_status(core: &Core) -> String {
    let count = |name| planner_count(core, name);
    format!(
        "rounds={} moves={} rollbacks={} converged={}",
        count("fargo_planner_rounds_total"),
        count("fargo_planner_executed_moves_total"),
        count("fargo_planner_rollbacks_total"),
        converged(core)
    )
}

/// `edges` requests `core` has sent: what a planning round asks first.
fn edge_requests(core: &Core) -> u64 {
    let labels = [("core", core.name()), ("kind", "edges")];
    core.telemetry()
        .counter("fargo_msg_out_total", &labels)
        .get()
}

/// How many Cores currently host `id` (the single-live-copy invariant).
fn live_copies(cores: &[Core], id: CompletId) -> usize {
    cores.iter().filter(|c| c.hosts(id)).count()
}

/// For every executed plan in the cluster's merged journal: the move
/// transactions it ran (each destination journals one `MovePrepared` per
/// transaction) and the distinct `(from, to)` pairs among them.
fn transactions_per_plan(core: &Core) -> Vec<(usize, usize)> {
    let mut plans: Vec<Vec<(Option<u32>, u32)>> = Vec::new();
    for e in core.collect_journal() {
        match (e.kind, plans.last_mut()) {
            (JournalKind::PlanProposed, _) => plans.push(Vec::new()),
            (JournalKind::MovePrepared, Some(pairs)) => pairs.push((e.peer, e.core)),
            _ => {}
        }
    }
    let distinct = |pairs: &Vec<_>| pairs.iter().collect::<BTreeSet<_>>().len();
    plans.iter().map(|p| (p.len(), distinct(p))).collect()
}

/// A plan moves as one transaction per `(from, to)` pair.
fn assert_one_transaction_per_pair(core: &Core, what: &str) {
    let plans = transactions_per_plan(core);
    assert!(!plans.is_empty(), "{what}: no plan was executed");
    assert!(
        plans
            .iter()
            .all(|&(transactions, pairs)| transactions == pairs),
        "{what}: (transactions, (from, to) pairs) per plan: {plans:?}"
    );
}

#[test]
fn skewed_traffic_converges_to_colocation() {
    let net = jittery_network(7);
    let config = CoreConfig {
        monitor_tick: Duration::from_millis(10),
        rpc_timeout: Duration::from_secs(5),
        ..CoreConfig::default()
    };
    let cores = spawn_cluster(&net, 2, &config);

    // The service lives on core1; all traffic comes from core0's driver
    // (journaled as the app pseudo-complet c0.0, pinned to core0).
    let echo = cores[0].new_complet_at("core1", "Echo", &[]).unwrap();
    let id = echo.id();
    assert!(cores[1].hosts(id));

    // A low dead band so the test turns quickly.
    let rule = load_rule(
        &cores,
        PlannerConfig {
            hysteresis: 0.01,
            ..PlannerConfig::default()
        },
    );

    // Drive skewed traffic: every call core0 issues leaves it, and the
    // rule pulls the service to core0.
    let deadline = Instant::now() + Duration::from_secs(20);
    while !cores[0].hosts(id) {
        assert!(
            Instant::now() < deadline,
            "planner never co-located the service with its caller; {}",
            planner_status(&cores[0])
        );
        for _ in 0..10 {
            echo.call("touch", &[]).unwrap();
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    // The firing that moved it ends with a move-free round, journaled
    // as plan_converge.
    let deadline = Instant::now() + Duration::from_secs(20);
    while !converged(&cores[0]) {
        assert!(
            Instant::now() < deadline,
            "planner kept churning after co-location; {}",
            planner_status(&cores[0])
        );
        for _ in 0..10 {
            echo.call("touch", &[]).unwrap();
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(cores[0].hosts(id), "settled layout keeps the co-location");
    // Counted once the move has returned: until the source has the
    // commit's answer, its quiesced copy still holds a slot there.
    assert_eq!(live_copies(&cores, id), 1, "exactly one live copy");
    assert_one_transaction_per_pair(&cores[0], "skewed");
    let kinds: Vec<JournalKind> = cores[0].collect_journal().iter().map(|e| e.kind).collect();
    assert!(
        kinds.contains(&JournalKind::PlanProposed),
        "the executed plan must be journaled"
    );
    assert!(
        kinds.contains(&JournalKind::PlanStep),
        "each step must be journaled"
    );
    assert!(
        kinds.contains(&JournalKind::PlanConverged),
        "convergence must be journaled"
    );

    rule.cancel();
    for c in &cores {
        c.stop();
    }
}

/// Inter-Core messages so far, over every directed link between
/// `cores`, less every retransmission: what the protocol sent, not what
/// a busy host sent again.
fn remote_messages(net: &Network, cores: &[Core]) -> u64 {
    let mut sent = 0;
    for a in cores {
        for b in cores.iter().filter(|b| b.node() != a.node()) {
            sent += net.link_stats(a.node(), b.node()).messages;
        }
    }
    sent - cores.iter().map(|c| c.reliability_stats().0).sum::<u64>()
}

/// Three Hubs, one per Core, each calling two Echoes placed on the two
/// other Cores: every call of the workload crosses a link.
fn scattered_hubs(cores: &[Core]) -> Vec<BoundRef> {
    (0..cores.len())
        .map(|home| {
            let hub = cores[home].new_complet("Hub", &[]).unwrap();
            for d in 1..=2 {
                let at = cores[(home + d) % cores.len()].name();
                let echo = cores[home].new_complet_at(at, "Echo", &[]).unwrap();
                hub.call("add_dep", &[echo.complet_ref().descriptor().into()])
                    .unwrap();
            }
            hub
        })
        .collect()
}

/// Remote messages spent by `passes` rounds of every hub calling both
/// of its dependencies.
fn drive(net: &Network, cores: &[Core], hubs: &[BoundRef], passes: usize) -> u64 {
    let before = remote_messages(net, cores);
    for _ in 0..passes {
        for hub in hubs {
            for d in 0..2 {
                hub.call("call_dep", &[Value::I64(d)]).unwrap();
            }
        }
    }
    remote_messages(net, cores) - before
}

/// Observed traffic, not the deployer, decides placement: from a layout
/// where every call crosses a link, the layout rule cuts the workload's
/// inter-Core messages by at least 30%. With no rule loaded, no
/// planning round runs and no peer is asked for its edge rows.
#[test]
fn planner_cuts_remote_messages_and_no_rule_plans_nothing() {
    let config = CoreConfig {
        monitor_tick: Duration::from_millis(10),
        rpc_timeout: Duration::from_secs(5),
        ..CoreConfig::default()
    };
    for seed in [7, 11, 23] {
        let net = jittery_network(seed);
        let cores = spawn_cluster(&net, 3, &config);
        let hubs = scattered_hubs(&cores);
        drive(&net, &cores, &hubs, 20);
        let fixed = drive(&net, &cores, &hubs, 60);

        // Thirty ticks of traffic with no rule loaded.
        drive(&net, &cores, &hubs, 20);
        std::thread::sleep(config.monitor_tick * 30);
        let rounds = planner_count(&cores[0], "fargo_planner_rounds_total");
        assert_eq!(rounds, 0, "seed {seed}: no rule loaded, yet a round ran");
        let asked = edge_requests(&cores[0]);
        assert_eq!(
            asked, 0,
            "seed {seed}: no rule loaded, yet edge rows were asked for"
        );

        let rule = load_rule(
            &cores,
            PlannerConfig {
                hysteresis: 0.02,
                max_moves: 8,
                ..PlannerConfig::default()
            },
        );
        let moves = || planner_count(&cores[0], "fargo_planner_executed_moves_total");
        let deadline = Instant::now() + Duration::from_secs(20);
        while !(moves() > 0 && converged(&cores[0])) {
            assert!(
                Instant::now() < deadline,
                "seed {seed}: no convergence; {}",
                planner_status(&cores[0])
            );
            drive(&net, &cores, &hubs, 1);
            std::thread::sleep(Duration::from_millis(5));
        }
        rule.cancel();
        assert_one_transaction_per_pair(&cores[0], &format!("seed {seed}"));
        let planned = drive(&net, &cores, &hubs, 60);
        println!(
            "seed {seed}: {planned} remote messages planned vs {fixed} static; {}",
            planner_status(&cores[0])
        );
        assert!(
            planned * 10 <= fixed * 7,
            "seed {seed}: {planned} remote messages planned vs {fixed} static"
        );
        for c in &cores {
            c.stop();
        }
    }
}

/// Nothing runs on a timer: on an idle cluster every Core samples its
/// `remoteShare` for the rule, no call moves it off 0, and in 120
/// monitor ticks no round runs and no Core is asked for its edge rows.
#[test]
fn an_idle_cluster_with_the_rule_loaded_plans_nothing() {
    let net = jittery_network(7);
    let config = CoreConfig {
        monitor_tick: Duration::from_millis(10),
        ..CoreConfig::default()
    };
    let cores = spawn_cluster(&net, 3, &config);
    let rule = load_rule(&cores, PlannerConfig::default());
    std::thread::sleep(config.monitor_tick * 120);
    for c in &cores {
        assert!(c.monitor().samples() > 0, "{} never sampled", c.name());
        assert_eq!(edge_requests(c), 0, "{} asked for edge rows", c.name());
    }
    let rounds = planner_count(&cores[0], "fargo_planner_rounds_total");
    assert_eq!(rounds, 0, "{}", planner_status(&cores[0]));
    rule.cancel();
    for c in &cores {
        c.stop();
    }
}

#[test]
fn failed_step_rolls_back_to_single_copies() {
    let net = jittery_network(11);
    let config = CoreConfig {
        monitor_tick: Duration::from_millis(10),
        // Short timeouts so the move to the dead Core fails fast.
        rpc_timeout: Duration::from_millis(300),
        transit_wait: Duration::from_millis(300),
        ..CoreConfig::default()
    };
    let cores = spawn_cluster(&net, 3, &config);

    let a = cores[0].new_complet("Echo", &[]).unwrap();
    let b = cores[0].new_complet("Echo", &[]).unwrap();

    // core2 dies before the plan runs; its step must fail and undo the
    // step that already executed.
    net.set_node_up(cores[2].node(), false).unwrap();

    let plan = LayoutPlan {
        id: 99,
        steps: vec![
            MoveStep {
                complet: a.id(),
                from: 0,
                to: 1,
                predicted_gain: 2.0,
            },
            MoveStep {
                complet: b.id(),
                from: 0,
                to: 2,
                predicted_gain: 1.0,
            },
        ],
        current_cost: 3.0,
        planned_cost: 0.0,
    };
    let report = Executor::new(cores[0].clone()).execute(&plan);

    assert!(!report.complete(&plan));
    assert_eq!(report.executed, 1, "the first step lands");
    assert_eq!(report.failures.len(), 1, "the second step fails");
    assert_eq!(report.rolled_back, 1, "the first step is undone");

    // Rollback restores the original placement with one copy each.
    assert!(cores[0].hosts(a.id()), "a must be back on core0");
    assert!(cores[0].hosts(b.id()), "b never left core0");
    assert_eq!(live_copies(&cores[..2], a.id()), 1);
    assert_eq!(live_copies(&cores[..2], b.id()), 1);

    // The decision trail is in the journal: proposal, steps, rollback.
    let events = cores[0].collect_journal();
    let has = |k: JournalKind| events.iter().any(|e| e.kind == k);
    assert!(has(JournalKind::PlanProposed));
    assert!(has(JournalKind::PlanStep));
    assert!(has(JournalKind::PlanRollback));

    for c in &cores {
        c.stop();
    }
}

/// Two steps with one source and destination are one transaction: when
/// one of them cannot move (`b` is not on core0, where the plan thinks
/// it is), the other does not move either, and nothing needs undoing.
#[test]
fn a_group_with_a_failing_step_moves_nothing() {
    let net = jittery_network(11);
    let cores = spawn_cluster(&net, 3, &CoreConfig::default());
    let a = cores[0].new_complet("Echo", &[]).unwrap();
    let b = cores[0].new_complet_at("core1", "Echo", &[]).unwrap();
    let plan = LayoutPlan {
        id: 100,
        steps: [a.id(), b.id()]
            .into_iter()
            .map(|complet| MoveStep {
                complet,
                from: 0,
                to: 2,
                predicted_gain: 1.0,
            })
            .collect(),
        current_cost: 2.0,
        planned_cost: 0.0,
    };
    let report = Executor::new(cores[0].clone()).execute(&plan);

    assert_eq!(report.failures.len(), 1, "{report:?}");
    assert_eq!((report.executed, report.rolled_back), (0, 0), "{report:?}");
    assert!(cores[0].hosts(a.id()), "a never left core0");
    assert!(cores[1].hosts(b.id()), "b never left core1");
    for id in [a.id(), b.id()] {
        assert_eq!(live_copies(&cores, id), 1);
    }
    for c in &cores {
        c.stop();
    }
}

#[test]
fn planner_preview_reads_live_traffic() {
    let net = jittery_network(23);
    let config = CoreConfig {
        monitor_tick: Duration::from_millis(10),
        ..CoreConfig::default()
    };
    let cores = spawn_cluster(&net, 2, &config);
    let echo = cores[0].new_complet_at("core1", "Echo", &[]).unwrap();
    for _ in 0..50 {
        echo.call("touch", &[]).unwrap();
    }

    let planner = Planner::new(
        cores[0].clone(),
        PlannerConfig {
            hysteresis: 0.01,
            ..PlannerConfig::default()
        },
    );
    // Preview plans without executing: the skew is visible, the move is
    // proposed, and nothing actually moves.
    let plan = planner.preview();
    assert_eq!(
        plan.steps.len(),
        1,
        "one skewed service, one move: {plan:?}"
    );
    assert_eq!(plan.steps[0].complet, echo.id());
    assert_eq!(plan.steps[0].to, 0, "towards the caller's Core");
    assert!(plan.predicted_delta() > 0.0);
    assert!(cores[1].hosts(echo.id()), "preview must not move anything");

    // The same signals as a placement map, for the record.
    let placement: BTreeMap<CompletId, u32> = planner.placement();
    assert_eq!(placement.get(&echo.id()), Some(&1));

    for c in &cores {
        c.stop();
    }
}

/// The journal is a flight recorder, not an input: the skewed scenario
/// above converges just the same on a cluster that records nothing.
#[test]
fn converges_with_journaling_off() {
    let net = jittery_network(7);
    let config = CoreConfig {
        monitor_tick: Duration::from_millis(10),
        rpc_timeout: Duration::from_secs(5),
        ..CoreConfig::default()
    }
    .with_journaling(false);
    let cores = spawn_cluster(&net, 2, &config);
    let echo = cores[0].new_complet_at("core1", "Echo", &[]).unwrap();
    let id = echo.id();

    let rule = load_rule(
        &cores,
        PlannerConfig {
            hysteresis: 0.01,
            ..PlannerConfig::default()
        },
    );
    let deadline = Instant::now() + Duration::from_secs(20);
    while !(cores[0].hosts(id) && converged(&cores[0])) {
        assert!(
            Instant::now() < deadline,
            "no co-location without a journal; {}",
            planner_status(&cores[0])
        );
        for _ in 0..10 {
            echo.call("touch", &[]).unwrap();
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(live_copies(&cores, id), 1, "exactly one live copy");
    assert!(
        cores[0].collect_journal().is_empty(),
        "nothing was recorded"
    );

    rule.cancel();
    for c in &cores {
        c.stop();
    }
}

/// Bytes of replies `core` has received so far: what its requests pulled.
fn bytes_in(core: &Core) -> u64 {
    let replies = [("core", core.name()), ("kind", "reply")];
    let counter = core
        .telemetry()
        .counter("fargo_msg_in_bytes_total", &replies);
    counter.get()
}

/// Bytes the planning Core receives during one `plan()`, and during one
/// pull of the cluster journal, on a 3-Core cluster whose journal rings
/// (of `journal_capacity` events) are full.
fn plan_and_journal_pull_bytes(journal_capacity: usize) -> (u64, u64) {
    let net = jittery_network(23);
    let config = CoreConfig::default().with_journal_capacity(journal_capacity);
    let cores = spawn_cluster(&net, 3, &config);
    // Four services on each peer, called from every Core (so every
    // Core's edge table has eight rows) and mostly from core0.
    for peer in ["core1", "core2"] {
        for _ in 0..4 {
            let echo = cores[0].new_complet_at(peer, "Echo", &[]).unwrap();
            for (c, calls) in cores.iter().zip([25, 5, 5]) {
                let stub = c.stub(echo.complet_ref().clone());
                for _ in 0..calls {
                    stub.call("touch", &[]).unwrap();
                }
            }
        }
    }
    for c in &cores {
        for i in 0..journal_capacity {
            c.journal_note(JournalKind::PlanStep, "c9.9", "fill", &i.to_string(), None);
        }
        assert_eq!(c.journal_snapshot().len(), journal_capacity);
    }

    let planner = fargo_layout::Planner::new(cores[0].clone(), PlannerConfig::default());
    let before = bytes_in(&cores[0]);
    let plan = planner.plan();
    let planned = bytes_in(&cores[0]) - before;
    assert!(!plan.is_empty(), "the skew towards core0 is seen: {plan:?}");

    let before = bytes_in(&cores[0]);
    cores[0].collect_journal();
    let pulled = bytes_in(&cores[0]) - before;
    for c in &cores {
        c.stop();
    }
    (planned, pulled)
}

/// What a planning round pulls over the network is the Cores' bounded
/// tables: the same bytes whatever the journal rings hold, and a small
/// fraction of what pulling those rings (every round, before the edge
/// table replaced them as the planner's input) costs.
#[test]
fn plan_pulls_bounded_tables_whatever_the_journal_holds() {
    let (small, small_journal) = plan_and_journal_pull_bytes(4_096);
    let (large, large_journal) = plan_and_journal_pull_bytes(65_536);
    println!(
        "plan(): {small} B at journal_capacity 4096 (one journal pull: {small_journal} B), \
         {large} B at 65536 (one journal pull: {large_journal} B)"
    );
    assert!(
        small.abs_diff(large) <= 32,
        "a plan pulled {small} B beside 4,096-event rings, {large} B beside 65,536-event ones"
    );
    assert!(
        small * 10 <= small_journal,
        "a plan pulled {small} B, one journal pull {small_journal} B"
    );
}
