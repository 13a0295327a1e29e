//! Shell integration tests against a live cluster.

use std::time::{Duration, Instant};

use fargo_core::{
    define_complet, CompletRef, CompletRegistry, Core, CoreConfig, FargoError, Value,
};
use fargo_shell::{Shell, ShellError};
use simnet::{LinkConfig, Network, NetworkConfig};

define_complet! {
    pub complet Message {
        state { text: String = "hello".to_owned() }
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
    /// `nap <ms>` sleeps; `relay <peer> <ms>` naps through `peer`, so a
    /// relayed call is also an invocation issued where the relay runs.
    pub complet Napper {
        state { naps: i64 = 0 }
        fn nap(&mut self, _ctx, args) {
            let ms = args.first().and_then(Value::as_i64).unwrap_or(0);
            std::thread::sleep(Duration::from_millis(ms as u64));
            self.naps += 1;
            Ok(Value::Null)
        }
        fn relay(&mut self, ctx, args) {
            let peer = args.first().and_then(Value::as_ref_desc).cloned()
                .ok_or_else(|| FargoError::InvalidArgument("peer".into()))?;
            ctx.call(&CompletRef::from_descriptor(peer), "nap", &args[1..])
        }
    }
}

fn setup() -> (Vec<Core>, Shell) {
    let net = Network::new(NetworkConfig {
        default_link: Some(LinkConfig::instant()),
        ..NetworkConfig::default()
    });
    let reg = CompletRegistry::new();
    Message::register(&reg);
    let cores: Vec<Core> = (0..3)
        .map(|i| {
            Core::builder(&net, &format!("core{i}"))
                .registry(&reg)
                .spawn()
                .unwrap()
        })
        .collect();
    let shell = Shell::new(cores[0].clone());
    (cores, shell)
}

#[test]
fn help_lists_commands() {
    let (cores, shell) = setup();
    let help = shell.exec("help").unwrap();
    for cmd in ["cores", "move", "retype", "profile", "script"] {
        assert!(help.contains(cmd), "help must mention {cmd}");
    }
    for c in &cores {
        c.stop();
    }
}

#[test]
fn cores_ls_new_call_move_whereis_roundtrip() {
    let (cores, shell) = setup();

    let out = shell.exec("cores").unwrap();
    assert!(out.contains("core0") && out.contains("core2"));

    let created = shell.exec("new Message at core1 as postbox").unwrap();
    assert!(created.contains("core1"));

    let ls = shell.exec("ls core1").unwrap();
    assert!(ls.contains("Message"));

    assert_eq!(shell.exec("call postbox print").unwrap(), "\"hello\"");
    shell.exec("call postbox set_text goodbye").unwrap();
    assert_eq!(shell.exec("call postbox print").unwrap(), "\"goodbye\"");

    let moved = shell.exec("move postbox to core2").unwrap();
    assert!(moved.contains("core2"));
    assert!(shell.exec("whereis postbox").unwrap().contains("core2"));
    assert_eq!(shell.exec("call postbox print").unwrap(), "\"goodbye\"");

    for c in &cores {
        c.stop();
    }
}

#[test]
fn bind_lookup_by_id_and_remote_lookup() {
    let (cores, shell) = setup();
    let out = shell.exec("new Message").unwrap();
    // Extract the id (format "created cX.Y (Message) at core0").
    let id = out.split_whitespace().nth(1).unwrap().to_owned();
    shell.exec(&format!("bind mailbox {id}")).unwrap();
    assert!(shell.exec("lookup mailbox").unwrap().contains(&id));
    // Calls through the raw id work too.
    assert_eq!(
        shell.exec(&format!("call {id} print")).unwrap(),
        "\"hello\""
    );
    for c in &cores {
        c.stop();
    }
}

#[test]
fn retype_and_refs() {
    let (cores, shell) = setup();
    shell.exec("new Message as m").unwrap();
    let out = shell.exec("retype m pull").unwrap();
    assert!(out.contains("pull"));
    assert!(matches!(
        shell.exec("retype m warp"),
        Err(ShellError::Core(_))
    ));
    let refs = shell.exec("refs").unwrap();
    assert!(refs.contains("local"));
    for c in &cores {
        c.stop();
    }
}

#[test]
fn profile_and_ping() {
    let (cores, shell) = setup();
    shell.exec("new Message").unwrap();
    std::thread::sleep(Duration::from_millis(120));
    let load = shell.exec("profile completLoad").unwrap();
    assert!(load.contains("completLoad = 1"));
    assert!(shell.exec("ping core1").unwrap().contains("rtt"));
    assert!(shell.exec("ping atlantis").is_err());
    for c in &cores {
        c.stop();
    }
}

#[test]
fn inline_scripts_load_through_the_shell() {
    let (cores, shell) = setup();
    let out = shell
        .exec("script on arrived firedby $c listenAt \"core1\" do log $c end")
        .unwrap();
    assert!(out.contains("1 subscription"));
    shell.exec("new Message at core1").unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(3);
    while !shell.engine().log_lines().iter().any(|l| l == "core1") {
        assert!(std::time::Instant::now() < deadline, "script never logged");
        std::thread::sleep(Duration::from_millis(5));
    }
    for c in &cores {
        c.stop();
    }
}

#[test]
fn errors_are_reported_not_fatal() {
    let (cores, shell) = setup();
    assert!(matches!(
        shell.exec("frobnicate"),
        Err(ShellError::UnknownCommand(_))
    ));
    assert!(matches!(shell.exec("move"), Err(ShellError::Usage(_))));
    assert!(matches!(
        shell.exec("call nobody print"),
        Err(ShellError::NoSuchTarget(_))
    ));
    // Still usable afterwards.
    assert!(shell.exec("cores").is_ok());
    for c in &cores {
        c.stop();
    }
}

#[test]
fn layout_and_stats_commands() {
    let (cores, shell) = setup();
    shell.exec("new Message at core1").unwrap();
    shell.exec("new Message").unwrap();
    let layout = shell.exec("layout").unwrap();
    assert!(layout.contains("core0: c0.1 Message"), "{layout}");
    assert!(layout.contains("core1: c1.1 Message"), "{layout}");
    assert!(layout.contains("core2: (empty)"), "{layout}");
    cores[2].stop();
    let layout = shell.exec("layout").unwrap();
    assert!(layout.contains("core2: (down)"), "{layout}");
    let stats = shell.exec("stats").unwrap();
    assert!(stats.contains("complets      1"), "{stats}");
    assert!(stats.contains("trackers"), "{stats}");
    assert!(stats.contains("reliability:"), "{stats}");
    assert!(stats.contains("0 undecodable frames"), "{stats}");
    for c in &cores {
        c.stop();
    }
}

#[test]
fn layout_at_reconstructs_placement_refs_and_tracker_chains() {
    let net = Network::new(NetworkConfig {
        default_link: Some(LinkConfig::instant()),
        ..NetworkConfig::default()
    });
    let reg = CompletRegistry::new();
    Napper::register(&reg);
    let cores: Vec<Core> = (0..2)
        .map(|i| {
            Core::builder(&net, &format!("core{i}"))
                .registry(&reg)
                .spawn()
                .unwrap()
        })
        .collect();
    let shell = Shell::new(cores[0].clone());
    // The latest instant any Core's clock has reached.
    let now = || cores.iter().map(Core::hlc_now).max().unwrap();

    let empty = shell.exec(&format!("layout at {}", now())).unwrap();
    assert!(empty.contains("(no complets placed)"), "{empty}");

    let napper = cores[0].new_complet("Napper", &[]).unwrap();
    let relay = cores[0].new_complet("Napper", &[]).unwrap();
    relay
        .call(
            "relay",
            &[
                Value::from(napper.complet_ref().descriptor()),
                Value::from(0),
            ],
        )
        .unwrap();
    let before = now();
    napper.move_to("core1").unwrap();

    let at_before = shell.exec(&format!("layout at {before}")).unwrap();
    assert!(at_before.contains("core0: c0.1, c0.2"), "{at_before}");
    assert!(!at_before.contains("core1:"), "{at_before}");

    // The source's tracker is journaled as forwarding once the move's
    // commit lands there.
    let deadline = Instant::now() + Duration::from_secs(3);
    let after = loop {
        let out = shell.exec(&format!("layout at {}", now())).unwrap();
        if out.contains("tracker c0.1: core0 -> core1") || Instant::now() > deadline {
            break out;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    assert!(after.contains("core0: c0.2"), "{after}");
    assert!(after.contains("core1: c0.1"), "{after}");
    assert!(after.contains("refs: c0.2 -link-> c0.1"), "{after}");
    assert!(after.contains("tracker c0.1: core0 -> core1"), "{after}");

    assert!(matches!(
        shell.exec("layout at noon"),
        Err(ShellError::Usage(_))
    ));
    for c in &cores {
        c.stop();
    }
}

#[test]
fn stats_full_renders_metrics_exposition() {
    let (cores, shell) = setup();
    shell.exec("new Message at core1 as postbox").unwrap();
    shell.exec("call postbox print").unwrap();
    let metrics = shell.exec("stats full").unwrap();
    assert!(metrics.contains("fargo_invoke_total"), "{metrics}");
    assert!(
        metrics.contains("fargo_invoke_latency_us_bucket"),
        "{metrics}"
    );
    assert!(
        metrics.contains("fargo_link_messages"),
        "remote call must leave link gauges behind: {metrics}"
    );
    // Where a Core's by-value memory goes, without a counting allocator.
    for gauge in ["fargo_dedup_cache_entries", "fargo_dedup_cache_bytes"] {
        assert!(metrics.contains(gauge), "{gauge} missing: {metrics}");
    }
    for c in &cores {
        c.stop();
    }
}

#[test]
fn trace_renders_span_tree_of_last_invocation() {
    let (cores, shell) = setup();
    shell.exec("new Message at core1 as postbox").unwrap();
    shell.exec("call postbox print").unwrap();
    let tree = shell.exec("trace").unwrap();
    assert!(tree.contains("invoke Message.print"), "{tree}");
    assert!(tree.contains("@core1"), "remote exec span expected: {tree}");
    for c in &cores {
        c.stop();
    }
}

#[test]
fn stats_reports_per_phase_percentiles() {
    let (cores, shell) = setup();
    shell.exec("new Message at core1 as postbox").unwrap();
    for _ in 0..5 {
        shell.exec("call postbox print").unwrap();
    }
    let stats = shell.exec("stats").unwrap();
    assert!(stats.contains("latency (us, estimated):"), "{stats}");
    for phase in ["queue", "marshal", "network", "exec", "invoke(recent)"] {
        assert!(stats.contains(phase), "missing {phase} row: {stats}");
    }
    // The invoke rows have observations, so percentiles are numeric.
    let invoke_row = stats
        .lines()
        .find(|l| l.trim_start().starts_with("invoke "))
        .unwrap();
    assert!(!invoke_row.contains("p50=-"), "{invoke_row}");
    assert!(invoke_row.contains("p99="), "{invoke_row}");
    assert!(invoke_row.contains("p999="), "{invoke_row}");
    for c in &cores {
        c.stop();
    }
}

#[test]
fn slow_command_retains_tail_with_per_hop_breakdown() {
    // A cluster with real link delay: every remote call is slow enough
    // that the tail sampler must retain it.
    let net = Network::new(NetworkConfig {
        default_link: Some(LinkConfig::new(Duration::from_millis(2))),
        ..NetworkConfig::default()
    });
    let reg = CompletRegistry::new();
    Message::register(&reg);
    let cores: Vec<Core> = (0..2)
        .map(|i| {
            Core::builder(&net, &format!("core{i}"))
                .registry(&reg)
                .spawn()
                .unwrap()
        })
        .collect();
    let shell = Shell::new(cores[0].clone());
    shell.exec("new Message at core1 as postbox").unwrap();
    shell.exec("call postbox print").unwrap();

    let out = shell.exec("slow").unwrap();
    assert!(out.contains("invoke Message.print"), "{out}");
    assert!(out.contains("trace 0x"), "{out}");
    assert!(
        out.contains("@core1"),
        "per-hop breakdown must show the remote exec hop: {out}"
    );

    // Truncation and clearing.
    assert!(shell.exec("slow 1").unwrap().contains("#0"));
    assert!(shell.exec("slow clear").unwrap().contains("cleared"));
    assert!(shell
        .exec("slow")
        .unwrap()
        .contains("no slow requests retained"));
    assert!(matches!(
        shell.exec("slow nonsense"),
        Err(ShellError::Usage(_))
    ));
    for c in &cores {
        c.stop();
    }
}

#[test]
fn refs_inspects_remote_cores() {
    let (cores, shell) = setup();
    shell.exec("new Message at core1 as roamer").unwrap();
    shell.exec("move roamer to core2").unwrap();
    // core1's tracker forwards to core2; the shell sees it remotely.
    let refs = shell.exec("refs core1").unwrap();
    assert!(refs.contains("-> core2"), "{refs}");
    let refs = shell.exec("refs core2").unwrap();
    assert!(refs.contains("local"), "{refs}");
    for c in &cores {
        c.stop();
    }
}

#[test]
fn top_and_matrix_report_accounted_load_and_traffic() {
    let (cores, shell) = setup();
    shell.exec("new Message at core1 as postbox").unwrap();
    for _ in 0..5 {
        shell.exec("call postbox print").unwrap();
    }

    // top: the invoked complet shows up, attributed to its host Core.
    let top = shell.exec("top").unwrap();
    assert!(top.contains("c1.1"), "{top}");
    assert!(top.contains("core1"), "{top}");
    assert!(top.contains("invokes"), "{top}");
    assert!(shell.exec("top 1").unwrap().contains("c1.1"));
    assert!(matches!(shell.exec("top x"), Err(ShellError::Usage(_))));

    // matrix: the remote calls left core0 -> core1 traffic (and the
    // replies the reverse direction).
    let matrix = shell.exec("matrix").unwrap();
    assert!(matrix.contains("core0 -> core1"), "{matrix}");
    assert!(matrix.contains("core1 -> core0"), "{matrix}");
    assert!(matrix.contains("msgs"), "{matrix}");

    // edges: the five calls, counted on the Core that issued them.
    let edges = shell.exec("edges").unwrap();
    let row = ["c0.0", "c1.1", "5", "core0"];
    assert!(
        edges.lines().any(|l| l.split_whitespace().eq(row)),
        "{edges}"
    );
    assert!(!shell.exec("edges 0").unwrap().contains("c1.1"));
    assert!(matches!(shell.exec("edges x"), Err(ShellError::Usage(_))));
    for c in &cores {
        c.stop();
    }
}

#[test]
fn health_and_alerts_commands_render_slo_state() {
    let (cores, shell) = setup();
    assert_eq!(cores[1].monitor().active_services(), 0, "nobody asked yet");
    let health = shell.exec("health").unwrap();
    let rules = [
        ("p99-latency", "invokeP99(100000)"),
        ("error-rate", "errorRate(0.05)"),
        ("shed-rate", "shedRate(0.05)"),
        ("move-failure-rate", "moveFailureRate(0.5)"),
    ];
    for c in &cores {
        for (rule, watch) in rules {
            let row = [c.name(), rule, "ok", watch];
            assert!(
                health.lines().any(|l| l.split_whitespace().eq(row)),
                "missing {row:?}: {health}"
            );
        }
        // The first `health` loaded the rules: each Core now profiles
        // the four SLO services.
        assert_eq!(c.monitor().active_services(), 4, "{}", c.name());
    }
    assert_eq!(
        health.lines().count(),
        rules.len() * cores.len(),
        "{health}"
    );
    assert_eq!(shell.exec("alerts").unwrap(), "(no alerts recorded)");
    assert!(matches!(shell.exec("alerts x"), Err(ShellError::Usage(_))));
    for c in &cores {
        c.stop();
    }
}

/// The state `health` shows for one Core and rule.
fn slo_state(shell: &Shell, core: &str, rule: &str) -> String {
    let health = shell.exec("health").unwrap();
    let row = health
        .lines()
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .find(|w| w[..2] == [core, rule])
        .unwrap_or_else(|| panic!("no {core} {rule} row: {health}"));
    row[2].to_owned()
}

/// Runs `load` until `health` shows `rule` at `core` in `state`; fails
/// after 5 s.
fn drive_until(shell: &Shell, core: &str, rule: &str, state: &str, mut load: impl FnMut()) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while slo_state(shell, core, rule) != state {
        assert!(
            Instant::now() < deadline,
            "{rule} at {core} not {state} within 5 s"
        );
        load();
    }
}

#[test]
fn each_default_slo_rule_fires_and_resolves_through_the_shipped_script() {
    let net = Network::new(NetworkConfig {
        default_link: Some(LinkConfig::instant()),
        ..NetworkConfig::default()
    });
    let reg = CompletRegistry::new();
    Message::register(&reg);
    Napper::register(&reg);
    let fast_ticks = CoreConfig {
        monitor_tick: Duration::from_millis(10),
        ..CoreConfig::default()
    };
    let spawn = |name: &str, config: CoreConfig| {
        Core::builder(&net, name)
            .registry(&reg)
            .config(config)
            .spawn()
            .unwrap()
    };
    let core0 = spawn("core0", fast_ticks.clone());
    // One worker and one queue slot: concurrent calls are shed.
    let core1 = spawn("core1", fast_ticks.clone().with_worker_pool(1, 1));
    // Full from the start: every move into it fails.
    let core2 = spawn("core2", fast_ticks.with_capacity(0));
    let shell = Shell::new(core0.clone());
    shell.exec("health").unwrap();
    let idle = || std::thread::sleep(Duration::from_millis(10));

    // p99-latency: calls slower than 100 ms, then enough fast ones to
    // push them out of the recent invoke window.
    shell.exec("new Napper as napper").unwrap();
    shell.exec("new Message as postbox").unwrap();
    drive_until(&shell, "core0", "p99-latency", "FIRING", || {
        shell.exec("call napper nap 150").unwrap();
    });
    for _ in 0..1_100 {
        shell.exec("call postbox print").unwrap();
    }
    drive_until(&shell, "core0", "p99-latency", "ok", idle);

    // error-rate: calls to a method Message does not have.
    drive_until(&shell, "core0", "error-rate", "FIRING", || {
        assert!(shell.exec("call postbox nope").is_err());
    });
    drive_until(&shell, "core0", "error-rate", "ok", idle);

    // shed-rate: eight concurrent relays into core1's single worker.
    let relay = core0.new_complet_at("core1", "Napper", &[]).unwrap();
    let sleeper = core0.new_complet_at("core1", "Napper", &[]).unwrap();
    let args = [
        Value::from(sleeper.complet_ref().descriptor()),
        Value::from(20),
    ];
    drive_until(&shell, "core1", "shed-rate", "FIRING", || {
        let calls: Vec<_> = (0..8).map(|_| relay.call_async("relay", &args)).collect();
        for call in calls {
            let _ = call.wait();
        }
    });
    drive_until(&shell, "core1", "shed-rate", "ok", idle);

    // move-failure-rate: moves into the full core2.
    drive_until(&shell, "core0", "move-failure-rate", "FIRING", || {
        assert!(shell.exec("move postbox to core2").is_err());
    });
    drive_until(&shell, "core0", "move-failure-rate", "ok", idle);

    let alerts = shell.exec("alerts 100").unwrap();
    for rule in [
        "p99-latency",
        "error-rate",
        "shed-rate",
        "move-failure-rate",
    ] {
        for state in ["firing", "resolved"] {
            let edge = format!(" alert {rule} {state} ");
            assert!(alerts.contains(&edge), "no{edge}in {alerts}");
        }
    }
    for c in [&core0, &core1, &core2] {
        c.stop();
    }
}

/// Minimal structural JSON check: balanced delimiters outside string
/// literals and a top-level array. Deliberately hand-rolled — the repo
/// has no JSON dependency, and the exposition must stay parseable by
/// real consumers.
fn assert_valid_json_array(s: &str) {
    let s = s.trim();
    assert!(s.starts_with('[') && s.ends_with(']'), "not an array: {s}");
    let mut depth_sq = 0i64;
    let mut depth_br = 0i64;
    let mut in_str = false;
    let mut escape = false;
    for ch in s.chars() {
        if in_str {
            if escape {
                escape = false;
            } else if ch == '\\' {
                escape = true;
            } else if ch == '"' {
                in_str = false;
            }
            continue;
        }
        match ch {
            '"' => in_str = true,
            '[' => depth_sq += 1,
            ']' => depth_sq -= 1,
            '{' => depth_br += 1,
            '}' => depth_br -= 1,
            _ => {}
        }
        assert!(depth_sq >= 0 && depth_br >= 0, "unbalanced at {ch:?}");
    }
    assert!(!in_str, "unterminated string literal");
    assert_eq!(depth_sq, 0, "unbalanced brackets");
    assert_eq!(depth_br, 0, "unbalanced braces");
}

#[test]
fn stats_json_is_parseable_and_carries_quantiles() {
    let (cores, shell) = setup();
    shell.exec("new Message at core1 as postbox").unwrap();
    for _ in 0..3 {
        shell.exec("call postbox print").unwrap();
    }
    let json = shell.exec("stats json").unwrap();
    assert_valid_json_array(&json);
    assert!(json.contains("\"name\":\"fargo_invoke_total\""), "{json}");
    assert!(json.contains("\"labels\":{\"core\":\"core0\"}"), "{json}");
    // Histogram values expose estimated quantiles alongside the buckets.
    assert!(json.contains("\"p50\":"), "{json}");
    assert!(json.contains("\"p99\":"), "{json}");
    assert!(json.contains("\"p999\":"), "{json}");
    assert!(matches!(
        shell.exec("stats nope"),
        Err(ShellError::Usage(_))
    ));
    for c in &cores {
        c.stop();
    }
}

#[test]
fn where_command_reports_resolution_path() {
    let (cores, shell) = setup();
    shell.exec("new Message at core1 as postbox").unwrap();
    shell.exec("move postbox to core2").unwrap();
    let out = shell.exec("where postbox").unwrap();
    assert!(out.contains("is at core2"), "{out}");
    assert!(out.contains("(via "), "{out}");
    assert!(
        ["hosted", "cache", "shard", "peers"]
            .iter()
            .any(|l| out.contains(l)),
        "{out}"
    );
    assert!(out.contains("epoch"), "{out}");
    assert!(matches!(shell.exec("where"), Err(ShellError::Usage(_))));

    // The lookup left naming counters behind; `stats json` carries them.
    let json = shell.exec("stats json").unwrap();
    assert!(
        json.contains("\"name\":\"fargo_naming_lookups_total\""),
        "{json}"
    );
    assert!(
        json.contains("\"name\":\"fargo_naming_lookup_hops\""),
        "{json}"
    );
    for c in &cores {
        c.stop();
    }
}

#[test]
fn plan_and_autolayout_commands_drive_the_loop() {
    let (cores, shell) = setup();

    // No traffic yet: the planner has nothing to say.
    let out = shell.exec("plan").unwrap();
    assert!(out.contains("no moves"), "{out}");

    // Skew traffic towards a remote complet, then preview again: the
    // plan proposes pulling it to the shell's Core without moving it.
    shell.exec("new Message at core1 as postbox").unwrap();
    for _ in 0..40 {
        shell.exec("call postbox print").unwrap();
    }
    let out = shell.exec("plan").unwrap();
    assert!(out.contains("-> core0"), "{out}");
    let whereis = shell.exec("whereis postbox").unwrap();
    assert!(whereis.contains("core1"), "plan must not move: {whereis}");

    // rebalance executes the round for real.
    let out = shell.exec("rebalance").unwrap();
    assert!(out.contains("executed 1 step(s)"), "{out}");
    let whereis = shell.exec("whereis postbox").unwrap();
    assert!(whereis.contains("core0"), "{whereis}");

    // The status reads the planner's registry series.
    let status = shell.exec("autolayout status").unwrap();
    assert!(status.contains("autolayout off"), "{status}");
    assert!(status.contains("rounds=1 moves=1"), "{status}");

    // The toggle loads the layout rule at every Core and cancels it.
    let subs = |shell: &Shell| {
        let out = shell.exec("stats").unwrap();
        let line = out.lines().find(|l| l.contains("subscriptions")).unwrap();
        line.split_whitespace().last().unwrap().to_owned()
    };
    let before = subs(&shell);
    assert_eq!(shell.exec("autolayout on").unwrap(), "autolayout on");
    assert!(shell.exec("autolayout").unwrap().contains("autolayout on"));
    assert_ne!(subs(&shell), before, "the rule listens at the shell's Core");
    assert_eq!(shell.exec("autolayout off").unwrap(), "autolayout off");
    assert_eq!(subs(&shell), before, "and is gone once cancelled");
    assert!(matches!(
        shell.exec("autolayout now"),
        Err(ShellError::Usage(_))
    ));

    // The decision trail landed in the journal.
    let journal = shell.exec("journal 200").unwrap();
    assert!(journal.contains("plan_propose"), "{journal}");
    assert!(journal.contains("plan_step"), "{journal}");

    // And the script engine gained the rule's plan action.
    assert!(shell.engine().has_action("plan"));
    for c in &cores {
        c.stop();
    }
}
