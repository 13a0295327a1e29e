//! E15 — adaptive layout planner: closed-loop relocation vs a static
//! adversarial layout vs the co-located oracle.
//!
//! The workload is deliberately skewed: each group is a Holder whose
//! driver traffic enters at its home Core, plus two Servant dependencies
//! placed on the *other* Cores, so every `call_dep` crosses a link. The
//! planner reads that skew from the Cores' call-edge tables (every call
//! is counted on its reference's row where it is issued) and must pull
//! each group together — the paper's §5
//! promise that observed traffic, not programmer foresight, decides
//! placement. Reported guardrails:
//!
//! * the converged planner layout cuts inter-Core messages by at least
//!   30% against the static layout (in practice it lands near the
//!   oracle);
//! * with the loop attached but disabled, nothing of it runs: no
//!   planning round, no request for a peer's edge rows (the timing of
//!   the invoke path beside it is printed, not gated).
//!
//! The simnet seed is taken from `FARGO_SIMNET_SEED` (default 7) so CI
//! can sweep loss/jitter schedules.

use std::time::{Duration, Instant};

use fargo_core::{Core, Value};
use fargo_layout::{AutoLayout, ExecutorConfig, PlannerConfig};
use simnet::LinkConfig;

use crate::harness::{Cluster, ClusterSpec};
use crate::table::Table;
use crate::workload::Samples;

fn simnet_seed() -> u64 {
    std::env::var("FARGO_SIMNET_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7)
}

/// The loop as the planner runs use it: plan every 2 monitor ticks,
/// low dead band, budget enough for every servant in one round.
fn attach_loop(core: &Core) -> AutoLayout {
    AutoLayout::attach_with(
        core.clone(),
        PlannerConfig {
            period_ticks: 2,
            hysteresis: 0.02,
            max_moves: 8,
            ..PlannerConfig::default()
        },
        ExecutorConfig::default(),
    )
}

const CORES: usize = 3;

struct Workload {
    cluster: Cluster,
    /// One (holder, dep_count) per group; holders live on their home
    /// Core, dependencies start wherever the scenario placed them.
    holders: Vec<fargo_core::BoundRef>,
}

impl Workload {
    /// `groups` Holders, home Core `g % CORES`; dependencies co-located
    /// when `oracle`, else scattered across the two other Cores.
    fn build(groups: usize, oracle: bool) -> Workload {
        let cluster = ClusterSpec::with_latency(CORES, Duration::from_micros(200))
            .link(
                LinkConfig::new(Duration::from_micros(200)).with_jitter(Duration::from_micros(50)),
            )
            .seed(simnet_seed())
            .build();
        let mut holders = Vec::new();
        for g in 0..groups {
            let home = g % CORES;
            let holder = cluster.cores[home]
                .new_complet("Holder", &[])
                .expect("holder");
            for d in 1..=2 {
                let at = if oracle { home } else { (home + d) % CORES };
                let servant = cluster.cores[home]
                    .new_complet_at(&format!("core{at}"), "Servant", &[])
                    .expect("servant");
                holder
                    .call("add_dep", &[servant.complet_ref().descriptor().into()])
                    .expect("add_dep");
            }
            holders.push(holder);
        }
        Workload { cluster, holders }
    }

    /// One pass of driver traffic: every holder touches both deps.
    fn drive(&self) {
        for h in &self.holders {
            for d in 0..2 {
                h.call("call_dep", &[Value::I64(d)]).expect("call_dep");
            }
        }
    }

    /// Inter-Core messages so far, summed over every directed link.
    fn remote_messages(&self) -> u64 {
        let mut total = 0;
        for a in 0..CORES {
            for b in 0..CORES {
                if a != b {
                    total += self.cluster.messages(a, b);
                }
            }
        }
        total
    }

    /// Remote messages consumed by `passes` traffic passes.
    fn measure(&self, passes: usize) -> u64 {
        let before = self.remote_messages();
        for _ in 0..passes {
            self.drive();
        }
        self.remote_messages() - before
    }
}

pub fn run(full: bool) -> Table {
    let groups = if full { 6 } else { 3 };
    let passes = if full { 150 } else { 60 };

    // Static: the adversarial layout, left alone.
    let static_wl = Workload::build(groups, false);
    for _ in 0..20 {
        static_wl.drive();
    }
    let static_msgs = static_wl.measure(passes);
    drop(static_wl);

    // Planner: same start, the loop attached but disabled through the
    // warm-up and three planning periods more — what it did meanwhile is
    // the "disabled" guardrail — then on; measure after convergence.
    let planner_wl = Workload::build(groups, false);
    let core0 = &planner_wl.cluster.cores[0];
    let auto = attach_loop(core0);
    for _ in 0..20 {
        planner_wl.drive();
    }
    std::thread::sleep(core0.config().monitor_tick * 3 * auto.planner().config().period_ticks);
    let idle_rounds = auto.status().rounds;
    let edge_requests = [("core", "core0"), ("kind", "edges")];
    let idle_edge_requests = core0
        .telemetry()
        .counter("fargo_msg_out_total", &edge_requests)
        .get();
    auto.enable();
    let deadline = Instant::now() + Duration::from_secs(60);
    while !auto.status().converged() && Instant::now() < deadline {
        planner_wl.drive();
        std::thread::sleep(Duration::from_millis(5));
    }
    let status = auto.status();
    auto.disable();
    let planner_msgs = planner_wl.measure(passes);
    auto.detach();
    drop(planner_wl);

    // Oracle: groups co-located by construction.
    let oracle_wl = Workload::build(groups, true);
    for _ in 0..20 {
        oracle_wl.drive();
    }
    let oracle_msgs = oracle_wl.measure(passes);
    drop(oracle_wl);

    let reduction = if static_msgs > 0 {
        1.0 - planner_msgs as f64 / static_msgs as f64
    } else {
        0.0
    };
    let overhead = disabled_loop_overhead(if full { 20_000 } else { 5_000 });

    let reduction_ok = status.converged() && reduction >= 0.30;
    let disabled_ok = idle_rounds == 0 && idle_edge_requests == 0;

    let mut table = Table::new(
        "E15: adaptive layout planner vs static vs oracle (skewed traffic)",
        &["configuration", "remote msgs", "notes"],
    )
    .with_note(
        "guardrail: converged planner cuts inter-Core messages >=30% vs static; the disabled loop runs no round and asks no peer for edge rows (its timing beside an absent loop is information).",
    );
    table.row([
        "static (adversarial)".to_owned(),
        static_msgs.to_string(),
        format!("{groups} groups, {passes} passes"),
    ]);
    table.row([
        "planner (autolayout)".to_owned(),
        planner_msgs.to_string(),
        format!(
            "converged={} after {} rounds ({} before the first quiet one), {} moves, {} rollbacks",
            status.converged(),
            status.rounds,
            status.rounds - status.stable_rounds,
            status.moves_executed,
            status.rollbacks
        ),
    ]);
    table.row([
        "oracle (co-located)".to_owned(),
        oracle_msgs.to_string(),
        "lower bound by construction".to_owned(),
    ]);
    table.row([
        "remote-msg reduction".to_owned(),
        format!("{:.0}%", reduction * 100.0),
        if reduction_ok {
            "guardrail ok (>=30% vs static, converged)".to_owned()
        } else {
            format!("guardrail FAILED (reduction {reduction:.2}, status {status:?})")
        },
    ]);
    table.row([
        "disabled loop".to_owned(),
        format!("{idle_rounds} rounds, {idle_edge_requests} edge requests"),
        if disabled_ok {
            format!(
                "guardrail ok (attached-but-disabled ~ absent); local call {:+.1}% vs no loop",
                overhead * 100.0
            )
        } else {
            "guardrail FAILED (a disabled loop planned)".to_owned()
        },
    ]);
    table
}

/// Relative mean local-invoke cost with an attached-but-disabled
/// AutoLayout versus no loop at all (best of 3 runs each, e14-style).
/// The disabled hook is one atomic load per monitor tick — not per
/// invoke — and a ratio of two short wall-clock runs moves by more than
/// that on a shared machine: printed, never gated.
fn disabled_loop_overhead(calls: usize) -> f64 {
    let best = |with_loop: bool| -> Duration {
        (0..3)
            .map(|_| {
                let cluster = ClusterSpec::instant(1).build();
                let auto = with_loop.then(|| attach_loop(&cluster.cores[0]));
                let servant = cluster.cores[0]
                    .new_complet("Servant", &[])
                    .expect("servant");
                servant.call("touch", &[]).expect("warm");
                let mean = Samples::collect(calls, || {
                    servant.call("touch", &[Value::Null]).expect("call");
                })
                .mean();
                if let Some(a) = auto {
                    a.detach();
                }
                mean
            })
            .min()
            .expect("three runs")
    };
    let without = best(false);
    let with = best(true);
    if without.is_zero() {
        return 0.0;
    }
    with.as_secs_f64() / without.as_secs_f64() - 1.0
}
