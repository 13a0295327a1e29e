//! The layout rule: the planner runs when a monitor event says so
//! (§4.2–4.3), not on a timer.
//!
//! The shipped script [`LAYOUT_RULES`] (`layout.fargo`) watches each
//! listed Core's `remoteShare` and calls the `plan` action when it rises
//! above the rule's threshold. [`register_plan_action`] registers that
//! action on an engine: one firing runs rounds at a [`Rebalancer`] —
//! plan, execute, verify — until a round plans nothing, at most
//! `MAX_ROUNDS` of them. A firing that arrives while a round runs is
//! dropped, since every watched Core can fire. Every decision lands in
//! the journal (`plan_propose` / `plan_step` / `plan_converge` /
//! `plan_rollback`) and the registry (`fargo_planner_*`).

use std::sync::Arc;

use fargo_core::{Core, JournalKind};
use fargo_script::{ScriptEngine, ScriptError, ScriptValue};
use parking_lot::Mutex;

use crate::executor::{ExecutionReport, Executor};
use crate::plan::LayoutPlan;
use crate::planner::{Planner, PlannerConfig};

/// The shipped rule script (`layout.fargo`); `%1` lists the Cores to
/// watch.
pub const LAYOUT_RULES: &str = include_str!("layout.fargo");

/// Rounds one firing runs at most. A round moves at most `max_moves`
/// complets, so a layout far from the planner's target takes a few.
const MAX_ROUNDS: usize = 8;

/// One Core's planner and executor, running one round at a time.
pub struct Rebalancer {
    core: Core,
    planner: Planner,
    executor: Executor,
    /// Held while rounds run.
    busy: Mutex<()>,
}

impl Rebalancer {
    /// The default planner tunables, with the Core's capacity.
    pub fn new(core: Core) -> Rebalancer {
        let cfg = PlannerConfig::from_core(&core);
        Rebalancer::with_config(core, cfg)
    }

    pub fn with_config(core: Core, cfg: PlannerConfig) -> Rebalancer {
        Rebalancer {
            planner: Planner::new(core.clone(), cfg),
            executor: Executor::new(core.clone()),
            core,
            busy: Mutex::new(()),
        }
    }

    /// The planner (shell `plan` previews through it).
    pub fn planner(&self) -> &Planner {
        &self.planner
    }

    /// One round (shell `rebalance`), once any round running has ended.
    pub fn rebalance(&self) -> (LayoutPlan, ExecutionReport) {
        let _busy = self.busy.lock();
        self.round(None)
    }

    /// One firing of the rule: rounds until one plans nothing, at most
    /// `MAX_ROUNDS`. Returns the rounds run, or `None` when a round was
    /// running already and the firing was dropped. `trigger`, the node
    /// whose event fired, is the peer of the `plan_converge` note.
    pub fn converge(&self, trigger: Option<u32>) -> Option<usize> {
        let _busy = self.busy.try_lock()?;
        let rounds = (1..=MAX_ROUNDS).find(|_| self.round(trigger).0.is_empty());
        Some(rounds.unwrap_or(MAX_ROUNDS))
    }

    /// Plan, execute, verify; a move-free round journals `plan_converge`.
    fn round(&self, trigger: Option<u32>) -> (LayoutPlan, ExecutionReport) {
        let reg = self.core.telemetry();
        let labels = &[("core", self.core.name())][..];
        reg.counter("fargo_planner_rounds_total", labels).inc();
        let plan = self.planner.plan();
        reg.gauge("fargo_planner_last_predicted_gain", labels)
            .set(plan.predicted_delta());
        let stable = reg.gauge("fargo_planner_stable_rounds", labels);
        if plan.is_empty() {
            stable.set(stable.get() + 1.0);
            self.core.journal_note(
                JournalKind::PlanConverged,
                &format!("plan{}", plan.id),
                "",
                &format!("{} stable rounds", stable.get()),
                trigger,
            );
            return (plan, ExecutionReport::default());
        }
        stable.set(0.0);
        reg.counter("fargo_planner_planned_moves_total", labels)
            .add(plan.steps.len() as u64);
        let report = self.executor.execute(&plan);
        reg.counter("fargo_planner_executed_moves_total", labels)
            .add(report.executed as u64);
        if !report.failures.is_empty() {
            reg.counter("fargo_planner_rollbacks_total", labels).inc();
        }
        (plan, report)
    }
}

/// Registers the `plan <core>` action the layout rule calls: one
/// [`Rebalancer::converge`], with the named Core — the one whose event
/// fired — as its trigger.
pub fn register_plan_action(engine: &ScriptEngine, rebalancer: Arc<Rebalancer>) {
    engine.register_action(
        "plan",
        Arc::new(move |ctx, args| {
            let [ScriptValue::Str(core)] = args else {
                return Err(ScriptError::TypeMismatch {
                    expected: "plan <core>",
                    got: format!("{args:?}"),
                });
            };
            let trigger = ctx.core.network().node_by_name(core);
            rebalancer.converge(trigger.map(|n| n.index()));
            Ok(())
        }),
    );
}
