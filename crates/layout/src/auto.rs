//! The closed loop: monitor tick → planning round → execution →
//! verification, with convergence tracking.
//!
//! [`AutoLayout`] attaches to an admin Core. It registers a monitor-tick
//! hook that merely counts ticks and, every `PlannerConfig::period_ticks`,
//! nudges a dedicated worker thread (planning issues RPCs and must never
//! run on the monitor thread itself — with the planner disabled the hook
//! is one atomic load, so the tick overhead is effectively zero). The
//! worker runs a round: plan, execute, verify; rounds without moves
//! accumulate towards convergence (3 consecutive move-free rounds), any
//! move resets the count. Every decision lands in the journal
//! (`plan_propose` / `plan_step` / `plan_converge` / `plan_rollback`)
//! and the metrics registry (`fargo_planner_*`).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use fargo_core::{Core, JournalKind};
use fargo_script::{ScriptEngine, ScriptError, ScriptValue};
use parking_lot::Mutex;

use crate::executor::Executor;
use crate::plan::LayoutPlan;
use crate::planner::{Planner, PlannerConfig};

/// Move-free rounds in a row before the layout counts as converged.
pub const CONVERGED_ROUNDS: u64 = 3;

/// A point-in-time view of the loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AutoLayoutStatus {
    pub enabled: bool,
    /// Planning rounds run so far.
    pub rounds: u64,
    /// Steps executed and verified.
    pub moves_executed: u64,
    /// Rollback episodes (failed plans).
    pub rollbacks: u64,
    /// Consecutive move-free rounds.
    pub stable_rounds: u64,
}

impl AutoLayoutStatus {
    /// No moves for [`CONVERGED_ROUNDS`] consecutive rounds.
    pub fn converged(&self) -> bool {
        self.stable_rounds >= CONVERGED_ROUNDS
    }
}

struct AutoInner {
    core: Core,
    planner: Planner,
    executor: Executor,
    enabled: AtomicBool,
    shutdown: AtomicBool,
    tick_count: AtomicU64,
    /// Set by the tick hook, consumed by the worker.
    round_due: AtomicBool,
    rounds: AtomicU64,
    moves_executed: AtomicU64,
    rollbacks: AtomicU64,
    stable_rounds: AtomicU64,
    hook_id: Mutex<Option<u64>>,
    worker: Mutex<Option<thread::JoinHandle<()>>>,
}

/// The adaptive layout controller. Cloning shares the loop.
#[derive(Clone)]
pub struct AutoLayout {
    inner: Arc<AutoInner>,
}

impl AutoLayout {
    /// Attaches a (disabled) loop to `core` with the default planner
    /// cadence and thresholds and the Core's capacity. Call
    /// [`AutoLayout::enable`] to start planning.
    pub fn attach(core: Core) -> AutoLayout {
        let planner_cfg = PlannerConfig::from_core(&core);
        AutoLayout::attach_with(core, planner_cfg)
    }

    /// Attaches with explicit planner tunables.
    pub fn attach_with(core: Core, planner: PlannerConfig) -> AutoLayout {
        let inner = Arc::new(AutoInner {
            planner: Planner::new(core.clone(), planner),
            executor: Executor::new(core.clone()),
            core,
            enabled: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            tick_count: AtomicU64::new(0),
            round_due: AtomicBool::new(false),
            rounds: AtomicU64::new(0),
            moves_executed: AtomicU64::new(0),
            rollbacks: AtomicU64::new(0),
            stable_rounds: AtomicU64::new(0),
            hook_id: Mutex::new(None),
            worker: Mutex::new(None),
        });
        let auto = AutoLayout { inner };
        auto.install();
        auto
    }

    fn install(&self) {
        // The tick hook: one load when disabled, one fetch_add + modulo
        // when enabled. Heavy work happens on the worker thread.
        let hook_inner = Arc::downgrade(&self.inner);
        let hook_id = self.inner.core.add_monitor_tick_hook(Arc::new(move || {
            let Some(inner) = hook_inner.upgrade() else {
                return;
            };
            if !inner.enabled.load(Ordering::Relaxed) {
                return;
            }
            let ticks = inner.tick_count.fetch_add(1, Ordering::Relaxed) + 1;
            if ticks % u64::from(inner.planner.config().period_ticks) == 0 {
                inner.round_due.store(true, Ordering::Release);
            }
        }));
        *self.inner.hook_id.lock() = Some(hook_id);

        let worker_inner = self.inner.clone();
        let handle = thread::Builder::new()
            .name(format!("fargo-autolayout-{}", self.inner.core.name()))
            .spawn(move || {
                while !worker_inner.shutdown.load(Ordering::SeqCst) {
                    if worker_inner.round_due.swap(false, Ordering::AcqRel)
                        && worker_inner.enabled.load(Ordering::SeqCst)
                    {
                        run_round(&worker_inner);
                    } else {
                        thread::sleep(Duration::from_millis(2));
                    }
                }
            })
            .expect("failed to spawn autolayout worker");
        *self.inner.worker.lock() = Some(handle);
    }

    /// Starts closed-loop planning.
    pub fn enable(&self) {
        self.inner.stable_rounds.store(0, Ordering::SeqCst);
        self.inner.enabled.store(true, Ordering::SeqCst);
    }

    /// Stops planning (the hook stays installed but reduces to one
    /// atomic load per tick) and aborts any in-flight plan between
    /// move transactions.
    pub fn disable(&self) {
        self.inner.enabled.store(false, Ordering::SeqCst);
        self.inner
            .executor
            .abort_handle()
            .store(true, Ordering::SeqCst);
    }

    /// Whether the loop is currently planning.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::SeqCst)
    }

    /// Runs one planning round synchronously (works while disabled too —
    /// this is the shell `rebalance` / script `autolayout now` path) and
    /// returns the plan with its execution report.
    pub fn run_once(&self) -> (LayoutPlan, crate::ExecutionReport) {
        run_round(&self.inner)
    }

    /// Builds a plan without executing or committing it (shell `plan`).
    pub fn preview(&self) -> LayoutPlan {
        self.inner.planner.preview()
    }

    pub fn status(&self) -> AutoLayoutStatus {
        AutoLayoutStatus {
            enabled: self.is_enabled(),
            rounds: self.inner.rounds.load(Ordering::SeqCst),
            moves_executed: self.inner.moves_executed.load(Ordering::SeqCst),
            rollbacks: self.inner.rollbacks.load(Ordering::SeqCst),
            stable_rounds: self.inner.stable_rounds.load(Ordering::SeqCst),
        }
    }

    /// Removes the tick hook and stops the worker. Called automatically
    /// when the last handle drops.
    pub fn detach(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.enabled.store(false, Ordering::SeqCst);
        if let Some(id) = self.inner.hook_id.lock().take() {
            self.inner.core.remove_monitor_tick_hook(id);
        }
        if let Some(handle) = self.inner.worker.lock().take() {
            let _ = handle.join();
        }
    }

    /// The underlying planner (for inspection in tests/tools).
    pub fn planner(&self) -> &Planner {
        &self.inner.planner
    }
}

impl Drop for AutoInner {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(id) = self.hook_id.lock().take() {
            self.core.remove_monitor_tick_hook(id);
        }
        // The worker sees `shutdown` within one poll interval; it holds
        // no Arc to us (only a clone taken before the loop started), so
        // no join here — Drop may run on the worker's own thread.
    }
}

/// One plan/execute/verify round against `inner`'s Core.
fn run_round(inner: &Arc<AutoInner>) -> (LayoutPlan, crate::ExecutionReport) {
    let core = &inner.core;
    let reg = core.telemetry();
    let labels = &[("core", core.name())][..];
    reg.counter("fargo_planner_rounds_total", labels).inc();
    inner.rounds.fetch_add(1, Ordering::SeqCst);

    let plan = inner.planner.plan();
    reg.gauge("fargo_planner_last_predicted_gain", labels)
        .set(plan.predicted_delta());
    if plan.is_empty() {
        let stable = inner.stable_rounds.fetch_add(1, Ordering::SeqCst) + 1;
        reg.gauge("fargo_planner_stable_rounds", labels)
            .set(stable as f64);
        if stable == CONVERGED_ROUNDS {
            core.journal_note(
                JournalKind::PlanConverged,
                &format!("plan{}", plan.id),
                "",
                &format!("{stable} stable rounds"),
                None,
            );
        }
        return (plan, crate::ExecutionReport::default());
    }

    inner.stable_rounds.store(0, Ordering::SeqCst);
    reg.gauge("fargo_planner_stable_rounds", labels).set(0.0);
    reg.counter("fargo_planner_planned_moves_total", labels)
        .add(plan.steps.len() as u64);
    let report = inner.executor.execute(&plan);
    inner
        .moves_executed
        .fetch_add(report.executed as u64, Ordering::SeqCst);
    reg.counter("fargo_planner_executed_moves_total", labels)
        .add(report.executed as u64);
    if !report.failures.is_empty() {
        inner.rollbacks.fetch_add(1, Ordering::SeqCst);
        reg.counter("fargo_planner_rollbacks_total", labels).inc();
    }
    (plan, report)
}

/// Registers the `autolayout` script action on an engine, so §4.3 layout
/// scripts can steer the loop:
///
/// ```text
/// on completArrived(*) do autolayout("now")
/// ```
///
/// Accepted arguments: `"on"`, `"off"`, `"now"` (one synchronous round),
/// `"status"` (logged).
pub fn register_script_action(engine: &ScriptEngine, auto: &AutoLayout) {
    let auto = auto.clone();
    engine.register_action(
        "autolayout",
        Arc::new(move |ctx, args| {
            let mode = match args.first() {
                Some(ScriptValue::Str(s)) => s.clone(),
                Some(other) => {
                    return Err(ScriptError::TypeMismatch {
                        expected: "a string mode (on|off|now|status)",
                        got: format!("{other:?}"),
                    })
                }
                None => "now".to_owned(),
            };
            match mode.as_str() {
                "on" => {
                    auto.enable();
                    ctx.log("autolayout: enabled");
                }
                "off" => {
                    auto.disable();
                    ctx.log("autolayout: disabled");
                }
                "now" => {
                    let (plan, report) = auto.run_once();
                    ctx.log(format!(
                        "autolayout: plan #{} -> {} executed, {} failed",
                        plan.id,
                        report.executed,
                        report.failures.len()
                    ));
                }
                "status" => {
                    let s = auto.status();
                    ctx.log(format!(
                        "autolayout: enabled={} rounds={} moves={} stable={} converged={}",
                        s.enabled,
                        s.rounds,
                        s.moves_executed,
                        s.stable_rounds,
                        s.converged()
                    ));
                }
                other => {
                    return Err(ScriptError::TypeMismatch {
                        expected: "autolayout mode on|off|now|status",
                        got: format!("{other:?}"),
                    })
                }
            }
            Ok(())
        }),
    );
}
