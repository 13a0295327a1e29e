//! The plan executor: one move transaction per `(from, to)` group of a
//! plan's steps.
//!
//! Each group is one [`Core::move_many`]: one `MovePrepare` carrying its
//! complets, one `MoveCommit`. The group commits or aborts as a unit, so
//! a failed group leaves nothing half-moved, and a crash or lost reply
//! never leaves two live copies. A group counts once `move_many` returned
//! `Ok` and the location service places all of it at the destination
//! (the journal is written for the operator; nothing here reads it). A
//! failed group stops the plan: the landed groups move back — the same
//! `move_many` with source and destination swapped, latest group first —
//! and the next round re-plans from reality. A group whose complets no
//! longer share the host the plan saw (an earlier group's `pull`
//! relocator carried one away) fails the same way.

use fargo_core::{Core, JournalKind};
use fargo_wire::CompletId;

use crate::plan::{LayoutPlan, MoveStep};

/// Location queries a moved group gets for the location service to
/// place all of it at the destination. The move's source publishes to
/// the shard owners before it answers, so an owner that is a third Core
/// catches up within a round trip or two of the answer. Each query is a
/// round trip to that owner (none when the answer already updated this
/// Core), which paces the check: a count, not a wall-clock deadline, so
/// the outcome does not race the scheduler.
const VERIFY_QUERIES: usize = 64;

/// What happened to one plan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecutionReport {
    pub plan_id: u64,
    /// Steps that moved and verified.
    pub executed: usize,
    /// Steps undone after a later group failed.
    pub rolled_back: usize,
    /// Human-readable failure descriptions, in occurrence order.
    pub failures: Vec<String>,
}

impl ExecutionReport {
    /// Every step ran and verified.
    pub fn complete(&self, plan: &LayoutPlan) -> bool {
        self.failures.is_empty() && self.executed == plan.steps.len()
    }
}

/// `steps` grouped by `(from, to)` — one move transaction each — with
/// groups and their steps in the order they first appear.
fn groups(steps: &[MoveStep]) -> Vec<Vec<MoveStep>> {
    let mut out: Vec<Vec<MoveStep>> = Vec::new();
    for &step in steps {
        let key = (step.from, step.to);
        match out.iter_mut().find(|g| (g[0].from, g[0].to) == key) {
            Some(g) => g.push(step),
            None => out.push(vec![step]),
        }
    }
    out
}

fn ids(group: &[MoveStep]) -> Vec<CompletId> {
    group.iter().map(|s| s.complet).collect()
}

/// Executes [`LayoutPlan`]s against a Core.
pub struct Executor {
    core: Core,
}

impl Executor {
    pub fn new(core: Core) -> Executor {
        Executor { core }
    }

    /// Runs the plan to completion or rollback.
    pub fn execute(&self, plan: &LayoutPlan) -> ExecutionReport {
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
        let groups = groups(&plan.steps);
        for (i, group) in groups.iter().enumerate() {
            if let Err(reason) = self.run_group(plan.id, group) {
                report.rolled_back = self.rollback(plan.id, &groups[..i], &reason);
                report.failures.push(reason);
                break;
            }
            report.executed += group.len();
        }
        report
    }

    /// One journaled, verified move transaction.
    fn run_group(&self, plan_id: u64, group: &[MoveStep]) -> Result<(), String> {
        let (to, dest) = (group[0].to, self.core.core_name_of(group[0].to));
        for step in group {
            self.core.journal_note(
                JournalKind::PlanStep,
                &step.complet.to_string(),
                &format!("plan{plan_id}"),
                &format!("gain {:.1}", step.predicted_gain),
                Some(to),
            );
        }
        let mut unplaced = ids(group);
        self.core
            .move_many(&unplaced, &dest)
            .map_err(|e| format!("{unplaced:?} -> {dest}: {e}"))?;
        // The reply said the group arrived; it counts once the location
        // service (published to one-way) agrees for every complet.
        for _ in 0..VERIFY_QUERIES {
            unplaced.retain(|&id| self.core.locate(id) != Ok(to));
            if unplaced.is_empty() {
                return Ok(());
            }
        }
        Err(format!(
            "{unplaced:?} moved to {dest}, not placed there after {VERIFY_QUERIES} location queries"
        ))
    }

    /// Moves the landed groups back, latest first, each as one
    /// transaction. Returns how many steps were undone.
    fn rollback(&self, plan_id: u64, done: &[Vec<MoveStep>], reason: &str) -> usize {
        self.core.journal_note(
            JournalKind::PlanRollback,
            &format!("plan{plan_id}"),
            &done.iter().map(Vec::len).sum::<usize>().to_string(),
            reason,
            None,
        );
        let mut undone = 0;
        for group in done.iter().rev() {
            let (from, back) = (group[0].from, self.core.core_name_of(group[0].from));
            // A failed undo aborts as a unit: the group stays at its new
            // Core, one live copy each, for the next round to reconsider.
            if self.core.move_many(&ids(group), &back).is_ok() {
                undone += group.len();
                for step in group {
                    self.core.journal_note(
                        JournalKind::PlanRollback,
                        &step.complet.to_string(),
                        &format!("plan{plan_id}"),
                        "undo",
                        Some(from),
                    );
                }
            }
        }
        undone
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(seq: u64, from: u32, to: u32) -> MoveStep {
        MoveStep {
            complet: CompletId::new(0, seq),
            from,
            to,
            predicted_gain: 1.0,
        }
    }

    #[test]
    fn steps_group_by_source_and_destination_in_first_appearance_order() {
        let steps = [
            step(1, 0, 1),
            step(2, 2, 1),
            step(3, 0, 1),
            step(4, 1, 0),
            step(5, 2, 1),
        ];
        let grouped: Vec<(u32, u32, Vec<CompletId>)> = groups(&steps)
            .iter()
            .map(|g| (g[0].from, g[0].to, ids(g)))
            .collect();
        let ids = |seqs: &[u64]| seqs.iter().map(|&s| CompletId::new(0, s)).collect();
        assert_eq!(
            grouped,
            vec![
                (0, 1, ids(&[1, 3])),
                (2, 1, ids(&[2, 5])),
                (1, 0, ids(&[4])),
            ]
        );
    }

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
