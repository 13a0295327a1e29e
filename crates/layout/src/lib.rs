//! # fargo-layout — the adaptive layout planner
//!
//! FarGo's monitoring facility (§4.1) and relocation semantics (§3) exist
//! so that an application's layout can be *changed at runtime to match
//! observed behaviour* — but in the paper the decision is left to
//! administrators and their layout scripts. This crate makes it: it
//! consumes the signals the runtime already produces, decides where
//! complets should live, and ships the layout script that moves them.
//!
//! The pipeline, run by one admin Core:
//!
//! 1. **[`AffinityGraph`]** — weighted complet-to-complet edges from the
//!    Cores' call-edge tables (calls since the previous round plus half
//!    of last round's weight), vertex loads from their accountants.
//! 2. **[`CostModel`]** — per-Core-pair traffic costs calibrated from
//!    simnet link characteristics (latency, bandwidth, observed loss).
//! 3. **[`partition`]** — a greedy edge-contraction seed refined by
//!    bounded local search under per-Core capacity constraints.
//! 4. **[`LayoutPlan`]** — the placement diff as `move_complet` steps,
//!    each with a predicted traffic-cost delta; plans below the
//!    hysteresis threshold are discarded.
//! 5. **[`Executor`]** — one move transaction per `(from, to)` group of
//!    steps, committed or aborted as a unit, verified by `locate` rounds
//!    and rolled back group by group when a later group fails.
//!
//! The loop is closed by a monitor event, not a timer: the shipped
//! script [`LAYOUT_RULES`] fires the `plan` action when a Core's
//! `remoteShare` crosses its threshold, and the action runs rounds at a
//! [`Rebalancer`] until one plans nothing. The shell loads the rule on
//! `autolayout on`; `plan` and `rebalance` preview and run one round.

mod affinity;
mod cost;
mod executor;
mod partition;
mod plan;
mod planner;
mod rule;

pub use affinity::AffinityGraph;
pub use cost::CostModel;
pub use executor::{ExecutionReport, Executor};
pub use partition::{assignment_cost, partition, PartitionProblem};
pub use plan::{LayoutPlan, MoveStep};
pub use planner::{Planner, PlannerConfig};
pub use rule::{register_plan_action, Rebalancer, LAYOUT_RULES};

use fargo_wire::CompletId;

/// Sequence 0 is reserved by the Core for the per-node application
/// pseudo-complet (invocations issued outside any complet). Such sources
/// are real traffic endpoints but can never be moved; the planner pins
/// them to their origin node.
pub(crate) fn is_app_pseudo(id: CompletId) -> bool {
    id.seq == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_pseudo_is_seq_zero() {
        assert!(is_app_pseudo(CompletId::new(2, 0)));
        assert!(!is_app_pseudo(CompletId::new(2, 1)));
    }
}
