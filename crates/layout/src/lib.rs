//! # fargo-layout — the adaptive layout planner
//!
//! FarGo's monitoring facility (§4.1) and relocation semantics (§3) exist
//! so that an application's layout can be *changed at runtime to match
//! observed behaviour* — but in the paper the decision loop is left to
//! administrators and layout scripts. This crate closes the loop: it
//! consumes the signals the runtime already produces and moves complets
//! on its own.
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
//! [`AutoLayout`] ties the stages into a closed loop driven by the Core's
//! monitor tick, with an `autolayout` script action and shell commands
//! (`plan`, `rebalance`, `autolayout on|off|status`) layered on top.

mod affinity;
mod auto;
mod cost;
mod executor;
mod partition;
mod plan;
mod planner;

pub use affinity::AffinityGraph;
pub use auto::{register_script_action, AutoLayout, AutoLayoutStatus};
pub use cost::CostModel;
pub use executor::{ExecutionReport, Executor};
pub use partition::{assignment_cost, partition, PartitionProblem};
pub use plan::{LayoutPlan, MoveStep};
pub use planner::{Planner, PlannerConfig};

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
