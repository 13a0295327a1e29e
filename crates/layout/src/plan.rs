//! The layout plan: a placement diff expressed as `move_complet` steps
//! with predicted traffic-cost deltas.

use std::collections::BTreeMap;

use fargo_wire::CompletId;

use crate::affinity::AffinityGraph;
use crate::cost::CostModel;
use crate::partition::assignment_cost;

/// One relocation the plan wants executed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MoveStep {
    pub complet: CompletId,
    pub from: u32,
    pub to: u32,
    /// Predicted cost reduction from this step alone (µ-cost units),
    /// holding every other complet at its *target* position.
    pub predicted_gain: f64,
}

/// An executable set of moves plus the cost prediction behind it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayoutPlan {
    /// Monotone id assigned by the planner, echoed in journal events so
    /// plan → step → rollback chains can be reassembled from the
    /// timeline.
    pub id: u64,
    /// Steps, largest predicted gain first.
    pub steps: Vec<MoveStep>,
    /// Predicted traffic cost of the current placement.
    pub current_cost: f64,
    /// Predicted traffic cost after every step executes.
    pub planned_cost: f64,
}

impl LayoutPlan {
    /// Diffs a partitioner assignment against the current placement.
    /// Steps are ordered by descending per-step gain and truncated to
    /// `max_moves`; `planned_cost` reflects the *truncated* plan.
    pub fn diff(
        graph: &AffinityGraph,
        cost: &CostModel,
        current: &BTreeMap<CompletId, u32>,
        target: &BTreeMap<CompletId, u32>,
        id: u64,
        max_moves: usize,
    ) -> LayoutPlan {
        let current_cost = assignment_cost(graph, cost, current);
        let mut steps: Vec<MoveStep> = Vec::new();
        for (&complet, &to) in target {
            let Some(&from) = current.get(&complet) else {
                continue; // appeared mid-plan; let the next round see it
            };
            if from == to {
                continue;
            }
            // Per-step gain: cost with this complet at `from` vs at `to`,
            // everything else already at its target.
            let mut staged = target.clone();
            staged.insert(complet, from);
            let before = assignment_cost(graph, cost, &staged);
            staged.insert(complet, to);
            let after = assignment_cost(graph, cost, &staged);
            steps.push(MoveStep {
                complet,
                from,
                to,
                predicted_gain: before - after,
            });
        }
        steps.sort_by(|a, b| {
            b.predicted_gain
                .partial_cmp(&a.predicted_gain)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.complet.cmp(&b.complet))
        });
        steps.truncate(max_moves);
        // Price the truncated plan: apply only the surviving steps.
        let mut planned = current.clone();
        for s in &steps {
            planned.insert(s.complet, s.to);
        }
        let planned_cost = assignment_cost(graph, cost, &planned);
        LayoutPlan {
            id,
            steps,
            current_cost,
            planned_cost,
        }
    }

    /// Predicted absolute cost reduction.
    pub fn predicted_delta(&self) -> f64 {
        self.current_cost - self.planned_cost
    }

    /// Predicted reduction as a fraction of the current cost (0 when the
    /// current layout is already free).
    pub fn relative_gain(&self) -> f64 {
        if self.current_cost <= 0.0 {
            0.0
        } else {
            self.predicted_delta() / self.current_cost
        }
    }

    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Human-readable rendering, one line per step, for the shell.
    /// `name_of` maps node indices to Core names.
    pub fn render(&self, name_of: &dyn Fn(u32) -> String) -> String {
        if self.is_empty() {
            return format!("plan #{}: no moves (layout is settled)", self.id);
        }
        let mut out = format!(
            "plan #{}: {} step(s), predicted cost {:.1} -> {:.1} ({:.0}% gain)\n",
            self.id,
            self.steps.len(),
            self.current_cost,
            self.planned_cost,
            self.relative_gain() * 100.0,
        );
        for s in &self.steps {
            out.push_str(&format!(
                "  {} {} -> {}  (gain {:.1})\n",
                s.complet,
                name_of(s.from),
                name_of(s.to),
                s.predicted_gain,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affinity::AffinityGraph;

    fn c(seq: u64) -> CompletId {
        CompletId::new(0, seq)
    }

    fn fixture() -> (AffinityGraph, CostModel, BTreeMap<CompletId, u32>) {
        let mut g = AffinityGraph::new();
        g.add_edge(c(1), c(2), 10.0);
        g.add_edge(c(2), c(3), 1.0);
        let cost = CostModel::uniform(&[0, 1]);
        let current = [(c(1), 0), (c(2), 1), (c(3), 0)].into_iter().collect();
        (g, cost, current)
    }

    #[test]
    fn diff_orders_by_gain_and_prices_the_plan() {
        let (g, cost, current) = fixture();
        let target: BTreeMap<CompletId, u32> =
            [(c(1), 0), (c(2), 0), (c(3), 0)].into_iter().collect();
        let plan = LayoutPlan::diff(&g, &cost, &current, &target, 7, 8);
        assert_eq!(plan.id, 7);
        assert_eq!(plan.steps.len(), 1, "only c0.2 moves");
        assert_eq!(plan.steps[0].complet, c(2));
        assert_eq!((plan.steps[0].from, plan.steps[0].to), (1, 0));
        assert_eq!(plan.current_cost, 10.0 + 1.0);
        assert_eq!(plan.planned_cost, 0.0);
        assert_eq!(plan.predicted_delta(), 11.0);
        assert!((plan.relative_gain() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn truncation_reprices_the_plan() {
        let mut g = AffinityGraph::new();
        g.add_edge(c(1), c(2), 10.0);
        g.add_edge(c(3), c(4), 2.0);
        let cost = CostModel::uniform(&[0, 1]);
        let current: BTreeMap<CompletId, u32> = [(c(1), 0), (c(2), 1), (c(3), 0), (c(4), 1)]
            .into_iter()
            .collect();
        let target: BTreeMap<CompletId, u32> = [(c(1), 0), (c(2), 0), (c(3), 0), (c(4), 0)]
            .into_iter()
            .collect();
        let plan = LayoutPlan::diff(&g, &cost, &current, &target, 1, 1);
        assert_eq!(plan.steps.len(), 1, "budget of one move");
        assert_eq!(plan.steps[0].complet, c(2), "heaviest edge repaired first");
        assert_eq!(plan.planned_cost, 2.0, "the lighter edge still pays");
    }

    #[test]
    fn empty_plan_renders_and_reports_zero_gain() {
        let (g, cost, current) = fixture();
        let plan = LayoutPlan::diff(&g, &cost, &current, &current, 3, 8);
        assert!(plan.is_empty());
        assert_eq!(plan.predicted_delta(), 0.0);
        let text = plan.render(&|n| format!("core{n}"));
        assert!(text.contains("no moves"));
    }

    #[test]
    fn render_names_cores() {
        let (g, cost, current) = fixture();
        let target: BTreeMap<CompletId, u32> =
            [(c(1), 0), (c(2), 0), (c(3), 0)].into_iter().collect();
        let plan = LayoutPlan::diff(&g, &cost, &current, &target, 1, 8);
        let text = plan.render(&|n| format!("core{n}"));
        assert!(text.contains("c0.2 core1 -> core0"), "got: {text}");
    }
}
