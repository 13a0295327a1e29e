//! The layout observatory pane: renders reconstructed layout history
//! (placement, inter-complet reference graph, tracker-chain topology)
//! from the flight-recorder journal, as ASCII frames and DOT export.
//!
//! Unlike [`LayoutMonitor`](crate::LayoutMonitor), which follows *live*
//! events, the observatory works entirely from the merged cluster-wide
//! journal timeline, so it can show the layout as it was at any HLC
//! instant — including states no monitor was attached to witness.

use fargo_core::{Core, Hlc, LayoutHistory, LayoutState};
use fargo_layout::LayoutPlan;

/// A journal-backed view of layout history across the whole cluster.
pub struct Observatory {
    core: Core,
}

impl Observatory {
    /// Attaches the observatory to any Core of the cluster (the journal
    /// is collected from every reachable peer on each query).
    pub fn attach(core: Core) -> Observatory {
        Observatory { core }
    }

    /// The merged cluster-wide history (one journal collection).
    pub fn history(&self) -> LayoutHistory {
        self.core.layout_history()
    }

    /// ASCII frame of the layout at `at` (or the final journaled state
    /// when `None`).
    pub fn render_at(&self, at: Option<Hlc>) -> String {
        let history = self.history();
        let state = match at {
            Some(h) => history.at(h),
            None => history.final_state(),
        };
        let header = match at {
            Some(h) => format!("== layout observatory @ {h} ==\n"),
            None => "== layout observatory (latest) ==\n".to_owned(),
        };
        let core = self.core.clone();
        header + &render_state(&state, |n| core.core_name_of(n))
    }

    /// DOT (Graphviz) export of the layout at `at`: Cores as clusters,
    /// complets as nodes, reference edges solid, tracker forwards dashed.
    pub fn render_dot(&self, at: Option<Hlc>) -> String {
        let history = self.history();
        let state = match at {
            Some(h) => history.at(h),
            None => history.final_state(),
        };
        let core = self.core.clone();
        state_to_dot(&state, |n| core.core_name_of(n))
    }

    /// The latest ASCII frame with an adaptive layout plan drawn over
    /// it: below the placement boxes, one arrow line per pending move,
    /// so an operator can eyeball what the planner intends before (or
    /// while) the executor drains it.
    pub fn render_with_plan(&self, plan: &LayoutPlan) -> String {
        let core = self.core.clone();
        self.render_at(None) + &plan_overlay(plan, |n| core.core_name_of(n))
    }

    /// One line per detected anomaly in the full history, judged with the
    /// default thresholds.
    pub fn anomaly_lines(&self) -> Vec<String> {
        self.history()
            .anomalies()
            .into_iter()
            .map(|a| a.to_string())
            .collect()
    }

    /// The last `n` merged journal events, oldest first.
    pub fn timeline_lines(&self, n: usize) -> Vec<String> {
        let events = self.history().events().to_vec();
        let skip = events.len().saturating_sub(n);
        events[skip..].iter().map(|e| e.to_string()).collect()
    }
}

impl std::fmt::Debug for Observatory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Observatory")
            .field("core", &self.core.name())
            .finish()
    }
}

/// Renders a reconstructed [`LayoutState`] as an ASCII frame: one box per
/// Core holding complets, then reference edges, then tracker chains.
pub fn render_state(state: &LayoutState, name_of: impl Fn(u32) -> String) -> String {
    let mut out = String::new();
    let mut by_core: std::collections::BTreeMap<u32, Vec<&str>> = std::collections::BTreeMap::new();
    for (id, node) in &state.placement {
        by_core.entry(*node).or_default().push(id);
    }
    if by_core.is_empty() {
        out.push_str("(no complets placed)\n");
    }
    for (node, ids) in &by_core {
        let name = name_of(*node);
        out.push_str(&format!("+-- {name} "));
        out.push_str(&"-".repeat(34usize.saturating_sub(name.len())));
        out.push('\n');
        for id in ids {
            out.push_str(&format!("|   {id}\n"));
        }
    }
    if !state.refs.is_empty() {
        out.push_str("+--- references ");
        out.push_str(&"-".repeat(24));
        out.push('\n');
        for (src, dst, rel) in &state.refs {
            out.push_str(&format!("|   {src} -{rel}-> {dst}\n"));
        }
    }
    let forwards: Vec<String> = state
        .trackers
        .iter()
        .filter_map(|((node, complet), target)| {
            target.map(|t| format!("|   {complet}: {} -> {}", name_of(*node), name_of(t)))
        })
        .collect();
    if !forwards.is_empty() {
        out.push_str("+--- tracker chains ");
        out.push_str(&"-".repeat(20));
        out.push('\n');
        for line in forwards {
            out.push_str(&line);
            out.push('\n');
        }
    }
    out
}

/// Renders a [`LayoutPlan`] as an overlay section matching the frame
/// style of [`render_state`]: the predicted cost delta, then one arrow
/// per step.
pub fn plan_overlay(plan: &LayoutPlan, name_of: impl Fn(u32) -> String) -> String {
    let mut out = String::new();
    out.push_str("+--- planned moves ");
    out.push_str(&"-".repeat(21));
    out.push('\n');
    if plan.is_empty() {
        out.push_str("|   (none: layout is settled)\n");
        return out;
    }
    out.push_str(&format!(
        "|   plan #{}: cost {:.1} -> {:.1} ({:.0}% gain)\n",
        plan.id,
        plan.current_cost,
        plan.planned_cost,
        plan.relative_gain() * 100.0
    ));
    for s in &plan.steps {
        out.push_str(&format!(
            "|   {} {} ==> {}  (gain {:.1})\n",
            s.complet,
            name_of(s.from),
            name_of(s.to),
            s.predicted_gain
        ));
    }
    out
}

/// Exports a reconstructed [`LayoutState`] as a Graphviz digraph.
pub fn state_to_dot(state: &LayoutState, name_of: impl Fn(u32) -> String) -> String {
    let mut out = String::from("digraph layout {\n  rankdir=LR;\n");
    let mut by_core: std::collections::BTreeMap<u32, Vec<&str>> = std::collections::BTreeMap::new();
    for (id, node) in &state.placement {
        by_core.entry(*node).or_default().push(id);
    }
    for (node, ids) in &by_core {
        let name = name_of(*node);
        out.push_str(&format!(
            "  subgraph \"cluster_{node}\" {{\n    label=\"{name}\";\n"
        ));
        for id in ids {
            out.push_str(&format!("    \"{id}\";\n"));
        }
        out.push_str("  }\n");
    }
    for (src, dst, rel) in &state.refs {
        out.push_str(&format!("  \"{src}\" -> \"{dst}\" [label=\"{rel}\"];\n"));
    }
    for ((node, complet), target) in &state.trackers {
        if let Some(t) = target {
            out.push_str(&format!(
                "  \"trk_{complet}@{node}\" [shape=point];\n  \"trk_{complet}@{node}\" -> \"trk_{complet}@{t}\" [style=dashed, label=\"{complet}\"];\n"
            ));
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fargo_core::{JournalEvent, JournalKind};

    fn ev(
        seq: u64,
        core: u32,
        kind: JournalKind,
        subject: &str,
        peer: Option<u32>,
    ) -> JournalEvent {
        JournalEvent {
            hlc: Hlc {
                wall_us: 100 + seq,
                logical: 0,
            },
            core,
            seq,
            kind,
            subject: subject.into(),
            object: "T".into(),
            detail: String::new(),
            peer,
        }
    }

    fn sample_state() -> LayoutState {
        let history = LayoutHistory::from_events(vec![
            ev(0, 0, JournalKind::CompletArrived, "c0.1", None),
            ev(1, 0, JournalKind::TrackerCreated, "c0.1", None),
            ev(2, 0, JournalKind::RefEdgeCreated, "c0.1", None),
            ev(3, 0, JournalKind::CompletDeparted, "c0.1", Some(1)),
            ev(4, 0, JournalKind::TrackerForwarded, "c0.1", Some(1)),
            ev(5, 1, JournalKind::CompletArrived, "c0.1", None),
        ]);
        history.final_state()
    }

    #[test]
    fn ascii_frame_shows_placement_and_chain() {
        let frame = render_state(&sample_state(), |n| format!("core{n}"));
        assert!(frame.contains("+-- core1"), "frame: {frame}");
        assert!(frame.contains("c0.1"));
        assert!(
            frame.contains("core0 -> core1"),
            "tracker chain missing: {frame}"
        );
    }

    #[test]
    fn dot_export_is_wellformed() {
        let dot = state_to_dot(&sample_state(), |n| format!("core{n}"));
        assert!(dot.starts_with("digraph layout {"));
        assert!(dot.trim_end().ends_with('}'));
        assert!(dot.contains("subgraph \"cluster_1\""));
        assert!(dot.contains("style=dashed"));
    }

    #[test]
    fn empty_state_renders_placeholder() {
        let state = LayoutHistory::from_events(vec![]).final_state();
        assert!(render_state(&state, |n| n.to_string()).contains("(no complets placed)"));
    }

    #[test]
    fn plan_overlay_draws_moves_and_gain() {
        use fargo_layout::MoveStep;
        use fargo_wire::CompletId;
        let plan = LayoutPlan {
            id: 3,
            steps: vec![MoveStep {
                complet: CompletId::new(0, 7),
                from: 1,
                to: 0,
                predicted_gain: 12.5,
            }],
            current_cost: 20.0,
            planned_cost: 7.5,
        };
        let overlay = plan_overlay(&plan, |n| format!("core{n}"));
        assert!(overlay.contains("planned moves"), "{overlay}");
        assert!(overlay.contains("c0.7 core1 ==> core0"), "{overlay}");
        assert!(overlay.contains("plan #3"), "{overlay}");

        let idle = plan_overlay(&LayoutPlan::default(), |n| n.to_string());
        assert!(idle.contains("layout is settled"), "{idle}");
    }
}
