//! The weighted complet affinity graph.
//!
//! Nodes are complets (plus the per-Core application pseudo-complets,
//! which are *pinned* — they model clients that cannot move). An edge
//! weighs what the planner makes of the pair's call counts: recent calls,
//! a decaying share of older ones, and a small constant so
//! connected-but-quiet complets still prefer co-location when it is free.

use std::collections::{BTreeMap, BTreeSet};

use fargo_wire::CompletId;

/// An undirected weighted graph over complet ids.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AffinityGraph {
    /// Canonical (min, max) keyed accumulated weights.
    weights: BTreeMap<(CompletId, CompletId), f64>,
    /// Complets that exist but cannot be moved, with the node they are
    /// anchored to (application pseudo-complets).
    pinned: BTreeMap<CompletId, u32>,
    nodes: BTreeSet<CompletId>,
    /// Observed resource load per vertex (normalised; see
    /// [`AffinityGraph::set_load`]). Vertices without an entry weigh 1.0,
    /// so a graph with no accounting data partitions exactly as the old
    /// count-based capacity did.
    loads: BTreeMap<CompletId, f64>,
}

fn canonical(a: CompletId, b: CompletId) -> (CompletId, CompletId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

impl AffinityGraph {
    pub fn new() -> AffinityGraph {
        AffinityGraph::default()
    }

    /// Accumulates `weight` onto the undirected edge `a — b`.
    /// Self-edges and non-positive weights are ignored.
    pub fn add_edge(&mut self, a: CompletId, b: CompletId, weight: f64) {
        if a == b || weight <= 0.0 {
            return;
        }
        self.nodes.insert(a);
        self.nodes.insert(b);
        *self.weights.entry(canonical(a, b)).or_insert(0.0) += weight;
    }

    /// Declares `id` immovable, anchored at `node`.
    pub fn pin(&mut self, id: CompletId, node: u32) {
        self.nodes.insert(id);
        self.pinned.insert(id, node);
    }

    /// The node an id is pinned to, if it is pinned.
    pub fn pinned_to(&self, id: CompletId) -> Option<u32> {
        self.pinned.get(&id).copied()
    }

    /// Sets the observed load of `id` in capacity seats. The planner
    /// normalises accountant loads so the *mean* tracked complet weighs
    /// 1.0; a complet doing 10× the mean work then occupies 10 seats and
    /// the partitioner spreads such heavy hitters instead of packing by
    /// head-count. Non-positive loads are ignored.
    pub fn set_load(&mut self, id: CompletId, load: f64) {
        if load > 0.0 {
            self.nodes.insert(id);
            self.loads.insert(id, load);
        }
    }

    /// The load of `id` in capacity seats (1.0 when never observed).
    pub fn load_of(&self, id: CompletId) -> f64 {
        self.loads.get(&id).copied().unwrap_or(1.0)
    }

    /// Every vertex (movable and pinned).
    pub fn nodes(&self) -> impl Iterator<Item = CompletId> + '_ {
        self.nodes.iter().copied()
    }

    /// Accumulated weight of the undirected edge, 0 if absent.
    pub fn weight(&self, a: CompletId, b: CompletId) -> f64 {
        self.weights.get(&canonical(a, b)).copied().unwrap_or(0.0)
    }

    /// All edges as `(a, b, weight)` with `a < b`, heaviest first.
    pub fn edges_by_weight(&self) -> Vec<(CompletId, CompletId, f64)> {
        let mut out: Vec<(CompletId, CompletId, f64)> =
            self.weights.iter().map(|(&(a, b), &w)| (a, b, w)).collect();
        out.sort_by(|x, y| y.2.partial_cmp(&x.2).unwrap_or(std::cmp::Ordering::Equal));
        out
    }

    /// Edges incident to `id` as `(neighbour, weight)`.
    pub fn incident(&self, id: CompletId) -> Vec<(CompletId, f64)> {
        self.weights
            .iter()
            .filter_map(|(&(a, b), &w)| {
                if a == id {
                    Some((b, w))
                } else if b == id {
                    Some((a, w))
                } else {
                    None
                }
            })
            .collect()
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(seq: u64) -> CompletId {
        CompletId::new(0, seq)
    }

    #[test]
    fn edges_accumulate_undirected() {
        let mut g = AffinityGraph::new();
        g.add_edge(c(1), c(2), 2.0);
        g.add_edge(c(2), c(1), 3.0);
        assert_eq!(g.weight(c(1), c(2)), 5.0);
        assert_eq!(g.weight(c(2), c(1)), 5.0);
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn self_edges_and_nonpositive_weights_ignored() {
        let mut g = AffinityGraph::new();
        g.add_edge(c(1), c(1), 5.0);
        g.add_edge(c(1), c(2), 0.0);
        g.add_edge(c(1), c(2), -1.0);
        assert!(g.is_empty());
    }

    #[test]
    fn edges_sort_heaviest_first() {
        let mut g = AffinityGraph::new();
        g.add_edge(c(1), c(2), 1.0);
        g.add_edge(c(2), c(3), 9.0);
        g.add_edge(c(1), c(3), 4.0);
        let weights: Vec<f64> = g.edges_by_weight().iter().map(|e| e.2).collect();
        assert_eq!(weights, vec![9.0, 4.0, 1.0]);
    }

    #[test]
    fn incident_lists_neighbours() {
        let mut g = AffinityGraph::new();
        g.add_edge(c(1), c(2), 1.0);
        g.add_edge(c(1), c(3), 2.0);
        g.add_edge(c(2), c(3), 4.0);
        let mut inc = g.incident(c(1));
        inc.sort_by_key(|&(id, _)| id);
        assert_eq!(inc, vec![(c(2), 1.0), (c(3), 2.0)]);
    }
}
