//! The partitioner: maps complets to Cores minimising weighted remote
//! traffic under capacity constraints.
//!
//! Exact graph partitioning is NP-hard; the planner needs a fast,
//! deterministic heuristic that is *stable* (re-running on the same
//! inputs must not oscillate). Two stages:
//!
//! 1. **Greedy edge contraction** — walk edges heaviest-first and merge
//!    endpoints into clusters while the merged *load* fits the per-Core
//!    capacity. Capacity is measured in load seats: a complet occupies
//!    [`AffinityGraph::load_of`] seats (1.0 without accounting data, so
//!    the scheme degrades to the old complet-count capacity), which is
//!    what lets the partitioner spread observed heavy hitters instead of
//!    packing by head-count. The heaviest affinities are guaranteed
//!    co-location before any placement decision is taken. Clusters
//!    containing a pinned vertex (an application pseudo-complet) are
//!    anchored to its node; two clusters anchored to different nodes
//!    never merge.
//! 2. **Seeding + bounded local search** — each cluster lands on its
//!    anchor, or on the Core already hosting the plurality of its
//!    members (bias: don't move what doesn't need to move). Then a
//!    bounded number of refinement passes tries each movable complet on
//!    each other Core and applies strict improvements.
//!
//! The result is a full assignment; diffing against the current
//! placement (see [`crate::LayoutPlan`]) yields the move steps.

use std::collections::BTreeMap;

use fargo_wire::CompletId;

use crate::affinity::AffinityGraph;
use crate::cost::CostModel;

/// Refinement passes; each is O(complets × Cores × incident edges).
const REFINE_PASSES: usize = 4;

/// Minimum cost improvement for a refinement move to be applied, guarding
/// against float-noise oscillation.
const IMPROVE_EPS: f64 = 1e-9;

/// Slack added to capacity comparisons so summed f64 loads equal to the
/// capacity (e.g. three 1.0-seat complets against capacity 3) are not
/// rejected by accumulation noise.
const CAP_EPS: f64 = 1e-6;

/// One partitioning instance.
#[derive(Debug, Clone, Copy)]
pub struct PartitionProblem<'a> {
    pub graph: &'a AffinityGraph,
    pub cost: &'a CostModel,
    /// Where each movable complet lives now.
    pub current: &'a BTreeMap<CompletId, u32>,
    /// Per-Core capacity in load seats (`None` = unbounded). A complet
    /// occupies [`AffinityGraph::load_of`] seats — 1.0 unless accounting
    /// observed otherwise — so without load data this is the old
    /// complet-count capacity. Pinned pseudo-complets do not count
    /// against it.
    pub capacity: Option<usize>,
}

/// Total predicted traffic cost of an assignment: Σ edge-weight ×
/// pair-cost. Vertices missing from both the assignment and the pin set
/// contribute nothing.
pub fn assignment_cost(
    graph: &AffinityGraph,
    cost: &CostModel,
    assignment: &BTreeMap<CompletId, u32>,
) -> f64 {
    let place = |id: CompletId| -> Option<u32> {
        graph.pinned_to(id).or_else(|| assignment.get(&id).copied())
    };
    graph
        .edges_by_weight()
        .iter()
        .filter_map(|&(a, b, w)| {
            let (pa, pb) = (place(a)?, place(b)?);
            Some(w * cost.pair_cost(pa, pb))
        })
        .sum()
}

/// Union-find with cluster load sums and optional pinned anchors.
struct Clusters {
    parent: Vec<usize>,
    /// Summed load seats of the *movable* members (pinned
    /// pseudo-complets are not resident complets and weigh nothing).
    size: Vec<f64>,
    anchor: Vec<Option<u32>>,
}

impl Clusters {
    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Merges the clusters of `a` and `b` if load sums and anchors allow.
    fn try_union(&mut self, a: usize, b: usize, max_size: f64) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return true;
        }
        if self.size[ra] + self.size[rb] > max_size + CAP_EPS {
            return false;
        }
        match (self.anchor[ra], self.anchor[rb]) {
            (Some(x), Some(y)) if x != y => return false,
            _ => {}
        }
        let (big, small) = if self.size[ra] >= self.size[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small] = big;
        self.size[big] += self.size[small];
        self.anchor[big] = self.anchor[big].or(self.anchor[small]);
        true
    }
}

/// Computes a new assignment for every movable vertex of the graph.
pub fn partition(problem: PartitionProblem<'_>) -> BTreeMap<CompletId, u32> {
    let PartitionProblem {
        graph,
        cost,
        current,
        capacity,
    } = problem;
    let cores = cost.cores();
    if cores.is_empty() {
        return BTreeMap::new();
    }

    let verts: Vec<CompletId> = graph.nodes().collect();
    let index: BTreeMap<CompletId, usize> =
        verts.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    let movable: Vec<bool> = verts
        .iter()
        .map(|&v| graph.pinned_to(v).is_none())
        .collect();
    // Seats each vertex occupies: its observed load, 1.0 when the
    // accountant never saw it, 0.0 when pinned (pseudo-complets are not
    // resident work).
    let seats: Vec<f64> = verts
        .iter()
        .zip(&movable)
        .map(|(&v, &m)| if m { graph.load_of(v) } else { 0.0 })
        .collect();
    let cap = capacity.map(|c| c as f64).unwrap_or(f64::INFINITY);

    // Stage 1: greedy contraction, heaviest edges first.
    let mut clusters = Clusters {
        parent: (0..verts.len()).collect(),
        size: seats.clone(),
        anchor: verts.iter().map(|&v| graph.pinned_to(v)).collect(),
    };
    for (a, b, _w) in graph.edges_by_weight() {
        let (ia, ib) = (index[&a], index[&b]);
        clusters.try_union(ia, ib, cap);
    }

    // Group members per cluster root (movable members only need seats).
    let mut members: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for i in 0..verts.len() {
        let root = clusters.find(i);
        members.entry(root).or_default().push(i);
    }

    // Stage 2a: seed each cluster. Anchored clusters go to their anchor;
    // the rest go where the plurality of their members already live (or
    // the emptiest Core when nothing is placed yet), capacity permitting.
    let mut assignment: BTreeMap<CompletId, u32> = BTreeMap::new();
    let mut load: BTreeMap<u32, f64> = cores.iter().map(|&c| (c, 0.0)).collect();
    let mut roots: Vec<(usize, f64)> = members
        .iter()
        .map(|(&root, ms)| (root, ms.iter().map(|&i| seats[i]).sum()))
        .collect();
    // Heaviest clusters claim seats first so capacity fragments less.
    roots.sort_by(|&(ra, la), &(rb, lb)| lb.total_cmp(&la).then(ra.cmp(&rb)));
    for (root, cluster_load) in roots {
        let ms = &members[&root];
        let root = clusters.find(root);
        let seed = clusters.anchor[root].or_else(|| {
            let mut votes: BTreeMap<u32, usize> = BTreeMap::new();
            for &i in ms {
                if let Some(&at) = current.get(&verts[i]) {
                    *votes.entry(at).or_insert(0) += 1;
                }
            }
            votes
                .into_iter()
                .max_by_key(|&(core, n)| (n, std::cmp::Reverse(core)))
                .map(|(core, _)| core)
        });
        // Fall back across cores by remaining headroom when the seed is
        // absent or full.
        let mut ranked: Vec<u32> = cores.to_vec();
        ranked.sort_by(|a, b| load[a].total_cmp(&load[b]).then(a.cmp(b)));
        let chosen = seed
            .filter(|c| {
                cores.contains(c)
                    && load
                        .get(c)
                        .is_some_and(|&l| l + cluster_load <= cap + CAP_EPS)
            })
            .or_else(|| {
                ranked
                    .iter()
                    .copied()
                    .find(|c| load[c] + cluster_load <= cap + CAP_EPS)
            })
            .unwrap_or(ranked[0]);
        for &i in ms {
            if movable[i] {
                assignment.insert(verts[i], chosen);
            }
        }
        *load.entry(chosen).or_insert(0.0) += cluster_load;
    }

    // Stage 2b: bounded local search. Move one complet at a time to the
    // Core that most reduces its incident cost, respecting capacity.
    for _pass in 0..REFINE_PASSES {
        let mut improved = false;
        for &v in &verts {
            if graph.pinned_to(v).is_some() {
                continue;
            }
            let here = assignment[&v];
            let incident = graph.incident(v);
            let local_cost = |at: u32, assignment: &BTreeMap<CompletId, u32>| -> f64 {
                incident
                    .iter()
                    .filter_map(|&(n, w)| {
                        let pn = graph.pinned_to(n).or_else(|| assignment.get(&n).copied())?;
                        Some(w * cost.pair_cost(at, pn))
                    })
                    .sum()
            };
            let base = local_cost(here, &assignment);
            let v_seats = seats[index[&v]];
            let mut best: Option<(f64, u32)> = None;
            for &c in cores {
                if c == here || load[&c] + v_seats > cap + CAP_EPS {
                    continue;
                }
                let gain = base - local_cost(c, &assignment);
                if gain > IMPROVE_EPS && best.is_none_or(|(g, _)| gain > g) {
                    best = Some((gain, c));
                }
            }
            if let Some((_, c)) = best {
                assignment.insert(v, c);
                *load.get_mut(&here).expect("known core") -= v_seats;
                *load.get_mut(&c).expect("known core") += v_seats;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(seq: u64) -> CompletId {
        CompletId::new(0, seq)
    }

    fn placed(pairs: &[(CompletId, u32)]) -> BTreeMap<CompletId, u32> {
        pairs.iter().copied().collect()
    }

    /// Two triangles joined by one weak edge, two Cores: the known
    /// optimal cut separates the triangles.
    #[test]
    fn two_triangles_cut_on_the_weak_edge() {
        let mut g = AffinityGraph::new();
        for (a, b) in [(1, 2), (2, 3), (1, 3)] {
            g.add_edge(c(a), c(b), 10.0);
        }
        for (a, b) in [(4, 5), (5, 6), (4, 6)] {
            g.add_edge(c(a), c(b), 10.0);
        }
        g.add_edge(c(3), c(4), 1.0); // the bridge
        let cost = CostModel::uniform(&[0, 1]);
        // Adversarial start: the triangles are interleaved.
        let current = placed(&[
            (c(1), 0),
            (c(2), 1),
            (c(3), 0),
            (c(4), 1),
            (c(5), 0),
            (c(6), 1),
        ]);
        let a = partition(PartitionProblem {
            graph: &g,
            cost: &cost,
            current: &current,
            capacity: Some(3),
        });
        assert_eq!(a[&c(1)], a[&c(2)]);
        assert_eq!(a[&c(2)], a[&c(3)]);
        assert_eq!(a[&c(4)], a[&c(5)]);
        assert_eq!(a[&c(5)], a[&c(6)]);
        assert_ne!(a[&c(1)], a[&c(4)], "capacity forces the bridge cut");
        let total = assignment_cost(&g, &cost, &a);
        assert_eq!(total, 1.0, "only the bridge edge pays");
    }

    /// A clique of four under capacity 2 must split 2/2 — no Core may be
    /// overfilled however strong the affinity.
    #[test]
    fn clique_splits_under_capacity() {
        let mut g = AffinityGraph::new();
        for a in 1..=4u64 {
            for b in (a + 1)..=4 {
                g.add_edge(c(a), c(b), 5.0);
            }
        }
        let cost = CostModel::uniform(&[0, 1]);
        let current = placed(&[(c(1), 0), (c(2), 0), (c(3), 1), (c(4), 1)]);
        let a = partition(PartitionProblem {
            graph: &g,
            cost: &cost,
            current: &current,
            capacity: Some(2),
        });
        let mut loads: BTreeMap<u32, usize> = BTreeMap::new();
        for core in a.values() {
            *loads.entry(*core).or_insert(0) += 1;
        }
        assert!(loads.values().all(|&l| l <= 2), "capacity respected: {a:?}");
        assert_eq!(a.len(), 4);
    }

    /// A pinned client drags its hot partner onto the client's Core.
    #[test]
    fn pinned_vertex_anchors_its_cluster() {
        let mut g = AffinityGraph::new();
        let app = CompletId::new(2, 0);
        g.pin(app, 2);
        g.add_edge(app, c(7), 50.0);
        let cost = CostModel::uniform(&[0, 1, 2]);
        let current = placed(&[(c(7), 0)]);
        let a = partition(PartitionProblem {
            graph: &g,
            cost: &cost,
            current: &current,
            capacity: None,
        });
        assert_eq!(a[&c(7)], 2, "moves to the pinned client");
        assert!(!a.contains_key(&app), "pinned vertices are not assigned");
    }

    /// With no affinity at all, nothing moves: the assignment keeps the
    /// current placement (stability matters more than balance here).
    #[test]
    fn isolated_complets_stay_put() {
        let mut g = AffinityGraph::new();
        g.add_edge(c(1), c(2), 3.0);
        let cost = CostModel::uniform(&[0, 1]);
        let current = placed(&[(c(1), 1), (c(2), 1)]);
        let a = partition(PartitionProblem {
            graph: &g,
            cost: &cost,
            current: &current,
            capacity: None,
        });
        assert_eq!(a[&c(1)], 1);
        assert_eq!(a[&c(2)], 1);
        assert_eq!(
            assignment_cost(&g, &cost, &a),
            0.0,
            "already co-located pair stays free"
        );
    }

    /// Two observed heavy hitters (8 load seats each) sharing a strong
    /// affinity edge must still split across capacity-10 Cores: their
    /// combined load would overload either one. Under head-count
    /// capacity (2 complets ≤ 10) they would have been packed together.
    #[test]
    fn heavy_hitters_spread_across_cores() {
        let mut g = AffinityGraph::new();
        g.add_edge(c(1), c(2), 100.0);
        g.set_load(c(1), 8.0);
        g.set_load(c(2), 8.0);
        let cost = CostModel::uniform(&[0, 1]);
        let current = placed(&[(c(1), 0), (c(2), 0)]);
        let a = partition(PartitionProblem {
            graph: &g,
            cost: &cost,
            current: &current,
            capacity: Some(10),
        });
        assert_ne!(a[&c(1)], a[&c(2)], "load capacity forces a split: {a:?}");
    }

    /// The same two heavy hitters, each with light satellites (1 seat
    /// each): under head-count capacity (6 complets ≤ 10) they are packed
    /// together and one Core carries all 20 units; load seats split them
    /// and no Core carries more than its 10.
    #[test]
    fn load_seats_split_what_count_seats_colocate() {
        let load = |seq: u64| if seq <= 2 { 8.0 } else { 1.0 };
        let max_core_load = |load_seats: bool| -> f64 {
            let mut g = AffinityGraph::new();
            g.add_edge(c(1), c(2), 100.0);
            for s in 3..=6u64 {
                g.add_edge(c(1 + s % 2), c(s), 2.0);
            }
            if load_seats {
                for s in 1..=6u64 {
                    g.set_load(c(s), load(s));
                }
            }
            let cost = CostModel::uniform(&[0, 1]);
            let current: BTreeMap<CompletId, u32> = (1..=6u64).map(|s| (c(s), 0)).collect();
            let a = partition(PartitionProblem {
                graph: &g,
                cost: &cost,
                current: &current,
                capacity: Some(10),
            });
            if load_seats {
                assert_ne!(a[&c(1)], a[&c(2)], "load capacity forces a split: {a:?}");
            }
            let mut per_core: BTreeMap<u32, f64> = BTreeMap::new();
            for (id, core) in &a {
                *per_core.entry(*core).or_insert(0.0) += load(id.seq);
            }
            per_core.values().fold(0.0, |m, &l| m.max(l))
        };
        let (by_count, by_load) = (max_core_load(false), max_core_load(true));
        assert!(by_count > 10.0, "count seats overload a Core: {by_count}");
        assert!(
            by_load <= 10.0 + 1e-6,
            "load seats respect capacity: {by_load}"
        );
    }

    /// A heavy hitter and its light satellites: the satellites co-locate
    /// with it up to the load capacity, and the leftover spills — the
    /// per-Core load sum never exceeds the seat budget.
    #[test]
    fn load_seats_bound_per_core_load() {
        let mut g = AffinityGraph::new();
        g.set_load(c(1), 4.0);
        for s in 2..=6u64 {
            g.add_edge(c(1), c(s), 10.0 - s as f64);
        }
        let cost = CostModel::uniform(&[0, 1]);
        let current: BTreeMap<CompletId, u32> = (1..=6u64).map(|s| (c(s), 0)).collect();
        let a = partition(PartitionProblem {
            graph: &g,
            cost: &cost,
            current: &current,
            capacity: Some(6),
        });
        let mut loads: BTreeMap<u32, f64> = BTreeMap::new();
        for (&id, &core) in &a {
            *loads.entry(core).or_insert(0.0) += g.load_of(id);
        }
        assert!(
            loads.values().all(|&l| l <= 6.0 + 1e-6),
            "seat budget respected: {loads:?}"
        );
        assert_eq!(a.len(), 6, "every movable complet is placed");
    }

    /// A complet pulled equally towards two pinned clients must resolve
    /// the tie the same way on every run — a planner that flip-flops on
    /// ties would ping-pong the complet between Cores forever.
    #[test]
    fn ties_resolve_deterministically() {
        let mut g = AffinityGraph::new();
        let left = CompletId::new(0, 0); // pinned app at core0
        let right = CompletId::new(1, 0); // pinned app at core1
        g.pin(left, 0);
        g.pin(right, 1);
        g.add_edge(left, c(5), 10.0);
        g.add_edge(right, c(5), 10.0);
        let cost = CostModel::uniform(&[0, 1]);
        let current = placed(&[(c(5), 1)]);
        let first = partition(PartitionProblem {
            graph: &g,
            cost: &cost,
            current: &current,
            capacity: None,
        });
        for _ in 0..5 {
            let again = partition(PartitionProblem {
                graph: &g,
                cost: &cost,
                current: &current,
                capacity: None,
            });
            assert_eq!(again[&c(5)], first[&c(5)], "deterministic under ties");
        }
    }
}
