//! The planner proper: signals → affinity graph → cost model →
//! partitioner → [`LayoutPlan`], with hysteresis.
//!
//! All inputs are tables the Cores already keep, each read with one
//! request per reachable Core: who calls whom from the call-edge tables
//! (`Core::collect_edges`, the one measurement of traffic), how much work
//! each complet does from the accountants (`Core::collect_top`), live
//! placement from the location shards (`shard_live_at`), and link
//! characteristics via the [`CostModel`] calibration. The journal is not
//! an input: what it keeps, and whether it is on, changes no decision.
//!
//! Hysteresis: a plan whose predicted relative gain is below the
//! configured fraction is reported as empty. Observed traffic is noisy;
//! without a dead band the partitioner would happily chase one-invocation
//! differences around the cluster, and every move costs real transfer
//! work plus a tracker chain. The threshold means a round only acts when
//! the expected win clearly exceeds that churn.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use fargo_core::Core;
use fargo_wire::CompletId;
use parking_lot::Mutex;

use crate::affinity::AffinityGraph;
use crate::cost::CostModel;
use crate::is_app_pseudo;
use crate::partition::{partition, PartitionProblem};
use crate::plan::LayoutPlan;

/// The share of a pair's weight carried into the next round: a steady
/// pair weighs two rounds of calls, a burst 1% of itself seven rounds on.
/// The planner's window and the smoothing across it, in one number.
const DECAY: f64 = 0.5;

/// What a called reference weighs beside its traffic, so
/// connected-but-quiet complets still prefer co-location when it is free.
const REF_EDGE_WEIGHT: f64 = 0.25;

/// Per `(source, target)`: the calls the Cores reported in total at the
/// last round — the baseline of the next delta — and its weight then.
type Traffic = BTreeMap<(CompletId, CompletId), (u64, f64)>;

/// One round's traffic from the last round's and the totals reported now:
/// a pair weighs its calls since then plus [`DECAY`] of its old weight. A
/// total below its baseline (an evicted row, a restarted Core) is silence.
fn next_round(prev: &Traffic, totals: BTreeMap<(CompletId, CompletId), u64>) -> Traffic {
    let weigh = |(pair, total): (_, u64)| {
        let (baseline, weight) = prev.get(&pair).copied().unwrap_or_default();
        let weight = total.saturating_sub(baseline) as f64 + DECAY * weight;
        (pair, (total, weight))
    };
    totals.into_iter().map(weigh).collect()
}

/// Planner tunables. [`Planner::new`] clamps the dead band to at least
/// zero.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Minimum predicted relative traffic-cost gain (fraction of the
    /// current cost) before a plan is non-empty; smaller gains are
    /// discarded so marginal, oscillating plans never move anything.
    pub hysteresis: f64,
    /// Maximum steps per plan.
    pub max_moves: usize,
    /// Per-Core complet capacity handed to the partitioner.
    pub capacity: Option<usize>,
}

impl Default for PlannerConfig {
    fn default() -> PlannerConfig {
        PlannerConfig {
            hysteresis: 0.05,
            max_moves: 4,
            capacity: None,
        }
    }
}

impl PlannerConfig {
    /// The defaults, with the partitioner's per-Core capacity taken from
    /// the Core's admission limit.
    pub fn from_core(core: &Core) -> PlannerConfig {
        PlannerConfig {
            capacity: core.config().capacity,
            ..PlannerConfig::default()
        }
    }

    fn clamped(mut self) -> PlannerConfig {
        self.hysteresis = self.hysteresis.max(0.0);
        self
    }
}

/// Builds [`LayoutPlan`]s from one admin Core's view of the cluster.
pub struct Planner {
    core: Core,
    cfg: PlannerConfig,
    plan_seq: AtomicU64,
    /// As of the last [`Planner::plan`].
    traffic: Mutex<Traffic>,
}

impl Planner {
    pub fn new(core: Core, cfg: PlannerConfig) -> Planner {
        Planner {
            core,
            cfg: cfg.clamped(),
            plan_seq: AtomicU64::new(1),
            traffic: Mutex::new(Traffic::new()),
        }
    }

    pub fn config(&self) -> &PlannerConfig {
        &self.cfg
    }

    /// Live placement: every complet hosted on a reachable Core.
    /// Unreachable Cores simply contribute nothing — their complets are
    /// left alone this round.
    ///
    /// The one source is the sharded location service: the union of the
    /// live shard entries across Cores is the whole placement in one
    /// `ShardList` RPC per Core, independent of how many complets each
    /// Core hosts (duplicates from handoff overlap resolve by highest
    /// move epoch). An empty union — nothing published — is an empty
    /// placement.
    pub fn placement(&self) -> BTreeMap<CompletId, u32> {
        let mut best: BTreeMap<CompletId, (u32, u64)> = BTreeMap::new();
        for member in self.core.members() {
            let Ok(entries) = self.core.shard_live_at(member.index) else {
                continue;
            };
            for (id, host, epoch) in entries {
                match best.get(&id) {
                    Some(&(_, e)) if e >= epoch => {}
                    _ => {
                        best.insert(id, (host, epoch));
                    }
                }
            }
        }
        best.into_iter().map(|(id, (host, _))| (id, host)).collect()
    }

    /// Derives the affinity graph for the given live placement; `commit`
    /// makes this reading the baseline of the next round's deltas.
    fn affinity(&self, placement: &BTreeMap<CompletId, u32>, commit: bool) -> AffinityGraph {
        let mut graph = AffinityGraph::new();
        let known = |id: CompletId| placement.contains_key(&id) || is_app_pseudo(id);

        // Traffic: a pair is counted wherever its source has lived, so
        // its total is the sum over the Cores that report it.
        let mut totals = BTreeMap::new();
        for (_core, (src, dst, calls)) in self.core.collect_edges() {
            *totals.entry((src, dst)).or_insert(0) += calls;
        }
        let traffic = next_round(&self.traffic.lock(), totals);
        for (&(src, dst), &(_, weight)) in &traffic {
            if known(src) && known(dst) {
                for id in [src, dst].into_iter().filter(|&id| is_app_pseudo(id)) {
                    graph.pin(id, id.origin);
                }
                graph.add_edge(src, dst, weight + REF_EDGE_WEIGHT);
            }
        }
        if commit {
            *self.traffic.lock() = traffic;
        }

        // Load: per-complet exec-time accounting (cluster-wide top-K),
        // normalised so the mean tracked complet weighs one capacity
        // seat. Heavy hitters then occupy proportionally more seats and
        // the partitioner spreads them; untracked complets default to
        // 1.0, i.e. the old count-based capacity. A complet that moved
        // may be reported by several Cores (the old host keeps its
        // history), so per-id loads are summed — total work done is the
        // signal, wherever it happened.
        let mut by_id: BTreeMap<CompletId, u64> = BTreeMap::new();
        for (_core, r) in self.core.collect_top(usize::MAX) {
            let id = CompletId::new(r.key.0, r.key.1);
            if r.load > 0 && known(id) && !is_app_pseudo(id) {
                *by_id.entry(id).or_insert(0) += r.load;
            }
        }
        // (Every summed load is positive, so the mean of any is.)
        let mean = by_id.values().sum::<u64>() as f64 / by_id.len() as f64;
        for (id, load) in by_id {
            graph.set_load(id, load as f64 / mean);
        }

        graph
    }

    /// One full planning pass. Returns an empty plan (steps cleared,
    /// costs reported) when the predicted gain is under the hysteresis
    /// threshold.
    pub fn plan(&self) -> LayoutPlan {
        self.plan_round(true)
    }

    /// The plan [`Planner::plan`] would return now, without starting a
    /// new round: the traffic the next `plan` sees is unchanged.
    pub fn preview(&self) -> LayoutPlan {
        self.plan_round(false)
    }

    fn plan_round(&self, commit: bool) -> LayoutPlan {
        let id = self.plan_seq.fetch_add(1, Ordering::SeqCst);
        let placement = self.placement();
        let graph = self.affinity(&placement, commit);
        let up = self.core.members().into_iter().filter(|m| m.up);
        let cores: Vec<u32> = up.map(|m| m.index).collect();
        if graph.is_empty() || cores.len() < 2 {
            return LayoutPlan {
                id,
                ..LayoutPlan::default()
            };
        }
        let cost = CostModel::from_links(&cores, |a, b| self.core.link(a, b));
        let target = partition(PartitionProblem {
            graph: &graph,
            cost: &cost,
            current: &placement,
            capacity: self.cfg.capacity,
        });
        let plan = LayoutPlan::diff(&graph, &cost, &placement, &target, id, self.cfg.max_moves);
        if plan.relative_gain() < self.cfg.hysteresis {
            return LayoutPlan {
                id,
                steps: Vec::new(),
                current_cost: plan.current_cost,
                planned_cost: plan.current_cost,
            };
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn autolayout_knobs_clamp() {
        let c = PlannerConfig {
            hysteresis: -1.0,
            max_moves: 2,
            ..PlannerConfig::default()
        }
        .clamped();
        assert_eq!(c.hysteresis, 0.0, "hysteresis clamps to >= 0");
        assert_eq!(c.max_moves, 2);
    }

    fn pair(n: u64) -> (CompletId, CompletId) {
        (CompletId::new(0, 0), CompletId::new(1, n))
    }

    /// One round over `prev` in which the Cores report `totals`.
    fn round(prev: &Traffic, totals: &[(u64, u64)]) -> Traffic {
        next_round(prev, totals.iter().map(|&(n, t)| (pair(n), t)).collect())
    }

    #[test]
    fn a_pair_weighs_its_new_calls_plus_half_of_last_round() {
        let r1 = round(&Traffic::new(), &[(1, 100)]);
        assert_eq!(r1[&pair(1)], (100, 100.0), "no baseline: every call is new");
        let r2 = round(&r1, &[(1, 140)]);
        assert_eq!(r2[&pair(1)], (140, 40.0 + 50.0));
        let r3 = round(&r2, &[(1, 140), (2, 6)]);
        assert_eq!(r3[&pair(1)], (140, 45.0), "a silent round only decays");
        assert_eq!(r3[&pair(2)], (6, 6.0), "a new pair starts beside it");
    }

    #[test]
    fn a_total_below_its_baseline_reads_as_silence() {
        let r1 = round(&Traffic::new(), &[(1, 1_000)]);
        // The row was evicted and admitted again, or its Core restarted.
        let r2 = round(&r1, &[(1, 3)]);
        assert_eq!(r2[&pair(1)], (3, 500.0));
        let r3 = round(&r2, &[(1, 10)]);
        assert_eq!(r3[&pair(1)], (10, 7.0 + 250.0), "and counts from there");
        // A pair no Core reports any more is not remembered.
        assert!(round(&r3, &[]).is_empty());
    }
}
