//! The planner proper: signals → affinity graph → cost model →
//! partitioner → [`LayoutPlan`], with hysteresis.
//!
//! All inputs come from facilities the runtime already exposes:
//!
//! * the merged cluster journal for invoke traffic (every `Invoke` event
//!   carries the issuing complet in its detail) and ref-graph structure;
//! * the monitor's `methodInvokeRate` exponential averages for pairs the
//!   planning Core observes locally (the planner subscribes the hottest
//!   pairs itself, so sustained traffic sharpens over rounds while the
//!   PR 4 EWMA fix guarantees silent pairs decay to exactly zero);
//! * live placement from the union of the Cores' location shards
//!   (`shard_live_at`, one RPC per reachable Core);
//! * link characteristics via the [`CostModel`] calibration.
//!
//! Hysteresis: a plan whose predicted relative gain is below the
//! configured fraction is reported as empty. Observed traffic is noisy;
//! without a dead band the partitioner would happily chase one-invocation
//! differences around the cluster, and every move costs real transfer
//! work plus a tracker chain. The threshold means the loop only acts when
//! the expected win clearly exceeds that churn.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use fargo_core::{Core, JournalKind, LayoutHistory, Service};
use fargo_wire::CompletId;
use parking_lot::Mutex;

use crate::affinity::AffinityGraph;
use crate::cost::CostModel;
use crate::is_app_pseudo;
use crate::partition::{partition, PartitionProblem};
use crate::plan::LayoutPlan;

/// Planner tunables. [`Planner::new`] clamps the cadence to at least
/// one tick and the dead band to at least zero.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Monitor ticks between planning rounds of the closed loop.
    pub period_ticks: u32,
    /// Minimum predicted relative traffic-cost gain (fraction of the
    /// current cost) before a plan is non-empty; smaller gains are
    /// discarded so marginal, oscillating plans never move anything.
    pub hysteresis: f64,
    /// Maximum steps per plan; the executor rate-limits within the round
    /// on top of this.
    pub max_moves: usize,
    /// Per-Core complet capacity handed to the partitioner.
    pub capacity: Option<usize>,
    /// Weight a structural ref-graph edge contributes.
    pub ref_edge_weight: f64,
    /// Multiplier for locally observed invoke-rate averages (calls/s)
    /// when blended on top of journal counts.
    pub rate_weight: f64,
    /// Edges lighter than this are pruned before partitioning.
    pub min_edge_weight: f64,
    /// How many of the hottest traffic pairs the planner keeps under
    /// continuous `methodInvokeRate` profiling.
    pub profile_top_pairs: usize,
}

impl Default for PlannerConfig {
    fn default() -> PlannerConfig {
        PlannerConfig {
            period_ticks: 25,
            hysteresis: 0.05,
            max_moves: 4,
            capacity: None,
            ref_edge_weight: 0.25,
            rate_weight: 1.0,
            min_edge_weight: 0.0,
            profile_top_pairs: 8,
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
        self.period_ticks = self.period_ticks.max(1);
        self.hysteresis = self.hysteresis.max(0.0);
        self
    }
}

/// Builds [`LayoutPlan`]s from one admin Core's view of the cluster.
pub struct Planner {
    core: Core,
    cfg: PlannerConfig,
    plan_seq: AtomicU64,
    /// Pairs this planner has put under continuous profiling.
    profiled: Mutex<BTreeSet<(CompletId, CompletId)>>,
}

impl Planner {
    pub fn new(core: Core, cfg: PlannerConfig) -> Planner {
        Planner {
            core,
            cfg: cfg.clamped(),
            plan_seq: AtomicU64::new(1),
            profiled: Mutex::new(BTreeSet::new()),
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
    /// move epoch). An empty union — nothing published, or naming off —
    /// is an empty placement.
    pub fn placement(&self) -> BTreeMap<CompletId, u32> {
        let mut best: BTreeMap<CompletId, (u32, u64)> = BTreeMap::new();
        for node in self.core.network().node_ids() {
            let Ok(entries) = self.core.shard_live_at(node.index()) else {
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

    /// Node indices of Cores that are up and answering.
    fn live_cores(&self) -> Vec<u32> {
        let net = self.core.network();
        net.node_ids()
            .into_iter()
            .filter(|&n| net.node_up(n).unwrap_or(false))
            .map(|n| n.index())
            .collect()
    }

    /// Derives the affinity graph for the given live placement.
    pub fn affinity(&self, placement: &BTreeMap<CompletId, u32>) -> AffinityGraph {
        let mut graph = AffinityGraph::new();
        let known = |id: CompletId| placement.contains_key(&id) || is_app_pseudo(id);
        let pin = |graph: &mut AffinityGraph, id: CompletId| {
            if is_app_pseudo(id) {
                graph.pin(id, id.origin);
            }
        };

        let events = self.core.collect_journal();
        // Traffic: one unit per journaled invocation in the ring window.
        // The detail names the issuing complet; events without it (from
        // before journaling carried sources) are skipped.
        let mut pair_counts: BTreeMap<(CompletId, CompletId), f64> = BTreeMap::new();
        for ev in &events {
            if ev.kind != JournalKind::Invoke {
                continue;
            }
            let (Ok(src), Ok(dst)) = (ev.detail.parse(), ev.subject.parse()) else {
                continue;
            };
            if src != dst && known(src) && known(dst) {
                *pair_counts.entry((src, dst)).or_insert(0.0) += 1.0;
            }
        }
        for (&(src, dst), &count) in &pair_counts {
            pin(&mut graph, src);
            pin(&mut graph, dst);
            graph.add_edge(src, dst, count);
        }

        // Structure: surviving ref-graph edges keep quiet-but-connected
        // complets gently attracted.
        if self.cfg.ref_edge_weight > 0.0 {
            let history = LayoutHistory::from_events(events);
            for (src, dst, _relocator) in &history.final_state().refs {
                let (Ok(a), Ok(b)) = (src.parse(), dst.parse()) else {
                    continue;
                };
                if a != b && known(a) && known(b) {
                    pin(&mut graph, a);
                    pin(&mut graph, b);
                    graph.add_edge(a, b, self.cfg.ref_edge_weight);
                }
            }
        }

        // Rates: blend in the monitor's exponential averages for pairs
        // profiled on this Core, and (re)subscribe the hottest pairs so
        // the next rounds read sharper signals.
        self.refresh_profiling(&pair_counts);
        for &(src, dst) in self.profiled.lock().iter() {
            let service = Service::MethodInvokeRate { src, dst };
            if let Some(rate) = self.core.profile_get(&service) {
                if rate > 0.0 && known(src) && known(dst) {
                    graph.add_edge(src, dst, rate * self.cfg.rate_weight);
                }
            }
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
        if !by_id.is_empty() {
            let mean = by_id.values().map(|&l| l as f64).sum::<f64>() / by_id.len() as f64;
            if mean > 0.0 {
                for (id, load) in by_id {
                    graph.set_load(id, load as f64 / mean);
                }
            }
        }

        if self.cfg.min_edge_weight > 0.0 {
            graph.prune(self.cfg.min_edge_weight);
        }
        graph
    }

    /// Keeps the `profile_top_pairs` heaviest observed pairs under
    /// continuous profiling, releasing interest in pairs that fell out.
    fn refresh_profiling(&self, pair_counts: &BTreeMap<(CompletId, CompletId), f64>) {
        let mut ranked: Vec<(&(CompletId, CompletId), &f64)> = pair_counts.iter().collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(a.1).unwrap_or(std::cmp::Ordering::Equal));
        let want: BTreeSet<(CompletId, CompletId)> = ranked
            .into_iter()
            .take(self.cfg.profile_top_pairs)
            .map(|(&pair, _)| pair)
            .collect();
        let mut profiled = self.profiled.lock();
        for &(src, dst) in profiled.difference(&want) {
            self.core
                .profile_stop(&Service::MethodInvokeRate { src, dst });
        }
        for &(src, dst) in want.difference(&profiled.clone()) {
            self.core.profile_start(
                Service::MethodInvokeRate { src, dst },
                // Sampled on the monitor tick cadence.
                Duration::ZERO,
            );
        }
        *profiled = want;
    }

    /// One full planning pass. Returns an empty plan (steps cleared,
    /// costs reported) when the predicted gain is under the hysteresis
    /// threshold.
    pub fn plan(&self) -> LayoutPlan {
        let id = self.plan_seq.fetch_add(1, Ordering::SeqCst);
        let placement = self.placement();
        let graph = self.affinity(&placement);
        let cores = self.live_cores();
        if graph.is_empty() || cores.len() < 2 {
            return LayoutPlan {
                id,
                ..LayoutPlan::default()
            };
        }
        let cost = CostModel::from_network(self.core.network(), &cores);
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

    /// The Core this planner observes and plans from.
    pub fn core(&self) -> &Core {
        &self.core
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn autolayout_knobs_clamp() {
        let c = PlannerConfig {
            period_ticks: 0,
            hysteresis: -1.0,
            max_moves: 2,
            ..PlannerConfig::default()
        }
        .clamped();
        assert_eq!(c.period_ticks, 1, "period clamps to >= 1");
        assert_eq!(c.hysteresis, 0.0, "hysteresis clamps to >= 0");
        assert_eq!(c.max_moves, 2);
    }
}
