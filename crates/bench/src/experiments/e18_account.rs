//! E18 — cluster health observatory: accounting overhead, heavy-hitter
//! recall, and load-weighted placement quality.
//!
//! Three questions, one table:
//!
//! * What does always-on per-complet accounting cost? The invoke path
//!   gains a clock read pair, two `deep_size` walks over the argument
//!   and result values, and a sharded Space-Saving update; comparing
//!   against `with_accounting(false)` isolates the per-call price, best
//!   of 3 runs. Printed, not gated: a sub-microsecond difference of two
//!   means flakes on a shared machine, and the standing benchmark's
//!   `telemetry.per_call_ns` is the per-call cost measurement.
//! * Does the bounded sketch keep the complets that matter? A Zipf
//!   workload drives many more complets than the sketch has slots
//!   (capacity 64 against several hundred complets); the experiment
//!   keeps exact ground-truth counts on the side and scores the
//!   sketch's top-10 against the true top-10. Guardrail: recall ≥ 0.9.
//! * Does feeding observed load into the partitioner improve placement?
//!   Two 8-seat heavy hitters bound to each other by strong affinity
//!   fit one Core under count seats (2 complets ≤ capacity 10) but not
//!   under load seats (16 > 10), so the load-weighted partitioner must
//!   split them while the count-based one overloads a Core. Guardrail:
//!   load-weighted max per-Core load within capacity and strictly below
//!   the count-based maximum.
//!
//! The workload seed is taken from `FARGO_SIMNET_SEED` (default 7) so
//! CI can sweep Zipf schedules, mirroring the E15/E17 guardrail runs.

use std::collections::BTreeMap;
use std::time::Duration;

use fargo_core::{CompletId, CoreConfig, Value};
use fargo_layout::{partition, AffinityGraph, CostModel, PartitionProblem};

use crate::harness::ClusterSpec;
use crate::table::Table;
use crate::workload::{fmt_duration, Samples};

fn simnet_seed() -> u64 {
    std::env::var("FARGO_SIMNET_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7)
}

/// The accounting-free baseline: no exec stamps, no `deep_size` walks,
/// no sketch updates, no traffic matrix.
fn accounting_off(config: CoreConfig) -> CoreConfig {
    config.with_accounting(false)
}

/// A deliberately small sketch so the Zipf run evicts: 64 slots against
/// hundreds of distinct complets.
fn small_sketch(config: CoreConfig) -> CoreConfig {
    config.with_account_capacity(64)
}

pub fn run(full: bool) -> Table {
    let n = if full { 20_000 } else { 5_000 };
    let on = best_of_3(n, true);
    let off = best_of_3(n, false);
    let overhead = on.saturating_sub(off);

    let complets = if full { 400 } else { 200 };
    let calls = if full { 8_000 } else { 3_000 };
    let recall = zipf_recall(complets, calls, simnet_seed());
    let recall_ok = recall >= 0.9;

    let (count_max, weighted_max, cap) = placement_quality();
    let placement_ok = weighted_max <= cap + 1e-6 && weighted_max < count_max;

    let mut table = Table::new(
        "E18: per-complet accounting overhead, sketch recall, and load-weighted placement",
        &["measurement", "value", "notes"],
    )
    .with_note(
        "guardrails (the per-call cost of accounting is information): a 64-slot Space-Saving sketch recalls >=0.9 of the true top-10 under Zipf; load-weighted seats keep every Core within capacity where count seats overload one.",
    );
    table.row([
        "accounting on".to_owned(),
        fmt_duration(on),
        "exec stamps + deep_size + sketch update (best of 3)".to_owned(),
    ]);
    table.row([
        "accounting off".to_owned(),
        fmt_duration(off),
        "baseline (best of 3)".to_owned(),
    ]);
    table.row([
        "overhead per call".to_owned(),
        fmt_duration(overhead),
        "on - off (information, not gated)".to_owned(),
    ]);
    table.row([
        "heavy-hitter recall".to_owned(),
        format!("{recall:.2}"),
        if recall_ok {
            format!("guardrail ok (top-10 of {complets} complets, 64-slot sketch, recall >=0.9)")
        } else {
            format!("guardrail FAILED (recall {recall:.2} < 0.9 over {complets} complets)")
        },
    ]);
    table.row([
        "placement max load, count seats".to_owned(),
        format!("{count_max:.0} load units"),
        format!("two 8-seat heavies co-located under capacity {cap:.0}"),
    ]);
    table.row([
        "placement max load, load seats".to_owned(),
        format!("{weighted_max:.0} load units"),
        if placement_ok {
            "guardrail ok (within capacity and below the count-based maximum)".to_owned()
        } else {
            format!(
                "guardrail FAILED (weighted {weighted_max:.0} vs count {count_max:.0}, cap {cap:.0})"
            )
        },
    ]);
    table
}

/// Mean local-call latency on a 1-Core cluster with accounting on or
/// off, minimum of 3 runs (the min of means strips scheduler noise
/// without hiding a hot-path regression — the E15/E17 idiom).
fn best_of_3(n: usize, accounting: bool) -> Duration {
    (0..3)
        .map(|_| invoke_mean(n, accounting))
        .min()
        .expect("three runs")
}

/// Mean local-call latency for one fresh cluster.
fn invoke_mean(n: usize, accounting: bool) -> Duration {
    let mut spec = ClusterSpec::instant(1);
    if !accounting {
        spec = spec.config_tweak(accounting_off);
    }
    let cluster = spec.build();
    let servant = cluster.cores[0]
        .new_complet("Servant", &[])
        .expect("servant");
    servant.call("touch", &[]).expect("warm");
    Samples::collect(n, || {
        servant.call("touch", &[Value::Null]).expect("call");
    })
    .mean()
}

/// Drives a Zipf(s=1.1) workload over `complets` servants on one Core
/// whose sketch holds only 64 slots, and returns the fraction of the
/// true top-10 (by exact side-band counts) that the sketch's top-10
/// recalls.
fn zipf_recall(complets: usize, calls: usize, seed: u64) -> f64 {
    let cluster = ClusterSpec::instant(1).config_tweak(small_sketch).build();
    let mut servants = Vec::with_capacity(complets);
    for _ in 0..complets {
        servants.push(
            cluster.cores[0]
                .new_complet("Servant", &[])
                .expect("servant"),
        );
    }
    // Zipf weights over ranks 1..=complets, cumulative for sampling.
    let mut cum = Vec::with_capacity(complets);
    let mut total = 0.0f64;
    for rank in 1..=complets {
        total += 1.0 / (rank as f64).powf(1.1);
        cum.push(total);
    }
    // Deterministic LCG (Knuth MMIX constants) seeded from the sweep seed.
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut truth = vec![0u64; complets];
    for _ in 0..calls {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let u = (state >> 11) as f64 / (1u64 << 53) as f64 * total;
        let idx = cum.partition_point(|&c| c <= u).min(complets - 1);
        truth[idx] += 1;
        servants[idx].call("touch", &[]).expect("call");
    }
    let mut ranked: Vec<usize> = (0..complets).filter(|&i| truth[i] > 0).collect();
    ranked.sort_by(|&a, &b| truth[b].cmp(&truth[a]).then(a.cmp(&b)));
    let want: Vec<CompletId> = ranked.iter().take(10).map(|&i| servants[i].id()).collect();
    let got: Vec<CompletId> = cluster.cores[0]
        .account_top(10)
        .into_iter()
        .map(|r| CompletId::new(r.key.0, r.key.1))
        .collect();
    let hits = want.iter().filter(|id| got.contains(id)).count();
    hits as f64 / want.len().max(1) as f64
}

/// Partitions the same hot/cold affinity graph twice — once with count
/// seats (no load data) and once with observed load seats — and returns
/// (count-based max per-Core load, load-weighted max per-Core load,
/// capacity), all in true load units.
fn placement_quality() -> (f64, f64, f64) {
    let cap = 10.0;
    // Two heavy hitters (8 load units each) bound by strong affinity,
    // plus a light tail of satellites (1 unit each) chained to them —
    // the shape the observatory reports after a skewed run.
    let heavy = [CompletId::new(0, 1), CompletId::new(0, 2)];
    let lights: Vec<CompletId> = (3..=6).map(|s| CompletId::new(0, s)).collect();
    let mut loads: BTreeMap<CompletId, f64> = BTreeMap::new();
    loads.insert(heavy[0], 8.0);
    loads.insert(heavy[1], 8.0);
    for &l in &lights {
        loads.insert(l, 1.0);
    }
    let build = |with_loads: bool| {
        let mut g = AffinityGraph::new();
        g.add_edge(heavy[0], heavy[1], 100.0);
        for (i, &l) in lights.iter().enumerate() {
            g.add_edge(heavy[i % 2], l, 2.0);
        }
        if with_loads {
            for (&id, &load) in &loads {
                g.set_load(id, load);
            }
        }
        g
    };
    let cost = CostModel::uniform(&[0, 1]);
    let current: BTreeMap<CompletId, u32> = loads.keys().map(|&id| (id, 0u32)).collect();
    let max_load = |graph: &AffinityGraph| -> f64 {
        let assignment = partition(PartitionProblem {
            graph,
            cost: &cost,
            current: &current,
            capacity: Some(cap as usize),
        });
        let mut per_core: BTreeMap<u32, f64> = BTreeMap::new();
        for (id, core) in &assignment {
            *per_core.entry(*core).or_insert(0.0) += loads[id];
        }
        per_core.values().fold(0.0f64, |a, &b| a.max(b))
    };
    let count_max = max_load(&build(false));
    let weighted_max = max_load(&build(true));
    (count_max, weighted_max, cap)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_overhead_is_bounded() {
        // The stamps, deep_size walks, and sketch update are a few
        // hundred nanoseconds in a release run (EXPERIMENTS.md E18).
        // Debug builds under a parallel test load are far noisier, so
        // like the E10/E17 guardrails this asserts the relative shape
        // (no O(n) scan or contended lock on the path), best-of-3.
        let mut last = (Duration::MAX, Duration::ZERO);
        for _ in 0..3 {
            let on = invoke_mean(3_000, true);
            let off = invoke_mean(3_000, false);
            last = (on, off);
            if on < off.mul_f64(2.0) + Duration::from_micros(5) {
                return;
            }
        }
        panic!(
            "accounting on {:?} vs off {:?}: overhead out of bounds",
            last.0, last.1
        );
    }

    #[test]
    fn zipf_top_talkers_survive_sketch_eviction() {
        // Debug-build slack: exec-time jitter can reorder near-ties at
        // the bottom of the top-10, so this asserts a softer floor than
        // the release guardrail (0.9).
        let recall = zipf_recall(200, 1_500, simnet_seed());
        assert!(
            recall >= 0.7,
            "64-slot sketch must recall the Zipf head: recall {recall:.2}"
        );
    }

    #[test]
    fn load_seats_split_what_count_seats_colocate() {
        let (count_max, weighted_max, cap) = placement_quality();
        assert!(
            count_max > cap + 1e-6,
            "count seats must overload a Core here: {count_max}"
        );
        assert!(
            weighted_max <= cap + 1e-6,
            "load seats must respect capacity: {weighted_max}"
        );
        assert!(weighted_max < count_max);
    }
}
