//! The seed sweep: generate → run → check → shrink → perturb.
//!
//! Each seed in the window becomes one schedule; a failing seed is
//! shrunk to a minimal counterexample and then *perturbed* — each op of
//! the shrunk schedule is delayed past its successor — to tell
//! schedule-dependent races (some perturbations pass) from deterministic
//! bugs (every ordering fails). The report carries everything needed to
//! replay: the seed, the violations, and the shrunk schedule text.

use crate::driver::{run, RunConfig};
use crate::oracles::Violation;
use crate::shrink::shrink_schedule;
use crate::workload::Schedule;

/// A seed window to sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    pub start_seed: u64,
    pub seeds: u64,
    /// Ops per generated schedule.
    pub ops: usize,
    /// Cores per simulated cluster.
    pub cores: usize,
    /// Run schedules in stress mode (wall clock, faults) instead of the
    /// deterministic mode.
    pub stress: bool,
    /// Shrink failing schedules (deterministic mode only — a stress
    /// failure is not reliably reproducible, so ddmin has no oracle).
    pub shrink: bool,
    /// Perturb shrunk failures to classify them.
    pub perturb: bool,
    /// Generate fault schedules ([`Schedule::generate_faulty`]): the
    /// normal workload mix interleaved with crashes, restarts, and
    /// partitions, run over per-Core write-ahead logs.
    pub faults: bool,
}

impl Default for SweepConfig {
    fn default() -> SweepConfig {
        SweepConfig {
            start_seed: 0,
            seeds: 1000,
            ops: 12,
            cores: 3,
            stress: false,
            shrink: true,
            perturb: true,
            faults: false,
        }
    }
}

/// One failing seed, post-processed.
#[derive(Debug)]
pub struct SeedFailure {
    pub seed: u64,
    pub violations: Vec<Violation>,
    /// The minimal schedule that still fails (the original when
    /// shrinking is off).
    pub schedule: Schedule,
    /// Of `perturbed_total` one-op delays, how many still failed.
    pub perturbed_failing: usize,
    pub perturbed_total: usize,
}

/// What a sweep found.
#[derive(Debug, Default)]
pub struct SweepReport {
    pub seeds_run: u64,
    pub failures: Vec<SeedFailure>,
}

impl SweepReport {
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Sweeps the configured seed window.
pub fn sweep(cfg: &SweepConfig) -> SweepReport {
    let run_cfg = RunConfig {
        stress: cfg.stress,
        faults: cfg.faults,
        ..RunConfig::default()
    };
    let mut report = SweepReport::default();
    for seed in cfg.start_seed..cfg.start_seed + cfg.seeds {
        let schedule = if cfg.faults {
            Schedule::generate_faulty(seed, cfg.ops, cfg.cores)
        } else {
            Schedule::generate(seed, cfg.ops, cfg.cores)
        };
        let outcome = run(&schedule, &run_cfg);
        report.seeds_run += 1;
        if !outcome.failed() {
            continue;
        }
        let minimal = if cfg.shrink && !cfg.stress {
            shrink_schedule(&schedule, &run_cfg)
        } else {
            schedule
        };
        let (mut perturbed_failing, mut perturbed_total) = (0, 0);
        if cfg.perturb && !cfg.stress {
            for i in 0..minimal.ops.len().saturating_sub(1) {
                let mut delayed = minimal.clone();
                delayed.ops.swap(i, i + 1);
                perturbed_total += 1;
                if run(&delayed, &run_cfg).failed() {
                    perturbed_failing += 1;
                }
            }
        }
        report.failures.push(SeedFailure {
            seed,
            violations: outcome.violations,
            schedule: minimal,
            perturbed_failing,
            perturbed_total,
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_window_runs_clean() {
        // A smoke window; the CI stage sweeps the full 1000.
        let report = sweep(&SweepConfig {
            seeds: 5,
            ops: 8,
            shrink: false,
            perturb: false,
            ..SweepConfig::default()
        });
        assert_eq!(report.seeds_run, 5);
        assert!(
            report.clean(),
            "violations in smoke window: {:?}",
            report.failures
        );
    }
}
