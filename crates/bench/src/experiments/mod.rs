//! The experiment suite (E1–E23; E13 is retired, E19/E20 are reserved by
//! ROADMAP items). Each module regenerates one experiment from DESIGN.md's
//! index and returns a [`crate::Table`].

pub mod e01_chains;
pub mod e02_fanin;
pub mod e03_movesize;
pub mod e04_comove;
pub mod e05_relocators;
pub mod e06_monitoring;
pub mod e07_events;
pub mod e08_adaptive;
pub mod e09_reliability;
pub mod e10_invocation;
pub mod e11_params;
pub mod e12_footprint;
pub mod e14_retry;
pub mod e15_planner;
pub mod e16_checker;
pub mod e17_tail;
pub mod e18_account;
pub mod e21_transport;
pub mod e22_naming;
pub mod e23_recovery;

use crate::Table;

/// One runnable experiment.
pub struct Experiment {
    /// Experiment id (e.g. `"E1"`).
    pub id: &'static str,
    /// What it measures.
    pub summary: &'static str,
    /// Runs the experiment; `full` selects the larger sweep.
    pub run: fn(full: bool) -> Table,
}

/// All experiments, in index order.
pub fn all() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "E1",
            summary:
                "invocation latency vs tracker-chain length; chain shortening",
            run: e01_chains::run,
        },
        Experiment {
            id: "E2",
            summary: "reference fan-in: stubs share one tracker per target per core",
            run: e02_fanin::run,
        },
        Experiment {
            id: "E3",
            summary: "movement cost vs complet state size",
            run: e03_movesize::run,
        },
        Experiment {
            id: "E4",
            summary: "pull co-movement: one message for the whole closure vs independent moves",
            run: e04_comove::run,
        },
        Experiment {
            id: "E5",
            summary:
                "relocator semantics: link/pull/duplicate/stamp move cost and post-move latency",
            run: e05_relocators::run,
        },
        Experiment {
            id: "E6",
            summary: "monitoring overhead: off / instant-cached / instant-uncached / continuous",
            run: e06_monitoring::run,
        },
        Experiment {
            id: "E7",
            summary: "threshold events vs polling: detection latency and listener fan-out",
            run: e07_events::run,
        },
        Experiment {
            id: "E8",
            summary:
                "HEADLINE adaptive layout: static vs dynamic over a WAN, crossover vs burst length",
            run: e08_adaptive::run,
        },
        Experiment {
            id: "E9",
            summary: "reliability rule: shutdown evacuation keeps the application alive",
            run: e09_reliability::run,
        },
        Experiment {
            id: "E10",
            summary: "invocation overhead: direct / local stub / LAN / WAN",
            run: e10_invocation::run,
        },
        Experiment {
            id: "E11",
            summary: "by-value parameter graphs: copy cost vs size and shape",
            run: e11_params::run,
        },
        Experiment {
            id: "E12",
            summary: "footprint: repository capacity and per-complet overhead",
            run: e12_footprint::run,
        },
        Experiment {
            id: "E14",
            summary: "reliable messaging: loss-free overhead vs single-shot; recovery under loss",
            run: e14_retry::run,
        },
        Experiment {
            id: "E15",
            summary: "adaptive layout planner: remote-call reduction and convergence vs static and oracle layouts",
            run: e15_planner::run,
        },
        Experiment {
            id: "E16",
            summary: "schedule-explorer throughput: deterministic seeds swept per second",
            run: e16_checker::run,
        },
        Experiment {
            id: "E17",
            summary:
                "tail-latency observatory: phase-timing overhead; per-phase attribution and tail retention under injected link delay",
            run: e17_tail::run,
        },
        Experiment {
            id: "E18",
            summary:
                "cluster health observatory: per-complet accounting overhead; heavy-hitter sketch recall under Zipf; load-weighted vs count-based placement",
            run: e18_account::run,
        },
        Experiment {
            id: "E21",
            summary:
                "transport scaling: >=10k concurrent in-flight RPCs on one Core; TCP-loopback vs simnet request-reply throughput",
            run: e21_transport::run,
        },
        Experiment {
            id: "E22",
            summary:
                "sharded location service: lookup hops and latency flat vs population; chain-walk baseline; TCP backend",
            run: e22_naming::run,
        },
        Experiment {
            id: "E23",
            summary:
                "crash-safe durability: acked state recovered after a Core kill; WAL replay time; post-recovery lookup hops; fault-injection sweep",
            run: e23_recovery::run,
        },
    ]
}
