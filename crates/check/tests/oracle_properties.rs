//! Property tests for the invariant oracles, on synthetic journals with
//! violations planted by hand. The oracles are pure functions of the
//! merged timeline, so the fixtures need no cluster — just well-formed
//! event sequences.

use std::collections::BTreeMap;

use fargo_check::oracles::{
    check_all, hlc_causality, shard_consistency, single_live_copy, tracker_chains,
};
use fargo_telemetry::{Hlc, JournalEvent, JournalKind};

/// Builds journals with per-core monotone seqs and a global HLC order,
/// the shape `merge_timelines` guarantees for real runs.
#[derive(Default)]
struct Journal {
    t: u64,
    seqs: BTreeMap<u32, u64>,
    events: Vec<JournalEvent>,
}

impl Journal {
    fn push(
        &mut self,
        core: u32,
        kind: JournalKind,
        subject: &str,
        peer: Option<u32>,
    ) -> &mut Self {
        self.t += 1;
        let seq = self.seqs.entry(core).or_insert(0);
        *seq += 1;
        self.events.push(JournalEvent {
            hlc: Hlc {
                wall_us: self.t,
                logical: 0,
            },
            core,
            seq: *seq,
            kind,
            subject: subject.to_owned(),
            object: String::new(),
            detail: String::new(),
            peer,
        });
        self
    }

    /// A `shard_apply` entry as the runtime journals it: object = node
    /// (or `"gone"` for a tombstone), detail = move epoch, peer = node.
    fn push_shard(
        &mut self,
        core: u32,
        subject: &str,
        node: u32,
        epoch: u64,
        alive: bool,
    ) -> &mut Self {
        self.t += 1;
        let seq = self.seqs.entry(core).or_insert(0);
        *seq += 1;
        self.events.push(JournalEvent {
            hlc: Hlc {
                wall_us: self.t,
                logical: 0,
            },
            core,
            seq: *seq,
            kind: JournalKind::ShardApplied,
            subject: subject.to_owned(),
            object: if alive {
                node.to_string()
            } else {
                "gone".to_owned()
            },
            detail: epoch.to_string(),
            peer: Some(node),
        });
        self
    }
}

fn oracle_names(violations: &[fargo_check::oracles::Violation]) -> Vec<&'static str> {
    violations.iter().map(|v| v.oracle).collect()
}

#[test]
fn clean_move_history_has_no_violations() {
    let mut j = Journal::default();
    j.push(0, JournalKind::CompletArrived, "c0.1", None)
        .push(0, JournalKind::TrackerCreated, "c0.1", None)
        .push(0, JournalKind::CompletDeparted, "c0.1", None)
        .push(0, JournalKind::TrackerForwarded, "c0.1", Some(1))
        .push(1, JournalKind::CompletArrived, "c0.1", None)
        .push(1, JournalKind::TrackerCreated, "c0.1", None);
    assert_eq!(check_all(&j.events), vec![]);
}

#[test]
fn two_live_copies_at_rest_fire_single_copy() {
    let mut j = Journal::default();
    j.push(0, JournalKind::CompletArrived, "c0.1", None).push(
        1,
        JournalKind::CompletArrived,
        "c0.1",
        None,
    );
    let v = single_live_copy(&j.events);
    assert_eq!(oracle_names(&v), ["single-copy"]);
    assert!(v[0].detail.contains("at rest"), "{v:?}");
}

#[test]
fn double_install_on_one_core_fires_single_copy() {
    let mut j = Journal::default();
    j.push(0, JournalKind::CompletArrived, "c0.1", None).push(
        0,
        JournalKind::CompletArrived,
        "c0.1",
        None,
    );
    let v = single_live_copy(&j.events);
    assert!(
        v.iter().any(|x| x.detail.contains("installed twice")),
        "{v:?}"
    );
}

#[test]
fn three_live_copies_fire_even_transiently() {
    // Within a handoff window two copies are tolerated; a third is not,
    // even if everything is cleaned up by the end.
    let mut j = Journal::default();
    j.push(0, JournalKind::CompletArrived, "c0.1", None)
        .push(1, JournalKind::CompletArrived, "c0.1", None)
        .push(2, JournalKind::CompletArrived, "c0.1", None)
        .push(0, JournalKind::CompletDeparted, "c0.1", None)
        .push(1, JournalKind::CompletDeparted, "c0.1", None);
    let v = single_live_copy(&j.events);
    assert!(v.iter().any(|x| x.detail.contains("live on")), "{v:?}");
}

#[test]
fn duplicate_copy_after_rollback_fires_single_copy() {
    // A planner rollback must *restore* the single copy, not fork it:
    // the move back to n0 without the departure from n1 is the bug.
    let mut j = Journal::default();
    j.push(0, JournalKind::CompletArrived, "c0.1", None)
        .push(0, JournalKind::CompletDeparted, "c0.1", None)
        .push(1, JournalKind::CompletArrived, "c0.1", None)
        .push(0, JournalKind::PlanRollback, "plan-1", None)
        .push(0, JournalKind::CompletArrived, "c0.1", None); // no depart from n1
    let v = single_live_copy(&j.events);
    assert_eq!(oracle_names(&v), ["single-copy"]);

    // The correct rollback — depart n1, arrive n0 — is clean.
    let mut ok = Journal::default();
    ok.push(0, JournalKind::CompletArrived, "c0.1", None)
        .push(0, JournalKind::CompletDeparted, "c0.1", None)
        .push(1, JournalKind::CompletArrived, "c0.1", None)
        .push(0, JournalKind::PlanRollback, "plan-1", None)
        .push(1, JournalKind::CompletDeparted, "c0.1", None)
        .push(0, JournalKind::CompletArrived, "c0.1", None);
    assert_eq!(check_all(&ok.events), vec![]);
}

#[test]
fn tracker_cycle_fires_chain_oracle() {
    // c0.1 lives on n2, but n0 and n1 forward to each other.
    let mut j = Journal::default();
    j.push(2, JournalKind::CompletArrived, "c0.1", None)
        .push(0, JournalKind::TrackerForwarded, "c0.1", Some(1))
        .push(1, JournalKind::TrackerForwarded, "c0.1", Some(0));
    let v = tracker_chains(&j.events);
    assert_eq!(oracle_names(&v), ["tracker-chain", "tracker-chain"]);
    assert!(v[0].detail.contains("cycle"), "{v:?}");
}

#[test]
fn self_forward_is_a_cycle() {
    let mut j = Journal::default();
    j.push(2, JournalKind::CompletArrived, "c0.1", None).push(
        0,
        JournalKind::TrackerForwarded,
        "c0.1",
        Some(0),
    );
    assert_eq!(oracle_names(&tracker_chains(&j.events)), ["tracker-chain"]);
}

#[test]
fn collected_dead_end_is_recoverable_not_a_violation() {
    // n0 forwards to n1, whose tracker was idle-collected. The runtime
    // recovers through the location shard, so the oracle stays quiet —
    // this is the exact journal shape explorer seed 690 produced.
    let mut j = Journal::default();
    j.push(2, JournalKind::CompletArrived, "c0.1", None)
        .push(0, JournalKind::TrackerForwarded, "c0.1", Some(1))
        .push(1, JournalKind::TrackerForwarded, "c0.1", Some(2))
        .push(1, JournalKind::TrackerRetired, "c0.1", None);
    assert_eq!(tracker_chains(&j.events), vec![]);
}

#[test]
fn retired_complets_need_no_chain() {
    // Trackers may outlive the complet (released / in transit at the
    // cut): with no placement there is nothing to reach.
    let mut j = Journal::default();
    j.push(0, JournalKind::TrackerForwarded, "c0.9", Some(1));
    assert_eq!(tracker_chains(&j.events), vec![]);
}

#[test]
fn consistent_shard_history_is_clean() {
    // Create on n1 (published at the owner, n2), move to n2 (republished
    // at the bumped epoch): shard belief tracks the live copy throughout.
    let mut j = Journal::default();
    j.push(1, JournalKind::CompletArrived, "c1.1", None)
        .push_shard(2, "c1.1", 1, 0, true)
        .push(1, JournalKind::CompletDeparted, "c1.1", None)
        .push(2, JournalKind::CompletArrived, "c1.1", None)
        .push_shard(2, "c1.1", 2, 1, true);
    assert_eq!(check_all(&j.events), vec![]);
}

#[test]
fn stale_shard_belief_fires() {
    // The move's publish never reached the shard: its highest-epoch
    // belief still names the old host at rest.
    let mut j = Journal::default();
    j.push(1, JournalKind::CompletArrived, "c1.1", None)
        .push_shard(2, "c1.1", 1, 0, true)
        .push(1, JournalKind::CompletDeparted, "c1.1", None)
        .push(0, JournalKind::CompletArrived, "c1.1", None);
    let v = shard_consistency(&j.events);
    assert_eq!(oracle_names(&v), ["shard"]);
    assert!(v[0].detail.contains("live copy is on n0"), "{v:?}");
}

#[test]
fn tombstone_for_live_complet_fires() {
    let mut j = Journal::default();
    j.push(1, JournalKind::CompletArrived, "c1.1", None)
        .push_shard(2, "c1.1", 1, 0, true)
        .push_shard(2, "c1.1", 1, 1, false); // no departure: still live
    let v = shard_consistency(&j.events);
    assert_eq!(oracle_names(&v), ["shard"]);
    assert!(v[0].detail.contains("tombstone"), "{v:?}");
}

#[test]
fn live_belief_for_retired_complet_fires() {
    // Released without the release's tombstone publish landing.
    let mut j = Journal::default();
    j.push(1, JournalKind::CompletArrived, "c1.1", None)
        .push_shard(2, "c1.1", 1, 0, true)
        .push(1, JournalKind::CompletDeparted, "c1.1", None);
    let v = shard_consistency(&j.events);
    assert_eq!(oracle_names(&v), ["shard"]);
    assert!(v[0].detail.contains("retired"), "{v:?}");
}

#[test]
fn tombstoned_release_is_clean() {
    let mut j = Journal::default();
    j.push(1, JournalKind::CompletArrived, "c1.1", None)
        .push_shard(2, "c1.1", 1, 0, true)
        .push(1, JournalKind::CompletDeparted, "c1.1", None)
        .push_shard(2, "c1.1", 1, 0, false); // tombstone at the same epoch
    assert_eq!(shard_consistency(&j.events), vec![]);
}

#[test]
fn shard_oracle_skips_unpublished_complets() {
    // Naming disabled: moves journal no shard applies; the oracle must
    // stay quiet rather than flag every complet as unknown to the shard.
    let mut j = Journal::default();
    j.push(0, JournalKind::CompletArrived, "c0.1", None)
        .push(0, JournalKind::CompletDeparted, "c0.1", None)
        .push(1, JournalKind::CompletArrived, "c0.1", None);
    assert_eq!(shard_consistency(&j.events), vec![]);
}

#[test]
fn shard_belief_merge_is_order_independent() {
    // A handoff re-journals an older entry at the new owner *after* the
    // newer epoch was applied elsewhere: highest epoch still wins.
    let mut j = Journal::default();
    j.push(2, JournalKind::CompletArrived, "c1.1", None)
        .push_shard(0, "c1.1", 2, 1, true)
        .push_shard(3, "c1.1", 1, 0, true); // stale duplicate, late
    assert_eq!(shard_consistency(&j.events), vec![]);

    // At equal epochs the tombstone wins regardless of journal order,
    // mirroring the shard's apply rule.
    let mut j = Journal::default();
    j.push_shard(2, "c1.2", 1, 3, false)
        .push_shard(3, "c1.2", 1, 3, true);
    assert_eq!(shard_consistency(&j.events), vec![]);
}

#[test]
fn hlc_regression_and_duplicate_seq_fire() {
    let ev = |seq: u64, us: u64| JournalEvent {
        hlc: Hlc {
            wall_us: us,
            logical: 0,
        },
        core: 0,
        seq,
        kind: JournalKind::Invoke,
        subject: "c0.1".to_owned(),
        object: String::new(),
        detail: String::new(),
        peer: None,
    };
    // Same seq twice.
    let v = hlc_causality(&[ev(1, 10), ev(1, 11)]);
    assert!(
        v.iter().any(|x| x.detail.contains("duplicate seq")),
        "{v:?}"
    );
    // HLC goes backwards along the seq order.
    let v = hlc_causality(&[ev(1, 10), ev(2, 9)]);
    assert!(
        v.iter().any(|x| x.detail.contains("not increasing")),
        "{v:?}"
    );
    // Strictly increasing is clean.
    assert_eq!(hlc_causality(&[ev(1, 10), ev(2, 11)]), vec![]);
}
