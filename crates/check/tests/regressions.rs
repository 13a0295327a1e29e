//! Explorer-found counterexamples, checked in verbatim.
//!
//! Each schedule below is the ddmin-shrunk output of a failing seed from
//! a full sweep. The first batch hit one bug class — idle tracker
//! collection severing routing because neither `locate()` nor the
//! calling stub had anything to fall back on when a chain dead-ended —
//! and they must stay green now that both re-resolve through the
//! location shard. The same scenarios are also encoded API-level in
//! `crates/core/tests/schedules.rs`. Later entries come from the fault
//! sweep (`--faults`).

use fargo_check::driver::{run, RunConfig};
use fargo_check::workload::Schedule;

fn assert_clean(seed: u64, text: &str) {
    let schedule = Schedule::parse(text).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    assert_eq!(schedule.seed, seed);
    let report = run(&schedule, &RunConfig::default());
    assert!(
        !report.failed(),
        "seed {seed} regressed: {:?}",
        report.violations
    );
}

/// Collect at the origin, then invoke through it.
#[test]
fn seed_324_collect_at_origin() {
    assert_clean(
        324,
        "# fargo-check schedule v1 seed=324 cores=3\n\
         new 1 @1\n\
         move 1 -> 2\n\
         advance 200000\n\
         collect 1\n",
    );
}

/// Collect at the origin, then *move* through it (`locate()` path).
#[test]
fn seed_511_move_after_origin_collect() {
    assert_clean(
        511,
        "# fargo-check schedule v1 seed=511 cores=3\n\
         new 0 @2\n\
         move 0 -> 0\n\
         advance 400000\n\
         collect 2\n\
         move 0 -> 2\n",
    );
}

/// Same shape as seed 324 from a different generator path.
#[test]
fn seed_684_collect_at_origin() {
    assert_clean(
        684,
        "# fargo-check schedule v1 seed=684 cores=3\n\
         new 0 @1\n\
         move 0 -> 2\n\
         advance 200000\n\
         collect 1\n",
    );
}

/// A three-hop chain whose middle Core is the origin; collecting it
/// used to leave an unreachable dead end mid-chain.
#[test]
fn seed_690_mid_chain_origin_collect() {
    assert_clean(
        690,
        "# fargo-check schedule v1 seed=690 cores=3\n\
         new 0 @1\n\
         move 0 -> 0\n\
         move 0 -> 1\n\
         move 0 -> 2\n\
         advance 400000\n\
         collect 1\n",
    );
}

/// Collect at the origin after moving away from it.
#[test]
fn seed_707_collect_at_origin() {
    assert_clean(
        707,
        "# fargo-check schedule v1 seed=707 cores=3\n\
         new 0 @2\n\
         move 0 -> 1\n\
         advance 500000\n\
         collect 2\n",
    );
}

/// Fault-sweep find: creating a complet on a freshly recovered Core
/// re-minted the id of a WAL-replayed survivor, installing two complets
/// under one identity. Every Core now mints its complet ids from its
/// incarnation's base, above every id of its earlier lives.
#[test]
fn seed_22_id_reuse_after_recovery() {
    assert_clean(
        22,
        "# fargo-check schedule v1 seed=22 cores=3\n\
         new 0 @1\n\
         crash 1\n\
         restart 1\n\
         new 2 @1\n",
    );
}

/// Fault-sweep find: a restarted Core re-minted request ids from 1, so
/// its fresh requests collided with the previous incarnation's entries
/// in peers' reply-dedup caches — the peer served the *cached* old
/// reply and never executed the call. Request ids now start at the
/// Core's incarnation's base, like every id it mints.
#[test]
fn seed_215_request_id_reuse_hits_dedup_cache() {
    assert_clean(
        215,
        "# fargo-check schedule v1 seed=215 cores=3\n\
         new 0 @0\n\
         invoke 0 from 1\n\
         crash 1\n\
         restart 1\n\
         invoke 0 from 1\n",
    );
}

/// Fault-sweep find: a crashed origin Core recovered its *complets* but
/// not its *forwarding trackers*, so every chain through it dead-ended
/// and complets living on intact elsewhere became unreachable. `Departed`
/// records now carry the destination, recovery reinstalls the forwards,
/// and compaction re-emits them from the tracker table.
#[test]
fn seed_779_origin_crash_loses_forwarding_trackers() {
    assert_clean(
        779,
        "# fargo-check schedule v1 seed=779 cores=3\n\
         partition 2 0\n\
         new 1 @1\n\
         partition 1 0\n\
         new 2 @1\n\
         move 2 -> 2\n\
         crash 1\n",
    );
}

/// `move-many` is issued from the Core after its destination: here
/// first from the slots' host (the local path), then from a Core that
/// hosts neither (one list-form `MoveRequest`), then for slots on two
/// Cores, which must fail as a unit with nothing moved.
#[test]
fn move_many_runs_locally_remotely_and_fails_as_a_unit() {
    assert_clean(
        1,
        "# fargo-check schedule v1 seed=1 cores=3\n\
         new 0 @0\n\
         new 1 @0\n\
         new 2 @1\n\
         link 0 1 pull\n\
         move-many 0,1 -> 2\n\
         move-many 1,0 -> 0\n\
         move-many 0,2 -> 2\n\
         invoke 0 from 1\n\
         invoke 1 from 2\n\
         invoke 2 from 0\n",
    );
}

/// Fault-sweep find: the shard owner of slot 1 (core 1) crashed and
/// restarted without its slice, and the origin collected its idle
/// forwarding tracker, so the final audit found no way to the complet
/// living on core 2. At such a dead end a Core now asks its peers
/// whether they host the complet.
#[test]
fn seed_103_dead_end_after_the_shard_owner_restarts() {
    assert_clean(
        103,
        "# fargo-check schedule v1 seed=103 cores=3\n\
         new 1 @0\n\
         move 1 -> 2\n\
         new 2 @1\n\
         crash 1\n\
         advance 400000\n\
         collect 0\n",
    );
}

/// Same root cause as seed 215, caught through the move path: the
/// restarted Core's move/locate RPCs were answered from stale dedup
/// entries, leaving the moved complet unreachable.
#[test]
fn seed_107_stale_dedup_reply_breaks_move_after_restart() {
    assert_clean(
        107,
        "# fargo-check schedule v1 seed=107 cores=3\n\
         new 0 @2\n\
         new 1 @2\n\
         move 0 -> 0\n\
         crash 2\n\
         restart 2\n\
         move 1 -> 0\n",
    );
}

/// A Core restarted without its log remembers nothing of its earlier
/// life, but its node's restart count does: the complet it mints after
/// the restart takes a fresh id, so the reference to the complet it lost
/// dead-ends instead of reaching the newcomer (which would count calls
/// made through both slots). The lost slot's state is forgiven; an extra
/// execution never is.
#[test]
fn an_unlogged_restart_never_remints_a_lost_complets_id() {
    assert_clean(
        0,
        "# fargo-check schedule v1 seed=0 cores=3\n\
         new 0 @1\n\
         invoke 0 from 0\n\
         crash 1\n\
         restart 1 nolog\n\
         new 1 @1\n\
         invoke 1 from 0\n\
         invoke 0 from 0\n",
    );
}

/// A move issued away from the complet's host goes to where the
/// issuer's tracker points. Here that is the destination, which no longer
/// hosts the complet: it must answer at once that it does not, rather
/// than serve the request with a nested one of its own, which left the
/// worker that would serve the source's prepare blocked until the move
/// timed out.
#[test]
fn seed_889_a_move_hinted_at_its_destination_does_not_starve_it() {
    assert_clean(
        889,
        "# fargo-check schedule v1 seed=889 cores=3\n\
         new 0 @2\n\
         move 0 -> 0\n\
         invoke 0 from 1\n\
         move 0 -> 2\n\
         move-many 0,0 -> 0\n",
    );
}

/// The shard entry of a moved complet whose owner is neither party to
/// the move is one delta from the source, lost here to a partition; the
/// source then restarts without its log. A call that dead-ends at the
/// restarted source must not take the owner's stale answer for the last
/// word: it asks the peers past it and finds the complet.
#[test]
fn seed_492_a_dead_end_named_by_the_owner_is_asked_past() {
    assert_clean(
        492,
        "# fargo-check schedule v1 seed=492 cores=3\n\
         new 0 @2\n\
         partition 2 0\n\
         move 0 -> 1\n\
         crash 2\n\
         restart 2 nolog\n\
         restart 2 nolog\n",
    );
}
