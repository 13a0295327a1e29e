//! The determinism contract: one seed ⇒ one bit-identical merged
//! journal. Everything the explorer does — shrinking, perturbation
//! classification, replay-by-seed — rests on this.

use fargo_check::driver::{run, RunConfig};
use fargo_check::workload::Schedule;
use fargo_telemetry::{render_journal_json, JournalEvent};

/// Asserts two merged journals render to the same JSON. On a mismatch it
/// names the index of the first event that differs and both sides of
/// it, so a failure says where the runs diverged.
fn assert_same_journal(a: &[JournalEvent], b: &[JournalEvent], what: &str) {
    if render_journal_json(a) == render_journal_json(b) {
        return;
    }
    let side = |j: &[JournalEvent], i: usize| {
        j.get(i).map_or("(journal ended)".to_owned(), |e| {
            render_journal_json(std::slice::from_ref(e))
        })
    };
    let at = (0..a.len().max(b.len()))
        .find(|&i| side(a, i) != side(b, i))
        .expect("journals that render differently differ in some event");
    panic!(
        "{what}: the journals ({} and {} events) first differ at event {at}\n  a: {}\n  b: {}",
        a.len(),
        b.len(),
        side(a, at),
        side(b, at)
    );
}

/// Running the same schedule twice must produce byte-identical merged
/// journals: same events, same HLC stamps, same order.
#[test]
fn same_seed_twice_is_byte_identical() {
    let schedule = Schedule::generate(42, 12, 3);
    let cfg = RunConfig::default();
    let a = run(&schedule, &cfg);
    let b = run(&schedule, &cfg);
    assert!(!a.failed(), "violations: {:?}", a.violations);
    assert!(!b.failed(), "violations: {:?}", b.violations);
    assert!(!render_journal_json(&a.journal).is_empty());
    assert_same_journal(
        &a.journal,
        &b.journal,
        "same seed must replay to an identical journal",
    );
}

/// Span timestamps read the shared virtual clock, so the id-free span
/// shape — (name, core, start, duration) — is as seed-stable as the
/// journal. (Ids come from a process-global counter and are excluded.)
#[test]
fn span_timing_is_seed_stable() {
    let schedule = Schedule::generate(42, 12, 3);
    let cfg = RunConfig {
        trace: true,
        ..RunConfig::default()
    };
    let a = run(&schedule, &cfg);
    let b = run(&schedule, &cfg);
    assert!(!a.failed(), "violations: {:?}", a.violations);
    assert!(!b.failed(), "violations: {:?}", b.violations);
    assert!(!a.spans.is_empty(), "traced run must record spans");
    assert_eq!(
        a.span_shape(),
        b.span_shape(),
        "same seed must replay to identical span timing"
    );
    // And tracing must not perturb the journal contract.
    assert_same_journal(&a.journal, &b.journal, "tracing perturbed the journal");
}

/// The accounting layer rides the same contract: per-complet counters
/// and the Core-to-Core traffic matrix must replay byte-identically
/// from one seed (under the virtual clock, load is pure invoke counts).
#[test]
fn accounting_and_matrix_are_seed_stable() {
    let schedule = Schedule::generate(42, 12, 3);
    let cfg = RunConfig::default();
    let a = run(&schedule, &cfg);
    let b = run(&schedule, &cfg);
    assert!(!a.failed(), "violations: {:?}", a.violations);
    assert!(!b.failed(), "violations: {:?}", b.violations);
    assert!(
        a.accounting.contains("invokes="),
        "schedule with invokes must leave accounting rows: {}",
        a.accounting
    );
    assert!(
        a.accounting.contains("msgs="),
        "cross-Core schedule must leave matrix cells: {}",
        a.accounting
    );
    assert_eq!(
        a.accounting, b.accounting,
        "same seed must replay to identical accounting"
    );
}

/// The transport abstraction must not reintroduce wall-clock waits under
/// the virtual clock: deterministic-mode receive loops key their timeouts
/// to virtual deadlines, so even a move/collect-heavy schedule finishes
/// in wall seconds — and the merged journal stays a pure function of the
/// seed across the transport seam.
#[test]
fn transport_stays_deterministic_under_virtual_clock() {
    let schedule = Schedule::generate(23, 24, 4);
    let cfg = RunConfig::default();
    let started = std::time::Instant::now();
    let a = run(&schedule, &cfg);
    let b = run(&schedule, &cfg);
    let elapsed = started.elapsed();
    assert!(!a.failed(), "violations: {:?}", a.violations);
    assert!(!b.failed(), "violations: {:?}", b.violations);
    assert!(!render_journal_json(&a.journal).is_empty());
    assert_same_journal(
        &a.journal,
        &b.journal,
        "same seed must replay to an identical journal through the transport layer",
    );
    assert!(
        elapsed < std::time::Duration::from_secs(30),
        "virtual-clock runs must not block on wall-clock receive timeouts (took {elapsed:?})"
    );
}

/// Different seeds produce different workloads (the generator is not
/// collapsing the space).
#[test]
fn different_seeds_differ() {
    let a = Schedule::generate(1, 12, 3);
    let b = Schedule::generate(2, 12, 3);
    assert_ne!(a.to_text(), b.to_text());
}

/// The schedule file format round-trips, so a written counterexample
/// replays the exact op sequence that failed.
#[test]
fn schedule_text_roundtrip_preserves_journal() {
    let schedule = Schedule::generate(7, 10, 3);
    let reparsed = Schedule::parse(&schedule.to_text()).unwrap();
    let cfg = RunConfig::default();
    let a = run(&schedule, &cfg);
    let b = run(&reparsed, &cfg);
    assert_same_journal(
        &a.journal,
        &b.journal,
        "the reparsed schedule replayed differently",
    );
}

/// A divergence is reported at its first differing event, with both
/// sides of it.
#[test]
#[should_panic(expected = "first differ at event 1\n  a: [{")]
fn a_divergence_is_reported_at_its_first_event() {
    let a = run(&Schedule::generate(42, 12, 3), &RunConfig::default()).journal;
    let mut b = a.clone();
    b[1].detail.push('!');
    b.truncate(2);
    assert_same_journal(&a, &b, "divergence");
}
