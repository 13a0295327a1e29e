//! Journal-derived invariant oracles.
//!
//! Each oracle reads a *merged* timeline (see
//! [`fargo_telemetry::merge_timelines`]) and returns the violations it
//! finds; the empty vec means the invariant held. Oracles are pure
//! functions of the journal, so they run equally over a live run, a
//! replayed schedule, or a synthetic fixture (the property tests feed
//! them hand-built journals with known violations).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use fargo_telemetry::{JournalEvent, JournalKind, LayoutHistory};

/// One invariant breach, attributed to the oracle that caught it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which oracle fired (`"single-copy"`, `"tracker-chain"`, `"hlc"`,
    /// `"shard"`, `"acked-loss"`, `"chain-growth"`, `"counter"`,
    /// `"stuck"`, `"op-error"`).
    pub oracle: &'static str,
    /// The complet / core the breach is about.
    pub subject: String,
    /// Human-readable evidence.
    pub detail: String,
}

impl Violation {
    pub fn new(
        oracle: &'static str,
        subject: impl Into<String>,
        detail: impl Into<String>,
    ) -> Self {
        Violation {
            oracle,
            subject: subject.into(),
            detail: detail.into(),
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.oracle, self.subject, self.detail)
    }
}

/// Runs every journal-only oracle over a merged, quiescent timeline.
///
/// Includes [`shard_consistency`], which assumes location publishes were
/// actually delivered — true on the deterministic checker's lossless
/// links; under injected loss the driver filters its findings out.
pub fn check_all(events: &[JournalEvent]) -> Vec<Violation> {
    let mut out = single_live_copy(events);
    out.extend(tracker_chains(events));
    out.extend(hlc_causality(events));
    out.extend(shard_consistency(events));
    out.extend(acked_durability(events));
    out
}

/// **Single live copy.** Replaying arrivals/departures, a complet id may
/// be live on two Cores only inside a move handoff window (commit
/// delivered before the departure entry sorts in); it must never be
/// installed twice on one Core, never live on three Cores, and at the
/// (quiescent) end of the timeline must be live on at most one.
pub fn single_live_copy(events: &[JournalEvent]) -> Vec<Violation> {
    let mut live: BTreeMap<&str, BTreeSet<u32>> = BTreeMap::new();
    let mut out = Vec::new();
    for ev in events {
        match ev.kind {
            JournalKind::CompletArrived => {
                let nodes = live.entry(ev.subject.as_str()).or_default();
                if !nodes.insert(ev.core) {
                    out.push(Violation::new(
                        "single-copy",
                        &ev.subject,
                        format!("installed twice on n{} (seq {})", ev.core, ev.seq),
                    ));
                }
                if nodes.len() >= 3 {
                    out.push(Violation::new(
                        "single-copy",
                        &ev.subject,
                        format!("live on {:?} after arrival at n{}", nodes, ev.core),
                    ));
                }
            }
            JournalKind::CompletDeparted => {
                if let Some(nodes) = live.get_mut(ev.subject.as_str()) {
                    nodes.remove(&ev.core);
                }
            }
            // A crash wipes the core's memory without departure entries;
            // recovery journals this before re-installing the WAL's
            // survivors (which arrive again as `CompletArrived`).
            JournalKind::RecoveryStarted => {
                for nodes in live.values_mut() {
                    nodes.remove(&ev.core);
                }
            }
            _ => {}
        }
    }
    for (id, nodes) in &live {
        if nodes.len() > 1 {
            out.push(Violation::new(
                "single-copy",
                *id,
                format!("live on {nodes:?} at rest"),
            ));
        }
    }
    out
}

/// **Tracker chains are acyclic.** In the final reconstructed layout,
/// following forwards from any tracker must never revisit a Core: a
/// cycle bounces an invocation until the hop limit and no fallback can
/// break it. A walk that *falls off* the chain — a Core with no tracker
/// for the complet, e.g. after idle-tracker collection — is legal: the
/// runtime recovers through the complet's location shard.
///
/// (The strict ancestor of this oracle, "every chain must reach the
/// live copy", flushed out exactly that distinction on its first sweep:
/// collecting an idle tracker at the complet's origin severed routing
/// for good, because nothing re-resolved a dead end. The caller now
/// drops its stale edge and asks the location shard; the oracle keeps
/// cycles fatal and tolerates the now-recoverable dead ends.)
pub fn tracker_chains(events: &[JournalEvent]) -> Vec<Violation> {
    let state = LayoutHistory::from_events(events.to_vec()).final_state();
    let mut out = Vec::new();
    for (node, id) in state.trackers.keys() {
        if !state.placement.contains_key(id) {
            continue; // retired / released / in no man's land: nothing to reach
        }
        let mut visited = vec![*node];
        let mut cur = *node;
        loop {
            if state.placement.get(id) == Some(&cur) {
                break; // reached the live copy
            }
            match state.trackers.get(&(cur, id.clone())) {
                Some(Some(next)) => {
                    if visited.contains(next) {
                        out.push(Violation::new(
                            "tracker-chain",
                            id.clone(),
                            format!("cycle from n{node}: visited {visited:?}, then n{next} again"),
                        ));
                        break;
                    }
                    visited.push(*next);
                    cur = *next;
                }
                // No tracker here (or a stale local pointer): the walk
                // falls off the chain and the location shard takes over.
                _ => break,
            }
        }
    }
    out
}

/// **Per-Core causality.** Within one Core the journal sequence is the
/// ground-truth event order, so HLC stamps must be strictly increasing
/// along it, and no (core, seq) pair may appear twice in a merge.
pub fn hlc_causality(events: &[JournalEvent]) -> Vec<Violation> {
    let mut per_core: BTreeMap<u32, Vec<&JournalEvent>> = BTreeMap::new();
    for ev in events {
        per_core.entry(ev.core).or_default().push(ev);
    }
    let mut out = Vec::new();
    for (core, mut evs) in per_core {
        evs.sort_by_key(|e| e.seq);
        for w in evs.windows(2) {
            if w[1].seq == w[0].seq {
                out.push(Violation::new(
                    "hlc",
                    format!("n{core}"),
                    format!("duplicate seq {} in merged timeline", w[0].seq),
                ));
            } else if w[1].hlc <= w[0].hlc {
                out.push(Violation::new(
                    "hlc",
                    format!("n{core}"),
                    format!(
                        "hlc not increasing: seq {} at {} then seq {} at {}",
                        w[0].seq, w[0].hlc, w[1].seq, w[1].hlc
                    ),
                ));
            }
        }
    }
    out
}

/// **Shard map matches ground truth at quiescence.** Replaying the
/// accepted shard applies (`shard_apply` journal entries), the
/// highest-epoch belief for every complet must agree with the final
/// placement reconstructed from arrivals/departures: a live belief must
/// name the hosting Core, and a tombstone must mean the complet is
/// gone. At equal epochs a tombstone beats a live entry, mirroring the
/// shard's own apply rule. Complets that never touched a shard (naming
/// disabled) are skipped, so chains-only runs stay clean.
pub fn shard_consistency(events: &[JournalEvent]) -> Vec<Violation> {
    // Highest-epoch belief per complet: (epoch, node, alive). The merge
    // is order-independent on purpose — handoffs re-journal the same
    // entry at the new owner, and overlap may interleave epochs.
    let mut belief: BTreeMap<&str, (u64, u32, bool)> = BTreeMap::new();
    for ev in events {
        if ev.kind != JournalKind::ShardApplied {
            continue;
        }
        let epoch: u64 = ev.detail.parse().unwrap_or(0);
        let alive = ev.object != "gone";
        let node = ev.peer.unwrap_or(u32::MAX);
        match belief.get_mut(ev.subject.as_str()) {
            Some(b) => {
                if epoch > b.0 || (epoch == b.0 && b.2 && !alive) {
                    *b = (epoch, node, alive);
                }
            }
            None => {
                belief.insert(ev.subject.as_str(), (epoch, node, alive));
            }
        }
    }
    if belief.is_empty() {
        return Vec::new();
    }
    let placement = LayoutHistory::from_events(events.to_vec())
        .final_state()
        .placement;
    let mut out = Vec::new();
    for (id, (epoch, node, alive)) in belief {
        match placement.get(id) {
            Some(&host) if alive && host != node => out.push(Violation::new(
                "shard",
                id,
                format!("shard believes n{node} (epoch {epoch}) but the live copy is on n{host}"),
            )),
            Some(&host) if !alive => out.push(Violation::new(
                "shard",
                id,
                format!("shard holds a tombstone (epoch {epoch}) but the complet lives on n{host}"),
            )),
            None if alive => out.push(Violation::new(
                "shard",
                id,
                format!("shard believes n{node} (epoch {epoch}) but the complet is retired"),
            )),
            _ => {}
        }
    }
    out
}

/// **No acknowledged state is ever lost.** Cores journal `ExecAcked`
/// with the returned counter value whenever an invocation result is
/// acknowledged durably (write-ahead runs only). The workload counter
/// only grows, so along the merged timeline the acked values per complet
/// must be non-decreasing: a drop means a crash discarded state whose
/// effects were already acknowledged to a caller — exactly the loss the
/// write-ahead log exists to prevent. Runs without a WAL journal no
/// `ExecAcked` events and pass vacuously.
pub fn acked_durability(events: &[JournalEvent]) -> Vec<Violation> {
    let mut high: BTreeMap<&str, (i64, u64)> = BTreeMap::new();
    let mut out = Vec::new();
    for ev in events {
        if ev.kind != JournalKind::ExecAcked {
            continue;
        }
        let Ok(value) = ev.detail.parse::<i64>() else {
            continue; // non-numeric result (e.g. a ref-returning method)
        };
        match high.get_mut(ev.subject.as_str()) {
            Some((hi, hi_seq)) => {
                if value < *hi {
                    out.push(Violation::new(
                        "acked-loss",
                        &ev.subject,
                        format!(
                            "acked value went back: {} (seq {}) then {} (n{} seq {})",
                            hi, hi_seq, value, ev.core, ev.seq
                        ),
                    ));
                } else {
                    *hi = value;
                    *hi_seq = ev.seq;
                }
            }
            None => {
                high.insert(ev.subject.as_str(), (value, ev.seq));
            }
        }
    }
    out
}

/// Forwarding-chain length from `node` to `complet` in the final layout,
/// or `None` when the walk does not reach the live copy (in transit, no
/// tracker, or — caught by [`tracker_chains`] — a broken chain).
pub fn chain_len(events: &[JournalEvent], node: u32, complet: &str) -> Option<usize> {
    let state = LayoutHistory::from_events(events.to_vec()).final_state();
    if !state.placement.contains_key(complet) {
        return None;
    }
    if state.placement.get(complet) != Some(&node)
        && !state.trackers.contains_key(&(node, complet.to_owned()))
    {
        return None; // this Core routes via the location shard, not a chain
    }
    let (path, reached) = state.chain_from(node, complet);
    reached.then_some(path.len())
}
