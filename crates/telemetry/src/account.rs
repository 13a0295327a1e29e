//! Per-complet resource accounting with cardinality safety, plus the
//! rendering of the Core↔Core traffic matrix — the data layer of the
//! cluster health observatory.
//!
//! * [`Accountant`] — attributes exec time, invoke count, and marshaled
//!   bytes to the *executing* complet (keyed by `(source, target)`, the
//!   same sketch is a Core's call-edge table). Storage is sharded (the
//!   shard is a pure function of the key, so placement is deterministic)
//!   and the hot path is a shard read-lock plus four relaxed atomic adds.
//!   Cardinality is bounded by a Space-Saving heavy-hitter sketch: when
//!   a shard is full, admitting a new complet evicts the minimum-load
//!   entry and the newcomer inherits its load as an error bound, so the
//!   table stays O(capacity) at millions of complets while every true
//!   heavy hitter — any complet whose load exceeds the evicted minimum —
//!   is retained (the classic Space-Saving guarantee, applied per
//!   shard).
//! * [`MatrixCell`] — one directed Core pair's messages and bytes. The
//!   counts are not kept here: the network's link statistics are the one
//!   count of what crossed a link, and the Core reads its cells from
//!   them; [`render_matrix`] draws the ASCII heatmap.
//!
//! The *load* unit of the sketch is `exec_µs + invokes`: each
//! invocation contributes at least one unit (so the sketch degrades to
//! exact invoke counting under a virtual clock where trivial methods
//! execute in zero measured time) and expensive methods weigh in
//! proportion to their measured exec time.

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Identifies a complet as `(origin node index, sequence)` — the two
/// halves of a `CompletId`, kept as a plain tuple so this crate stays
/// dependency-free.
pub type AccountKey = (u32, u64);

/// Shards of the accountant table. The shard of a key is a pure
/// function of the key, so a given schedule always lands entries in the
/// same shards (determinism) while unrelated complets rarely contend.
const SHARDS: usize = 16;

/// One complet's accumulators. `base` is the load inherited from the
/// entry evicted at admission (zero for entries admitted into a
/// non-full shard) and doubles as the Space-Saving error bound.
struct Cells {
    invokes: AtomicU64,
    exec_us: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    base: u64,
}

impl Cells {
    fn new(base: u64) -> Cells {
        Cells {
            invokes: AtomicU64::new(0),
            exec_us: AtomicU64::new(0),
            bytes_in: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
            base,
        }
    }

    fn load(&self) -> u64 {
        self.base + self.exec_us.load(Ordering::Relaxed) + self.invokes.load(Ordering::Relaxed)
    }
}

/// A point-in-time copy of one key's account.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccountRecord<K = AccountKey> {
    /// `(origin node, seq)` of the complet, unless keyed otherwise.
    pub key: K,
    /// Invocations executed.
    pub invokes: u64,
    /// Total measured exec time, µs.
    pub exec_us: u64,
    /// Marshaled argument bytes received.
    pub bytes_in: u64,
    /// Marshaled result bytes produced.
    pub bytes_out: u64,
    /// Sketch load (`exec_us + invokes + err`), the heavy-hitter rank
    /// key. An over-estimate by at most `err`.
    pub load: u64,
    /// Space-Saving error bound: load inherited from the entry this one
    /// evicted at admission (0 when admitted into a non-full table).
    pub err: u64,
}

/// Per-key resource accounting bounded by a Space-Saving sketch: per
/// complet by default, per `(source, target)` pair as a call-edge table.
pub struct Accountant<K = AccountKey> {
    shards: Vec<RwLock<BTreeMap<K, Arc<Cells>>>>,
    shard_capacity: usize,
}

/// Folds the integers a key hashes to with a multiplicative mix: pure,
/// unlike `RandomState`, and consecutive ids spread evenly over the
/// shards, unlike SipHash (the Zipf recall bound in
/// `zipf_top_talkers_survive_sketch_eviction` depends on it).
struct Mix(u64);

impl Hasher for Mix {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut v = [0; 8];
            v[..chunk.len()].copy_from_slice(chunk);
            let v = u64::from_le_bytes(v);
            self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl<K: Ord + Copy + Hash> Accountant<K> {
    /// An accountant tracking at most `capacity` keys in total
    /// (rounded up to a multiple of the shard count; minimum one entry
    /// per shard).
    pub fn new(capacity: usize) -> Accountant<K> {
        Accountant {
            shards: (0..SHARDS).map(|_| RwLock::new(BTreeMap::new())).collect(),
            shard_capacity: capacity.div_ceil(SHARDS).max(1),
        }
    }

    fn shard_of(key: K) -> usize {
        let mut mix = Mix(0);
        key.hash(&mut mix);
        (mix.finish() >> 32) as usize % SHARDS
    }

    /// Attributes one executed invocation to `key`. The common case
    /// (key already tracked) is a shard read-lock and four relaxed
    /// atomic adds; a miss takes the shard write-lock for Space-Saving
    /// admission.
    pub fn record(&self, key: K, exec_us: u64, bytes_in: u64, bytes_out: u64) {
        let shard = &self.shards[Self::shard_of(key)];
        {
            let map = shard.read().unwrap_or_else(|p| p.into_inner());
            if let Some(cells) = map.get(&key) {
                let cells = cells.clone();
                drop(map);
                Self::bump(&cells, exec_us, bytes_in, bytes_out);
                return;
            }
        }
        let mut map = shard.write().unwrap_or_else(|p| p.into_inner());
        let cells = match map.get(&key) {
            Some(cells) => cells.clone(),
            None => {
                let base = if map.len() >= self.shard_capacity {
                    // Space-Saving: evict the minimum-load entry; ties
                    // break on the smaller key so eviction is a pure
                    // function of table state.
                    let victim = map
                        .iter()
                        .map(|(k, c)| (c.load(), *k))
                        .min()
                        .expect("full shard has a minimum");
                    map.remove(&victim.1);
                    victim.0
                } else {
                    0
                };
                let cells = Arc::new(Cells::new(base));
                map.insert(key, cells.clone());
                cells
            }
        };
        drop(map);
        Self::bump(&cells, exec_us, bytes_in, bytes_out);
    }

    fn bump(cells: &Cells, exec_us: u64, bytes_in: u64, bytes_out: u64) {
        cells.invokes.fetch_add(1, Ordering::Relaxed);
        cells.exec_us.fetch_add(exec_us, Ordering::Relaxed);
        cells.bytes_in.fetch_add(bytes_in, Ordering::Relaxed);
        cells.bytes_out.fetch_add(bytes_out, Ordering::Relaxed);
    }

    /// Invocations of `key` since it was (last) admitted; 0 if untracked.
    pub fn invokes(&self, key: K) -> u64 {
        let map = self.shards[Self::shard_of(key)]
            .read()
            .unwrap_or_else(|p| p.into_inner());
        map.get(&key)
            .map_or(0, |c| c.invokes.load(Ordering::Relaxed))
    }

    /// The top `n` keys by load, heaviest first; ties break on the
    /// smaller key so the order is a pure function of the accounts.
    pub fn top(&self, n: usize) -> Vec<AccountRecord<K>> {
        let mut all = self.records();
        all.sort_by(|a, b| b.load.cmp(&a.load).then(a.key.cmp(&b.key)));
        all.truncate(n);
        all
    }

    /// Every tracked account, in key order.
    pub fn records(&self) -> Vec<AccountRecord<K>> {
        let mut all = Vec::new();
        for shard in &self.shards {
            let map = shard.read().unwrap_or_else(|p| p.into_inner());
            for (key, c) in map.iter() {
                all.push(AccountRecord {
                    key: *key,
                    invokes: c.invokes.load(Ordering::Relaxed),
                    exec_us: c.exec_us.load(Ordering::Relaxed),
                    bytes_in: c.bytes_in.load(Ordering::Relaxed),
                    bytes_out: c.bytes_out.load(Ordering::Relaxed),
                    load: c.load(),
                    err: c.base,
                });
            }
        }
        all.sort_by_key(|r| r.key);
        all
    }

    /// Keys currently tracked (bounded by the sketch capacity).
    pub fn tracked(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().unwrap_or_else(|p| p.into_inner()).len())
            .sum()
    }
}

impl<K: Ord + Copy + Hash> std::fmt::Debug for Accountant<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Accountant")
            .field("tracked", &self.tracked())
            .field("shard_capacity", &self.shard_capacity)
            .finish()
    }
}

// --- traffic matrix -------------------------------------------------------

/// One directed Core-pair cell of the traffic matrix: what the
/// network's `src → dst` link admitted (drops are not counted).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixCell {
    /// Sending Core name.
    pub src: String,
    /// Receiving Core name.
    pub dst: String,
    /// Messages sent `src → dst`.
    pub msgs: u64,
    /// Envelope bytes sent `src → dst`.
    pub bytes: u64,
}

/// Renders matrix cells as an ASCII heatmap (rows send, columns
/// receive; intensity scales with the cell's share of the hottest
/// pair's messages), followed by the exact per-pair counts.
pub fn render_matrix(cells: &[MatrixCell]) -> String {
    if cells.is_empty() {
        return "traffic matrix: no inter-Core messages yet\n".to_owned();
    }
    const SCALE: &[u8] = b".:-=+*#%@";
    let mut names: Vec<&str> = Vec::new();
    for c in cells {
        for n in [c.src.as_str(), c.dst.as_str()] {
            if !names.contains(&n) {
                names.push(n);
            }
        }
    }
    names.sort_unstable();
    let max = cells.iter().map(|c| c.msgs).max().unwrap_or(0).max(1);
    let width = names.iter().map(|n| n.len()).max().unwrap_or(4).max(4);
    let cell_of = |src: &str, dst: &str| cells.iter().find(|c| c.src == src && c.dst == dst);
    let mut out = String::new();
    out.push_str("traffic matrix (messages, rows send -> columns receive)\n");
    out.push_str(&format!("{:>width$} ", "-"));
    for dst in &names {
        out.push_str(&format!("{dst:>width$} "));
    }
    out.push('\n');
    for src in &names {
        out.push_str(&format!("{src:>width$} "));
        for dst in &names {
            let mark = if src == dst {
                ' '
            } else {
                match cell_of(src, dst).map_or(0, |c| c.msgs) {
                    0 => ' ',
                    // Linear share of the hottest pair, clamped so any
                    // traffic at all shows the faintest mark.
                    m => {
                        SCALE[(((m * SCALE.len() as u64) / max) as usize).clamp(1, SCALE.len()) - 1]
                            as char
                    }
                }
            };
            out.push_str(&format!("{mark:>width$} "));
        }
        out.push('\n');
    }
    out.push_str(&format!(
        "scale {} of max {max} msgs\n",
        std::str::from_utf8(SCALE).expect("ascii scale")
    ));
    let mut sorted: Vec<&MatrixCell> = cells.iter().collect();
    sorted.sort_by(|a, b| (&a.src, &a.dst).cmp(&(&b.src, &b.dst)));
    for c in sorted {
        out.push_str(&format!(
            "{} -> {}: {} msgs, {} bytes\n",
            c.src, c.dst, c.msgs, c.bytes
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_attribute_to_the_right_key() {
        let a = Accountant::new(64);
        a.record((0, 1), 10, 100, 7);
        a.record((0, 1), 5, 50, 3);
        a.record((1, 2), 0, 0, 0);
        let top = a.top(10);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].key, (0, 1));
        assert_eq!(top[0].invokes, 2);
        assert_eq!(top[0].exec_us, 15);
        assert_eq!(top[0].bytes_in, 150);
        assert_eq!(top[0].bytes_out, 10);
        assert_eq!(top[0].load, 17, "load = exec_us + invokes");
        assert_eq!(top[0].err, 0);
        assert_eq!(top[1].key, (1, 2));
        assert_eq!(top[1].load, 1, "zero-duration exec still counts one unit");
    }

    #[test]
    fn sketch_stays_bounded_and_keeps_heavy_hitters() {
        // Capacity 64 (4 entries per shard); stream 500 distinct keys
        // once each, plus two heavy keys many times. The per-shard
        // minimum load ratchets up by roughly arrivals/slots (~8 here),
        // far below the heavy keys' 200, so they must survive.
        let a = Accountant::new(64);
        let heavy = [(9, 1_000), (9, 2_000)];
        for k in heavy {
            for _ in 0..200 {
                a.record(k, 0, 0, 0);
            }
        }
        for i in 0..500u64 {
            a.record((0, 10 + i), 0, 0, 0);
        }
        assert!(a.tracked() <= 64, "tracked {} > capacity", a.tracked());
        let top: Vec<AccountKey> = a.top(2).into_iter().map(|r| r.key).collect();
        assert_eq!(top, vec![(9, 1_000), (9, 2_000)]);
        // A light entry that evicted something carries an error bound.
        assert!(a.records().iter().any(|r| r.err > 0));
    }

    #[test]
    fn zipf_top_talkers_survive_sketch_eviction() {
        // A Zipf(1.1) stream over 200 keys through the same 64 slots: the
        // sketch's top-10 holds at least 9 of the true top-10, whichever
        // schedule the seed draws.
        for seed in [7, 11, 23] {
            let recall = zipf_top10_recall(seed);
            assert!(recall >= 9, "seed {seed}: {recall} of the true top-10");
        }
    }

    /// Streams 3,000 Zipf(1.1) draws over 200 keys (a seeded LCG, each
    /// call costing the same 1 µs) into a 64-slot sketch and returns how
    /// many of the true top-10 keys, by exact side-band counts, its
    /// top-10 holds.
    fn zipf_top10_recall(seed: u64) -> usize {
        const KEYS: usize = 200;
        let a = Accountant::new(64);
        let mut cum = Vec::with_capacity(KEYS);
        let mut total = 0.0f64;
        for rank in 1..=KEYS {
            total += 1.0 / (rank as f64).powf(1.1);
            cum.push(total);
        }
        let key = |i: usize| (0, 1 + i as u64);
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut truth = [0u64; KEYS];
        for _ in 0..3_000 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let u = (state >> 11) as f64 / (1u64 << 53) as f64 * total;
            let i = cum.partition_point(|&c| c <= u).min(KEYS - 1);
            truth[i] += 1;
            a.record(key(i), 1, 0, 0);
        }
        let mut ranked: Vec<usize> = (0..KEYS).filter(|&i| truth[i] > 0).collect();
        ranked.sort_by(|&x, &y| truth[y].cmp(&truth[x]).then(x.cmp(&y)));
        let got: Vec<AccountKey> = a.top(10).into_iter().map(|r| r.key).collect();
        ranked
            .iter()
            .take(10)
            .filter(|&&i| got.contains(&key(i)))
            .count()
    }

    #[test]
    fn eviction_is_deterministic() {
        let run = || {
            let a = Accountant::new(8);
            for i in 0..100u64 {
                a.record((1, i), i % 3, 0, 0);
            }
            a.top(8)
        };
        assert_eq!(run(), run());
    }

    /// The same sketch keyed by `(source, target)` is a Core's call-edge
    /// table: a flood of one-call pairs neither grows it nor pushes out
    /// the pairs that carry the traffic, and what it evicts is a pure
    /// function of the calls it saw.
    #[test]
    fn edge_keyed_sketch_stays_bounded_and_keeps_the_heavy_pairs() {
        type Edge = (AccountKey, AccountKey);
        let heavy: [Edge; 2] = [((0, 0), (1, 7)), ((1, 7), (2, 9))];
        let run = || {
            let edges: Accountant<Edge> = Accountant::new(64);
            for i in 0..100_000u64 {
                edges.record(((3, i), (4, i % 977)), 0, 0, 0);
                if i % 10 == 0 {
                    edges.record(heavy[(i / 10 % 2) as usize], 0, 0, 0);
                }
            }
            edges
        };
        let edges = run();
        assert!(edges.tracked() <= 64, "tracked {}", edges.tracked());
        for pair in heavy {
            assert_eq!(edges.invokes(pair), 5_000, "{pair:?} was never evicted");
        }
        assert_eq!(
            edges.invokes(((3, 0), (4, 0))),
            0,
            "a one-call pair is gone"
        );
        assert_eq!(
            edges.records(),
            run().records(),
            "eviction is deterministic"
        );
    }

    #[test]
    fn heatmap_renders_grid_and_detail() {
        let cells = vec![
            MatrixCell {
                src: "core0".into(),
                dst: "core1".into(),
                msgs: 90,
                bytes: 900,
            },
            MatrixCell {
                src: "core1".into(),
                dst: "core0".into(),
                msgs: 1,
                bytes: 10,
            },
        ];
        let out = render_matrix(&cells);
        assert!(out.contains("core0 -> core1: 90 msgs, 900 bytes"), "{out}");
        assert!(out.contains('@'), "hottest pair renders max glyph: {out}");
        assert!(out.contains('.'), "coolest pair renders min glyph: {out}");
        assert!(render_matrix(&[]).contains("no inter-Core messages"));
    }
}
