//! Deterministic test-data generators (test support, not a public API).
//!
//! Shared by this crate's randomized codec tests and by downstream test
//! suites that need representative [`Value`] trees — notably the
//! transport-framing round-trip properties in `fargo-net`. Hidden from
//! docs: the shapes generated here may change at any time.

use crate::id::CompletId;
use crate::refdesc::RefDescriptor;
use crate::value::Value;

/// SplitMix64 — enough randomness for structure fuzzing, fully seeded.
#[derive(Debug, Clone)]
pub struct TestRng(pub u64);

impl TestRng {
    /// The next 64 raw bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform-ish draw in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A lowercase ASCII string of length `0..=max`.
    pub fn string(&mut self, max: usize) -> String {
        let len = self.below(max as u64 + 1) as usize;
        (0..len)
            .map(|_| (b'a' + self.below(26) as u8) as char)
            .collect()
    }
}

/// A random [`RefDescriptor`].
pub fn gen_ref(rng: &mut TestRng) -> RefDescriptor {
    RefDescriptor {
        target: CompletId::new(rng.next_u64() as u32, rng.next_u64()),
        target_type: rng.string(12),
        relocator: rng.string(10),
        last_known: rng.next_u64() as u32,
    }
}

/// A random [`Value`] tree of at most `depth` nesting levels, a list or
/// a map at its root if it nests. Strings fall on both sides of 32 bytes,
/// lists mostly under 16 items, and maps take one of two key sets drawn
/// per tree, so that they repeat their shapes as a batch of records does.
pub fn gen_value(rng: &mut TestRng, depth: u32) -> Value {
    let pool: Vec<Vec<String>> = (0..2)
        .map(|_| (0..rng.below(8)).map(|_| rng.string(6)).collect())
        .collect();
    gen_tree(rng, depth, &pool, true)
}

fn gen_tree(rng: &mut TestRng, depth: u32, pool: &[Vec<String>], root: bool) -> Value {
    let pick = match (depth, root) {
        (0, _) => rng.below(7),
        (_, true) => 7 + rng.below(5),
        _ => rng.below(12),
    };
    let sub = |rng: &mut TestRng| gen_tree(rng, depth - 1, pool, false);
    match pick {
        0 => Value::Null,
        1 => Value::Bool(rng.next_u64() & 1 == 0),
        2 => Value::I64(rng.next_u64() as i64),
        // Finite floats only (NaN breaks PartialEq comparison).
        3 => Value::F64((rng.next_u64() as i64 as f64) / 1e6),
        4 => Value::from(rng.string(40)),
        5 => {
            let len = rng.below(64) as usize;
            Value::Bytes((0..len).map(|_| rng.next_u64() as u8).collect())
        }
        6 => Value::from(gen_ref(rng)),
        7 | 8 => {
            let len = match rng.below(8) {
                0 => 16 + rng.below(4),
                _ => rng.below(8),
            };
            Value::List((0..len).map(|_| sub(rng)).collect())
        }
        _ => {
            let keys = pool[rng.below(2) as usize].iter();
            Value::Map(keys.map(|k| (k.as_str(), sub(rng))).collect())
        }
    }
}

/// One record of the standing benchmark's `graph-simnet` shape: `{k:
/// 16-char string, v: i64, tags: [3 short strings]}` — 7 nodes, 48
/// bytes encoded in a batch (52 for the first, which names the fields).
pub fn graph_record(i: i64, version: i64) -> Value {
    Value::map([
        ("k", Value::from(format!("k{i:015x}"))),
        ("v", Value::I64((i << 32) | version)),
        (
            "tags",
            Value::list((0..3).map(|t| Value::from(format!("t{:05x}", i * 3 + t)))),
        ),
    ])
}

/// `n` graph records at `version`, the by-value graph of one call.
pub fn graph_records(n: i64, version: i64) -> Vec<Value> {
    (0..n).map(|i| graph_record(i, version)).collect()
}
