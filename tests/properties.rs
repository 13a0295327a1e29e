//! Cross-crate property tests: invariants of movement, relocation
//! semantics, and the scripting front-end under randomised inputs.
//!
//! Randomisation is driven by a seeded SplitMix64 generator so every run
//! exercises the same cases deterministically (no external fuzzing deps).

mod common;

use common::{cluster, teardown};
use fargo::prelude::*;

/// Seeded SplitMix64 generator for deterministic case generation.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        lo + unit * (hi - lo)
    }

    fn ident(&mut self, max: usize) -> String {
        let len = 1 + self.below(max as u64) as usize;
        (0..len)
            .map(|i| {
                let c = self.below(if i == 0 { 26 } else { 36 });
                if c < 26 {
                    (b'a' + c as u8) as char
                } else {
                    (b'0' + (c - 26) as u8) as char
                }
            })
            .collect()
    }

    /// Arbitrary marshal-safe state payload (bounded depth/width).
    fn payload(&mut self, depth: u32) -> Value {
        let pick = if depth == 0 {
            self.below(6)
        } else {
            self.below(8)
        };
        match pick {
            0 => Value::Null,
            1 => Value::Bool(self.next() & 1 == 0),
            2 => Value::I64(self.next() as i64),
            3 => Value::F64(self.f64_in(-1e9, 1e9)),
            4 => Value::from(self.ident(16)),
            5 => {
                let len = self.below(48) as usize;
                Value::Bytes((0..len).map(|_| self.next() as u8).collect())
            }
            6 => {
                let len = self.below(6) as usize;
                Value::List((0..len).map(|_| self.payload(depth - 1)).collect())
            }
            _ => {
                let len = self.below(6) as usize;
                Value::Map(
                    (0..len)
                        .map(|_| (self.ident(5), self.payload(depth - 1)))
                        .collect(),
                )
            }
        }
    }
}

/// Movement is state-preserving for arbitrary payloads: whatever tree
/// a complet holds, it holds it identically after relocation.
#[test]
fn movement_preserves_arbitrary_state() {
    let mut gen = Gen(0x11);
    for _case in 0..8 {
        let payload = gen.payload(3);
        let (_net, cores) = cluster(2);
        let store = cores[0].new_complet("Store", &[]).unwrap();
        store
            .call("set_blob", std::slice::from_ref(&payload))
            .unwrap();
        store.move_to("core1").unwrap();
        assert_eq!(store.call("blob", &[]).unwrap(), payload);
        teardown(&cores);
    }
}

/// However a complet wanders, the original reference still reaches it
/// and observes all effects in order (no lost or duplicated calls).
#[test]
fn random_walks_never_lose_the_complet() {
    let mut gen = Gen(0x22);
    for _case in 0..6 {
        let walk: Vec<usize> = (0..1 + gen.below(7))
            .map(|_| gen.below(4) as usize)
            .collect();
        let (_net, cores) = cluster(4);
        let store = cores[0].new_complet("Store", &[]).unwrap();
        let mut expected_ops = 0i64;
        for &hop in &walk {
            store.move_to(&format!("core{hop}")).unwrap();
            store
                .call("put", &[Value::from("k"), Value::I64(expected_ops)])
                .unwrap();
            expected_ops += 1;
        }
        assert_eq!(
            store.call("ops", &[]).unwrap(),
            Value::I64(expected_ops),
            "every call must have landed exactly once"
        );
        let last = cores[*walk.last().unwrap()].clone();
        assert!(last.hosts(store.id()));
        teardown(&cores);
    }
}

/// By-value arguments echo back exactly, whatever their shape — the
/// full marshal→network→unmarshal→remarshal loop is lossless.
#[test]
fn parameter_graphs_echo_losslessly() {
    let mut gen = Gen(0x33);
    for _case in 0..8 {
        let payload = gen.payload(3);
        let (_net, cores) = cluster(2);
        let store = cores[0].new_complet_at("core1", "Store", &[]).unwrap();
        store
            .call("put", &[Value::from("x"), payload.clone()])
            .unwrap();
        assert_eq!(store.call("get", &[Value::from("x")]).unwrap(), payload);
        teardown(&cores);
    }
}

/// The script lexer/parser never panics on arbitrary input.
#[test]
fn script_parser_never_panics() {
    let mut gen = Gen(0x44);
    for _case in 0..64 {
        let len = gen.below(200) as usize;
        let src: String = (0..len)
            .map(|_| {
                // Mix of printable ASCII and some multibyte/control chars.
                match gen.below(20) {
                    0 => '\n',
                    1 => 'λ',
                    2 => '\t',
                    _ => (0x20 + gen.below(0x5f) as u8) as char,
                }
            })
            .collect();
        let _ = fargo::script::parse(&src);
    }
}

/// Valid generated rules always parse, whatever the identifiers.
#[test]
fn generated_rules_parse() {
    let mut gen = Gen(0x55);
    for _case in 0..64 {
        let event = gen.ident(10);
        let var = gen.ident(8);
        let threshold = gen.f64_in(0.0, 1e6);
        let dest = gen.ident(8);
        let src = format!(
            "$x = %1\non {event}({threshold:.2}) firedby ${var} listenAt $x do\n move completsIn ${var} to \"{dest}\"\nend"
        );
        let parsed = fargo::script::parse(&src);
        assert!(parsed.is_ok(), "should parse: {src}\n{parsed:?}");
    }
}

/// Degrading a reference is idempotent and never changes the target.
#[test]
fn degrade_is_idempotent() {
    let mut gen = Gen(0x66);
    for _case in 0..64 {
        let d = RefDescriptor {
            target: CompletId::new(gen.next() as u32, gen.next()),
            target_type: "T".into(),
            relocator: "pull".into(),
            last_known: gen.next() as u32,
        };
        let once = d.degraded();
        let twice = once.degraded();
        assert_eq!(once, twice);
        assert_eq!(once.target, d.target);
        assert_eq!(once.last_known, d.last_known);
        assert!(once.is_link());
    }
}
