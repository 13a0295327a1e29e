//! Seeded input generation: keys, op mixes, values and records.
//!
//! Everything a workload sends is a pure function of `--seed`; the
//! program under test sees only the generated calls. Values are derived
//! from `(salt, key, version)` so the client-side model stores one small
//! version number per key and regenerates the expected value on demand.

use std::collections::VecDeque;

use fargo_wire::Value;

/// splitmix64: small, fast, and good enough for load generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        finish(self.0)
    }

    /// Uniform in `0..n` (multiply-shift; `n` must be non-zero).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn finish(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Stateless hash of two words (value derivation).
pub fn mix(a: u64, b: u64) -> u64 {
    finish(
        finish(a)
            .wrapping_add(b)
            .wrapping_add(0x9e37_79b9_7f4a_7c15),
    )
}

/// Zipf(theta) over `n` ranks by inverse-CDF table lookup. Ranks are
/// scattered over the key space with an odd multiplier so the hot keys
/// do not all land in chunk 0.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    scatter: u64,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(theta);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        // Any multiplier coprime with `n` is a permutation of `0..n`.
        let mut scatter = 0x9e37_79b1u64 % n.max(1) as u64;
        while gcd(scatter.max(1), n as u64) != 1 {
            scatter += 1;
        }
        Zipf {
            cdf,
            scatter: scatter.max(1),
        }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let rank = self
            .cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1);
        (rank as u64 * self.scatter) % self.cdf.len() as u64
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// How a workload picks the key of its next op.
#[derive(Debug, Clone)]
pub enum KeyDist {
    Uniform(u64),
    Zipf(Zipf),
}

impl KeyDist {
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        match self {
            KeyDist::Uniform(n) => rng.below(*n),
            KeyDist::Zipf(z) => z.sample(rng),
        }
    }
}

/// The keys of the ops currently in flight in the pipelined phase.
///
/// Rule: no window holds a write and any other op on the same key, so
/// every read has exactly one right answer whatever order the program
/// serves the window in. Two reads of one key may share a window (they
/// cannot disagree), which keeps a skewed read distribution skewed.
#[derive(Debug, Default)]
pub struct Window {
    inflight: VecDeque<(u64, bool)>,
}

impl Window {
    pub fn len(&self) -> usize {
        self.inflight.len()
    }

    fn conflicts(&self, key: u64, write: bool) -> bool {
        self.inflight.iter().any(|&(k, w)| k == key && (w || write))
    }

    /// Draws keys until one may join the window, and admits it.
    pub fn admit(&mut self, rng: &mut Rng, dist: &KeyDist, write: bool) -> u64 {
        loop {
            let key = dist.sample(rng);
            if !self.conflicts(key, write) {
                self.inflight.push_back((key, write));
                return key;
            }
        }
    }

    /// The oldest op completed.
    pub fn retire_oldest(&mut self) {
        self.inflight.pop_front();
    }
}

/// The byte value of `key` at `version`.
pub fn value_bytes(salt: u64, key: u64, version: u32, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    let mut word = mix(salt ^ key, u64::from(version));
    while out.len() < len {
        word = finish(word.wrapping_add(0x9e37_79b9_7f4a_7c15));
        let take = (len - out.len()).min(8);
        out.extend_from_slice(&word.to_le_bytes()[..take]);
    }
    out
}

/// The record at global index `idx` and `version`: `{k: 16-char string,
/// v: i64, tags: [3 short strings]}` — 7 `Value` nodes, about 60 bytes
/// encoded.
pub fn record(salt: u64, idx: u64, version: u32) -> Value {
    let h = mix(salt ^ idx, u64::from(version));
    Value::map([
        (
            "k",
            Value::from(format!("k{:015x}", mix(salt, idx) & 0x0fff_ffff_ffff_ffff)),
        ),
        ("v", Value::I64(((idx as i64) << 32) | i64::from(version))),
        (
            "tags",
            Value::list(
                (0..3).map(|i| Value::from(format!("t{:05x}", (h >> (20 * i)) & 0xf_ffff))),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64, dist: &KeyDist) -> Vec<u64> {
        let mut rng = Rng::new(seed);
        (0..500).map(|_| dist.sample(&mut rng)).collect()
    }

    #[test]
    fn generators_repeat_for_equal_seeds_and_differ_otherwise() {
        for dist in [
            KeyDist::Uniform(16_384),
            KeyDist::Zipf(Zipf::new(16_384, 0.99)),
        ] {
            assert_eq!(stream(7, &dist), stream(7, &dist));
            assert_ne!(stream(7, &dist), stream(8, &dist));
            assert!(stream(7, &dist).iter().all(|&k| k < 16_384));
        }
        assert_eq!(value_bytes(1, 2, 3, 64), value_bytes(1, 2, 3, 64));
        assert_ne!(value_bytes(1, 2, 3, 64), value_bytes(1, 2, 4, 64));
        assert_ne!(value_bytes(1, 2, 3, 64), value_bytes(9, 2, 3, 64));
        assert_eq!(value_bytes(1, 2, 3, 61).len(), 61);
        assert_eq!(record(1, 2, 3), record(1, 2, 3));
        assert_ne!(record(1, 2, 3), record(1, 2, 4));
    }

    #[test]
    fn zipf_is_skewed_and_a_permutation_of_the_key_space() {
        let z = Zipf::new(1024, 0.99);
        let mut rng = Rng::new(3);
        let mut hits = vec![0u32; 1024];
        for _ in 0..100_000 {
            hits[z.sample(&mut rng) as usize] += 1;
        }
        let mut sorted = hits.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        // Zipf(0.99) over 1024 keys: the hottest key draws ~13% and the
        // top ten about 40% of all samples.
        assert!(sorted[0] > 10_000, "hottest {}", sorted[0]);
        assert!(sorted[..10].iter().sum::<u32>() > 30_000);
        assert!(hits.iter().filter(|&&h| h > 0).count() > 900);
    }

    #[test]
    fn record_has_the_documented_shape() {
        let r = record(5, 77, 2);
        assert_eq!(r.count_nodes(), 7);
        assert_eq!(r.get("k").and_then(Value::as_str).map(str::len), Some(16));
        assert_eq!(r.get("v").and_then(Value::as_i64), Some((77 << 32) | 2));
        assert_eq!(
            r.get("tags").and_then(Value::as_list).map(<[Value]>::len),
            Some(3)
        );
    }

    #[test]
    fn window_never_holds_a_write_beside_another_op_on_its_key() {
        let dist = KeyDist::Zipf(Zipf::new(64, 0.99));
        let mut rng = Rng::new(11);
        let mut w = Window::default();
        for i in 0..5_000u32 {
            if w.len() == 16 {
                w.retire_oldest();
            }
            let write = i % 3 == 0;
            let key = w.admit(&mut rng, &dist, write);
            let same: Vec<bool> = w
                .inflight
                .iter()
                .filter(|&&(k, _)| k == key)
                .map(|&(_, wr)| wr)
                .collect();
            assert!(same.len() == 1 || same.iter().all(|wr| !wr), "{same:?}");
        }
    }
}
