//! The payload of [`Value::Map`]: a record as one sorted allocation.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::value::Value;

/// A field name. Shared, not owned: the decoder hands every equal key of
/// one message the same allocation, and a clone bumps a count.
pub type Key = Arc<str>;

// One entry of every record of every tree pays this, so it is pinned.
const _: () = assert!(std::mem::size_of::<(Key, Value)>() <= 48);

/// A string-keyed record: entries in one `Vec`, sorted by key, keys
/// unique. It offers the calls of the `BTreeMap<String, Value>` it
/// replaced, in the same (key) order, and costs what it holds — records
/// are a handful of fields, and a tree node is sized for eleven.
///
/// ```
/// use fargo_wire::{Value, ValueMap};
///
/// let mut m: ValueMap = [("b", Value::I64(2)), ("a", Value::I64(1))].into_iter().collect();
/// m.insert("c", Value::Null);
/// assert_eq!(m.iter().map(|(k, _)| &**k).collect::<Vec<_>>(), ["a", "b", "c"]);
/// assert_eq!(m.get("b"), Some(&Value::I64(2)));
/// ```
#[derive(PartialEq, Default)]
pub struct ValueMap {
    entries: Vec<(Key, Value)>,
}

impl Clone for ValueMap {
    #[inline]
    fn clone(&self) -> Self {
        ValueMap {
            entries: self.entries.clone(),
        }
    }

    /// Entry by entry into the entries `self` has, each value through
    /// [`Value::clone_from`]: a tuple's own `clone_from` would clone the
    /// value afresh.
    fn clone_from(&mut self, source: &Self) {
        self.entries.truncate(source.entries.len());
        let (shared, tail) = source.entries.split_at(self.entries.len());
        for ((key, value), (src_key, src_value)) in self.entries.iter_mut().zip(shared) {
            key.clone_from(src_key);
            value.clone_from(src_value);
        }
        self.entries.extend_from_slice(tail);
    }
}

impl ValueMap {
    /// An empty map; allocates nothing.
    pub fn new() -> Self {
        ValueMap::default()
    }

    /// Takes entries in any order: already sorted and unique (what our
    /// own encoder writes) costs one pass of comparisons; anything else
    /// one stable sort, after which the last of equal keys wins — what
    /// inserting them one by one into a `BTreeMap` did, without a
    /// shifting insert per entry. Capacity the entries do not fill is
    /// given back: a record is kept for as long as the state it is in.
    pub(crate) fn from_entries(mut entries: Vec<(Key, Value)>) -> Self {
        if !entries.windows(2).all(|w| w[0].0 < w[1].0) {
            entries.sort_by(|a, b| a.0.cmp(&b.0));
            entries.dedup_by(|later, kept| {
                let same = later.0 == kept.0;
                if same {
                    std::mem::swap(later, kept);
                }
                same
            });
        }
        entries.shrink_to_fit();
        ValueMap { entries }
    }

    fn position(&self, key: &str) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| (**k).cmp(key))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map holds no entry.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The value under `key`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.position(key).ok().map(|i| &self.entries[i].1)
    }

    /// The value under `key`, mutably.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        self.position(key).ok().map(|i| &mut self.entries[i].1)
    }

    /// Puts `value` under `key` and returns what was there. A key
    /// already present is kept: overwriting a field allocates nothing.
    pub fn insert<K: AsRef<str> + Into<Key>>(&mut self, key: K, value: Value) -> Option<Value> {
        match self.position(key.as_ref()) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (key.into(), value));
                None
            }
        }
    }

    /// Entries in key order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&Key, &Value)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Values in key order.
    pub fn values(&self) -> impl ExactSizeIterator<Item = &Value> {
        self.entries.iter().map(|(_, v)| v)
    }

    /// Values in key order, mutably.
    pub fn values_mut(&mut self) -> impl ExactSizeIterator<Item = &mut Value> {
        self.entries.iter_mut().map(|(_, v)| v)
    }
}

impl fmt::Debug for ValueMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: Into<Key>> FromIterator<(K, Value)> for ValueMap {
    fn from_iter<I: IntoIterator<Item = (K, Value)>>(iter: I) -> Self {
        ValueMap::from_entries(iter.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }
}

impl IntoIterator for ValueMap {
    type Item = (Key, Value);
    type IntoIter = std::vec::IntoIter<(Key, Value)>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

impl From<BTreeMap<String, Value>> for ValueMap {
    fn from(m: BTreeMap<String, Value>) -> Self {
        m.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testgen::{gen_value, TestRng};

    #[test]
    fn unsorted_and_duplicate_entries_normalize_last_wins() {
        let m: ValueMap = [
            ("b", Value::I64(1)),
            ("a", Value::I64(2)),
            ("b", Value::I64(3)),
            ("a", Value::I64(4)),
            ("c", Value::I64(5)),
        ]
        .into_iter()
        .collect();
        let got: Vec<_> = m.iter().map(|(k, v)| (&**k, v.as_i64().unwrap())).collect();
        assert_eq!(got, [("a", 4), ("b", 3), ("c", 5)]);
    }

    #[test]
    fn overwriting_a_field_keeps_its_key_allocation() {
        let mut m: ValueMap = [("k", Value::Null)].into_iter().collect();
        let before = Arc::as_ptr(m.iter().next().unwrap().0);
        assert_eq!(m.insert("k", Value::I64(1)), Some(Value::Null));
        assert_eq!(Arc::as_ptr(m.iter().next().unwrap().0), before);
        assert_eq!(m.len(), 1);
    }

    /// Random `insert`/`get`/`get_mut`/iteration against the tree this
    /// type replaced.
    #[test]
    fn agrees_with_a_btreemap_model() {
        let rng = &mut TestRng(0x3a9);
        for _ in 0..64 {
            let mut map = ValueMap::new();
            let mut model = BTreeMap::<String, Value>::new();
            for _ in 0..rng.below(48) {
                // Few distinct keys, so most operations hit one present.
                let key = format!("k{}", rng.below(12));
                match rng.below(4) {
                    0 | 1 => {
                        let v = gen_value(rng, 1);
                        assert_eq!(map.insert(key.clone(), v.clone()), model.insert(key, v));
                    }
                    2 => assert_eq!(map.get(&key), model.get(&key)),
                    _ => {
                        let v = gen_value(rng, 0);
                        if let Some(slot) = model.get_mut(&key) {
                            *slot = v.clone();
                        }
                        if let Some(slot) = map.get_mut(&key) {
                            *slot = v;
                        }
                    }
                }
                assert_eq!(map.len(), model.len());
                assert_eq!(map.is_empty(), model.is_empty());
            }
            assert!(map
                .iter()
                .map(|(k, v)| (&**k, v))
                .eq(model.iter().map(|(k, v)| (&**k, v))));
            assert!(map.values().eq(model.values()));
            assert!(map.values_mut().map(|v| &*v).eq(model.values()));
            assert_eq!(ValueMap::from(model.clone()), map);
            let collected: ValueMap = model.clone().into_iter().collect();
            assert_eq!(collected, map);
            assert!(map.into_iter().map(|(k, v)| (k.to_string(), v)).eq(model));
        }
    }
}
