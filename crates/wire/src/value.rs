//! The self-describing runtime value tree.

use std::collections::BTreeMap;
use std::fmt;

use crate::map::{Key, ValueMap};
use crate::refdesc::RefDescriptor;
use crate::text::Text;

/// A runtime value: complet state, invocation parameters, and results.
///
/// `Value` plays the role Java's object graphs play in FarGo. It is a
/// *tree* whose leaves may be [`Value::Ref`] nodes — complet references.
/// Cycles between complets are expressed through `Ref` leaves (a complet's
/// state can hold a reference to any complet, including one that points
/// back); cycles *inside* a single complet's state are not representable,
/// which mirrors the paper's definition of a complet closure as the graph
/// reachable from the anchor with complet references cut at the boundary.
///
/// ```
/// use fargo_wire::Value;
///
/// let v = Value::map([
///     ("text", Value::from("hello")),
///     ("count", Value::from(3i64)),
/// ]);
/// assert_eq!(v.get("count").and_then(Value::as_i64), Some(3));
/// ```
#[derive(Debug, PartialEq, Default)]
pub enum Value {
    /// The absence of a value (Java `null`).
    #[default]
    Null,
    /// A boolean.
    Bool(bool),
    /// A signed integer.
    I64(i64),
    /// A double-precision float.
    F64(f64),
    /// A UTF-8 string; a short one lives in the node.
    Str(Text),
    /// An opaque byte array.
    Bytes(Vec<u8>),
    /// An ordered sequence.
    List(Vec<Value>),
    /// A string-keyed record.
    Map(ValueMap),
    /// An outgoing complet reference (cut point of the closure). Boxed:
    /// inline, this rare leaf made every node 80 bytes instead of 32.
    Ref(Box<RefDescriptor>),
}

// Every list slot and map leaf of every tree pays this, so it is pinned.
const _: () = assert!(std::mem::size_of::<Value>() <= 32);

impl Clone for Value {
    #[inline]
    fn clone(&self) -> Self {
        match self {
            Value::Null => Value::Null,
            Value::Bool(b) => Value::Bool(*b),
            Value::I64(v) => Value::I64(*v),
            Value::F64(v) => Value::F64(*v),
            Value::Str(s) => Value::Str(s.clone()),
            Value::Bytes(b) => Value::Bytes(b.clone()),
            Value::List(items) => Value::List(items.clone()),
            Value::Map(m) => Value::Map(m.clone()),
            Value::Ref(r) => Value::Ref(r.clone()),
        }
    }

    /// Copies `source` into the buffers `self` already has where the two
    /// are of one kind, node by node: a tree overwritten with one of its
    /// own shape (a batch stored over the last one) allocates nothing.
    fn clone_from(&mut self, source: &Self) {
        match (self, source) {
            (Value::Bytes(b), Value::Bytes(src)) => b.clone_from(src),
            (Value::List(items), Value::List(src)) => items.clone_from(src),
            (Value::Map(m), Value::Map(src)) => m.clone_from(src),
            (Value::Ref(r), Value::Ref(src)) => r.clone_from(src),
            (this, src) => *this = src.clone(),
        }
    }
}

impl Value {
    /// Builds a [`Value::Map`] from key/value pairs.
    pub fn map<K, I>(pairs: I) -> Value
    where
        K: Into<Key>,
        I: IntoIterator<Item = (K, Value)>,
    {
        Value::Map(pairs.into_iter().collect())
    }

    /// Builds a [`Value::List`] from values.
    pub fn list<I: IntoIterator<Item = Value>>(items: I) -> Value {
        Value::List(items.into_iter().collect())
    }

    /// Builds a [`Value::Bytes`].
    pub fn bytes(b: impl Into<Vec<u8>>) -> Value {
        Value::Bytes(b.into())
    }

    /// The boolean inside, if this is a [`Value::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer inside, if this is a [`Value::I64`].
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I64(v) => Some(*v),
            _ => None,
        }
    }

    /// The float inside, if this is a [`Value::F64`] (or an exact `I64`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(v) => Some(*v),
            Value::I64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The string inside, if this is a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The bytes inside, if this is a [`Value::Bytes`].
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// The items inside, if this is a [`Value::List`].
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(items) => Some(items),
            _ => None,
        }
    }

    /// The map inside, if this is a [`Value::Map`].
    pub fn as_map(&self) -> Option<&ValueMap> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// The reference descriptor inside, if this is a [`Value::Ref`].
    pub fn as_ref_desc(&self) -> Option<&RefDescriptor> {
        match self {
            Value::Ref(r) => Some(r),
            _ => None,
        }
    }

    /// Whether this value is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Map field access: `self["key"]` for [`Value::Map`], else `None`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_map().and_then(|m| m.get(key))
    }

    /// Mutable map field access.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        match self {
            Value::Map(m) => m.get_mut(key),
            _ => None,
        }
    }

    /// Inserts a field if this is a [`Value::Map`]; returns the old value.
    pub fn insert(&mut self, key: impl AsRef<str> + Into<Key>, value: Value) -> Option<Value> {
        match self {
            Value::Map(m) => m.insert(key, value),
            _ => None,
        }
    }

    /// List element access for [`Value::List`], else `None`.
    pub fn index(&self, i: usize) -> Option<&Value> {
        self.as_list().and_then(|l| l.get(i))
    }

    /// Visits every [`RefDescriptor`] in the tree, depth-first.
    ///
    /// This is the traversal hook the paper's mobility protocol uses to
    /// "detect all the complet references that are pointing out of the
    /// moved complet" (§3.3).
    pub fn for_each_ref<F: FnMut(&RefDescriptor)>(&self, f: &mut F) {
        match self {
            Value::Ref(r) => f(r),
            Value::List(items) => {
                for v in items {
                    v.for_each_ref(f);
                }
            }
            Value::Map(m) => {
                for v in m.values() {
                    v.for_each_ref(f);
                }
            }
            _ => {}
        }
    }

    /// Collects every reference descriptor in the tree.
    pub fn collect_refs(&self) -> Vec<RefDescriptor> {
        let mut out = Vec::new();
        self.for_each_ref(&mut |r| out.push(r.clone()));
        out
    }

    /// Rewrites every [`RefDescriptor`] in the tree, in place (a graph
    /// that holds no reference is only read).
    ///
    /// Used by the invocation unit to *degrade* references crossing a
    /// complet boundary to `link` (§3.1), and by the movement unit to
    /// update `last_known` locations after a move.
    pub fn transform_refs_mut<F: FnMut(&mut RefDescriptor)>(&mut self, f: &mut F) {
        match self {
            Value::Ref(r) => f(r),
            Value::List(items) => {
                for v in items {
                    v.transform_refs_mut(f);
                }
            }
            Value::Map(m) => {
                for v in m.values_mut() {
                    v.transform_refs_mut(f);
                }
            }
            _ => {}
        }
    }

    /// [`transform_refs_mut`](Self::transform_refs_mut) for a rewrite
    /// written as a function from the old descriptor to the new one.
    pub fn transform_refs<F: FnMut(RefDescriptor) -> RefDescriptor>(mut self, f: &mut F) -> Value {
        self.transform_refs_mut(&mut |r| *r = f(r.clone()));
        self
    }

    /// Approximate in-memory footprint in bytes: 32 per node (a `Value`)
    /// plus what its strings, blobs, keys and descriptors own — what the
    /// tree would own unshared: a key counts its length in every record
    /// that names it, though records decoded from one message share one
    /// allocation of it, and a map entry's 16-byte key handle is left out.
    ///
    /// The monitoring layer exposes this as the `completSize` application
    /// profiling service (§4.1).
    pub fn deep_size(&self) -> usize {
        let own = std::mem::size_of::<Value>();
        own + match self {
            Value::Str(s) => s.len(),
            Value::Bytes(b) => b.len(),
            Value::List(items) => items.iter().map(Value::deep_size).sum(),
            Value::Map(m) => m
                .iter()
                .map(|(k, v)| k.len() + v.deep_size())
                .sum::<usize>(),
            Value::Ref(r) => {
                std::mem::size_of::<RefDescriptor>() + r.target_type.len() + r.relocator.len()
            }
            _ => 0,
        }
    }

    /// Total number of nodes in the tree (including this one).
    pub fn count_nodes(&self) -> usize {
        1 + match self {
            Value::List(items) => items.iter().map(Value::count_nodes).sum(),
            Value::Map(m) => m.values().map(Value::count_nodes).sum(),
            _ => 0,
        }
    }

    /// Maximum nesting depth of the tree (a leaf has depth 1).
    pub fn depth(&self) -> usize {
        1 + match self {
            Value::List(items) => items.iter().map(Value::depth).max().unwrap_or(0),
            Value::Map(m) => m.values().map(Value::depth).max().unwrap_or(0),
            _ => 0,
        }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::I64(v as i64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::I64(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.into())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v.into())
    }
}
impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Self {
        Value::List(v)
    }
}
impl From<BTreeMap<String, Value>> for Value {
    fn from(v: BTreeMap<String, Value>) -> Self {
        Value::Map(v.into())
    }
}
impl From<RefDescriptor> for Value {
    fn from(v: RefDescriptor) -> Self {
        Value::Ref(Box::new(v))
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map(Into::into).unwrap_or(Value::Null)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Bytes(b) => write!(f, "<{} bytes>", b.len()),
            Value::List(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Map(m) => {
                write!(f, "{{")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k}: {v}")?;
                }
                write!(f, "}}")
            }
            Value::Ref(r) => write!(f, "&{r}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::CompletId;

    fn sample_ref(name: &str, reloc: &str) -> RefDescriptor {
        RefDescriptor {
            target: CompletId::new(0, 1),
            target_type: name.into(),
            relocator: reloc.into(),
            last_known: 0,
        }
    }

    #[test]
    fn accessors_match_variants() {
        assert_eq!(Value::from(true).as_bool(), Some(true));
        assert_eq!(Value::from(5i64).as_i64(), Some(5));
        assert_eq!(Value::from(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::from(5i64).as_f64(), Some(5.0));
        assert_eq!(Value::from("x").as_str(), Some("x"));
        assert_eq!(Value::bytes(vec![1, 2]).as_bytes(), Some(&[1u8, 2][..]));
        assert!(Value::Null.is_null());
        assert_eq!(Value::from("x").as_i64(), None);
    }

    #[test]
    fn map_access_and_insert() {
        let mut v = Value::map([("a", Value::from(1i64))]);
        assert_eq!(v.get("a").and_then(Value::as_i64), Some(1));
        assert!(v.get("b").is_none());
        v.insert("b", Value::from(2i64));
        assert_eq!(v.get("b").and_then(Value::as_i64), Some(2));
        *v.get_mut("a").unwrap() = Value::from(9i64);
        assert_eq!(v.get("a").and_then(Value::as_i64), Some(9));
    }

    #[test]
    fn ref_traversal_finds_nested_refs() {
        let v = Value::map([
            ("direct", Value::from(sample_ref("A", "pull"))),
            (
                "nested",
                Value::list([Value::Null, Value::from(sample_ref("B", "stamp"))]),
            ),
        ]);
        let refs = v.collect_refs();
        assert_eq!(refs.len(), 2);
        let types: Vec<_> = refs.iter().map(|r| r.target_type.as_str()).collect();
        assert!(types.contains(&"A") && types.contains(&"B"));
    }

    #[test]
    fn transform_refs_degrades_everything() {
        let v = Value::list([
            Value::from(sample_ref("A", "pull")),
            Value::map([("r", Value::from(sample_ref("B", "duplicate")))]),
        ]);
        let out = v.transform_refs(&mut |r| r.degraded());
        assert!(out.collect_refs().iter().all(RefDescriptor::is_link));
    }

    /// `transform_refs` as it was before it became a view of
    /// `transform_refs_mut`: rebuilds every list and map on the way.
    fn rebuilt(v: Value, f: &mut impl FnMut(RefDescriptor) -> RefDescriptor) -> Value {
        match v {
            Value::Ref(r) => Value::from(f(*r)),
            Value::List(items) => Value::list(items.into_iter().map(|v| rebuilt(v, f))),
            Value::Map(m) => Value::map(m.into_iter().map(|(k, v)| (k, rebuilt(v, f)))),
            other => other,
        }
    }

    #[test]
    fn in_place_and_by_value_rewrites_agree_with_the_rebuilding_one() {
        use crate::testgen::{gen_value, TestRng};
        // The same tree with a `Null` wherever it held a reference.
        fn without_refs(v: Value) -> Value {
            match v {
                Value::Ref(_) => Value::Null,
                Value::List(items) => Value::list(items.into_iter().map(without_refs)),
                Value::Map(m) => Value::map(m.into_iter().map(|(k, v)| (k, without_refs(v)))),
                other => other,
            }
        }
        let rng = &mut TestRng(0x7ef5);
        for round in 0..256 {
            let v = gen_value(rng, 4);
            let v = if round % 2 == 0 { v } else { without_refs(v) };
            let expected = rebuilt(v.clone(), &mut |r| r.degraded());
            assert_eq!(v.clone().transform_refs(&mut |r| r.degraded()), expected);
            let mut in_place = v.clone();
            in_place.transform_refs_mut(&mut |r| r.relocator = "link".to_owned());
            assert_eq!(in_place, expected);
            assert!(expected.collect_refs().iter().all(RefDescriptor::is_link));
            if round % 2 == 1 {
                assert_eq!(expected, v, "a graph without references is untouched");
            }
            // A rewrite that is not a degrade: every field can change.
            let mut bump = |mut r: RefDescriptor| {
                r.last_known = r.last_known.wrapping_add(1);
                r.target_type.push('!');
                r
            };
            assert_eq!(v.clone().transform_refs(&mut bump), rebuilt(v, &mut bump));
        }
    }

    #[test]
    fn deep_size_grows_with_content() {
        let small = Value::from("x");
        let big = Value::bytes(vec![0u8; 4096]);
        assert!(big.deep_size() > small.deep_size() + 4000);
    }

    #[test]
    fn count_and_depth() {
        let v = Value::list([Value::from(1i64), Value::list([Value::from(2i64)])]);
        assert_eq!(v.count_nodes(), 4);
        assert_eq!(v.depth(), 3);
        assert_eq!(Value::Null.depth(), 1);
    }

    #[test]
    fn display_is_readable() {
        let v = Value::map([("k", Value::list([Value::from(1i64), Value::Null]))]);
        assert_eq!(v.to_string(), "{k: [1, null]}");
    }

    #[test]
    fn option_conversion() {
        assert_eq!(Value::from(Some(3i64)), Value::I64(3));
        assert_eq!(Value::from(None::<i64>), Value::Null);
    }
}
