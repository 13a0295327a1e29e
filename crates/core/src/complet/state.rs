//! Conversions between complet struct fields and [`Value`] state trees.
//!
//! The [`define_complet!`](crate::define_complet) macro marshals each
//! state field through this trait.

use std::collections::BTreeMap;

use fargo_wire::Value;

use crate::error::{FargoError, Result};
use crate::reference::CompletRef;

/// A type that can live in a complet's marshaled state.
pub trait StateValue: Sized {
    /// Encodes the field into a [`Value`].
    fn to_state(&self) -> Value;

    /// Decodes the field from a [`Value`].
    ///
    /// # Errors
    ///
    /// Fails when the value's shape does not match the field type.
    fn from_state(v: Value) -> Result<Self>;
}

fn mismatch(expected: &str, got: &Value) -> FargoError {
    FargoError::App(format!("state field: expected {expected}, got {got}"))
}

impl StateValue for Value {
    fn to_state(&self) -> Value {
        self.clone()
    }
    fn from_state(v: Value) -> Result<Self> {
        Ok(v)
    }
}

impl StateValue for bool {
    fn to_state(&self) -> Value {
        Value::Bool(*self)
    }
    fn from_state(v: Value) -> Result<Self> {
        v.as_bool().ok_or_else(|| mismatch("bool", &v))
    }
}

impl StateValue for i64 {
    fn to_state(&self) -> Value {
        Value::I64(*self)
    }
    fn from_state(v: Value) -> Result<Self> {
        v.as_i64().ok_or_else(|| mismatch("i64", &v))
    }
}

impl StateValue for i32 {
    fn to_state(&self) -> Value {
        Value::I64(*self as i64)
    }
    fn from_state(v: Value) -> Result<Self> {
        let n = v.as_i64().ok_or_else(|| mismatch("i32", &v))?;
        i32::try_from(n).map_err(|_| mismatch("i32", &v))
    }
}

impl StateValue for u64 {
    fn to_state(&self) -> Value {
        Value::I64(*self as i64)
    }
    fn from_state(v: Value) -> Result<Self> {
        let n = v.as_i64().ok_or_else(|| mismatch("u64", &v))?;
        u64::try_from(n).map_err(|_| mismatch("u64", &v))
    }
}

impl StateValue for usize {
    fn to_state(&self) -> Value {
        Value::I64(*self as i64)
    }
    fn from_state(v: Value) -> Result<Self> {
        let n = v.as_i64().ok_or_else(|| mismatch("usize", &v))?;
        usize::try_from(n).map_err(|_| mismatch("usize", &v))
    }
}

impl StateValue for f64 {
    fn to_state(&self) -> Value {
        Value::F64(*self)
    }
    fn from_state(v: Value) -> Result<Self> {
        v.as_f64().ok_or_else(|| mismatch("f64", &v))
    }
}

impl StateValue for String {
    fn to_state(&self) -> Value {
        Value::from(self.as_str())
    }
    fn from_state(v: Value) -> Result<Self> {
        match v {
            Value::Str(s) => Ok(s.into()),
            other => Err(mismatch("string", &other)),
        }
    }
}

impl<T: StateValue> StateValue for Option<T> {
    fn to_state(&self) -> Value {
        match self {
            Some(t) => t.to_state(),
            None => Value::Null,
        }
    }
    fn from_state(v: Value) -> Result<Self> {
        if v.is_null() {
            Ok(None)
        } else {
            Ok(Some(T::from_state(v)?))
        }
    }
}

impl<T: StateValue> StateValue for Vec<T> {
    fn to_state(&self) -> Value {
        Value::List(self.iter().map(StateValue::to_state).collect())
    }
    fn from_state(v: Value) -> Result<Self> {
        match v {
            Value::List(items) => items.into_iter().map(T::from_state).collect(),
            other => Err(mismatch("list", &other)),
        }
    }
}

impl<T: StateValue> StateValue for BTreeMap<String, T> {
    fn to_state(&self) -> Value {
        Value::Map(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_state()))
                .collect(),
        )
    }
    fn from_state(v: Value) -> Result<Self> {
        match v {
            Value::Map(m) => m
                .into_iter()
                .map(|(k, v)| Ok((String::from(&*k), T::from_state(v)?)))
                .collect(),
            other => Err(mismatch("map", &other)),
        }
    }
}

impl StateValue for CompletRef {
    fn to_state(&self) -> Value {
        Value::from(self.descriptor())
    }
    fn from_state(v: Value) -> Result<Self> {
        match v {
            Value::Ref(d) => Ok(CompletRef::from_descriptor(*d)),
            other => Err(mismatch("complet reference", &other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fargo_wire::{CompletId, RefDescriptor};

    fn roundtrip<T: StateValue + PartialEq + std::fmt::Debug>(x: T) {
        let v = x.to_state();
        assert_eq!(T::from_state(v).unwrap(), x);
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(true);
        roundtrip(-7i64);
        roundtrip(3i32);
        roundtrip(12u64);
        roundtrip(5usize);
        roundtrip(2.5f64);
        roundtrip("hello".to_owned());
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(vec![1i64, 2, 3]);
        roundtrip(Some("x".to_owned()));
        roundtrip(None::<String>);
        let mut m = BTreeMap::new();
        m.insert("a".to_owned(), 1i64);
        roundtrip(m);
    }

    #[test]
    fn complet_ref_roundtrips_via_descriptor() {
        let d = RefDescriptor::link(CompletId::new(1, 2), "T", 0);
        let r = CompletRef::from_descriptor(d.clone());
        let v = r.to_state();
        let back = CompletRef::from_state(v).unwrap();
        assert_eq!(back.descriptor(), d);
    }

    #[test]
    fn shape_mismatches_error() {
        assert!(i64::from_state(Value::Str("no".into())).is_err());
        assert!(String::from_state(Value::I64(1)).is_err());
        assert!(Vec::<i64>::from_state(Value::Null).is_err());
        assert!(i32::from_state(Value::I64(i64::MAX)).is_err());
    }

    #[test]
    fn nested_option_in_vec() {
        roundtrip(vec![Some(1i64), None, Some(3)]);
    }
}
