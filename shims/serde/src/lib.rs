//! In-tree, offline stand-in for the `serde` crate.
//!
//! The build environment has no network access and no vendored
//! registry, so the workspace provides a minimal serialization
//! framework under the same crate name. It supports the subset the
//! repository uses: `#[derive(Serialize, Deserialize)]` on structs and
//! enums (via the sibling `serde_derive` shim) plus JSON encoding
//! through the `serde_json` shim.
//!
//! Unlike real serde's visitor architecture, this shim round-trips
//! everything through an owned [`Value`] tree: `Serialize` renders a
//! value into a [`Value`], `Deserialize` rebuilds one from it. That is
//! slower than real serde but entirely sufficient for checkpointing,
//! telemetry streams, and tests.

#![allow(
    clippy::disallowed_types,
    reason = "serde implements its traits for the std hash collections"
)]

use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// A dynamically-typed serialization tree (the serde data model).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null` / Rust `None`.
    Null,
    /// Boolean.
    Bool(bool),
    /// Signed integer (negative numbers).
    Int(i64),
    /// Unsigned integer (non-negative integers).
    UInt(u64),
    /// Floating point.
    Float(f64),
    /// String.
    Str(String),
    /// Sequence.
    Seq(Vec<Value>),
    /// Key-value map with preserved insertion order.
    Map(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in a [`Value::Map`].
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Looks up a required struct field, with a descriptive error.
    pub fn field(&self, key: &str) -> Result<&Value, DeError> {
        self.get(key)
            .ok_or_else(|| DeError(format!("missing field `{key}`")))
    }

    /// Human-readable name of the value's variant (for error messages).
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::UInt(_) => "uint",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Seq(_) => "sequence",
            Value::Map(_) => "map",
        }
    }

    /// Numeric view accepting any of the three number variants.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::UInt(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError(pub String);

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for DeError {}

impl DeError {
    /// Builds a type-mismatch error.
    pub fn expected(what: &str, got: &Value) -> Self {
        DeError(format!("expected {what}, got {}", got.kind()))
    }
}

/// Types renderable into a [`Value`].
pub trait Serialize {
    /// Renders `self` as a serialization tree.
    fn to_value(&self) -> Value;
}

/// Types rebuildable from a [`Value`].
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from a serialization tree.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(DeError::expected("bool", v)),
        }
    }
}

macro_rules! impl_serde_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::UInt(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let raw = match v {
                    Value::UInt(n) => *n,
                    Value::Int(n) if *n >= 0 => *n as u64,
                    Value::Float(f) if *f >= 0.0 && f.fract() == 0.0 => *f as u64,
                    _ => return Err(DeError::expected("unsigned integer", v)),
                };
                <$t>::try_from(raw)
                    .map_err(|_| DeError(format!("integer {raw} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_serde_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_serde_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let v = *self as i64;
                if v >= 0 { Value::UInt(v as u64) } else { Value::Int(v) }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let raw: i64 = match v {
                    Value::Int(n) => *n,
                    Value::UInt(n) => i64::try_from(*n)
                        .map_err(|_| DeError(format!("integer {n} out of i64 range")))?,
                    Value::Float(f) if f.fract() == 0.0 => *f as i64,
                    _ => return Err(DeError::expected("integer", v)),
                };
                <$t>::try_from(raw)
                    .map_err(|_| DeError(format!("integer {raw} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_serde_int!(i8, i16, i32, i64, isize);

macro_rules! impl_serde_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Float(f64::from(*self))
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                v.as_f64()
                    .map(|f| f as $t)
                    .ok_or_else(|| DeError::expected("number", v))
            }
        }
    )*};
}

impl_serde_float!(f32, f64);

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(DeError::expected("string", v)),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for &'static str {
    /// Leaks the decoded string to satisfy the `'static` lifetime.
    /// Derived types holding `&'static str` (benchmark spec tables)
    /// deserialize rarely — during checkpoint restore and tests — so
    /// the leak is bounded and intentional.
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(Box::leak(s.clone().into_boxed_str())),
            _ => Err(DeError::expected("string", v)),
        }
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().unwrap()),
            _ => Err(DeError::expected("single-character string", v)),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        T::from_value(v).map(Box::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(t) => t.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Seq(items) => items.iter().map(T::from_value).collect(),
            _ => Err(DeError::expected("sequence", v)),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize + fmt::Debug, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let items = <Vec<T>>::from_value(v)?;
        let len = items.len();
        <[T; N]>::try_from(items)
            .map_err(|_| DeError(format!("expected array of length {N}, got {len}")))
    }
}

macro_rules! impl_serde_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Seq(vec![$(self.$n.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Seq(items) => {
                        let mut it = items.iter();
                        let out = ($({
                            let _ = $n;
                            $t::from_value(
                                it.next().ok_or_else(|| DeError("tuple too short".into()))?,
                            )?
                        },)+);
                        Ok(out)
                    }
                    _ => Err(DeError::expected("tuple sequence", v)),
                }
            }
        }
    )*};
}

impl_serde_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

impl<V: Serialize> Serialize for HashMap<String, V> {
    fn to_value(&self) -> Value {
        let mut entries: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| (k.clone(), v.to_value()))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Map(entries)
    }
}

impl<V: Deserialize> Deserialize for HashMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Map(entries) => entries
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
                .collect(),
            _ => Err(DeError::expected("map", v)),
        }
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Map(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Map(entries) => entries
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
                .collect(),
            _ => Err(DeError::expected("map", v)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(u64::from_value(&42u64.to_value()).unwrap(), 42);
        assert_eq!(i32::from_value(&(-7i32).to_value()).unwrap(), -7);
        assert_eq!(f64::from_value(&1.5f64.to_value()).unwrap(), 1.5);
        assert!(bool::from_value(&true.to_value()).unwrap());
        assert_eq!(
            String::from_value(&"hi".to_string().to_value()).unwrap(),
            "hi"
        );
    }

    #[test]
    fn floats_accept_integer_values() {
        // JSON writes 1.0 as "1", which parses back as UInt.
        assert_eq!(f64::from_value(&Value::UInt(3)).unwrap(), 3.0);
        assert_eq!(f32::from_value(&Value::Int(-2)).unwrap(), -2.0);
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![1u64, 2, 3];
        assert_eq!(<Vec<u64>>::from_value(&v.to_value()).unwrap(), v);
        let arr = [5u64, 6, 7];
        assert_eq!(<[u64; 3]>::from_value(&arr.to_value()).unwrap(), arr);
        let opt: Option<u32> = None;
        assert_eq!(<Option<u32>>::from_value(&opt.to_value()).unwrap(), None);
        let pair = (1u32, "x".to_string());
        assert_eq!(<(u32, String)>::from_value(&pair.to_value()).unwrap(), pair);
    }

    #[test]
    fn field_lookup_reports_missing_keys() {
        let m = Value::Map(vec![("a".into(), Value::UInt(1))]);
        assert!(m.field("a").is_ok());
        assert!(m.field("b").unwrap_err().0.contains("missing field"));
    }
}
