//! A minimal, self-contained stand-in for the parts of `serde` this
//! workspace uses: `Serialize` / `Deserialize` traits (with derive
//! macros) over an in-memory [`Value`] tree.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors this shim instead of the real crate. The data
//! model is deliberately simple: serialization lowers any value to a
//! [`Value`], and `serde_json` (the sibling shim) renders/parses that
//! tree as JSON text. Field order is preserved, so output is stable
//! across runs — which the golden-report tests rely on.
//!
//! ```
//! use serde::Value;
//!
//! let v = Value::Map(vec![("x".into(), Value::U64(3))]);
//! assert_eq!(v.get("x"), Some(&Value::U64(3)));
//! assert_eq!(v.kind(), "map");
//! ```

#![warn(missing_docs)]

use std::collections::{BTreeMap, HashMap};
use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

/// The in-memory serialization tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Non-negative integer.
    U64(u64),
    /// Negative integer.
    I64(i64),
    /// Floating-point number.
    F64(f64),
    /// JSON string.
    Str(String),
    /// JSON array.
    Seq(Vec<Value>),
    /// Insertion-ordered map (JSON object).
    Map(Vec<(String, Value)>),
}

impl Value {
    /// Human-readable kind name, for error messages.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::U64(_) | Value::I64(_) | Value::F64(_) => "number",
            Value::Str(_) => "string",
            Value::Seq(_) => "sequence",
            Value::Map(_) => "map",
        }
    }

    /// Looks up a key in a `Map` value.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Serialization / deserialization error.
///
/// Errors raised inside a struct field carry the dotted key path to
/// that field, outermost first, behind the name of the outermost type
/// that wrapped them: `scenario.cluster.disaggregate.prefill: unknown
/// field(s) `zz``. Each enclosing field replaces the type name with its
/// own key ([`Error::in_field`]), so the path reads from the root of
/// whatever document was parsed.
#[derive(Debug, Clone)]
pub struct Error {
    msg: String,
    /// Dotted key path below `ty` (empty when the error is about `ty`'s
    /// value itself).
    path: String,
    /// The type the path starts from, if any.
    ty: Option<&'static str>,
}

impl Error {
    /// Creates an error from a message.
    #[must_use]
    pub fn msg(m: impl Into<String>) -> Self {
        Error {
            msg: m.into(),
            path: String::new(),
            ty: None,
        }
    }

    /// Creates an error about a value of type `ty` itself.
    #[must_use]
    pub fn at(ty: &'static str, m: impl Into<String>) -> Self {
        Error {
            ty: Some(ty),
            ..Error::msg(m)
        }
    }

    /// Re-roots the error at field `key` of a `ty` value: `key` becomes
    /// the first path segment and `ty` the type the path starts from.
    #[must_use]
    pub fn in_field(mut self, ty: &'static str, key: &str) -> Self {
        self.path = if self.path.is_empty() {
            key.to_string()
        } else {
            format!("{key}.{}", self.path)
        };
        self.ty = Some(ty);
        self
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.ty, self.path.is_empty()) {
            (None, _) => f.write_str(&self.msg),
            (Some(ty), true) => write!(f, "{ty}: {}", self.msg),
            (Some(ty), false) => write!(f, "{ty}.{}: {}", self.path, self.msg),
        }
    }
}

impl std::error::Error for Error {}

/// The key tree a type deserializes from, for validating dotted paths
/// into a document (e.g. sweep axes) before any value is parsed.
#[derive(Debug, Clone, Copy)]
pub enum Schema {
    /// A scalar or array value: settable, but not descendable.
    Leaf,
    /// An object with a fixed key set; each child's tree is built on
    /// demand, so recursive and shared subtrees cost nothing up front.
    Map(&'static [SchemaEntry]),
}

/// One key of a [`Schema::Map`] and the function building its subtree.
pub type SchemaEntry = (&'static str, fn() -> Schema);

impl Schema {
    /// [`Schema::Leaf`] as a function, for [`Schema::Map`] entries.
    #[must_use]
    pub fn leaf() -> Schema {
        Schema::Leaf
    }
}

/// A value that can lower itself to a [`Value`] tree.
pub trait Serialize {
    /// Lowers `self` to a [`Value`] tree.
    fn to_value(&self) -> Value;
}

/// A value reconstructible from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// # Errors
    /// Returns an error when `v` does not have the expected shape.
    fn from_value(v: &Value) -> Result<Self, Error>;

    /// The key tree of this type's JSON form. The derive fills it from
    /// field and variant names; scalars and sequences are leaves.
    fn schema() -> Schema {
        Schema::Leaf
    }
}

// ---- helpers used by the derive-generated code ----

/// # Errors
/// Errors when `v` is not a sequence of exactly `len` elements.
pub fn expect_seq<'v>(v: &'v Value, ty: &str, len: usize) -> Result<&'v [Value], Error> {
    match v {
        Value::Seq(s) if s.len() == len => Ok(s),
        Value::Seq(s) => Err(Error::msg(format!(
            "expected {len} elements for {ty}, found {}",
            s.len()
        ))),
        other => Err(Error::msg(format!(
            "expected sequence for {ty}, found {}",
            other.kind()
        ))),
    }
}

fn expect_map<'v>(v: &'v Value, ty: &str) -> Result<&'v [(String, Value)], Error> {
    match v {
        Value::Map(m) => Ok(m),
        other => Err(Error::msg(format!(
            "expected map for {ty}, found {}",
            other.kind()
        ))),
    }
}

/// Sorts the entries of the object `v` into one slot per key of `keys`
/// (`None` where a key is absent), without allocating.
///
/// With `deny_unknown` set, a repeated key or a key outside `keys` is
/// an error; otherwise unknown keys are ignored and the first of
/// repeated keys wins.
///
/// # Errors
/// Errors when `v` is not an object, or as described above.
pub fn struct_fields<'v, const N: usize>(
    v: &'v Value,
    ty: &'static str,
    keys: &[&str; N],
    deny_unknown: bool,
) -> Result<[Option<&'v Value>; N], Error> {
    let Value::Map(entries) = v else {
        return Err(Error::at(
            ty,
            format!("expected a JSON object, found {}", v.kind()),
        ));
    };
    let mut slots = [None; N];
    let mut unknown = false;
    for (k, val) in entries {
        match keys.iter().position(|key| key == k) {
            Some(i) if slots[i].is_none() => slots[i] = Some(val),
            Some(_) if deny_unknown => return Err(Error::at(ty, format!("duplicate key `{k}`"))),
            Some(_) => {}
            None => unknown = true,
        }
    }
    if unknown && deny_unknown {
        let unknown: Vec<&str> = entries
            .iter()
            .map(|(k, _)| k.as_str())
            .filter(|k| !keys.contains(k))
            .collect();
        return Err(Error::at(
            ty,
            format!("unknown field(s) `{}`", unknown.join("`, `")),
        ));
    }
    Ok(slots)
}

/// Parses one required struct field from its slot.
///
/// # Errors
/// Errors when the field is missing or `parse` fails.
pub fn de_field<T>(
    slot: Option<&Value>,
    ty: &'static str,
    key: &str,
    parse: impl FnOnce(&Value) -> Result<T, Error>,
) -> Result<T, Error> {
    match slot {
        Some(v) => parse(v).map_err(|e| e.in_field(ty, key)),
        None => Err(Error::at(ty, format!("missing field `{key}`"))),
    }
}

/// Parses one defaulted struct field from its slot: an absent key or
/// JSON `null` takes `default()`.
///
/// # Errors
/// Errors when `parse` fails.
pub fn de_default<T>(
    slot: Option<&Value>,
    ty: &'static str,
    key: &str,
    parse: impl FnOnce(&Value) -> Result<T, Error>,
    default: impl FnOnce() -> T,
) -> Result<T, Error> {
    match slot {
        None | Some(Value::Null) => Ok(default()),
        Some(v) => parse(v).map_err(|e| e.in_field(ty, key)),
    }
}

/// The error for an enum tag that names no variant of `ty`.
#[must_use]
pub fn unknown_variant(ty: &'static str, tag: &str, variants: &[&str]) -> Error {
    Error::at(
        ty,
        format!(
            "unknown variant `{tag}`, expected one of `{}`",
            variants.join("`, `")
        ),
    )
}

// ---- primitive impls ----

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = match *v {
                    Value::U64(n) => n,
                    Value::I64(n) if n >= 0 => n as u64,
                    ref other => {
                        return Err(Error::msg(format!(
                            "expected unsigned integer, found {}",
                            other.kind()
                        )))
                    }
                };
                <$t>::try_from(n)
                    .map_err(|_| Error::msg(format!("integer {n} out of range")))
            }
        }
    )*};
}
impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::I64(*self as i64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = match *v {
                    Value::I64(n) => n,
                    Value::U64(n) => i64::try_from(n)
                        .map_err(|_| Error::msg(format!("integer {n} out of range")))?,
                    ref other => {
                        return Err(Error::msg(format!(
                            "expected integer, found {}",
                            other.kind()
                        )))
                    }
                };
                <$t>::try_from(n)
                    .map_err(|_| Error::msg(format!("integer {n} out of range")))
            }
        }
    )*};
}
impl_signed!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}
impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match *v {
            Value::F64(x) => Ok(x),
            Value::U64(n) => Ok(n as f64),
            Value::I64(n) => Ok(n as f64),
            // Non-finite floats are serialized as strings (JSON has no
            // literal for them); accept them back here.
            Value::Str(ref s) => match s.as_str() {
                "Infinity" => Ok(f64::INFINITY),
                "-Infinity" => Ok(f64::NEG_INFINITY),
                "NaN" => Ok(f64::NAN),
                _ => Err(Error::msg(format!("expected number, found string {s:?}"))),
            },
            ref other => Err(Error::msg(format!(
                "expected number, found {}",
                other.kind()
            ))),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::F64(f64::from(*self))
    }
}
impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(f64::from_value(v)? as f32)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}
impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match *v {
            Value::Bool(b) => Ok(b),
            ref other => Err(Error::msg(format!("expected bool, found {}", other.kind()))),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}
impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(Error::msg(format!(
                "expected string, found {}",
                other.kind()
            ))),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}
impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let s = String::from_value(v)?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(Error::msg(format!("expected single char, found {s:?}"))),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}
impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => Ok(Some(T::from_value(other)?)),
        }
    }

    fn schema() -> Schema {
        T::schema()
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}
impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Seq(s) => s.iter().map(T::from_value).collect(),
            other => Err(Error::msg(format!(
                "expected sequence, found {}",
                other.kind()
            ))),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}
impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(Box::new(T::from_value(v)?))
    }
}

macro_rules! impl_tuple {
    ($len:literal; $($t:ident . $idx:tt),+) => {
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Seq(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let s = expect_seq(v, "tuple", $len)?;
                Ok(($($t::from_value(&s[$idx])?,)+))
            }
        }
    };
}
impl_tuple!(1; A.0);
impl_tuple!(2; A.0, B.1);
impl_tuple!(3; A.0, B.1, C.2);
impl_tuple!(4; A.0, B.1, C.2, D.3);

impl<T: Serialize> Serialize for std::ops::Range<T> {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("start".to_string(), self.start.to_value()),
            ("end".to_string(), self.end.to_value()),
        ])
    }
}
impl<T: Deserialize> Deserialize for std::ops::Range<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let [start, end] = struct_fields(v, "Range", &["start", "end"], false)?;
        let field = |slot, key| de_field(slot, "Range", key, T::from_value);
        Ok(field(start, "start")?..field(end, "end")?)
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
    fn from_value(v: &Value) -> Result<Self, Error> {
        let m = expect_map(v, "BTreeMap")?;
        m.iter()
            .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
            .collect()
    }
}

impl<V: Serialize, S: std::hash::BuildHasher> Serialize for HashMap<String, V, S> {
    fn to_value(&self) -> Value {
        // Sort for deterministic output.
        let mut entries: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| (k.clone(), v.to_value()))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Map(entries)
    }
}
impl<V: Deserialize, S: std::hash::BuildHasher + Default> Deserialize for HashMap<String, V, S> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let m = expect_map(v, "HashMap")?;
        m.iter()
            .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
            .collect()
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}
impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}
