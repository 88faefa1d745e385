//! Strict, default-aware field reading over the vendored serde
//! [`Value`] tree, for the few spec sections whose JSON shape the
//! derive cannot express (an untagged choice between key sets, or a
//! default computed from another field).
//!
//! [`MapReader`] gives those hand-written impls what
//! `#[serde(deny_unknown_fields)]` and `#[serde(default)]` give derived
//! ones: fields read through [`MapReader::or`] fall back to a default
//! when absent, [`MapReader::finish`] rejects any key the reader never
//! consumed, and errors carry the same dotted key paths.

use serde::{Deserialize, Error, Value};

/// Cursor over one JSON object: typed field access plus unknown-key
/// rejection.
#[derive(Debug)]
pub(crate) struct MapReader<'a> {
    ty: &'static str,
    entries: &'a [(String, Value)],
    taken: Vec<bool>,
}

impl<'a> MapReader<'a> {
    /// Wraps `v`, which must be a JSON object without duplicate keys
    /// (a duplicate is always an authoring mistake, and different
    /// consumers — this reader, the derive shim, `sweep::set_path` —
    /// could otherwise disagree on which occurrence wins).
    pub fn new(ty: &'static str, v: &'a Value) -> Result<Self, Error> {
        match v {
            Value::Map(entries) => {
                for (i, (k, _)) in entries.iter().enumerate() {
                    if entries[..i].iter().any(|(prev, _)| prev == k) {
                        return Err(Error::at(ty, format!("duplicate key `{k}`")));
                    }
                }
                Ok(MapReader {
                    ty,
                    entries,
                    taken: vec![false; entries.len()],
                })
            }
            other => Err(Error::at(
                ty,
                format!("expected a JSON object, found {}", other.kind()),
            )),
        }
    }

    /// Marks `key` consumed and returns its value.
    pub fn raw(&mut self, key: &str) -> Option<&'a Value> {
        let pos = self.entries.iter().position(|(k, _)| k == key)?;
        self.taken[pos] = true;
        Some(&self.entries[pos].1)
    }

    /// `true` if the object has `key` (without consuming it).
    pub fn has(&self, key: &str) -> bool {
        self.entries.iter().any(|(k, _)| k == key)
    }

    /// Reads a required field.
    pub fn req<T: Deserialize>(&mut self, key: &str) -> Result<T, Error> {
        let ty = self.ty;
        match self.raw(key) {
            Some(v) => T::from_value(v).map_err(|e| e.in_field(ty, key)),
            None => Err(Error::at(ty, format!("missing required field `{key}`"))),
        }
    }

    /// Reads an optional field (`None` when absent or JSON `null`).
    pub fn opt<T: Deserialize>(&mut self, key: &str) -> Result<Option<T>, Error> {
        let ty = self.ty;
        match self.raw(key) {
            None | Some(Value::Null) => Ok(None),
            Some(v) => T::from_value(v).map(Some).map_err(|e| e.in_field(ty, key)),
        }
    }

    /// Reads a field, falling back to `default` when absent.
    pub fn or<T: Deserialize>(&mut self, key: &str, default: T) -> Result<T, Error> {
        Ok(self.opt(key)?.unwrap_or(default))
    }

    /// Reads a field, falling back to `default()` when absent.
    pub fn or_else<T: Deserialize>(
        &mut self,
        key: &str,
        default: impl FnOnce() -> T,
    ) -> Result<T, Error> {
        Ok(self.opt(key)?.unwrap_or_else(default))
    }

    /// Rejects any key no reader call consumed — the typo guard.
    pub fn finish(self) -> Result<(), Error> {
        let unknown: Vec<&str> = self
            .entries
            .iter()
            .zip(&self.taken)
            .filter(|(_, &taken)| !taken)
            .map(|((k, _), _)| k.as_str())
            .collect();
        if unknown.is_empty() {
            Ok(())
        } else {
            Err(Error::at(
                self.ty,
                format!("unknown field(s) `{}`", unknown.join("`, `")),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(json: &str) -> Value {
        serde_json::from_str(json).expect("valid test JSON")
    }

    #[test]
    fn defaults_and_required_fields() {
        let v = obj(r#"{"a": 3}"#);
        let mut r = MapReader::new("T", &v).unwrap();
        assert_eq!(r.req::<u64>("a").unwrap(), 3);
        assert_eq!(r.or("b", 7u64).unwrap(), 7);
        r.finish().unwrap();
    }

    #[test]
    fn missing_required_field_names_the_type() {
        let v = obj("{}");
        let mut r = MapReader::new("T", &v).unwrap();
        let e = r.req::<u64>("a").unwrap_err().to_string();
        assert!(e.contains("T") && e.contains("`a`"), "{e}");
    }

    #[test]
    fn unknown_keys_are_rejected() {
        let v = obj(r#"{"a": 1, "tpyo": 2}"#);
        let mut r = MapReader::new("T", &v).unwrap();
        let _ = r.or("a", 0u64).unwrap();
        let e = r.finish().unwrap_err().to_string();
        assert!(e.contains("tpyo"), "{e}");
    }

    #[test]
    fn null_reads_as_absent() {
        let v = obj(r#"{"a": null}"#);
        let mut r = MapReader::new("T", &v).unwrap();
        assert_eq!(r.or("a", 5u64).unwrap(), 5);
        r.finish().unwrap();
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let v = Value::Map(vec![
            ("a".into(), Value::U64(1)),
            ("a".into(), Value::U64(2)),
        ]);
        let e = MapReader::new("T", &v).unwrap_err().to_string();
        assert!(e.contains("duplicate key `a`"), "{e}");
    }
}
