//! One test per supported `#[serde(...)]` attribute, plus the derived
//! `schema()` and the dotted error paths.

use serde::{Deserialize, Error, Schema, Serialize, Value};

fn json(text: &str) -> Value {
    serde_json::from_str(text).expect("valid test JSON")
}

fn parse<T: Deserialize>(text: &str) -> Result<T, String> {
    T::from_value(&json(text)).map_err(|e| e.to_string())
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
struct Strict {
    a: u64,
    #[serde(default)]
    b: Option<u64>,
}

#[test]
fn deny_unknown_fields_rejects_unknown_and_repeated_keys() {
    assert_eq!(parse::<Strict>(r#"{"a": 1}"#), Ok(Strict { a: 1, b: None }));
    let e = parse::<Strict>(r#"{"a": 1, "c": 2, "d": 3}"#).unwrap_err();
    assert_eq!(e, "Strict: unknown field(s) `c`, `d`");
    let e = parse::<Strict>(r#"{"a": 1, "a": 2}"#).unwrap_err();
    assert_eq!(e, "Strict: duplicate key `a`");
    let e = parse::<Strict>(r#"{"b": 1}"#).unwrap_err();
    assert_eq!(e, "Strict: missing field `a`");
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Lenient {
    a: u64,
}

#[test]
fn without_deny_unknown_fields_extra_keys_are_ignored() {
    assert_eq!(
        parse::<Lenient>(r#"{"a": 1, "zz": 0}"#),
        Ok(Lenient { a: 1 })
    );
    assert_eq!(
        parse::<Lenient>(r#"{"a": 1, "a": 2}"#),
        Ok(Lenient { a: 1 })
    );
}

fn seven() -> u64 {
    7
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct FieldDefaults {
    #[serde(default)]
    zero: u64,
    #[serde(default = "seven")]
    seven: u64,
}

#[test]
fn field_default_and_default_path_fill_absent_and_null_fields() {
    let d = FieldDefaults { zero: 0, seven: 7 };
    assert_eq!(parse::<FieldDefaults>("{}"), Ok(d));
    assert_eq!(
        parse::<FieldDefaults>(r#"{"zero": null, "seven": null}"#),
        Ok(FieldDefaults { zero: 0, seven: 7 })
    );
    assert_eq!(
        parse::<FieldDefaults>(r#"{"seven": 1}"#),
        Ok(FieldDefaults { zero: 0, seven: 1 })
    );
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
#[serde(default)]
struct ContainerDefault {
    a: u64,
    b: String,
}

impl Default for ContainerDefault {
    fn default() -> Self {
        ContainerDefault {
            a: 3,
            b: "three".into(),
        }
    }
}

#[test]
fn container_default_fills_each_absent_field_from_default() {
    assert_eq!(
        parse::<ContainerDefault>(r#"{"a": 1}"#),
        Ok(ContainerDefault {
            a: 1,
            b: "three".into()
        })
    );
    assert_eq!(
        parse::<ContainerDefault>(r#"{"a": 1, "b": "x"}"#),
        Ok(ContainerDefault {
            a: 1,
            b: "x".into()
        })
    );
    assert_eq!(
        parse::<ContainerDefault>("{}"),
        Ok(ContainerDefault::default())
    );
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Skips {
    #[serde(skip_serializing_if = "Option::is_none")]
    maybe: Option<u64>,
    always: Option<u64>,
}

#[test]
fn skip_serializing_if_omits_the_field() {
    let v = Skips {
        maybe: None,
        always: None,
    }
    .to_value();
    assert_eq!(v, Value::Map(vec![("always".into(), Value::Null)]));
    let v = Skips {
        maybe: Some(1),
        always: None,
    }
    .to_value();
    assert_eq!(v.get("maybe"), Some(&Value::U64(1)));
}

/// Serializes a flag as `"yes"` / `"no"`.
mod yes_no {
    use serde::{Error, Value};

    pub fn to_value(flag: &bool) -> Value {
        Value::Str(if *flag { "yes" } else { "no" }.into())
    }

    pub fn from_value(v: &Value) -> Result<bool, Error> {
        match v {
            Value::Str(s) if s == "yes" => Ok(true),
            Value::Str(s) if s == "no" => Ok(false),
            _ => Err(Error::msg("expected yes or no")),
        }
    }
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct With {
    #[serde(with = "yes_no")]
    flag: bool,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum WithVariant {
    Flag(#[serde(with = "yes_no")] bool),
}

#[test]
fn with_routes_through_the_module() {
    assert_eq!(
        With { flag: true }.to_value().get("flag"),
        Some(&Value::Str("yes".into()))
    );
    assert_eq!(parse::<With>(r#"{"flag": "no"}"#), Ok(With { flag: false }));
    let e = parse::<With>(r#"{"flag": true}"#).unwrap_err();
    assert_eq!(e, "With.flag: expected yes or no");
    assert_eq!(
        parse::<WithVariant>(r#"{"Flag": "yes"}"#),
        Ok(WithVariant::Flag(true))
    );
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
enum Snake {
    AllToAll,
    MeshGrid { links: u64 },
}

#[test]
fn rename_all_snake_case_renames_variants() {
    assert_eq!(Snake::AllToAll.to_value(), Value::Str("all_to_all".into()));
    assert_eq!(
        parse::<Snake>(r#"{"mesh_grid": {"links": 2}}"#),
        Ok(Snake::MeshGrid { links: 2 })
    );
    let e = parse::<Snake>(r#""AllToAll""#).unwrap_err();
    assert!(e.contains("unknown variant `AllToAll`"), "{e}");
    assert!(e.contains("`all_to_all`, `mesh_grid`"), "{e}");
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields, rename = "root")]
struct Root {
    inner: Inner,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
enum Inner {
    Leaf { value: u64 },
}

#[test]
fn errors_carry_the_dotted_path_from_the_renamed_root() {
    let e = parse::<Root>(r#"{"inner": {"Leaf": {"value": "x"}}}"#).unwrap_err();
    assert_eq!(
        e,
        "root.inner.Leaf.value: expected unsigned integer, found string"
    );
    let e = parse::<Root>(r#"{"inner": {"Leaf": {"value": 1, "zz": 0}}}"#).unwrap_err();
    assert_eq!(e, "root.inner.Leaf: unknown field(s) `zz`");
    // Parsed on its own, a type names itself.
    let e = parse::<Inner>(r#"{"Leaf": {}}"#).unwrap_err();
    assert_eq!(e, "Inner.Leaf: missing field `value`");
}

#[derive(Serialize, Deserialize)]
#[serde(transparent)]
struct Wrapper(Root);

/// The keys of a `Schema::Map`, or `None` for a leaf.
fn keys(schema: Schema) -> Option<Vec<&'static str>> {
    match schema {
        Schema::Leaf => None,
        Schema::Map(entries) => Some(entries.iter().map(|(k, _)| *k).collect()),
    }
}

/// The child schema at `key`.
fn child(schema: Schema, key: &str) -> Schema {
    let Schema::Map(entries) = schema else {
        panic!("leaf has no `{key}`");
    };
    entries
        .iter()
        .find(|(k, _)| *k == key)
        .expect("key present")
        .1()
}

#[test]
fn schema_follows_fields_variants_and_wrappers() {
    assert_eq!(keys(Strict::schema()), Some(vec!["a", "b"]));
    assert_eq!(
        keys(child(Strict::schema(), "b")),
        None,
        "Option<u64> is a leaf"
    );
    assert_eq!(keys(With::schema()), Some(vec!["flag"]));
    assert_eq!(
        keys(child(With::schema(), "flag")),
        None,
        "with-fields are leaves"
    );
    // Unit variants are strings, so only data variants are keys.
    assert_eq!(keys(Snake::schema()), Some(vec!["mesh_grid"]));
    assert_eq!(
        keys(child(Snake::schema(), "mesh_grid")),
        Some(vec!["links"])
    );
    let leaf = child(child(child(Wrapper::schema(), "inner"), "Leaf"), "value");
    assert_eq!(keys(leaf), None);
    assert_eq!(keys(<Vec<Strict>>::schema()), None, "sequences are leaves");
}

#[test]
fn in_field_re_roots_an_error() {
    let e = Error::at("Inner", "bad").in_field("Outer", "inner");
    assert_eq!(e.to_string(), "Outer.inner: bad");
    assert_eq!(Error::msg("plain").to_string(), "plain");
}
