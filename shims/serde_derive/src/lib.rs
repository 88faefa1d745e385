//! `#[derive(Serialize)]` / `#[derive(Deserialize)]` for the vendored
//! serde shim.
//!
//! The offline build environment has no `syn`/`quote`, so this crate
//! parses the item's `TokenStream` directly. It supports exactly the
//! shapes this workspace uses:
//!
//! - structs with named fields,
//! - one-field tuple structs marked `#[serde(transparent)]`,
//! - enums with unit, one-field tuple, and struct variants (externally
//!   tagged, matching real serde's default representation).
//!
//! Generics are not supported — none of the workspace's serialized
//! types are generic. A missing field is an error unless it has a
//! default (real serde also lets a missing `Option` field be `None`;
//! here it needs `#[serde(default)]`).
//!
//! `Deserialize` also gets a `schema()`: the key tree of the JSON form,
//! built from field names and data-variant names (unit-only enums are
//! leaves), which lets callers validate dotted paths into a document.
//!
//! # Attributes
//!
//! A subset of real serde's `#[serde(...)]` attributes; anything else
//! is a compile error.
//!
//! | on | attribute | effect |
//! |---|---|---|
//! | container | `transparent` | a one-field tuple struct (de)serializes as its field |
//! | container | `deny_unknown_fields` | unknown and repeated keys are errors (struct and struct-variant bodies) |
//! | container | `default` | absent (or `null`) fields take their value from the type's `Default` |
//! | container | `rename = "name"` | the type name that errors report the failing path from |
//! | container | `rename_all = "snake_case"` | variant (and field) names in `snake_case` |
//! | field | `default` / `default = "path"` | an absent (or `null`) field takes `Default::default()` / `path()` |
//! | field | `skip_serializing_if = "path"` | omit the field when `path(&field)` is true |
//! | field | `with = "module"` | (de)serialize through `module::to_value` / `module::from_value` |
//!
//! Deserialization errors name the dotted key path to the failing
//! field (`Config.limits.max: expected unsigned integer, found string`).
//!
//! ```
//! use serde::{Deserialize, Serialize, Value};
//!
//! #[derive(Debug, PartialEq, Serialize, Deserialize)]
//! #[serde(deny_unknown_fields)]
//! struct Point {
//!     x: u64,
//!     #[serde(default)]
//!     y: u64,
//!     #[serde(default, skip_serializing_if = "Option::is_none")]
//!     label: Option<String>,
//! }
//!
//! let v = Point { x: 1, y: 2, label: None }.to_value();
//! assert_eq!(v.get("y"), Some(&Value::U64(2)));
//! assert_eq!(v.get("label"), None);
//!
//! let p = Point::from_value(&Value::Map(vec![("x".into(), Value::U64(1))])).unwrap();
//! assert_eq!(p, Point { x: 1, y: 0, label: None });
//! ```

#![warn(missing_docs)]

use proc_macro::{Delimiter, Group, TokenStream, TokenTree};

struct Item {
    name: String,
    /// Type name errors start their path from.
    label: String,
    deny_unknown: bool,
    default: bool,
    body: Body,
}

enum Body {
    Struct(Fields),
    Enum(Vec<Variant>),
}

enum Fields {
    Unit,
    Newtype(Field),
    Named(Vec<Field>),
}

struct Variant {
    name: String,
    key: String,
    fields: Fields,
}

struct Field {
    /// Identifier (named fields) or `0` (newtypes).
    name: String,
    key: String,
    ty: String,
    /// `Some(None)`: `Default::default`; `Some(Some(path))`: `path()`.
    default: Option<Option<String>>,
    skip_if: Option<String>,
    with: Option<String>,
}

impl Field {
    /// The parse function for this field's value.
    fn parse_fn(&self) -> String {
        match &self.with {
            Some(module) => format!("{module}::from_value"),
            None => format!("<{} as ::serde::Deserialize>::from_value", self.ty),
        }
    }

    /// Serializes the field, given an expression of type `&FieldType`.
    fn ser(&self, access: &str) -> String {
        match &self.with {
            Some(module) => format!("{module}::to_value({access})"),
            None => format!("::serde::Serialize::to_value({access})"),
        }
    }

    /// The field's entry in its parent's schema.
    fn schema_fn(&self) -> String {
        match &self.with {
            Some(_) => "::serde::Schema::leaf".to_string(),
            None => format!("<{} as ::serde::Deserialize>::schema", self.ty),
        }
    }
}

/// One `key` or `key = "value"` entry of a `#[serde(...)]` attribute.
type SerdeArg = (String, Option<String>);

/// The arguments of a `#[serde(...)]` attribute group (the `[...]`
/// contents); empty for any other attribute (docs, derives, ...).
fn serde_args(group: &Group) -> Vec<SerdeArg> {
    let mut it = group.stream().into_iter();
    let args = match (it.next(), it.next()) {
        (Some(TokenTree::Ident(id)), Some(TokenTree::Group(args))) if id.to_string() == "serde" => {
            args
        }
        _ => return Vec::new(),
    };
    let tokens: Vec<TokenTree> = args.stream().into_iter().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let TokenTree::Ident(key) = &tokens[i] else {
            panic!(
                "serde_derive: expected an attribute name, found `{}`",
                tokens[i]
            );
        };
        i += 1;
        let mut value = None;
        if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '=') {
            let Some(TokenTree::Literal(lit)) = tokens.get(i + 1) else {
                panic!("serde_derive: `{key} =` needs a string literal");
            };
            value = Some(lit.to_string().trim_matches('"').to_string());
            i += 2;
        }
        out.push((key.to_string(), value));
        if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            i += 1;
        }
    }
    out
}

/// Collects the `#[serde(...)]` arguments of the attributes starting at
/// `i`, advancing past all attributes.
fn take_attrs(tokens: &[TokenTree], i: &mut usize) -> Vec<SerdeArg> {
    let mut args = Vec::new();
    while matches!(tokens.get(*i), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
        *i += 1;
        if let Some(TokenTree::Group(g)) = tokens.get(*i) {
            args.extend(serde_args(g));
            *i += 1;
        }
    }
    args
}

/// Advances past a visibility qualifier (`pub`, `pub(crate)`, ...) if
/// present.
fn skip_vis(tokens: &[TokenTree], i: &mut usize) {
    if let Some(TokenTree::Ident(id)) = tokens.get(*i) {
        if id.to_string() == "pub" {
            *i += 1;
            if let Some(TokenTree::Group(g)) = tokens.get(*i) {
                if g.delimiter() == Delimiter::Parenthesis {
                    *i += 1;
                }
            }
        }
    }
}

/// Collects a type: every token up to a comma at angle-bracket depth 0
/// (consumed). Nested (), [], {} arrive as whole Groups, so only generic
/// brackets need depth tracking.
fn take_type(tokens: &[TokenTree], i: &mut usize) -> String {
    let mut ty = TokenStream::new();
    let mut depth = 0i32;
    while let Some(t) = tokens.get(*i) {
        *i += 1;
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => break,
            _ => {}
        }
        ty.extend([t.clone()]);
    }
    ty.to_string()
}

/// Parses the fields of a brace- or paren-delimited body.
fn parse_fields(group: &Group, rename: fn(&str) -> String) -> Vec<Field> {
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    let named = group.delimiter() == Delimiter::Brace;
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let attrs = take_attrs(&tokens, &mut i);
        skip_vis(&tokens, &mut i);
        let name = if named {
            let Some(TokenTree::Ident(name)) = tokens.get(i) else {
                break;
            };
            match tokens.get(i + 1) {
                Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 2,
                other => panic!("serde_derive: expected `:` after field, found {other:?}"),
            }
            name.to_string()
        } else if i < tokens.len() {
            fields.len().to_string()
        } else {
            break;
        };
        let mut f = Field {
            key: rename(&name),
            name,
            ty: take_type(&tokens, &mut i),
            default: None,
            skip_if: None,
            with: None,
        };
        for (attr, value) in attrs {
            match (attr.as_str(), value) {
                ("default", path) => f.default = Some(path),
                ("skip_serializing_if", Some(path)) => f.skip_if = Some(path),
                ("with", Some(module)) => f.with = Some(module),
                (other, _) => panic!("serde_derive: unsupported field attribute `{other}`"),
            }
        }
        fields.push(f);
    }
    fields
}

fn parse_body(group: Option<&TokenTree>, rename: fn(&str) -> String) -> Fields {
    match group {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            Fields::Named(parse_fields(g, rename))
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            let mut fields = parse_fields(g, rename);
            assert!(
                fields.len() == 1,
                "serde_derive shim: tuple bodies must have exactly one field"
            );
            Fields::Newtype(fields.remove(0))
        }
        _ => Fields::Unit,
    }
}

fn parse_variants(group: &Group, rename: fn(&str) -> String) -> Vec<Variant> {
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if let Some((attr, _)) = take_attrs(&tokens, &mut i).first() {
            panic!("serde_derive: unsupported variant attribute `{attr}`");
        }
        let Some(TokenTree::Ident(name)) = tokens.get(i) else {
            break;
        };
        let name = name.to_string();
        i += 1;
        let fields = parse_body(tokens.get(i), rename);
        if !matches!(fields, Fields::Unit) {
            i += 1;
        }
        // Skip an optional discriminant, then the separating comma.
        while let Some(t) = tokens.get(i) {
            i += 1;
            if matches!(t, TokenTree::Punct(p) if p.as_char() == ',') {
                break;
            }
        }
        variants.push(Variant {
            key: rename(&name),
            name,
            fields,
        });
    }
    variants
}

fn snake_case(name: &str) -> String {
    let mut out = String::new();
    for (i, c) in name.chars().enumerate() {
        if c.is_uppercase() && i > 0 {
            out.push('_');
        }
        out.extend(c.to_lowercase());
    }
    out
}

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    let mut attrs = Vec::new();
    let keyword = loop {
        attrs.extend(take_attrs(&tokens, &mut i));
        match tokens.get(i) {
            Some(TokenTree::Ident(id))
                if id.to_string() == "struct" || id.to_string() == "enum" =>
            {
                let k = id.to_string();
                i += 1;
                break k;
            }
            Some(_) => i += 1,
            None => panic!("serde_derive: no struct or enum found in derive input"),
        }
    };
    let Some(TokenTree::Ident(name)) = tokens.get(i) else {
        panic!("serde_derive: expected type name after `{keyword}`");
    };
    let name = name.to_string();
    i += 1;
    if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde_derive shim: generic type `{name}` is not supported");
    }
    let mut item = Item {
        label: name.clone(),
        name,
        deny_unknown: false,
        default: false,
        body: Body::Struct(Fields::Unit),
    };
    let mut rename: fn(&str) -> String = str::to_string;
    let mut transparent = false;
    for (attr, value) in attrs {
        match (attr.as_str(), value) {
            ("transparent", None) => transparent = true,
            ("deny_unknown_fields", None) => item.deny_unknown = true,
            ("default", None) => item.default = true,
            ("rename", Some(label)) => item.label = label,
            ("rename_all", Some(case)) if case == "snake_case" => rename = snake_case,
            (other, _) => panic!("serde_derive: unsupported container attribute `{other}`"),
        }
    }
    item.body = match (keyword.as_str(), tokens.get(i)) {
        ("enum", Some(TokenTree::Group(g))) => Body::Enum(parse_variants(g, rename)),
        (_, body) => Body::Struct(parse_body(body, rename)),
    };
    assert!(
        transparent == matches!(item.body, Body::Struct(Fields::Newtype(_))),
        "serde_derive shim: `transparent` goes with, and only with, a one-field tuple struct"
    );
    item
}

// ---- code generation (as source strings, parsed back into tokens) ----

/// A `Value::Map` of named fields; `access(field)` is an expression of
/// type `&FieldType`. Fields with `skip_serializing_if` are pushed
/// conditionally.
fn ser_named(fields: &[Field], access: impl Fn(&Field) -> String) -> String {
    let entry = |f: &Field| {
        format!(
            "(::std::string::String::from({:?}), {})",
            f.key,
            f.ser(&access(f))
        )
    };
    if fields.iter().all(|f| f.skip_if.is_none()) {
        let entries: Vec<String> = fields.iter().map(entry).collect();
        return format!("::serde::Value::Map(::std::vec![{}])", entries.join(", "));
    }
    let pushes: Vec<String> = fields
        .iter()
        .map(|f| match &f.skip_if {
            Some(pred) => format!("if !{pred}({}) {{ __m.push({}); }}", access(f), entry(f)),
            None => format!("__m.push({});", entry(f)),
        })
        .collect();
    format!(
        "{{ let mut __m = ::std::vec::Vec::with_capacity({}); {} ::serde::Value::Map(__m) }}",
        fields.len(),
        pushes.join(" ")
    )
}

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.body {
        Body::Struct(Fields::Named(fields)) => ser_named(fields, |f| format!("&self.{}", f.name)),
        Body::Struct(Fields::Newtype(f)) => f.ser("&self.0"),
        Body::Struct(Fields::Unit) => "::serde::Value::Null".to_string(),
        Body::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    let (vn, key) = (&v.name, &v.key);
                    let tagged = |pattern: &str, value: String| {
                        format!(
                            "{name}::{vn}{pattern} => ::serde::Value::Map(::std::vec![(\
                             ::std::string::String::from({key:?}), {value})]),"
                        )
                    };
                    match &v.fields {
                        Fields::Unit => format!(
                            "{name}::{vn} => ::serde::Value::Str(\
                             ::std::string::String::from({key:?})),"
                        ),
                        Fields::Newtype(f) => tagged("(__f0)", f.ser("__f0")),
                        Fields::Named(fields) => {
                            let binds: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                            tagged(
                                &format!(" {{ {} }}", binds.join(", ")),
                                ser_named(fields, |f| f.name.clone()),
                            )
                        }
                    }
                })
                .collect();
            format!("match self {{ {} }}", arms.join(" "))
        }
    };
    format!(
        "#[automatically_derived] impl ::serde::Serialize for {name} {{ \
         fn to_value(&self) -> ::serde::Value {{ {body} }} }}"
    )
}

/// Statements that build `ctor { fields }` from the object `src`,
/// ending in an `Ok(..)` expression. `?` propagates errors, so the
/// result must sit in a function or closure returning `Result`.
/// `container_default` names the type whose `Default` fills absent
/// fields without a default of their own.
fn de_named(
    ctor: &str,
    fields: &[Field],
    src: &str,
    item: &Item,
    container_default: Option<&str>,
) -> String {
    let label = &item.label;
    let keys: Vec<String> = fields.iter().map(|f| format!("{:?}", f.key)).collect();
    let mut out = format!(
        "let __s = ::serde::struct_fields({src}, {label:?}, &[{}], {})?; ",
        keys.join(", "),
        item.deny_unknown
    );
    // Fields left to the container default, parsed as `Option`s.
    let mut deferred = Vec::new();
    for (i, f) in fields.iter().enumerate() {
        let (key, parse) = (&f.key, f.parse_fn());
        let value = match (&f.default, container_default) {
            (Some(path), _) => format!(
                "::serde::de_default(__s[{i}], {label:?}, {key:?}, {parse}, {})",
                path.as_deref()
                    .unwrap_or("::std::default::Default::default")
            ),
            (None, Some(_)) => {
                deferred.push(i);
                format!(
                    "::serde::de_default(__s[{i}], {label:?}, {key:?}, \
                     |__x| {parse}(__x).map(::std::option::Option::Some), \
                     || ::std::option::Option::None)"
                )
            }
            (None, None) => format!("::serde::de_field(__s[{i}], {label:?}, {key:?}, {parse})"),
        };
        out += &format!("let __f{i} = {value}?; ");
    }
    let init = |slow: bool| {
        let inits: Vec<String> = fields
            .iter()
            .enumerate()
            .map(|(i, f)| match (deferred.contains(&i), slow) {
                (false, _) => format!("{}: __f{i}", f.name),
                (true, false) => format!("{}: __p{i}", f.name),
                (true, true) => format!("{0}: __f{i}.unwrap_or(__d.{0})", f.name),
            })
            .collect();
        format!(
            "::std::result::Result::Ok({ctor} {{ {} }})",
            inits.join(", ")
        )
    };
    match container_default {
        Some(ty) if !deferred.is_empty() => {
            let tuple = |f: &dyn Fn(usize) -> String| {
                let parts: Vec<String> = deferred.iter().map(|&i| f(i)).collect();
                format!("({},)", parts.join(", "))
            };
            // Build the default only when some field is actually absent.
            out += &format!(
                "match {} {{ {} => {}, {} => {{ let __d: {ty} = \
                 ::std::default::Default::default(); {} }} }}",
                tuple(&|i| format!("__f{i}")),
                tuple(&|i| format!("::std::option::Option::Some(__p{i})")),
                init(false),
                tuple(&|i| format!("__f{i}")),
                init(true)
            );
        }
        _ => out += &init(false),
    }
    out
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let label = &item.label;
    let body = match &item.body {
        Body::Struct(Fields::Named(fields)) => {
            de_named(name, fields, "__v", item, item.default.then_some(name))
        }
        Body::Struct(Fields::Newtype(f)) => {
            format!("{}(__v).map({name})", f.parse_fn())
        }
        Body::Struct(Fields::Unit) => format!("::std::result::Result::Ok({name})"),
        Body::Enum(variants) => {
            let all: Vec<String> = variants.iter().map(|v| format!("{:?}", v.key)).collect();
            let unknown = format!(
                "__other => ::std::result::Result::Err(::serde::unknown_variant(\
                 {label:?}, __other, &[{}])),",
                all.join(", ")
            );
            let mut unit_arms = Vec::new();
            let mut data_arms = Vec::new();
            for v in variants {
                let (ctor, key) = (format!("{name}::{}", v.name), &v.key);
                let body = match &v.fields {
                    Fields::Unit => {
                        unit_arms.push(format!("{key:?} => ::std::result::Result::Ok({ctor}),"));
                        continue;
                    }
                    Fields::Newtype(f) => format!("{}(__val).map({ctor})", f.parse_fn()),
                    // Runs the `?`-using statements in their own `Result` scope.
                    Fields::Named(fields) => format!(
                        "(|| -> ::std::result::Result<{name}, ::serde::Error> {{ {} }})()",
                        de_named(&ctor, fields, "__val", item, None)
                    ),
                };
                data_arms.push(format!(
                    "{key:?} => {body}.map_err(|__e| __e.in_field({label:?}, {key:?})),"
                ));
            }
            format!(
                "match __v {{ \
                 ::serde::Value::Str(__s) => match __s.as_str() {{ {} {unknown} }}, \
                 ::serde::Value::Map(__m) if __m.len() == 1 => {{ \
                   let (__tag, __val) = &__m[0]; \
                   match __tag.as_str() {{ {} {unknown} }} \
                 }}, \
                 __other => ::std::result::Result::Err(::serde::Error::at({label:?}, \
                   ::std::format!(\"expected a variant name or a single-key object, found {{}}\", \
                   __other.kind()))) \
                 }}",
                unit_arms.join(" "),
                data_arms.join(" ")
            )
        }
    };
    format!(
        "#[automatically_derived] impl ::serde::Deserialize for {name} {{ \
         fn from_value(__v: &::serde::Value) \
         -> ::std::result::Result<Self, ::serde::Error> {{ {body} }} \
         {} }}",
        gen_schema(item)
    )
}

/// `Schema::Map` over named fields.
fn schema_map(fields: &[Field]) -> String {
    let entries: Vec<String> = fields
        .iter()
        .map(|f| format!("({:?}, {})", f.key, f.schema_fn()))
        .collect();
    format!("::serde::Schema::Map(&[{}])", entries.join(", "))
}

/// The `schema()` method, or nothing where the default leaf is right.
fn gen_schema(item: &Item) -> String {
    let body = match &item.body {
        Body::Struct(Fields::Named(fields)) => schema_map(fields),
        Body::Struct(Fields::Newtype(f)) => format!("{}()", f.schema_fn()),
        Body::Struct(Fields::Unit) => return String::new(),
        Body::Enum(variants) => {
            let mut helpers = Vec::new();
            let mut entries = Vec::new();
            for v in variants {
                let child = match &v.fields {
                    Fields::Unit => continue,
                    Fields::Newtype(f) => f.schema_fn(),
                    Fields::Named(fields) => {
                        let helper = format!("__schema_{}", v.name);
                        helpers.push(format!(
                            "fn {helper}() -> ::serde::Schema {{ {} }}",
                            schema_map(fields)
                        ));
                        helper
                    }
                };
                entries.push(format!("({:?}, {child})", v.key));
            }
            if entries.is_empty() {
                return String::new();
            }
            format!(
                "{} ::serde::Schema::Map(&[{}])",
                helpers.join(" "),
                entries.join(", ")
            )
        }
    };
    format!("fn schema() -> ::serde::Schema {{ {body} }}")
}

/// Derives `serde::Serialize` by lowering the item to a `Value` tree.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("serde_derive: generated Serialize impl failed to parse")
}

/// Derives `serde::Deserialize` by rebuilding the item from a `Value`
/// tree, plus its `schema()` key tree.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("serde_derive: generated Deserialize impl failed to parse")
}
