//! Derive macros of the offline serde stand-in (see ../README.md).
//!
//! Written against `proc_macro` alone — no `syn`, no `quote` — so the item
//! is parsed by hand and the impl is generated as text. Supported, because
//! the workspace uses exactly this: non-generic structs (named, tuple,
//! unit) and enums (unit, newtype, tuple and struct variants), externally
//! tagged or `#[serde(tag = "..")]`, with `rename`, `rename_all` and
//! `default` / `default = "path"`. Anything else is a compile error that
//! names what is missing.

extern crate proc_macro;

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Default)]
struct Attrs {
    rename: Option<String>,
    rename_all: Option<String>,
    tag: Option<String>,
    /// `Some(None)` is `#[serde(default)]`, `Some(Some(path))` names a function.
    default: Option<Option<String>>,
}

struct Field {
    /// The identifier, or the position of a tuple field.
    name: String,
    ty: String,
    attrs: Attrs,
}

enum Shape {
    Named(Vec<Field>),
    Tuple(Vec<Field>),
    Unit,
}

struct Variant {
    name: String,
    attrs: Attrs,
    shape: Shape,
}

enum Body {
    Struct(Shape),
    Enum(Vec<Variant>),
}

struct Item {
    name: String,
    attrs: Attrs,
    body: Body,
}

type Tokens = std::iter::Peekable<proc_macro::token_stream::IntoIter>;

fn is_punct(tt: Option<&TokenTree>, c: char) -> bool {
    matches!(tt, Some(TokenTree::Punct(p)) if p.as_char() == c)
}

fn unquote(lit: &str) -> String {
    lit.trim_matches('"').to_string()
}

/// Consume leading `#[..]` attributes, keeping what `#[serde(..)]` says.
fn parse_attrs(tokens: &mut Tokens) -> Attrs {
    let mut attrs = Attrs::default();
    while is_punct(tokens.peek(), '#') {
        tokens.next();
        let Some(TokenTree::Group(group)) = tokens.next() else {
            panic!("serde stand-in: malformed attribute");
        };
        let mut inner = group.stream().into_iter();
        match inner.next() {
            Some(TokenTree::Ident(id)) if id.to_string() == "serde" => {}
            _ => continue,
        }
        let Some(TokenTree::Group(args)) = inner.next() else {
            panic!("serde stand-in: expected #[serde(..)]");
        };
        let mut args = args.stream().into_iter().peekable();
        while let Some(tt) = args.next() {
            let TokenTree::Ident(key) = tt else { continue };
            let key = key.to_string();
            let value = if is_punct(args.peek(), '=') {
                args.next();
                args.next().map(|lit| unquote(&lit.to_string()))
            } else {
                None
            };
            match (key.as_str(), value) {
                ("rename", Some(v)) => attrs.rename = Some(v),
                ("rename_all", Some(v)) => attrs.rename_all = Some(v),
                ("tag", Some(v)) => attrs.tag = Some(v),
                ("default", v) => attrs.default = Some(v),
                (other, _) => panic!("serde stand-in: unsupported attribute `{other}`"),
            }
        }
    }
    attrs
}

fn skip_visibility(tokens: &mut Tokens) {
    if matches!(tokens.peek(), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        tokens.next();
        if matches!(tokens.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            tokens.next();
        }
    }
}

/// The text of a type: everything up to the next comma outside `<..>`.
fn parse_type(tokens: &mut Tokens) -> String {
    let mut depth = 0i32;
    let mut ty = TokenStream::new();
    while let Some(tt) = tokens.peek() {
        match tt {
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => break,
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            _ => {}
        }
        ty.extend(tokens.next());
    }
    ty.to_string()
}

fn parse_named(stream: TokenStream) -> Vec<Field> {
    let mut tokens = stream.into_iter().peekable();
    let mut fields = Vec::new();
    while tokens.peek().is_some() {
        let attrs = parse_attrs(&mut tokens);
        skip_visibility(&mut tokens);
        let Some(TokenTree::Ident(name)) = tokens.next() else {
            panic!("serde stand-in: expected a field name");
        };
        assert!(
            is_punct(tokens.next().as_ref(), ':'),
            "serde stand-in: expected `:`"
        );
        let ty = parse_type(&mut tokens);
        tokens.next(); // the comma, if any
        fields.push(Field {
            name: name.to_string(),
            ty,
            attrs,
        });
    }
    fields
}

fn parse_tuple(stream: TokenStream) -> Vec<Field> {
    let mut tokens = stream.into_iter().peekable();
    let mut fields = Vec::new();
    while tokens.peek().is_some() {
        let attrs = parse_attrs(&mut tokens);
        skip_visibility(&mut tokens);
        let ty = parse_type(&mut tokens);
        tokens.next();
        fields.push(Field {
            name: fields.len().to_string(),
            ty,
            attrs,
        });
    }
    fields
}

fn parse_shape(tokens: &mut Tokens) -> Shape {
    match tokens.peek() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            let stream = g.stream();
            tokens.next();
            Shape::Named(parse_named(stream))
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            let stream = g.stream();
            tokens.next();
            Shape::Tuple(parse_tuple(stream))
        }
        _ => Shape::Unit,
    }
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let mut tokens = stream.into_iter().peekable();
    let mut variants = Vec::new();
    while tokens.peek().is_some() {
        let attrs = parse_attrs(&mut tokens);
        let Some(TokenTree::Ident(name)) = tokens.next() else {
            panic!("serde stand-in: expected a variant name");
        };
        let shape = parse_shape(&mut tokens);
        // An explicit discriminant, then the comma.
        for tt in tokens.by_ref() {
            if is_punct(Some(&tt), ',') {
                break;
            }
        }
        variants.push(Variant {
            name: name.to_string(),
            attrs,
            shape,
        });
    }
    variants
}

fn parse_item(input: TokenStream) -> Item {
    let mut tokens = input.into_iter().peekable();
    let attrs = parse_attrs(&mut tokens);
    skip_visibility(&mut tokens);
    let Some(TokenTree::Ident(kind)) = tokens.next() else {
        panic!("serde stand-in: expected `struct` or `enum`");
    };
    let Some(TokenTree::Ident(name)) = tokens.next() else {
        panic!("serde stand-in: expected the type's name");
    };
    assert!(
        !is_punct(tokens.peek(), '<'),
        "serde stand-in: generic types are not supported ({name})"
    );
    let body = match kind.to_string().as_str() {
        "struct" => Body::Struct(parse_shape(&mut tokens)),
        "enum" => match tokens.next() {
            Some(TokenTree::Group(g)) => Body::Enum(parse_variants(g.stream())),
            _ => panic!("serde stand-in: expected the enum's body"),
        },
        other => panic!("serde stand-in: cannot derive for `{other}`"),
    };
    Item {
        name: name.to_string(),
        attrs,
        body,
    }
}

/// Split an identifier into lower-case words: at `_`, and before each
/// upper-case letter of a PascalCase name.
fn words(ident: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for (i, c) in ident.chars().enumerate() {
        if c == '_' {
            out.push(String::new());
        } else if c.is_uppercase() && i > 0 && !ident.contains('_') {
            out.push(c.to_lowercase().collect());
        } else {
            if out.is_empty() {
                out.push(String::new());
            }
            let last = out.len() - 1;
            out[last].extend(c.to_lowercase());
        }
    }
    out.retain(|w| !w.is_empty());
    out
}

fn capitalize(word: &str) -> String {
    let mut chars = word.chars();
    match chars.next() {
        Some(first) => first.to_uppercase().chain(chars).collect(),
        None => String::new(),
    }
}

/// The wire name of a field or variant under its container's `rename_all`.
fn wire_name(ident: &str, own: &Attrs, rule: Option<&str>) -> String {
    if let Some(name) = &own.rename {
        return name.clone();
    }
    let w = words(ident);
    match rule {
        None => ident.to_string(),
        Some("lowercase") => w.concat(),
        Some("UPPERCASE") => w.concat().to_uppercase(),
        Some("snake_case") => w.join("_"),
        Some("SCREAMING_SNAKE_CASE") => w.join("_").to_uppercase(),
        Some("kebab-case") => w.join("-"),
        Some("SCREAMING-KEBAB-CASE") => w.join("-").to_uppercase(),
        Some("PascalCase") => w.iter().map(|x| capitalize(x)).collect(),
        Some("camelCase") => {
            let pascal: String = w.iter().map(|x| capitalize(x)).collect();
            let mut chars = pascal.chars();
            match chars.next() {
                Some(first) => first.to_lowercase().chain(chars).collect(),
                None => pascal,
            }
        }
        Some(other) => panic!("serde stand-in: unsupported rename_all = \"{other}\""),
    }
}

const SER: &str = "::serde::Serialize::serialize";
const DE: &str = "::serde::Deserialize::deserialize";

/// `out.key(..); serialize(..);` for each named field; `access` turns a
/// field name into the expression that borrows it.
fn write_members(fields: &[Field], rule: Option<&str>, access: impl Fn(&str) -> String) -> String {
    fields
        .iter()
        .map(|f| {
            format!(
                "out.key({:?}); {SER}({}, out);",
                wire_name(&f.name, &f.attrs, rule),
                access(&f.name)
            )
        })
        .collect()
}

/// `out.elem(); serialize(..);` for each tuple field.
fn write_elems(fields: &[Field], access: impl Fn(&str) -> String) -> String {
    fields
        .iter()
        .map(|f| format!("out.elem(); {SER}({}, out);", access(&f.name)))
        .collect()
}

fn bindings(fields: &[Field], prefix: &str) -> String {
    fields
        .iter()
        .map(|f| format!("{prefix}{}", f.name))
        .collect::<Vec<_>>()
        .join(", ")
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let name = &item.name;
    let rule = item.attrs.rename_all.as_deref();
    let body = match &item.body {
        Body::Struct(Shape::Named(fields)) => format!(
            "out.begin_object(); {} out.end_object();",
            write_members(fields, rule, |f| format!("&self.{f}"))
        ),
        Body::Struct(Shape::Tuple(fields)) if fields.len() == 1 => format!("{SER}(&self.0, out);"),
        Body::Struct(Shape::Tuple(fields)) => format!(
            "out.begin_array(); {} out.end_array();",
            write_elems(fields, |f| format!("&self.{f}"))
        ),
        Body::Struct(Shape::Unit) => "out.null();".to_string(),
        Body::Enum(variants) => {
            let arms: String = variants
                .iter()
                .map(|v| {
                    let wire = wire_name(&v.name, &v.attrs, rule);
                    let vname = &v.name;
                    match (&v.shape, &item.attrs.tag) {
                        (Shape::Unit, None) => format!("{name}::{vname} => out.string({wire:?}),"),
                        (Shape::Unit, Some(tag)) => format!(
                            "{name}::{vname} => {{ out.begin_object(); out.key({tag:?}); \
                             out.string({wire:?}); out.end_object(); }}"
                        ),
                        (Shape::Named(fields), tag) => {
                            let members = write_members(fields, None, |f| f.to_string());
                            let binds = bindings(fields, "");
                            match tag {
                                None => format!(
                                    "{name}::{vname} {{ {binds} }} => {{ out.begin_object(); \
                                     out.key({wire:?}); out.begin_object(); {members} \
                                     out.end_object(); out.end_object(); }}"
                                ),
                                Some(tag) => format!(
                                    "{name}::{vname} {{ {binds} }} => {{ out.begin_object(); \
                                     out.key({tag:?}); out.string({wire:?}); {members} \
                                     out.end_object(); }}"
                                ),
                            }
                        }
                        (Shape::Tuple(fields), None) => {
                            let binds = bindings(fields, "v");
                            let content = if fields.len() == 1 {
                                format!("{SER}(v0, out);")
                            } else {
                                format!(
                                    "out.begin_array(); {} out.end_array();",
                                    write_elems(fields, |f| format!("v{f}"))
                                )
                            };
                            format!(
                                "{name}::{vname}({binds}) => {{ out.begin_object(); \
                                 out.key({wire:?}); {content} out.end_object(); }}"
                            )
                        }
                        (Shape::Tuple(fields), Some(tag)) => {
                            assert!(
                                fields.len() == 1,
                                "serde stand-in: tuple variant {name}::{vname} cannot be \
                                 internally tagged"
                            );
                            format!(
                                "{name}::{vname}(v0) => out.tagged({tag:?}, {wire:?}, \
                                 |out| {SER}(v0, out)),"
                            )
                        }
                    }
                })
                .collect();
            format!("match self {{ {arms} }}")
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{ \
           fn serialize(&self, out: &mut ::serde::json::Writer) {{ {body} }} \
         }}"
    )
    .parse()
    .expect("serde stand-in: generated Serialize impl parses")
}

/// Statements that read the object at the cursor into one `Option` slot per
/// field, then the `name: value` list that unwraps them. Keys that name no
/// field — an internal tag among them — are skipped.
fn read_members(fields: &[Field], rule: Option<&str>) -> (String, String) {
    let slots: String = fields
        .iter()
        .map(|f| format!("let mut slot_{}: Option<{}> = None;", f.name, f.ty))
        .collect();
    let arms: String = fields
        .iter()
        .map(|f| {
            format!(
                "{:?} => slot_{} = Some({DE}(p)?),",
                wire_name(&f.name, &f.attrs, rule),
                f.name
            )
        })
        .collect();
    let read = format!(
        "{slots} p.object(|p, key| {{ match key {{ {arms} _ => p.skip_value()?, }} Ok(()) }})?;"
    );
    let unwrap: String = fields
        .iter()
        .map(|f| {
            let fallback = match &f.attrs.default {
                None => format!(
                    "::serde::json::missing({:?})?",
                    wire_name(&f.name, &f.attrs, rule)
                ),
                Some(None) => "Default::default()".to_string(),
                Some(Some(path)) => format!("{path}()"),
            };
            format!(
                "{}: match slot_{} {{ Some(v) => v, None => {fallback} }},",
                f.name, f.name
            )
        })
        .collect();
    (read, unwrap)
}

/// Statements that read an array into `v0, v1, ..`.
fn read_elems(fields: &[Field]) -> String {
    let reads: String = fields
        .iter()
        .enumerate()
        .map(|(i, f)| {
            format!(
                "p.tuple_elem({})?; let v{}: {} = {DE}(p)?;",
                i == 0,
                f.name,
                f.ty
            )
        })
        .collect();
    format!("p.begin_array()?; {reads} p.end_array()?;")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let name = &item.name;
    let rule = item.attrs.rename_all.as_deref();
    let body = match &item.body {
        Body::Struct(Shape::Named(fields)) => {
            let (read, unwrap) = read_members(fields, rule);
            format!("{read} Ok({name} {{ {unwrap} }})")
        }
        Body::Struct(Shape::Tuple(fields)) if fields.len() == 1 => {
            format!("Ok({name}({DE}(p)?))")
        }
        Body::Struct(Shape::Tuple(fields)) => {
            format!(
                "{} Ok({name}({}))",
                read_elems(fields),
                bindings(fields, "v")
            )
        }
        Body::Struct(Shape::Unit) => {
            format!("<() as ::serde::Deserialize>::deserialize(p)?; Ok({name})")
        }
        Body::Enum(variants) => {
            match &item.attrs.tag {
                None => {
                    let arms: String = variants
                    .iter()
                    .map(|v| {
                        let wire = wire_name(&v.name, &v.attrs, rule);
                        let vname = &v.name;
                        match &v.shape {
                            Shape::Unit => {
                                format!("{wire:?} => {{ p.unit_content(boxed)?; {name}::{vname} }}")
                            }
                            Shape::Named(fields) => {
                                let (read, unwrap) = read_members(fields, None);
                                format!(
                                    "{wire:?} => {{ p.need_content(boxed)?; {read} \
                                     {name}::{vname} {{ {unwrap} }} }}"
                                )
                            }
                            Shape::Tuple(fields) if fields.len() == 1 => format!(
                                "{wire:?} => {{ p.need_content(boxed)?; {name}::{vname}({DE}(p)?) }}"
                            ),
                            Shape::Tuple(fields) => format!(
                                "{wire:?} => {{ p.need_content(boxed)?; {} {name}::{vname}({}) }}",
                                read_elems(fields),
                                bindings(fields, "v")
                            ),
                        }
                    })
                    .collect();
                    format!(
                        "let (variant, boxed) = p.begin_variant()?; \
                     let value = match &*variant {{ {arms} \
                       other => return ::serde::json::unknown_variant(other, p), }}; \
                     p.end_variant(boxed)?; Ok(value)"
                    )
                }
                Some(tag) => {
                    let arms: String = variants
                    .iter()
                    .map(|v| {
                        let wire = wire_name(&v.name, &v.attrs, rule);
                        let vname = &v.name;
                        match &v.shape {
                            Shape::Unit => {
                                format!("{wire:?} => {{ p.skip_value()?; Ok({name}::{vname}) }}")
                            }
                            Shape::Named(fields) => {
                                let (read, unwrap) = read_members(fields, None);
                                format!("{wire:?} => {{ {read} Ok({name}::{vname} {{ {unwrap} }}) }}")
                            }
                            Shape::Tuple(fields) if fields.len() == 1 => {
                                format!("{wire:?} => Ok({name}::{vname}({DE}(p)?)),")
                            }
                            Shape::Tuple(_) => panic!(
                                "serde stand-in: tuple variant {name}::{vname} cannot be \
                                 internally tagged"
                            ),
                        }
                    })
                    .collect();
                    format!(
                        "let variant = p.find_tag({tag:?})?; \
                     match variant.as_str() {{ {arms} \
                       other => ::serde::json::unknown_variant(other, p), }}"
                    )
                }
            }
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{ \
           fn deserialize(p: &mut ::serde::json::Parser<'_>) \
             -> ::std::result::Result<Self, ::serde::json::Error> {{ {body} }} \
         }}"
    )
    .parse()
    .expect("serde stand-in: generated Deserialize impl parses")
}
