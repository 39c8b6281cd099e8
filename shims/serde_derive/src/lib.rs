//! Derive macros for the offline `serde` stand-in.
//!
//! Parses the item's token stream directly (no `syn`/`quote`, which are
//! unavailable offline) and emits `Serialize` impls that write JSON
//! through the shim's `serde::Writer` and `Deserialize` impls that read
//! the shim's `Value` tree. Of the `#[serde(...)]` attributes only
//! `#[serde(default)]` on a named field is honored (the field falls back
//! to `Default::default()` when absent, enabling forward-compatible
//! formats); everything else is accepted and ignored — only internal
//! round-trip consistency matters.

use proc_macro::{Delimiter, TokenStream, TokenTree};

struct Input {
    name: String,
    generics: Vec<String>,
    kind: Kind,
}

enum Kind {
    NamedStruct(Vec<Field>),
    TupleStruct(usize),
    UnitStruct,
    Enum(Vec<Variant>),
}

struct Field {
    name: String,
    default: bool,
}

struct Variant {
    name: String,
    shape: Shape,
}

enum Shape {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
}

/// Derives the shim `serde::Serialize` trait.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_input(input);
    gen_serialize(&item)
        .parse()
        .expect("serde_derive: generated invalid Serialize impl")
}

/// Derives the shim `serde::Deserialize` trait.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_input(input);
    gen_deserialize(&item)
        .parse()
        .expect("serde_derive: generated invalid Deserialize impl")
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

fn parse_input(input: TokenStream) -> Input {
    let mut toks = input.into_iter().peekable();
    // Skip attributes and visibility until the `struct`/`enum` keyword.
    let is_enum = loop {
        match toks.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                toks.next(); // the [...] group
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                if let Some(TokenTree::Group(g)) = toks.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        toks.next();
                    }
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "struct" => break false,
            Some(TokenTree::Ident(id)) if id.to_string() == "enum" => break true,
            Some(_) => {}
            None => panic!("serde_derive: expected `struct` or `enum`"),
        }
    };
    let name = match toks.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde_derive: expected type name, found {other:?}"),
    };
    let mut generics = Vec::new();
    if matches!(toks.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        toks.next();
        let mut depth = 1usize;
        let mut expecting_param = true;
        while depth > 0 {
            match toks.next() {
                Some(TokenTree::Punct(p)) if p.as_char() == '<' => depth += 1,
                Some(TokenTree::Punct(p)) if p.as_char() == '>' => depth -= 1,
                Some(TokenTree::Punct(p)) if p.as_char() == ',' && depth == 1 => {
                    expecting_param = true;
                }
                Some(TokenTree::Punct(p)) if p.as_char() == '\'' => {
                    toks.next(); // lifetime name; not a type param
                    expecting_param = false;
                }
                Some(TokenTree::Ident(id)) if depth == 1 && expecting_param => {
                    let s = id.to_string();
                    if s == "const" {
                        panic!("serde_derive: const generics are not supported");
                    }
                    generics.push(s);
                    expecting_param = false;
                }
                Some(_) => {}
                None => panic!("serde_derive: unterminated generic parameter list"),
            }
        }
    }
    let kind = if is_enum {
        match toks.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Kind::Enum(parse_variants(g.stream()))
            }
            other => panic!("serde_derive: expected enum body, found {other:?}"),
        }
    } else {
        match toks.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Kind::NamedStruct(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Kind::TupleStruct(count_top_level_segments(g.stream()))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Kind::UnitStruct,
            Some(TokenTree::Ident(id)) if id.to_string() == "where" => {
                panic!("serde_derive: `where` clauses are not supported")
            }
            other => panic!("serde_derive: expected struct body, found {other:?}"),
        }
    };
    Input {
        name,
        generics,
        kind,
    }
}

fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    let mut fields = Vec::new();
    let mut toks = stream.into_iter().peekable();
    loop {
        // Skip attributes and visibility before the field name, noting a
        // `#[serde(default)]` marker along the way.
        let mut default = false;
        loop {
            match toks.peek() {
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                    toks.next();
                    if let Some(TokenTree::Group(g)) = toks.next() {
                        default |= is_serde_default(&g);
                    }
                }
                Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                    toks.next();
                    if let Some(TokenTree::Group(g)) = toks.peek() {
                        if g.delimiter() == Delimiter::Parenthesis {
                            toks.next();
                        }
                    }
                }
                _ => break,
            }
        }
        match toks.next() {
            Some(TokenTree::Ident(id)) => fields.push(Field {
                name: id.to_string(),
                default,
            }),
            None => break,
            other => panic!("serde_derive: expected field name, found {other:?}"),
        }
        match toks.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("serde_derive: expected `:` after field name, found {other:?}"),
        }
        // Skip the type: consume until a comma outside angle brackets.
        let mut angle = 0i32;
        loop {
            match toks.next() {
                Some(TokenTree::Punct(p)) if p.as_char() == '<' => angle += 1,
                Some(TokenTree::Punct(p)) if p.as_char() == '>' => angle -= 1,
                Some(TokenTree::Punct(p)) if p.as_char() == ',' && angle == 0 => break,
                Some(_) => {}
                None => return fields,
            }
        }
    }
    fields
}

/// True for a `[serde(...)]` attribute group whose argument list contains
/// a bare `default` (the path form `default = "..."` is not supported and
/// stays ignored, like every other serde attribute).
fn is_serde_default(attr: &proc_macro::Group) -> bool {
    if attr.delimiter() != Delimiter::Bracket {
        return false;
    }
    let mut toks = attr.stream().into_iter();
    match toks.next() {
        Some(TokenTree::Ident(id)) if id.to_string() == "serde" => {}
        _ => return false,
    }
    let Some(TokenTree::Group(args)) = toks.next() else {
        return false;
    };
    let mut args = args.stream().into_iter().peekable();
    while let Some(t) = args.next() {
        if let TokenTree::Ident(id) = &t {
            if id.to_string() == "default"
                && !matches!(args.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '=')
            {
                return true;
            }
        }
    }
    false
}

/// Counts comma-separated segments (tuple fields / variant payload arity).
fn count_top_level_segments(stream: TokenStream) -> usize {
    let mut count = 0usize;
    let mut seen_tokens = false;
    let mut angle = 0i32;
    for t in stream {
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => {
                angle += 1;
                seen_tokens = true;
            }
            TokenTree::Punct(p) if p.as_char() == '>' => {
                angle -= 1;
                seen_tokens = true;
            }
            TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => {
                if seen_tokens {
                    count += 1;
                }
                seen_tokens = false;
            }
            _ => seen_tokens = true,
        }
    }
    if seen_tokens {
        count += 1;
    }
    count
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let mut variants = Vec::new();
    let mut toks = stream.into_iter().peekable();
    loop {
        // Skip attributes before the variant name.
        while matches!(toks.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
            toks.next();
            toks.next();
        }
        let name = match toks.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => panic!("serde_derive: expected variant name, found {other:?}"),
        };
        let shape = match toks.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let arity = count_top_level_segments(g.stream());
                toks.next();
                Shape::Tuple(arity)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(g.stream());
                toks.next();
                Shape::Named(fields)
            }
            _ => Shape::Unit,
        };
        // Skip an optional discriminant, up to the separating comma.
        let mut angle = 0i32;
        loop {
            match toks.next() {
                Some(TokenTree::Punct(p)) if p.as_char() == '<' => angle += 1,
                Some(TokenTree::Punct(p)) if p.as_char() == '>' => angle -= 1,
                Some(TokenTree::Punct(p)) if p.as_char() == ',' && angle == 0 => break,
                Some(_) => {}
                None => {
                    variants.push(Variant { name, shape });
                    return variants;
                }
            }
        }
        variants.push(Variant { name, shape });
    }
    variants
}

// ---------------------------------------------------------------------
// Codegen
// ---------------------------------------------------------------------

fn impl_header(item: &Input, trait_name: &str) -> String {
    if item.generics.is_empty() {
        format!("impl serde::{trait_name} for {}", item.name)
    } else {
        let bounds: Vec<String> = item
            .generics
            .iter()
            .map(|g| format!("{g}: serde::{trait_name}"))
            .collect();
        let params = item.generics.join(", ");
        format!(
            "impl<{}> serde::{trait_name} for {}<{params}>",
            bounds.join(", "),
            item.name
        )
    }
}

fn gen_serialize(item: &Input) -> String {
    let name = &item.name;
    // A named-field object whose member values are `access(field)`.
    let object = |fields: &[Field], access: &dyn Fn(&str) -> String| {
        let members: String = fields
            .iter()
            .map(|f| format!("__w.field(\"{f}\", {});", access(&f.name), f = f.name))
            .collect();
        format!("__w.begin_object(); {members} __w.end_object();")
    };
    let array = |items: Vec<String>| {
        let items: String = items.iter().map(|i| format!("__w.item({i});")).collect();
        format!("__w.begin_array(); {items} __w.end_array();")
    };
    let body = match &item.kind {
        Kind::UnitStruct => "__w.null();".to_string(),
        Kind::NamedStruct(fields) => object(fields, &|f| format!("&self.{f}")),
        Kind::TupleStruct(arity) => array((0..*arity).map(|i| format!("&self.{i}")).collect()),
        Kind::Enum(variants) => {
            // Unit variants are bare strings; data variants are a
            // one-member object `{"Variant": payload}`.
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    let vname = &v.name;
                    let (pattern, payload) = match &v.shape {
                        Shape::Unit => {
                            return format!("{name}::{vname} => __w.str(\"{vname}\"),");
                        }
                        Shape::Tuple(arity) => {
                            let binds: Vec<String> =
                                (0..*arity).map(|i| format!("__f{i}")).collect();
                            (format!("({})", binds.join(", ")), array(binds))
                        }
                        Shape::Named(fields) => {
                            let binds: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                            (
                                format!("{{ {} }}", binds.join(", ")),
                                object(fields, &|f| f.to_string()),
                            )
                        }
                    };
                    format!(
                        "{name}::{vname} {pattern} => {{ __w.begin_object(); \
                         __w.key(\"{vname}\"); {payload} __w.end_object(); }}"
                    )
                })
                .collect();
            format!("match self {{ {} }}", arms.join(" "))
        }
    };
    format!(
        "#[automatically_derived]\n{header} {{\n    fn serialize(&self, __w: &mut serde::Writer) {{\n        {body}\n    }}\n}}\n",
        header = impl_header(item, "Serialize")
    )
}

/// One named-field initializer for a deserialize impl reading from the
/// object value bound to `src`. `#[serde(default)]` fields tolerate a
/// missing key; all others propagate the shim's missing-field error.
fn field_init_from(f: &Field, src: &str) -> String {
    let name = &f.name;
    if f.default {
        format!(
            "{name}: match {src}.field(\"{name}\") {{ \
                 Ok(fv) => serde::Deserialize::deserialize(fv)?, \
                 Err(_) => ::core::default::Default::default(), \
             }},"
        )
    } else {
        format!("{name}: serde::Deserialize::deserialize({src}.field(\"{name}\")?)?,")
    }
}

fn field_init(f: &Field) -> String {
    field_init_from(f, "v")
}

fn gen_deserialize(item: &Input) -> String {
    let name = &item.name;
    let body = match &item.kind {
        Kind::UnitStruct => format!("{{ let _ = v; Ok({name}) }}"),
        Kind::NamedStruct(fields) => {
            let inits: Vec<String> = fields.iter().map(field_init).collect();
            if fields.is_empty() {
                format!("{{ let _ = v; Ok({name} {{}}) }}")
            } else {
                format!("Ok({name} {{ {} }})", inits.join(" "))
            }
        }
        Kind::TupleStruct(arity) => {
            let inits: Vec<String> = (0..*arity)
                .map(|i| format!("serde::Deserialize::deserialize(v.index({i})?)?"))
                .collect();
            format!("Ok({name}({}))", inits.join(", "))
        }
        Kind::Enum(variants) => {
            let unit_arms: Vec<String> = variants
                .iter()
                .filter(|v| matches!(v.shape, Shape::Unit))
                .map(|v| format!("\"{vname}\" => Ok({name}::{vname}),", vname = v.name))
                .collect();
            let data_arms: Vec<String> = variants
                .iter()
                .filter_map(|v| {
                    let vname = &v.name;
                    match &v.shape {
                        Shape::Unit => None,
                        Shape::Tuple(arity) => {
                            let inits: Vec<String> = (0..*arity)
                                .map(|i| {
                                    format!("serde::Deserialize::deserialize(inner.index({i})?)?")
                                })
                                .collect();
                            Some(format!(
                                "\"{vname}\" => Ok({name}::{vname}({})),",
                                inits.join(", ")
                            ))
                        }
                        Shape::Named(fields) => {
                            let inits: Vec<String> =
                                fields.iter().map(|f| field_init_from(f, "inner")).collect();
                            Some(format!(
                                "\"{vname}\" => Ok({name}::{vname} {{ {} }}),",
                                inits.join(" ")
                            ))
                        }
                    }
                })
                .collect();
            format!(
                "match v {{\n\
                     serde::Value::Str(s) => match s.as_str() {{\n\
                         {unit_arms}\n\
                         other => Err(serde::Error::new(format!(\"unknown variant `{{other}}` for {name}\"))),\n\
                     }},\n\
                     serde::Value::Object(pairs) if pairs.len() == 1 => {{\n\
                         let (tag, inner) = &pairs[0];\n\
                         let _ = inner;\n\
                         match tag.as_str() {{\n\
                             {data_arms}\n\
                             other => Err(serde::Error::new(format!(\"unknown variant `{{other}}` for {name}\"))),\n\
                         }}\n\
                     }}\n\
                     other => Err(serde::Error::new(format!(\"invalid value for enum {name}: {{other:?}}\"))),\n\
                 }}",
                unit_arms = unit_arms.join("\n"),
                data_arms = data_arms.join("\n"),
            )
        }
    };
    format!(
        "#[automatically_derived]\n{header} {{\n    fn deserialize(v: &serde::Value) -> Result<Self, serde::Error> {{\n        {body}\n    }}\n}}\n",
        header = impl_header(item, "Deserialize")
    )
}
