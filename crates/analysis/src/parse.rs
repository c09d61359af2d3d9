//! Item-level parsing on top of the per-file record
//! ([`crate::lint::SourceFile`]).
//!
//! This is deliberately *not* a Rust grammar: the graph passes only need
//! item structure (`fn` / `impl` / `trait` / `use` / `type` / `const`)
//! plus three kinds of facts extracted from function bodies in one linear
//! token walk — outgoing calls and functions named as values (for the call
//! graph), panic seeds (for the panic-path prover) and determinism-taint
//! sources. Bodies stay token streams; expressions are never built.
//!
//! Each function records its header span (first attribute, or the first
//! of the comment-only lines stacked directly above it, down to the
//! opening brace): a `// lint: allow(..)` inside that span is fn-level
//! and covers every site of its rule in the body.

use crate::layering;
use crate::lex::{ident, match_delim, punct, Tok, Token};
use crate::lint::SourceFile;

/// One `use` declaration (possibly a nested group).
#[derive(Debug, Clone)]
pub struct UseDecl {
    /// First path segment (`crate`/`self`/`super` left raw; the call
    /// graph normalizes them to the file's own crate).
    pub root: String,
    /// Local binding names this declaration introduces.
    pub leaves: Vec<String>,
    /// `use foo::*`.
    pub glob: bool,
}

/// How a call site names its target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `name(..)` — a bare function call.
    Free,
    /// `.name(..)` — method-call syntax, resolved by name heuristic.
    Method,
    /// `path::to::name(..)` — qualified call.
    Path,
    /// `NAME` / `path::NAME` — a `const`/`static` named in an expression;
    /// an edge to the table's initialiser when it calls or names functions.
    Const,
}

/// One outgoing call — or a function named as a value — recorded in a
/// function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// Call syntax.
    pub kind: CallKind,
    /// Named, not called (`(id, serve_main)`, `.map(Spec::label)`): an edge
    /// like a call, but a miss is a local binding, never an unresolved
    /// workspace call.
    pub value: bool,
    /// Qualifier segments for [`CallKind::Path`] (empty otherwise).
    pub path: Vec<String>,
    /// Called name.
    pub name: String,
    /// 1-based line.
    pub line: usize,
}

/// A panic seed class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedKind {
    /// `.unwrap()`.
    Unwrap,
    /// `.expect(..)` — dropped later when the receiver is `self` and a
    /// workspace method named `expect` resolves (jsonio's parser).
    Expect,
    /// `panic!` / `unreachable!` / `todo!` / `unimplemented!`.
    PanicMacro,
    /// `assert!` / `assert_eq!` / `assert_ne!` (never `debug_assert*`).
    Assert,
    /// Postfix indexing / range slicing (`xs[i]`, `&b[a..c]`).
    Index,
}

/// One panic seed site.
#[derive(Debug, Clone)]
pub struct Seed {
    /// Seed class.
    pub kind: SeedKind,
    /// What was matched, for messages (`unwrap`, `assert_eq!`, …).
    pub what: String,
    /// 1-based line.
    pub line: usize,
    /// For [`SeedKind::Expect`]: the receiver is literally `self`.
    pub on_self: bool,
}

/// A determinism-taint source site (wall clock, seeded hashing,
/// thread-identity observation).
#[derive(Debug, Clone)]
pub struct TaintSrc {
    /// What was matched (`Instant::now`, `SystemTime`, …).
    pub what: &'static str,
    /// 1-based line.
    pub line: usize,
}

/// One `fn` item — or one `const`/`static` table whose initialiser calls
/// or names functions — with the facts the graph passes need.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// Enclosing `impl`/`trait` type, when any.
    pub owner: Option<String>,
    /// The trait whose method this is: the enclosing `trait` block's name,
    /// or the `Trait` of `impl Trait for Type`.
    pub trait_name: Option<String>,
    /// A `const`/`static` item, not a function: a node that carries its
    /// initialiser's edges to whoever names it.
    pub is_const: bool,
    /// Takes `self`: only such a function can be what `x.name(..)` calls.
    pub has_receiver: bool,
    /// Line of the `fn` keyword.
    pub line: usize,
    /// First line of the header (attributes / visibility).
    pub header_line: usize,
    /// Line of the body's `{` (or of the `;` for bodiless signatures).
    pub open_line: usize,
    /// Inside `#[cfg(test)]` or carrying `#[test]`.
    pub is_test: bool,
    /// Outgoing calls.
    pub calls: Vec<Call>,
    /// Panic seeds.
    pub seeds: Vec<Seed>,
    /// Determinism-taint sources.
    pub taints: Vec<TaintSrc>,
}

/// Everything the graph passes extract from one source file.
#[derive(Debug, Clone, Default)]
pub struct ParsedFile {
    /// Workspace-relative path.
    pub path: String,
    /// Owning crate's lib identifier (`ess_service`, `firelib`, …).
    pub krate: &'static str,
    /// `use` declarations.
    pub uses: Vec<UseDecl>,
    /// Function items.
    pub fns: Vec<FnItem>,
    /// Traits declared outside test code.
    pub traits: Vec<String>,
    /// Module-level `type Alias = Target;` items outside test code:
    /// (alias, last identifier of the target path).
    pub aliases: Vec<(String, String)>,
}

/// Keywords that look like a call when followed by `(`.
const FREE_CALL_SKIP: &[&str] = &[
    "if", "while", "match", "for", "loop", "return", "break", "continue", "let", "else", "in",
    "as", "move", "ref", "mut", "box", "unsafe", "where", "impl", "dyn", "fn", "use", "pub", "mod",
    "crate", "super", "self", "Self", "static", "const", "type", "struct", "enum", "trait",
    "extern", "await", "yield", "true", "false",
];

/// Idents that make a following `[` a pattern/type/statement bracket,
/// not a postfix index.
const INDEX_PREV_SKIP: &[&str] = &[
    "let", "in", "if", "else", "match", "return", "ref", "mut", "move", "box", "as", "for",
    "while", "loop", "use", "pub", "where", "unsafe", "dyn", "impl", "fn", "const", "static",
    "type", "struct", "enum", "trait", "mod", "crate", "break", "continue", "true", "false",
];

/// `::` arrives from the lexer as two `:` puncts; true when the pair
/// starts at `i`.
fn path_sep(sig: &[Token], i: usize) -> bool {
    punct(sig, i) == Some(':') && punct(sig, i + 1) == Some(':')
}

/// Skips a balanced `<...>` group starting at `at` (which must be `<`),
/// returning the index just past the matching `>`. The `>` of `->` and
/// `=>` does not count as a closer.
fn skip_angles(sig: &[Token], at: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut k = at;
    while k < sig.len() {
        match punct(sig, k) {
            Some('<') => depth += 1,
            Some('>') if !matches!(punct(sig, k.wrapping_sub(1)), Some('-') | Some('=')) => {
                depth = depth.checked_sub(1)?;
                if depth == 0 {
                    return Some(k + 1);
                }
            }
            Some(';') | Some('{') => return None, // ran off the item
            _ => {}
        }
        k += 1;
    }
    None
}

/// Reads a type path (`a::b::Name<T>`), returning its last identifier
/// and advancing `j` past it.
fn read_type_path(sig: &[Token], j: &mut usize) -> Option<String> {
    let mut last = None;
    while let Some(seg) = ident(sig, *j) {
        last = Some(seg.to_string());
        *j += 1;
        if punct(sig, *j) == Some('<') {
            let Some(next) = skip_angles(sig, *j) else {
                break;
            };
            *j = next;
        }
        if path_sep(sig, *j) {
            *j += 2;
            continue;
        }
        break;
    }
    last
}

/// Walks backward from the `fn` keyword over visibility, qualifiers and
/// attributes to the first token of the item header.
fn header_start(sig: &[Token], fn_idx: usize) -> usize {
    let mut j = fn_idx;
    while j > 0 {
        match &sig[j - 1].kind {
            Tok::Ident(s)
                if matches!(
                    s.as_str(),
                    "pub" | "unsafe" | "const" | "async" | "extern" | "default"
                ) =>
            {
                j -= 1;
            }
            Tok::Literal => j -= 1, // extern "C"
            Tok::Punct(')') => {
                // pub(crate) / pub(in path)
                let mut depth = 1usize;
                let mut k = j - 1;
                loop {
                    if k == 0 {
                        return j;
                    }
                    k -= 1;
                    match punct(sig, k) {
                        Some(')') => depth += 1,
                        Some('(') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                }
                j = k;
            }
            Tok::Punct(']') => {
                // an attribute `#[...]`
                let mut depth = 1usize;
                let mut k = j - 1;
                loop {
                    if k == 0 {
                        return j;
                    }
                    k -= 1;
                    match punct(sig, k) {
                        Some(']') => depth += 1,
                        Some('[') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                }
                if k > 0 && punct(sig, k - 1) == Some('#') {
                    j = k - 1;
                } else {
                    return j;
                }
            }
            _ => break,
        }
    }
    j
}

/// Parses one lexed file of crate `krate` into the item model.
pub fn parse_items(file: &SourceFile, krate: &'static str) -> ParsedFile {
    let sig = file.sig.as_slice();
    let test = file.test.as_slice();
    let mut out = ParsedFile {
        path: file.path.clone(),
        krate,
        ..ParsedFile::default()
    };

    // Item walk: a stack of open `impl`/`trait` bodies supplies the
    // owner type (and the trait, when there is one) for functions defined
    // inside them.
    let mut owners: Vec<(Option<String>, Option<String>, usize)> = Vec::new();
    let mut i = 0usize;
    while i < sig.len() {
        while owners.last().is_some_and(|&(_, _, close)| close < i) {
            owners.pop();
        }
        let owner = || owners.last().and_then(|(o, _, _)| o.clone());
        match ident(sig, i) {
            Some("use") => {
                i = parse_use(sig, i, &mut out);
                continue;
            }
            // `mod name` makes `name::f()` a path into this crate, as
            // `use crate::name;` would.
            Some("mod") => {
                if let Some(name) = ident(sig, i + 1) {
                    out.uses.push(UseDecl {
                        root: "crate".to_string(),
                        leaves: vec![name.to_string()],
                        glob: false,
                    });
                }
            }
            Some("impl") => {
                if let Some((owner, trait_name, open, close)) = parse_impl_header(sig, i) {
                    owners.push((owner, trait_name, close));
                    i = open + 1;
                    continue;
                }
            }
            Some("trait") => {
                if let Some(name) = ident(sig, i + 1) {
                    let name = name.to_string();
                    if let Some(open) =
                        (i..sig.len()).find(|&k| matches!(punct(sig, k), Some('{') | Some(';')))
                    {
                        if punct(sig, open) == Some('{') {
                            let close = match_delim(sig, open, '{', '}').unwrap_or(sig.len() - 1);
                            if !test[i] {
                                out.traits.push(name.clone());
                            }
                            owners.push((Some(name.clone()), Some(name), close));
                            i = open + 1;
                            continue;
                        }
                    }
                }
            }
            // `type Alias<..> = path::Target<..>;` — an associated call on
            // the alias is a call on the target (an `impl`'s associated
            // types are not aliases anyone calls through).
            Some("type") if owners.is_empty() && !test[i] => {
                let mut j = i + 1;
                let alias = read_type_path(sig, &mut j);
                if let (Some(alias), Some('=')) = (alias, punct(sig, j)) {
                    j += 1;
                    if let Some(target) = read_type_path(sig, &mut j) {
                        out.aliases.push((alias, target));
                    }
                }
            }
            Some("const" | "static") if !test[i] => {
                if let Some(next) = parse_const(sig, test, i, owner(), &mut out) {
                    i = next;
                    continue;
                }
            }
            Some("fn") => {
                let trait_name = owners.last().and_then(|(_, t, _)| t.clone());
                if let Some(next) = parse_fn(sig, test, i, owner(), trait_name, &mut out) {
                    i = next;
                    continue;
                }
            }
            _ => {}
        }
        i += 1;
    }

    // Fold the contiguous block of comment-only lines directly above
    // each function header into the header span, so a stack of directive
    // comments all count as fn-level regardless of order.
    for f in &mut out.fns {
        while f.header_line > 1 && file.comment_only.contains(&(f.header_line - 1)) {
            f.header_line -= 1;
        }
    }
    out
}

/// Parses a `use` declaration starting at `i`; returns the index past
/// its `;`.
fn parse_use(sig: &[Token], i: usize, out: &mut ParsedFile) -> usize {
    let mut segments: Vec<String> = Vec::new();
    let mut leaves: Vec<String> = Vec::new();
    let mut glob = false;
    let mut prev: Option<String> = None;
    let mut pending_as = false;
    let mut j = i + 1;
    while j < sig.len() {
        match &sig[j].kind {
            Tok::Ident(s) if s == "as" => {
                pending_as = true;
                prev = None;
            }
            // `use a::b::{self, ..}` binds `b`.
            Tok::Ident(s) if s == "self" && !segments.is_empty() => {
                prev = segments.last().cloned();
            }
            Tok::Ident(s) => {
                if pending_as {
                    leaves.push(s.clone());
                    pending_as = false;
                } else {
                    segments.push(s.clone());
                    prev = Some(s.clone());
                }
            }
            Tok::Punct(':') => prev = None,
            Tok::Punct('{') => prev = None,
            Tok::Punct('*') => glob = true,
            Tok::Punct(',') | Tok::Punct('}') => {
                if let Some(p) = prev.take() {
                    leaves.push(p);
                }
            }
            Tok::Punct(';') => {
                if let Some(p) = prev.take() {
                    leaves.push(p);
                }
                break;
            }
            _ => {}
        }
        j += 1;
    }
    if segments.len() > 1 && segments[0] == layering::FACADE {
        segments.remove(0);
    }
    if let Some(root) = segments.first().cloned() {
        out.uses.push(UseDecl { root, leaves, glob });
    }
    j + 1
}

/// Parses an `impl` header starting at `i` into (owner type, implemented
/// trait, body open index, body close index).
#[allow(clippy::type_complexity)]
fn parse_impl_header(
    sig: &[Token],
    i: usize,
) -> Option<(Option<String>, Option<String>, usize, usize)> {
    let mut j = i + 1;
    if punct(sig, j) == Some('<') {
        j = skip_angles(sig, j)?;
    }
    let first = read_type_path(sig, &mut j);
    let (owner, trait_name) = if ident(sig, j) == Some("for") {
        j += 1;
        loop {
            match sig.get(j).map(|t| &t.kind) {
                Some(Tok::Punct('&')) => j += 1,
                Some(Tok::Lifetime) => j += 1,
                Some(Tok::Ident(s)) if s == "mut" || s == "dyn" => j += 1,
                _ => break,
            }
        }
        (read_type_path(sig, &mut j), first)
    } else {
        (first, None)
    };
    let open = (j..sig.len()).find(|&k| punct(sig, k) == Some('{'))?;
    let close = match_delim(sig, open, '{', '}')?;
    Some((owner, trait_name, open, close))
}

/// Parses a `const NAME: T = init;` / `static NAME: T = init;` item
/// starting at `i`, keeping it as a node when its initialiser calls or
/// names functions (a table of fn pointers or closures); returns the
/// index past its `;`, or `None` when this is `const fn`, `*const T` or
/// a bodiless associated const.
fn parse_const(
    sig: &[Token],
    test: &[bool],
    i: usize,
    owner: Option<String>,
    out: &mut ParsedFile,
) -> Option<usize> {
    let name = ident(sig, i + 1)?.to_string();
    if name == "fn" || punct(sig, i + 2) != Some(':') || path_sep(sig, i + 2) {
        return None;
    }
    // The `=` and the `;` of this item, jumping over every bracketed group
    // (array types and initialisers carry `;`s of their own).
    let mut eq = None;
    let mut k = i + 3;
    let end = loop {
        match sig.get(k).map(|t| &t.kind) {
            None => return None,
            Some(Tok::Punct(';')) => break k,
            Some(Tok::Punct('=')) if eq.is_none() => eq = Some(k),
            Some(Tok::Punct('(')) => k = match_delim(sig, k, '(', ')')?,
            Some(Tok::Punct('[')) => k = match_delim(sig, k, '[', ']')?,
            Some(Tok::Punct('{')) => k = match_delim(sig, k, '{', '}')?,
            _ => {}
        }
        k += 1;
    };
    let line = sig[i].line;
    let mut item = FnItem {
        name,
        owner,
        trait_name: None,
        is_const: true,
        has_receiver: false,
        line,
        header_line: line,
        open_line: line,
        is_test: false,
        calls: Vec::new(),
        seeds: Vec::new(),
        taints: Vec::new(),
    };
    scan_body(sig, test, eq? + 1, end, &mut item, out);
    if !item.calls.is_empty() {
        out.fns.push(item);
    }
    Some(end + 1)
}

/// Parses a `fn` item starting at `i` (the `fn` keyword); returns the
/// index to resume the item walk at, or `None` when this `fn` is a
/// function-pointer type rather than an item.
fn parse_fn(
    sig: &[Token],
    test: &[bool],
    i: usize,
    owner: Option<String>,
    trait_name: Option<String>,
    out: &mut ParsedFile,
) -> Option<usize> {
    let name = ident(sig, i + 1)?.to_string();
    let kw_line = sig[i].line;
    // Scan for the body `{` (or the `;` of a bodiless signature),
    // jumping over parens and brackets — an array type like
    // `[[f64; 8]; 14]` in the parameter list carries `;`s that are not
    // the end of the item.
    let mut k = i + 1;
    let (open, bodiless) = loop {
        match sig.get(k).map(|t| &t.kind) {
            None => return None,
            Some(Tok::Punct('{')) => break (k, false),
            Some(Tok::Punct(';')) => break (k, true),
            Some(Tok::Punct('(')) => k = match_delim(sig, k, '(', ')')? + 1,
            Some(Tok::Punct('[')) => k = match_delim(sig, k, '[', ']')? + 1,
            _ => k += 1,
        }
    };
    let close = if bodiless {
        open
    } else {
        match_delim(sig, open, '{', '}').unwrap_or(sig.len() - 1)
    };

    let hstart = header_start(sig, i);
    let mut item = FnItem {
        name,
        owner,
        trait_name,
        is_const: false,
        has_receiver: takes_self(sig, i + 1, open),
        line: kw_line,
        header_line: sig[hstart].line,
        open_line: sig[open].line,
        is_test: test[i],
        calls: Vec::new(),
        seeds: Vec::new(),
        taints: Vec::new(),
    };
    for k in hstart..i {
        if ident(sig, k) == Some("test") && punct(sig, k.wrapping_sub(1)) == Some('[') {
            item.is_test = true;
        }
    }

    if !bodiless && !item.is_test {
        scan_body(sig, test, open + 1, close, &mut item, out);
    }
    out.fns.push(item);
    Some(close + 1)
}

/// Whether the header `from..open` declares a receiver: one of its `(`
/// opens on `self`, `&self`, `&'a mut self` or `mut self` — the parameter
/// list of a method; a bound's `Fn(..)` never does.
fn takes_self(sig: &[Token], from: usize, open: usize) -> bool {
    let mut parens = (from..open).filter(|&k| punct(sig, k) == Some('('));
    parens.any(|k| {
        let qualifier = |j: usize| {
            matches!(sig[j].kind, Tok::Punct('&') | Tok::Lifetime) || ident(sig, j) == Some("mut")
        };
        let first = (k + 1..open).find(|&j| !qualifier(j));
        first.is_some_and(|j| ident(sig, j) == Some("self"))
    })
}

/// The linear body walk: calls, panic seeds and taint sources, in one
/// pass over `open..close`.
fn scan_body(
    sig: &[Token],
    test: &[bool],
    from: usize,
    to: usize,
    item: &mut FnItem,
    out: &mut ParsedFile,
) {
    for k in from..to {
        if test[k] {
            continue;
        }
        let line = sig[k].line;
        match &sig[k].kind {
            Tok::Punct('[') if k > 0 => {
                let indexes = match &sig[k - 1].kind {
                    Tok::Punct(')') | Tok::Punct(']') => true,
                    Tok::Ident(s) => !INDEX_PREV_SKIP.contains(&s.as_str()),
                    _ => false,
                };
                if indexes {
                    item.seeds.push(Seed {
                        kind: SeedKind::Index,
                        what: "indexing".to_string(),
                        line,
                        on_self: false,
                    });
                }
            }
            Tok::Ident(s) => {
                let s = s.as_str();
                if punct(sig, k + 1) == Some('!') {
                    match s {
                        "panic" | "unreachable" | "todo" | "unimplemented" => {
                            item.seeds.push(Seed {
                                kind: SeedKind::PanicMacro,
                                what: format!("{s}!"),
                                line,
                                on_self: false,
                            });
                        }
                        "assert" | "assert_eq" | "assert_ne" => {
                            item.seeds.push(Seed {
                                kind: SeedKind::Assert,
                                what: format!("{s}!"),
                                line,
                                on_self: false,
                            });
                        }
                        _ => {}
                    }
                    continue;
                }
                match s {
                    // A function-local import scopes like a file-level one
                    // here: one leaf map per file.
                    "use" => {
                        parse_use(sig, k, out);
                    }
                    "Instant" if path_sep(sig, k + 1) && ident(sig, k + 3) == Some("now") => {
                        item.taints.push(TaintSrc {
                            what: "Instant::now",
                            line,
                        });
                    }
                    "SystemTime" => item.taints.push(TaintSrc {
                        what: "SystemTime",
                        line,
                    }),
                    "RandomState" => item.taints.push(TaintSrc {
                        what: "RandomState",
                        line,
                    }),
                    "thread" if path_sep(sig, k + 1) && ident(sig, k + 3) == Some("current") => {
                        item.taints.push(TaintSrc {
                            what: "thread::current",
                            line,
                        });
                    }
                    _ => {}
                }
                // `name::<T>(..)`: the turbofish sits between the name and
                // its argument list.
                let after = if path_sep(sig, k + 1) && punct(sig, k + 3) == Some('<') {
                    skip_angles(sig, k + 3).unwrap_or(k + 1)
                } else {
                    k + 1
                };
                let called = punct(sig, after) == Some('(');
                // A `const`/`static` read (`TOOLS.iter()`, `&REGISTRY`):
                // SCREAMING_CASE, so generic parameters and enum variants
                // stay out.
                let table = !called
                    && s.len() > 1
                    && !s.contains(|c: char| c.is_ascii_lowercase())
                    && s.starts_with(|c: char| c.is_ascii_uppercase());
                if !called && !table && !names_a_value(sig, after) {
                    continue;
                }
                if k > 0 && ident(sig, k - 1) == Some("fn") {
                    continue; // a nested fn's own definition
                }
                let lower = s.starts_with(|c: char| c.is_ascii_lowercase() || c == '_');
                let mut call = |kind, path| {
                    item.calls.push(Call {
                        kind,
                        value: !called,
                        path,
                        name: s.to_string(),
                        line,
                    });
                };
                if table {
                    call(CallKind::Const, Vec::new());
                } else if punct(sig, k.wrapping_sub(1)) == Some('.') {
                    if !called {
                        continue; // a field read
                    }
                    if s == "unwrap" && punct(sig, k + 2) == Some(')') {
                        item.seeds.push(Seed {
                            kind: SeedKind::Unwrap,
                            what: "unwrap".to_string(),
                            line,
                            on_self: false,
                        });
                        continue;
                    }
                    if s == "expect" {
                        let on_self = ident(sig, k.wrapping_sub(2)) == Some("self");
                        if on_self {
                            // May be a workspace method (jsonio's
                            // `Parser::expect`); record the call and let
                            // resolution drop the seed if it lands.
                            call(CallKind::Method, Vec::new());
                        }
                        item.seeds.push(Seed {
                            kind: SeedKind::Expect,
                            what: "expect".to_string(),
                            line,
                            on_self,
                        });
                        continue;
                    }
                    if lower {
                        call(CallKind::Method, Vec::new());
                    }
                } else if k >= 2 && path_sep(sig, k - 2) {
                    let mut path = Vec::new();
                    let mut m = k;
                    while m >= 3 && path_sep(sig, m - 2) {
                        match ident(sig, m - 3) {
                            Some(seg) => {
                                path.push(seg.to_string());
                                m -= 3;
                            }
                            None => {
                                // turbofish / qualified-path prefix —
                                // treat as external rather than guess
                                path.clear();
                                break;
                            }
                        }
                    }
                    path.reverse();
                    if path.len() > 1 && path[0] == layering::FACADE {
                        path.remove(0);
                    }
                    if !path.is_empty() && lower {
                        call(CallKind::Path, path);
                    }
                } else if lower && !FREE_CALL_SKIP.contains(&s) {
                    call(CallKind::Free, Vec::new());
                }
            }
            _ => {}
        }
    }
}

/// True when an identifier followed by the token at `after`, which is not
/// `(`, ends an expression — `make: make_ess,`, `.map(Spec::label)`, `(id, serve_main)`,
/// `f as Run` — so it may name a function or a table as a value. Every
/// local binding in argument position passes too; those resolve to nothing
/// unless a function of that name is in scope, which errs on the safe side
/// (an edge too many, never one too few).
fn names_a_value(sig: &[Token], after: usize) -> bool {
    matches!(punct(sig, after), Some(',' | ')' | ']' | '}' | ';'))
        || ident(sig, after) == Some("as")
}

/// Lexes and parses one snippet, taking the crate from its path — the
/// shape every pass's unit tests start from.
#[cfg(test)]
pub(crate) fn parse_source(path: &str, src: &str) -> ParsedFile {
    let krate = layering::crate_of_path(path).expect("test path names a workspace crate");
    parse_items(&SourceFile::new(path, src), krate.lib)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> ParsedFile {
        parse_source("crates/ess/src/x.rs", src)
    }

    #[test]
    fn fn_items_and_owners() {
        let src = "impl Foo {\n    pub fn go(&self) { helper(); }\n}\nfn helper() {}\ntrait T { fn d(&self) { self.go(); } }";
        let p = parse(src);
        let names: Vec<_> = p
            .fns
            .iter()
            .map(|f| (f.owner.clone(), f.name.clone()))
            .collect();
        assert_eq!(
            names,
            vec![
                (Some("Foo".to_string()), "go".to_string()),
                (None, "helper".to_string()),
                (Some("T".to_string()), "d".to_string()),
            ]
        );
        assert_eq!(p.fns[0].calls.len(), 1);
        assert_eq!(p.fns[0].calls[0].kind, CallKind::Free);
        assert_eq!(p.fns[2].calls[0].kind, CallKind::Method);
    }

    #[test]
    fn trait_impl_owner_is_the_type() {
        let src = "impl<T: Clone> Backend for Pool<T> where T: Send { fn run(&self) {} }";
        let p = parse(src);
        assert_eq!(p.fns[0].owner.as_deref(), Some("Pool"));
    }

    #[test]
    fn seeds_and_lookalikes() {
        let src = "fn f(xs: &[f64], o: Option<u8>) -> f64 {\n    let a = o.unwrap();\n    let b = o.unwrap_or(0);\n    let c = xs[0];\n    let d: [f64; 2] = [1.0, 2.0];\n    assert!(a > 0);\n    debug_assert!(b == 0);\n    panic!(\"no\");\n    c\n}";
        let p = parse(src);
        let kinds: Vec<_> = p.fns[0].seeds.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![
                SeedKind::Unwrap,
                SeedKind::Index,
                SeedKind::Assert,
                SeedKind::PanicMacro
            ]
        );
    }

    #[test]
    fn self_expect_records_a_call_not_just_a_seed() {
        let src = "impl P { fn go(&mut self) { self.expect(1); } }";
        let p = parse(src);
        assert_eq!(p.fns[0].calls.len(), 1);
        assert!(p.fns[0].seeds[0].on_self);
    }

    #[test]
    fn use_decls_roots_and_leaves() {
        let src = "use ess_service::jsonio::{Json, JsonError as JE};\nuse std::thread;\nfn f() {}";
        let p = parse(src);
        assert_eq!(p.uses[0].root, "ess_service");
        assert_eq!(p.uses[0].leaves, vec!["Json", "JE"]);
    }

    #[test]
    fn self_imports_mod_items_and_local_uses_bind_names() {
        let src = "use crate::layering::{self, Scope};\nmod schedule;\nfn f() { use ess_service::jsonio; }";
        let p = parse(src);
        let leaves: Vec<_> = p.uses.iter().map(|u| u.leaves.join(",")).collect();
        assert_eq!(leaves, ["layering,Scope", "schedule", "jsonio"]);
        assert_eq!(p.uses[1].root, "crate");
    }

    #[test]
    fn values_tables_and_turbofish_calls_are_recorded() {
        let src = "const TABLE: &[Run] = &[(\"a\", run_a)];\nconst PLAIN: usize = 3;\nfn f(xs: &[u8]) { let (tx, rx) = unbounded::<u8>(); xs.iter().map(Task::named); TABLE.len(); }";
        let p = parse(src);
        // A table is kept only when its initialiser names something.
        assert_eq!(p.fns.len(), 2);
        assert!(p.fns[0].is_const && p.fns[0].calls[0].value);
        let calls: Vec<_> = (p.fns[1].calls.iter())
            .map(|c| (c.kind, c.name.as_str(), c.value))
            .collect();
        assert!(calls.contains(&(CallKind::Free, "unbounded", false)));
        assert!(calls.contains(&(CallKind::Path, "named", true)));
        assert!(calls.contains(&(CallKind::Const, "TABLE", true)));
        // A receiver is not a value position.
        assert!(!calls.iter().any(|c| c.1 == "xs"));
    }

    #[test]
    fn trait_blocks_and_impls_name_their_trait() {
        let src =
            "trait T { fn d(&self); }\nimpl T for X { fn d(&self) {} }\nimpl X { fn e(&self) {} }";
        let p = parse(src);
        let traits: Vec<_> = p.fns.iter().map(|f| f.trait_name.as_deref()).collect();
        assert_eq!(traits, [Some("T"), Some("T"), None]);
        assert_eq!(p.traits, ["T"]);
    }

    #[test]
    fn test_code_is_invisible() {
        let src = "#[cfg(test)]\nmod tests {\n    use ess_benches::x;\n    #[test]\n    fn t() { foo().unwrap(); }\n}";
        let p = parse(src);
        assert!(p.fns[0].is_test);
        assert!(p.fns[0].seeds.is_empty());
    }

    #[test]
    fn taint_sources() {
        let src = "fn f() { let t = Instant::now(); let s = SystemTime::now(); }";
        let p = parse(src);
        let whats: Vec<_> = p.fns[0].taints.iter().map(|t| t.what).collect();
        assert_eq!(whats, vec!["Instant::now", "SystemTime"]);
    }
}
