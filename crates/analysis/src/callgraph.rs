//! Workspace call graph by name resolution over `use` paths plus a
//! method-name heuristic.
//!
//! The graph is deliberately **over-approximate** in the safe direction:
//! a `.name(..)` call resolves to *every* workspace method of that name
//! the caller's crate is allowed to see (covering generic dispatch
//! without type inference; a function that takes no `self` is no method,
//! so `scheme.start(..)` is not a call of `Stopwatch::start()`); a
//! workspace trait's method reaches *every*
//! `impl` of it, wherever the implementing crate sits in the layer map
//! (`StepOptimizer::optimize` is declared in `ess` and implemented above
//! it); a function named as a value (`(id, serve_main)`,
//! `.map(Spec::label)`) is an edge like a call, and a `const` table of
//! such names is a node its readers reach; and a workspace-qualified
//! path call that fails to resolve is surfaced so the panic prover can
//! treat it as conservatively panicking. External calls (`std`, vendored
//! `rand`) are assumed non-panicking — their panic surfaces (`unwrap`,
//! `expect`, indexing) are seeded at the call site by the parser
//! instead.

use crate::layering;
use crate::parse::{CallKind, ParsedFile, Seed, SeedKind, TaintSrc};
use std::collections::{BTreeMap, BTreeSet};

/// One function in the graph.
#[derive(Debug, Clone)]
pub struct Sym {
    /// Owning crate's lib identifier.
    pub krate: &'static str,
    /// `impl`/`trait` type, when a method.
    pub owner: Option<String>,
    /// Function name.
    pub name: String,
    /// Workspace-relative path.
    pub file: String,
    /// Line of the `fn` keyword.
    pub line: usize,
    /// First header line (attributes) — fn-level allows start here.
    pub header_line: usize,
    /// Body-open line — fn-level allows end here.
    pub open_line: usize,
    /// Test-only code.
    pub is_test: bool,
    /// A `const`/`static` table, not a function.
    pub is_const: bool,
    /// A method called where no call edge is written: of an `impl` of a
    /// trait the workspace does not declare (`Display::fmt`,
    /// `Iterator::next`, `Drop::drop` — `std` calls it), or of a workspace
    /// trait implemented by an application (the workspace dispatches to it,
    /// and no workspace crate links the application).
    pub implicit: bool,
    /// Panic seeds in the body.
    pub seeds: Vec<Seed>,
    /// Determinism-taint sources in the body.
    pub taints: Vec<TaintSrc>,
}

impl Sym {
    /// The (first header line, opening-brace line) span in which an
    /// allow is fn-level.
    pub fn header_span(&self) -> (usize, usize) {
        (self.header_line, self.open_line)
    }

    /// `Owner::name` or `name`, for reports.
    pub fn display(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// A workspace-qualified path call that did not resolve.
#[derive(Debug, Clone)]
pub struct Unresolved {
    /// Caller symbol index.
    pub caller: usize,
    /// The call as written.
    pub path: String,
    /// 1-based line.
    pub line: usize,
}

/// The resolved workspace call graph.
#[derive(Debug, Default)]
pub struct Graph {
    /// All functions, in file/definition order.
    pub syms: Vec<Sym>,
    /// Outgoing edges per symbol: callee indices, sorted and
    /// deduplicated.
    pub edges: Vec<Vec<usize>>,
    /// Workspace-qualified calls that failed to resolve — the panic
    /// prover treats these as conservatively panicking.
    pub unresolved: Vec<Unresolved>,
}

impl Graph {
    /// Total edge count.
    pub fn edge_count(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }

    /// Symbol indices matching (crate, owner, name), non-test only.
    pub fn find(&self, krate: &str, owner: Option<&str>, name: &str) -> Vec<usize> {
        self.syms
            .iter()
            .enumerate()
            .filter(|(_, s)| {
                !s.is_test && s.krate == krate && s.owner.as_deref() == owner && s.name == name
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Breadth-first walk along the edges from `from`: the symbols reached
    /// in visit order (`from` first), and every symbol's parent link for
    /// witness chains.
    pub fn reach(&self, from: &[usize]) -> (Vec<usize>, Vec<Option<usize>>) {
        let mut parent: Vec<Option<usize>> = vec![None; self.syms.len()];
        let mut seen = vec![false; self.syms.len()];
        let mut queue: Vec<usize> = Vec::new();
        for &id in from {
            if !std::mem::replace(&mut seen[id], true) {
                queue.push(id);
            }
        }
        let mut head = 0;
        while head < queue.len() {
            let cur = queue[head];
            head += 1;
            for &callee in &self.edges[cur] {
                if !seen[callee] {
                    seen[callee] = true;
                    parent[callee] = Some(cur);
                    queue.push(callee);
                }
            }
        }
        (queue, parent)
    }

    /// Follows `parent` links from `from` to their end and names the
    /// symbols visited, in walk order — the witness chain of a BFS.
    pub fn chain(&self, parent: &[Option<usize>], from: usize) -> Vec<String> {
        let mut names = vec![self.syms[from].display()];
        let mut cur = from;
        while let Some(p) = parent[cur] {
            names.push(self.syms[p].display());
            cur = p;
        }
        names
    }

    /// Reverse adjacency (callee → callers).
    pub fn reverse_edges(&self) -> Vec<Vec<usize>> {
        let mut rev = vec![Vec::new(); self.syms.len()];
        for (caller, outs) in self.edges.iter().enumerate() {
            for &callee in outs {
                rev[callee].push(caller);
            }
        }
        rev
    }
}

/// True when crate `from` may resolve calls into crate `to`: itself, or
/// any crate strictly below it in the layer map. Keeping resolution
/// inside the legal dependency cone stops common method names from
/// creating upward edges that cannot exist at link time.
fn resolvable(from: &str, to: &str) -> bool {
    from == to || layering::edge_allowed(from, to)
}

/// Builds the call graph over every parsed file.
pub fn build(files: &[ParsedFile]) -> Graph {
    let mut g = Graph::default();
    let traits: BTreeSet<&str> = files
        .iter()
        .flat_map(|f| &f.traits)
        .map(String::as_str)
        .collect();
    // (file index, fn index) per symbol, for the resolution pass.
    let mut origin: Vec<(usize, usize)> = Vec::new();
    for (fi, f) in files.iter().enumerate() {
        for (ni, item) in f.fns.iter().enumerate() {
            let implemented = item
                .trait_name
                .as_deref()
                .filter(|&t| item.owner.as_deref() != Some(t));
            let app = layering::scope_of(f.krate).app;
            g.syms.push(Sym {
                krate: f.krate,
                owner: item.owner.clone(),
                name: item.name.clone(),
                file: f.path.clone(),
                line: item.line,
                header_line: item.header_line,
                open_line: item.open_line,
                is_test: item.is_test,
                is_const: item.is_const,
                implicit: implemented.is_some_and(|t| app || !traits.contains(t)),
                seeds: item.seeds.clone(),
                taints: item.taints.clone(),
            });
            origin.push((fi, ni));
        }
    }

    // Candidate indexes over non-test symbols.
    let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut free: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    let mut owners: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    let mut consts: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    // (trait, method) → every `impl Trait for Type`'s method of that name.
    let mut impls: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    for (i, (s, &(fi, ni))) in g.syms.iter().zip(&origin).enumerate() {
        if s.is_test {
            continue;
        }
        if s.is_const {
            consts.entry(&s.name).or_default().push(i);
            continue;
        }
        if let Some(t) = files[fi].fns[ni].trait_name.as_deref() {
            if s.owner.as_deref() != Some(t) && !s.implicit {
                impls.entry((t, s.name.as_str())).or_default().push(i);
            }
        }
        match &s.owner {
            Some(o) => {
                // `x.name(..)` calls a function that takes `self`; one that
                // does not (`Stopwatch::start()`) is reached by path only.
                if files[fi].fns[ni].has_receiver {
                    methods.entry(&s.name).or_default().push(i);
                }
                owners
                    .entry((o.as_str(), s.name.as_str()))
                    .or_default()
                    .push(i);
            }
            None => free.entry((s.krate, s.name.as_str())).or_default().push(i),
        }
    }

    // `type Alias = Target;` — `Alias::name(..)` resolves by `Target`.
    let aliases: BTreeMap<&str, &str> = files
        .iter()
        .flat_map(|f| &f.aliases)
        .map(|(alias, target)| (alias.as_str(), target.as_str()))
        .collect();

    // Crates whose sources were actually parsed — path calls into any
    // other crate are external by construction.
    let scanned: BTreeSet<&str> = files.iter().map(|f| f.krate).collect();

    // Per-file import maps: local leaf name → root crate, and glob
    // roots.
    let mut leaf_maps: Vec<BTreeMap<&str, String>> = Vec::new();
    let mut glob_roots: Vec<Vec<String>> = Vec::new();
    for f in files {
        let mut leaves = BTreeMap::new();
        let mut globs = Vec::new();
        for u in &f.uses {
            let root = normalize_root(&u.root, f.krate);
            for leaf in &u.leaves {
                leaves.insert(leaf.as_str(), root.clone());
            }
            if u.glob && layering::rank_of(&root).is_some() {
                globs.push(root.clone());
            }
        }
        leaf_maps.push(leaves);
        glob_roots.push(globs);
    }

    g.edges = vec![Vec::new(); g.syms.len()];
    // Symbols whose `self.expect(..)` resolved to a workspace method —
    // their `Expect` seeds are dropped after the borrow of the candidate
    // maps ends.
    let mut drop_self_expect: Vec<usize> = Vec::new();
    for (si, &(fi, ni)) in origin.iter().enumerate() {
        let f = &files[fi];
        let item = &f.fns[ni];
        if item.is_test {
            continue;
        }
        let own = f.krate;
        let leaves = &leaf_maps[fi];
        let globs = &glob_roots[fi];
        let mut outs: BTreeSet<usize> = BTreeSet::new();
        // Dynamic and generic dispatch: a workspace trait's own method
        // stands for every implementation of it.
        if let Some(t) = item
            .trait_name
            .as_deref()
            .filter(|_| item.trait_name == item.owner)
        {
            outs.extend(impls.get(&(t, item.name.as_str())).into_iter().flatten());
        }
        let mut self_expect_resolved = false;
        for call in &item.calls {
            match call.kind {
                CallKind::Const => {
                    let cands = consts.get(call.name.as_str()).into_iter().flatten();
                    outs.extend(cands.filter(|&&c| {
                        c != si && (own == g.syms[c].krate || resolvable(own, g.syms[c].krate))
                    }));
                }
                CallKind::Method => {
                    let mut hit = false;
                    if let Some(cands) = methods.get(call.name.as_str()) {
                        for &c in cands {
                            if c != si && resolvable(own, g.syms[c].krate) {
                                outs.insert(c);
                                hit = true;
                            }
                        }
                    }
                    if hit && call.name == "expect" {
                        self_expect_resolved = true;
                    }
                }
                CallKind::Free => {
                    if let Some(cands) = free.get(&(own, call.name.as_str())) {
                        for &c in cands {
                            if c != si {
                                outs.insert(c);
                            }
                        }
                    }
                    let mut roots: Vec<&str> = Vec::new();
                    if let Some(r) = leaves.get(call.name.as_str()) {
                        roots.push(r);
                    }
                    roots.extend(globs.iter().map(String::as_str));
                    for r in roots {
                        if r != own && resolvable(own, r) {
                            if let Some(cands) = free.get(&(r, call.name.as_str())) {
                                outs.extend(cands);
                            }
                        }
                    }
                }
                CallKind::Path => {
                    let known = g.unresolved.len();
                    resolve_path_call(
                        &g.syms,
                        &free,
                        &owners,
                        &aliases,
                        leaves,
                        &scanned,
                        own,
                        item.owner.as_deref(),
                        si,
                        &call.path,
                        &call.name,
                        call.line,
                        &mut outs,
                        &mut g.unresolved,
                    );
                    // A value that misses is a local or a field, not a
                    // workspace call gone missing.
                    if call.value {
                        g.unresolved.truncate(known);
                    }
                }
            }
        }
        g.edges[si] = outs.into_iter().collect();

        // `self.expect(..)` that resolved to a workspace method (the
        // jsonio parser) is a call, not an `Option::expect` seed.
        if self_expect_resolved {
            drop_self_expect.push(si);
        }
    }
    for si in drop_self_expect {
        g.syms[si]
            .seeds
            .retain(|s| !(s.kind == SeedKind::Expect && s.on_self));
    }
    g
}

fn normalize_root(root: &str, own: &str) -> String {
    match root {
        "crate" | "self" | "super" => own.to_string(),
        other => other.to_string(),
    }
}

/// Trait methods commonly provided by `#[derive(..)]` — an
/// associated-call miss on one of these is a derive, not a missing
/// function (derived impls have no source to scan, and none of the
/// repo's derives panic).
const DERIVED_METHODS: &[&str] = &[
    "default",
    "clone",
    "eq",
    "ne",
    "cmp",
    "partial_cmp",
    "hash",
    "fmt",
    "from",
];

#[allow(clippy::too_many_arguments)]
fn resolve_path_call(
    syms: &[Sym],
    free: &BTreeMap<(&str, &str), Vec<usize>>,
    owners: &BTreeMap<(&str, &str), Vec<usize>>,
    aliases: &BTreeMap<&str, &str>,
    leaves: &BTreeMap<&str, String>,
    scanned: &BTreeSet<&str>,
    own: &str,
    own_owner: Option<&str>,
    caller: usize,
    path: &[String],
    name: &str,
    line: usize,
    outs: &mut BTreeSet<usize>,
    unresolved: &mut Vec<Unresolved>,
) {
    let first = path[0].as_str();
    let last = path.last().map(String::as_str).unwrap_or(first);
    let type_like = |s: &str| s.starts_with(|c: char| c.is_ascii_uppercase());

    // Where does the path's first segment land?
    let target_crate: Option<String> = if matches!(first, "crate" | "self" | "super") {
        Some(own.to_string())
    } else if layering::rank_of(first).is_some() {
        Some(first.to_string())
    } else if let Some(r) = leaves.get(first) {
        if layering::rank_of(r).is_some() {
            Some(r.clone())
        } else {
            return; // imported from std/external
        }
    } else if type_like(first) {
        None // a bare `Type::name(..)` — resolve by owner below
    } else {
        return; // std / external module path
    };
    // A crate in the layer map whose sources were not parsed (vendored
    // `rand`) is external: assumed non-panicking, like std.
    if let Some(t) = &target_crate {
        if !scanned.contains(t.as_str()) {
            return;
        }
    }

    if type_like(last) || last == "Self" {
        // Associated call `…::Type::name(..)`.
        let ty = if last == "Self" {
            match own_owner {
                Some(t) => t,
                None => return,
            }
        } else {
            aliases.get(last).copied().unwrap_or(last)
        };
        if let Some(cands) = owners.get(&(ty, name)) {
            let mut hit = false;
            for &c in cands {
                let ok = match &target_crate {
                    Some(t) => syms[c].krate == *t,
                    None => resolvable(own, syms[c].krate),
                };
                if ok && c != caller {
                    outs.insert(c);
                    hit = true;
                }
            }
            if hit {
                return;
            }
        }
        // A workspace-anchored type with no such method: conservative,
        // except for derive-provided trait methods.
        if target_crate.is_some() && !DERIVED_METHODS.contains(&name) {
            unresolved.push(Unresolved {
                caller,
                path: format!("{}::{name}", path.join("::")),
                line,
            });
        }
        return;
    }

    // Module-qualified free call `krate::mod::name(..)`.
    let Some(target) = target_crate else { return };
    match free.get(&(target.as_str(), name)) {
        Some(cands) => {
            outs.extend(cands.iter().filter(|&&c| c != caller));
        }
        None => unresolved.push(Unresolved {
            caller,
            path: format!("{}::{name}", path.join("::")),
            line,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_source;

    fn graph(files: &[(&str, &str)]) -> Graph {
        let parsed: Vec<ParsedFile> = files
            .iter()
            .map(|(path, src)| parse_source(path, src))
            .collect();
        build(&parsed)
    }

    fn idx(g: &Graph, name: &str) -> usize {
        g.syms.iter().position(|s| s.name == name).unwrap()
    }

    #[test]
    fn free_and_path_calls_resolve_in_crate() {
        let g = graph(&[(
            "crates/ess/src/a.rs",
            "fn top() { helper(); crate::other(); }\nfn helper() {}\nfn other() {}",
        )]);
        let top = idx(&g, "top");
        assert_eq!(g.edges[top], vec![idx(&g, "helper"), idx(&g, "other")]);
        assert!(g.unresolved.is_empty());
    }

    #[test]
    fn method_heuristic_respects_the_layer_cone() {
        let g = graph(&[
            (
                "crates/service/src/a.rs",
                "impl Sched { fn round(&self) { self.x.step(1); } }",
            ),
            (
                "crates/ess/src/b.rs",
                "impl Driver { fn step(&self, n: u32) {} }",
            ),
            ("crates/bench/src/c.rs", "impl Bench { fn step(&self) {} }"),
            // Below the caller, but it takes no `self`: `x.step(..)` cannot
            // be a call of it, whatever bound its generics spell with `(`.
            (
                "crates/parworker/src/d.rs",
                "impl Watch { fn step<F: Fn(&mut Self)>(n: u32) -> Self { Instant::now() } }",
            ),
        ]);
        let round = idx(&g, "round");
        // service resolves downward into ess, never upward into bench.
        let names: Vec<_> = g.edges[round]
            .iter()
            .map(|&callee| g.syms[callee].krate)
            .collect();
        assert_eq!(names, vec!["ess"]);
    }

    /// Display names of everything `from` reaches, itself included.
    fn reached(g: &Graph, from: &str) -> Vec<String> {
        let (queue, _) = g.reach(&[idx(g, from)]);
        queue.iter().map(|&sym| g.syms[sym].display()).collect()
    }

    #[test]
    fn fn_named_in_a_const_table_or_as_an_argument_is_an_edge() {
        let g = graph(&[(
            "crates/service/src/systems.rs",
            "const REGISTRY: &[Spec] = &[Spec { name: \"ESS\", make: make_ess }];\n\
             fn make_ess() {}\n\
             fn resolve() { REGISTRY.iter().map(Spec::label).count(); }\n\
             impl Spec { fn label(&self) {} fn unused(&self) {} }\n\
             fn idle() { let make_ess = 1; }",
        )]);
        // The table is a node: whoever reads it reaches what it names.
        assert_eq!(
            reached(&g, "resolve"),
            ["resolve", "REGISTRY", "Spec::label", "make_ess"]
        );
        // A binding that merely shares the name is not a value position.
        assert!(g.edges[idx(&g, "idle")].is_empty());
        assert!(g.unresolved.is_empty());
    }

    #[test]
    fn trait_method_reaches_every_impl_even_in_a_higher_crate() {
        let g = graph(&[
            (
                "crates/ess/src/pipeline.rs",
                "pub trait StepOptimizer { fn optimize(&mut self); }\n\
                 fn step(o: &mut dyn StepOptimizer) { o.optimize(); }",
            ),
            (
                "crates/core/src/system.rs",
                "impl StepOptimizer for EssNs { fn optimize(&mut self) { run(); } }\n\
                 fn run() {}\n\
                 impl std::fmt::Display for EssNs { fn fmt(&self) {} }",
            ),
            // An inherent method of the same name above the caller stays
            // out: only trait dispatch crosses the layer cone upward.
            (
                "crates/bench/src/x.rs",
                "impl Bench { fn optimize(&mut self) {} }",
            ),
            // An application's impl is called by dispatch too, but no
            // workspace crate links it: implicit, not an edge.
            (
                "benchmark/src/trace.rs",
                "impl StepOptimizer for Traced { fn optimize(&mut self) {} }",
            ),
        ]);
        assert_eq!(
            reached(&g, "step"),
            ["step", "StepOptimizer::optimize", "EssNs::optimize", "run"]
        );
        let implicit: Vec<String> = (g.syms.iter().filter(|s| s.implicit))
            .map(Sym::display)
            .collect();
        assert_eq!(implicit, ["EssNs::fmt", "Traced::optimize"]);
    }

    #[test]
    fn imported_type_assoc_call_resolves_cross_crate() {
        let g = graph(&[
            (
                "crates/analysis/src/a.rs",
                "use ess_service::jsonio::Json;\nfn render() { let j = Json::obj(); }",
            ),
            (
                "crates/service/src/jsonio.rs",
                "impl Json { pub fn obj() -> Json { Json::Obj(Vec::new()) } }",
            ),
        ]);
        let render = idx(&g, "render");
        assert_eq!(g.edges[render], vec![idx(&g, "obj")]);
    }

    #[test]
    fn assoc_call_through_a_type_alias_resolves_to_the_target() {
        let g = graph(&[
            (
                "crates/ess/src/a.rs",
                "use evoalg::GaEngine;\nfn top() { GaEngine::new(1); }",
            ),
            (
                "crates/evoalg/src/ga.rs",
                "pub type GaEngine = Engine<GaConfig>;\nimpl<S: Scheme> Engine<S> { pub fn new(d: usize) {} }",
            ),
        ]);
        assert_eq!(g.edges[idx(&g, "top")], vec![idx(&g, "new")]);
        assert!(g.unresolved.is_empty());
    }

    #[test]
    fn workspace_qualified_miss_is_conservative() {
        let g = graph(&[(
            "crates/ess/src/a.rs",
            "fn top() { crate::nonexistent_fn(); std::mem::drop(1); }",
        )]);
        assert_eq!(g.unresolved.len(), 1);
        assert!(g.unresolved[0].path.contains("nonexistent_fn"));
    }

    #[test]
    fn self_expect_seed_drops_when_a_method_resolves() {
        let g = graph(&[(
            "crates/service/src/jsonio.rs",
            "impl Parser {\n    fn expect(&mut self, b: u8) -> Result<(), E> { Ok(()) }\n    fn array(&mut self) { self.expect(b'['); }\n}",
        )]);
        let array = idx(&g, "array");
        assert!(g.syms[array].seeds.is_empty());
        // …but a real Option::expect on a non-self receiver stays.
        let g2 = graph(&[(
            "crates/service/src/x.rs",
            "fn f(o: Option<u8>) { o.expect(\"present\"); }",
        )]);
        let f = idx(&g2, "f");
        assert_eq!(g2.syms[f].seeds.len(), 1);
    }
}
