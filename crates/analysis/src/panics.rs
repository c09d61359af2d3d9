//! The panic-path prover: seed panic sites, walk the call graph from
//! the declared panic-free roots, report every reachable unjustified
//! site with a witness path.
//!
//! Seed policy, by crate role:
//!
//! - **Unconditional panics** — `unwrap`, `expect`, `panic!`,
//!   `unreachable!`, `todo!`, `unimplemented!`, and workspace-qualified
//!   calls that fail to resolve — are seeds *everywhere*.
//! - **Contract guards** — `assert!`-family and postfix indexing — are
//!   seeds only in the availability boundary (the crates
//!   [`crate::layering::CRATES`] marks `boundary`: `service`, `client`,
//!   `core`), where a panic kills the serve loop. In the numeric kernel
//!   crates they are the repo's deliberate guard idiom, owned by the
//!   invariant property suites and in-run oracles (`debug_assert` is
//!   never a seed anywhere).
//!
//! A site is justified by `// lint: allow(panic) — <reason>` on its
//! line, directly above it, or at function level (between the first
//! attribute and the opening brace).

use crate::callgraph::Graph;
use crate::layering;
use crate::lint::{Finding, Ledger, PANIC};
use crate::parse::SeedKind;
use std::collections::BTreeSet;

/// One declared panic-free root.
#[derive(Debug, Clone, Copy)]
pub struct RootSpec {
    /// Crate lib identifier.
    pub krate: &'static str,
    /// `impl` type, when a method.
    pub owner: Option<&'static str>,
    /// Function name.
    pub name: &'static str,
}

impl RootSpec {
    /// `Owner::name` or `name`.
    pub fn display(&self) -> String {
        match self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.to_string(),
        }
    }
}

/// The workspace's declared panic-free roots: the serve loop, every
/// scheduler drive entry point, the session step halves, and the arena
/// kernel.
pub const ROOTS: &[RootSpec] = &[
    RootSpec {
        krate: "ess_service",
        owner: None,
        name: "serve_configured",
    },
    RootSpec {
        krate: "ess_service",
        owner: Some("Scheduler"),
        name: "round",
    },
    RootSpec {
        krate: "ess_service",
        owner: Some("Scheduler"),
        name: "round_fused",
    },
    RootSpec {
        krate: "ess_service",
        owner: Some("Scheduler"),
        name: "drain_controlled",
    },
    RootSpec {
        krate: "ess_service",
        owner: Some("PredictionSession"),
        name: "plan_step",
    },
    RootSpec {
        krate: "ess_service",
        owner: Some("PredictionSession"),
        name: "complete_step",
    },
    RootSpec {
        krate: "firelib",
        owner: Some("FireSim"),
        name: "simulate_arena_kernel",
    },
];

/// True when this seed counts in crate `krate`: the unconditional
/// panics everywhere, the contract guards on the availability boundary.
pub fn seed_enforced(kind: SeedKind, krate: &str) -> bool {
    match kind {
        SeedKind::Unwrap | SeedKind::Expect | SeedKind::PanicMacro => true,
        SeedKind::Assert | SeedKind::Index => layering::scope_of(krate).boundary,
    }
}

/// Per-root proof outcome.
#[derive(Debug, Clone)]
pub struct RootStat {
    /// Root display name.
    pub root: String,
    /// The root resolved to a symbol (a rename would silently drop
    /// coverage otherwise).
    pub resolved: bool,
    /// Functions reachable from the root.
    pub reachable: usize,
    /// Reachable panic sites carrying a justified allow.
    pub allowed_sites: usize,
    /// Reachable panic sites with no justification — these fail.
    pub unallowed_sites: usize,
}

/// Proves the declared roots panic-free, pushing every reachable panic
/// site — resolved against the ledger — onto `out` once.
pub fn prove(
    g: &Graph,
    roots: &[RootSpec],
    ledger: &mut Ledger,
    out: &mut Vec<Finding>,
) -> Vec<RootStat> {
    let mut stats = Vec::new();
    // (symbol, line) pairs already reported, so multi-root overlap does
    // not duplicate findings.
    let mut reported: BTreeSet<(usize, usize)> = BTreeSet::new();

    for root in roots {
        let ids = g.find(root.krate, root.owner, root.name);
        let mut stat = RootStat {
            root: root.display(),
            resolved: !ids.is_empty(),
            reachable: 0,
            allowed_sites: 0,
            unallowed_sites: 0,
        };
        if ids.is_empty() {
            let message = format!(
                "panic-free root `{}` not found in `{}` — renamed or removed? update the root \
                 list",
                stat.root, root.krate
            );
            let file = format!("crates ({})", root.krate);
            out.push(Finding::new(PANIC, &file, 0, message, None));
            stats.push(stat);
            continue;
        }

        let (queue, parent) = g.reach(&ids);
        stat.reachable = queue.len();

        for &sym in &queue {
            let s = &g.syms[sym];
            let mut sites: Vec<(usize, String)> = Vec::new();
            for seed in &s.seeds {
                if seed_enforced(seed.kind, s.krate) {
                    let message = format!(
                        "`{}` in `{}` is reachable from panic-free root `{}`",
                        seed.what,
                        s.display(),
                        stat.root
                    );
                    sites.push((seed.line, message));
                }
            }
            for u in g.unresolved.iter().filter(|u| u.caller == sym) {
                let message = format!(
                    "call to `{}` in `{}` does not resolve — conservatively treated as \
                     panicking (reachable from root `{}`)",
                    u.path,
                    s.display(),
                    stat.root
                );
                sites.push((u.line, message));
            }
            for (line, message) in sites {
                let reason = ledger.check(&s.file, PANIC, line, Some(s.header_span()));
                if reason.is_some() {
                    stat.allowed_sites += 1;
                } else {
                    stat.unallowed_sites += 1;
                }
                if reported.insert((sym, line)) {
                    let mut chain = g.chain(&parent, sym);
                    chain.reverse();
                    out.push(
                        Finding::new(PANIC, &s.file, line, message, reason)
                            .with_witness(chain.join(" → ")),
                    );
                }
            }
        }
        stats.push(stat);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::build;
    use crate::parse::parse_source;

    const ROOT: &[RootSpec] = &[RootSpec {
        krate: "ess_service",
        owner: Some("Scheduler"),
        name: "round",
    }];

    fn run(src: &str) -> (Vec<Finding>, Vec<RootStat>) {
        let g = build(&[parse_source("crates/service/src/scheduler.rs", src)]);
        let mut findings = Vec::new();
        let stats = prove(&g, ROOT, &mut Ledger::default(), &mut findings);
        (findings, stats)
    }

    #[test]
    fn transitive_unwrap_is_found_with_witness() {
        let src = "impl Scheduler {\n    pub fn round(&mut self) { self.step_all(); }\n    fn step_all(&mut self) { self.next.take().unwrap(); }\n}";
        let (findings, stats) = run(src);
        assert_eq!(stats[0].unallowed_sites, 1);
        assert_eq!(findings.len(), 1);
        assert_eq!(
            findings[0].witness.as_deref(),
            Some("Scheduler::round → Scheduler::step_all")
        );
    }

    #[test]
    fn unreachable_unwrap_is_not_a_finding() {
        let src = "impl Scheduler {\n    pub fn round(&mut self) {}\n    fn elsewhere(&mut self) { self.next.take().unwrap(); }\n}";
        let (findings, stats) = run(src);
        assert!(findings.is_empty());
        assert_eq!(stats[0].unallowed_sites, 0);
    }

    #[test]
    fn missing_root_is_itself_a_finding() {
        let src = "impl Scheduler { pub fn spin(&mut self) {} }";
        let (findings, stats) = run(src);
        assert!(!stats[0].resolved);
        assert!(findings[0].message.contains("not found"));
    }

    #[test]
    fn index_seeds_enforced_only_on_the_availability_boundary() {
        assert!(seed_enforced(SeedKind::Index, "ess_service"));
        assert!(seed_enforced(SeedKind::Assert, "ess_client"));
        assert!(seed_enforced(SeedKind::Index, "ess_ns"));
        assert!(!seed_enforced(SeedKind::Index, "firelib"));
        assert!(seed_enforced(SeedKind::Unwrap, "firelib"));
    }
}
