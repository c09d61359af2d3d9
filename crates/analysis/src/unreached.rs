//! Reachability: what no shipped `main` can reach goes.
//!
//! Roots are every `fn main` the walk found — the harness, the `cargo
//! bench` mains, the examples and the `benchmark/` package — plus the
//! methods called where no call is written ([`Sym::implicit`]). A non-test
//! function the walk from those roots never visits is code only tests
//! run, or nothing runs: a finding.
//!
//! `// lint: allow(unreached) — <the test or oracle it serves>` keeps a
//! reference implementation tests compare against or a fixture shared by
//! test crates; what an allowed function calls is kept with it.

use crate::callgraph::{Graph, Sym};
use crate::layering;
use crate::lint::{Finding, Ledger, UNREACHED};

/// The rule's tally for the report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnreachedStat {
    /// `fn main`s the walk started from.
    pub mains: usize,
    /// Unreached functions kept by a justified allow.
    pub allowed: usize,
    /// Unreached functions with no justification — these fail.
    pub unallowed: usize,
}

/// Runs the rule. A file set without a `main` has nothing to be reached
/// from, and the rule says nothing about it.
pub fn check(g: &Graph, ledger: &mut Ledger, out: &mut Vec<Finding>) -> UnreachedStat {
    let is_main = |s: &Sym| !s.is_test && !s.is_const && s.owner.is_none() && s.name == "main";
    let mut stat = UnreachedStat {
        mains: g.syms.iter().filter(|s| is_main(s)).count(),
        ..UnreachedStat::default()
    };
    if stat.mains == 0 {
        return stat;
    }
    let mut roots: Vec<usize> = (0..g.syms.len())
        .filter(|&i| is_main(&g.syms[i]) || g.syms[i].implicit)
        .collect();
    let marks = |roots: &[usize]| {
        let mut reached = vec![false; g.syms.len()];
        for i in g.reach(roots).0 {
            reached[i] = true;
        }
        reached
    };

    // The functions the rule judges that no root reaches, each with its
    // allow, if it has one.
    let reached = marks(&roots);
    let mut unreached: Vec<(usize, Option<String>)> = Vec::new();
    for (i, s) in g.syms.iter().enumerate() {
        if !reached[i] && !s.is_test && !s.is_const && !layering::scope_of(s.krate).app {
            let span = Some(s.header_span());
            unreached.push((i, ledger.check(&s.file, UNREACHED, s.line, span)));
        }
    }
    // Allowed functions root a second walk: an oracle's private helpers
    // are kept with the oracle.
    roots.extend(
        unreached
            .iter()
            .filter(|(_, r)| r.is_some())
            .map(|(i, _)| i),
    );
    let kept = marks(&roots);
    for (i, reason) in unreached {
        if reason.is_none() && kept[i] {
            continue;
        }
        if reason.is_some() {
            stat.allowed += 1;
        } else {
            stat.unallowed += 1;
        }
        let s = &g.syms[i];
        let message = format!(
            "`{}` is reached from no `main` — delete it, or allow it naming the test it serves",
            s.display()
        );
        out.push(Finding::new(UNREACHED, &s.file, s.line, message, reason));
    }
    stat
}
