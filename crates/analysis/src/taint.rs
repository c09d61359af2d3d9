//! Determinism taint: nondeterminism sources must never be reachable
//! from the deterministic crates.
//!
//! Sources are wall-clock reads (`Instant::now`, `SystemTime`), seeded
//! hashing (`RandomState`) and thread-identity observation
//! (`thread::current`). A function is *tainted* when it can reach a
//! source through the call graph; the pass fails when any non-test
//! function in a crate [`crate::layering::CRATES`] marks `deterministic`
//! (`firelib`, `evoalg`, `ess`, `core`) is tainted — three calls of
//! indirection through a backend do not launder a clock read.
//!
//! `// lint: allow(taint) — <reason>` on a source kills its taint at
//! the source (the worker pool's per-task busy-time telemetry, whose
//! readings are reported but never fed back into results; the
//! `Stopwatch` needs none — no deterministic crate starts one). The justification is
//! the proof obligation.

use crate::callgraph::Graph;
use crate::layering;
use crate::lint::{Finding, Ledger, TAINT};

/// Runs the taint pass: one finding per source, anchored at the source
/// site — allowed (and not propagated) when the ledger justifies it,
/// unallowed with a sink → … → source witness when a deterministic
/// crate can reach it.
pub fn analyze(g: &Graph, ledger: &mut Ledger, out: &mut Vec<Finding>) {
    let rev = g.reverse_edges();
    let deterministic = |sym: usize| layering::scope_of(g.syms[sym].krate).deterministic;

    for (sym, s) in g.syms.iter().enumerate() {
        if s.is_test || layering::scope_of(s.krate).app {
            continue;
        }
        for src in &s.taints {
            let span = Some(s.header_span());
            if let Some(reason) = ledger.check(&s.file, TAINT, src.line, span) {
                // Justified: the taint dies here, but stays on the
                // audit trail.
                let message = format!(
                    "nondeterminism source `{}` in `{}` (taint killed by allow)",
                    src.what,
                    s.display()
                );
                out.push(Finding::new(
                    TAINT,
                    &s.file,
                    src.line,
                    message,
                    Some(reason),
                ));
                continue;
            }
            // Which deterministic-crate functions can reach this source?
            let mut parent: Vec<Option<usize>> = vec![None; g.syms.len()];
            let mut seen = vec![false; g.syms.len()];
            let mut queue = vec![sym];
            seen[sym] = true;
            let mut head = 0;
            let mut sinks: Vec<usize> = Vec::new();
            while head < queue.len() {
                let cur = queue[head];
                head += 1;
                if deterministic(cur) && !g.syms[cur].is_test {
                    sinks.push(cur);
                }
                for &caller in &rev[cur] {
                    if !seen[caller] && !g.syms[caller].is_test {
                        seen[caller] = true;
                        parent[caller] = Some(cur);
                        queue.push(caller);
                    }
                }
            }
            // No sink: e.g. service-layer deadline clocks.
            let Some(&example) = sinks.first() else {
                continue;
            };
            let message = format!(
                "nondeterminism source `{}` in `{}` is reachable from {} function(s) in \
                 deterministic crates (e.g. `{}`)",
                src.what,
                s.display(),
                sinks.len(),
                g.syms[example].display()
            );
            // Parent chains point toward the source: sink → … → source.
            let witness = g.chain(&parent, example).join(" → ");
            out.push(Finding::new(TAINT, &s.file, src.line, message, None).with_witness(witness));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::build;
    use crate::parse::parse_source;

    const SINK: &str = "pub fn evolve(b: &dyn Backend) { b.run_tasks(3); }";
    const SOURCE: &str =
        "impl Pool { pub fn run_tasks(&self, n: usize) { let t = Instant::now(); } }";

    fn run(files: &[(&str, &str)]) -> Vec<Finding> {
        let parsed: Vec<_> = files.iter().map(|(p, s)| parse_source(p, s)).collect();
        let mut out = Vec::new();
        analyze(&build(&parsed), &mut Ledger::default(), &mut out);
        out
    }

    #[test]
    fn clock_behind_a_backend_taints_the_kernel_caller() {
        let f = run(&[
            ("crates/evoalg/src/ga.rs", SINK),
            ("crates/parworker/src/pool.rs", SOURCE),
        ]);
        assert_eq!(f.len(), 1);
        assert!(!f[0].allowed);
        assert!(f[0].witness.as_deref().unwrap_or("").contains("evolve"));
        assert!(f[0].message.contains("Instant::now"));
    }

    #[test]
    fn service_layer_clock_with_no_deterministic_reach_is_clean() {
        let src = "impl Session { fn plan(&mut self) { let t = Instant::now(); } }";
        assert!(run(&[("crates/service/src/session.rs", src)]).is_empty());
    }
}
