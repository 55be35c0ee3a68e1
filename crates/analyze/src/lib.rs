#![forbid(unsafe_code)]
//! # mdls-analyze
//!
//! A self-contained static-analysis pass over this workspace's Rust
//! sources, enforcing the invariants the paper reproduction's
//! load-bearing guarantee (bit-identical, placement-invariant
//! multi-double solutions) actually rests on — invariants that rustc
//! and clippy cannot see because they live in *this* codebase's
//! contracts, not the language's:
//!
//! * hash-ordered containers are never traversed in determinism-
//!   bearing crates ([`lints::MAP_ITERATION_ORDER`]);
//! * simulation code never reads the host clock
//!   ([`lints::WALL_CLOCK_IN_SIM`]);
//! * no observer emit site runs under a `MutexGuard`
//!   ([`lints::LOCK_ACROSS_EMIT`]);
//! * every `unsafe` block/impl documents its contract
//!   ([`lints::UNDOCUMENTED_UNSAFE`]);
//! * floats are never compared exactly outside the error-free-
//!   transform crates ([`lints::FLOAT_EQ_OUTSIDE_CORE`]);
//! * fault/recovery code draws only from seeded sources
//!   ([`lints::NONDETERMINISTIC_FAULT_SOURCE`]);
//! * device-buffer access and kernel bodies carry no atomic
//!   read-modify-write ([`lints::ATOMIC_ON_ELEMENT_PATH`]);
//! * the pool's sorted lists are entered by bisection, never scanned
//!   from the front ([`lints::POOL_LINEAR_SCAN`]).
//!
//! The analyzer is a hand-rolled lexer ([`lexer`]) plus token-scope
//! passes ([`lints`]) — no external dependencies, because the
//! workspace builds offline. Findings render as clickable
//! `file:line: [lint-id] message` lines or JSON ([`report`]); the
//! binary exits non-zero on any finding so CI gates on it.
//!
//! Suppressions are scoped and must be justified:
//! `// analyze::allow(lint-id): reason`. A bare allow, an allow naming
//! an unknown lint, or an allow that suppresses nothing are all
//! findings themselves — the exception list can only shrink.

pub mod lexer;
pub mod lints;
pub mod report;
pub mod walk;

use std::collections::BTreeSet;
use std::path::Path;

use report::Finding;

/// Analyze every `.rs` file under `root`. Returns the sorted findings
/// and the number of files scanned.
pub fn analyze_workspace(root: &Path) -> std::io::Result<(Vec<Finding>, usize)> {
    let files = walk::workspace_files(root)?;
    // pass 1: the float-name tables the float-eq lint resolves operand
    // types against. Field/binding declarations (`name: f64`) are
    // scoped to their own crate — common names like `device` mean
    // different types in different crates — while fn-return names
    // (`fn wall_ms(..) -> f64`) are cross-crate API and stay global.
    let mut per_crate: std::collections::BTreeMap<&str, BTreeSet<String>> = Default::default();
    let mut fn_names = BTreeSet::new();
    for (rel, src) in &files {
        let Some(krate) = lints::crate_of(rel) else {
            continue;
        };
        lints::collect_float_names(src, per_crate.entry(krate).or_default(), &mut fn_names);
    }
    // pass 2: per-file lints under the per-crate policy
    let mut findings = Vec::new();
    let mut scanned = 0usize;
    for (rel, src) in &files {
        let Some(krate) = lints::crate_of(rel) else {
            continue;
        };
        scanned += 1;
        let mut names = per_crate.get(krate).cloned().unwrap_or_default();
        names.extend(fn_names.iter().cloned());
        findings.extend(lints::analyze_source(rel, krate, src, &names));
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
    Ok((findings, scanned))
}

/// Analyze one source string as if it lived at `rel` in crate `krate`,
/// deriving the float-name tables from the source itself. The fixture
/// tests run on exactly this entry point.
pub fn analyze_str(rel: &str, krate: &str, src: &str) -> Vec<Finding> {
    let mut names = BTreeSet::new();
    let mut fns = BTreeSet::new();
    lints::collect_float_names(src, &mut names, &mut fns);
    names.extend(fns);
    lints::analyze_source(rel, krate, src, &names)
}
