#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]
//! # mdls-analyze
//!
//! A self-contained static-analysis pass over this workspace's Rust
//! sources, enforcing the invariants the paper reproduction's
//! load-bearing guarantee (bit-identical, placement-invariant
//! multi-double solutions) actually rests on — invariants that rustc
//! and clippy do not already enforce; [`lints`] names the five.
//!
//! The analyzer is a hand-rolled lexer ([`lexer`]) plus token-scope
//! passes ([`lints`]) — no external dependencies, because the
//! workspace builds offline. Findings render as clickable
//! `file:line: [lint-id] message` lines or JSON ([`report`]); the
//! binary exits non-zero on any finding so CI gates on it.

pub mod lexer;
pub mod lints;
pub mod report;
pub mod walk;

use std::path::Path;

pub use lints::analyze_str;
use report::Finding;

/// Analyze every `.rs` file under `root`. Returns the sorted findings
/// and the number of files scanned.
pub fn analyze_workspace(root: &Path) -> std::io::Result<(Vec<Finding>, usize)> {
    let files = walk::workspace_files(root)?;
    let mut findings = Vec::new();
    let mut scanned = 0usize;
    for (rel, src) in &files {
        let Some(krate) = lints::crate_of(rel) else {
            continue;
        };
        scanned += 1;
        findings.extend(analyze_str(rel, krate, src));
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
    Ok((findings, scanned))
}
