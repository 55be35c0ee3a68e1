//! The analyzer's own gate, as a test: the workspace must be clean.
//!
//! This is the same pass CI runs (`mdls-analyze check`), asserted from
//! inside the test suite so `cargo test` alone catches a regression of
//! one of the five invariants no stock lint sees — an emit under a
//! guard (`lock-across-emit`), an unguarded push into a service queue
//! (`unbounded-service-queue`), an atomic read-modify-write on a kernel
//! element path (`atomic-on-element-path`), a linear scan over the
//! pool's interval lists (`pool-linear-scan`), or an engine step called
//! from outside its owner (`engine-step-fork`) — before the workflow
//! step does. Hash-order iteration, undocumented `unsafe`, host clocks
//! and exact float compares are clippy's job (`[workspace.lints.clippy]`
//! in `Cargo.toml` and the root `clippy.toml`), which `cargo test` does
//! not run.

use std::path::Path;

#[test]
fn workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let (findings, scanned) =
        mdls_analyze::analyze_workspace(&root).expect("workspace walk failed");
    assert!(
        scanned > 50,
        "suspiciously few files scanned ({scanned}) — did the walker lose the workspace root?"
    );
    assert!(
        findings.is_empty(),
        "mdls-analyze found {} invariant violation(s) in the workspace:\n{}\n\
         fix the code: none of the five lints takes a suppression comment\n\
         (`mdls-analyze lints` describes each); hash-order, unsafe, clock and\n\
         float-compare rules are enforced by clippy and clippy.toml instead",
        findings.len(),
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
