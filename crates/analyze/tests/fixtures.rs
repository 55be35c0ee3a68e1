//! The fixture corpus: every lint has a tripping and a clean fixture
//! under `tests/fixtures/`, lexed through [`mdls_analyze::analyze_str`]
//! exactly as the workspace pass would. Tripping fixtures carry
//! `// FINDING: lint-id` markers on the lines the analyzer must flag —
//! the expected set is read out of the fixture itself, so fixture and
//! expectation cannot drift apart.
//!
//! The fixture directory is named `fixtures` on purpose: both the
//! workspace walker and `crate_of` skip it, so the intentionally-dirty
//! corpus never pollutes a real `mdls-analyze check` run (the
//! self-check test in `self_check.rs` proves that).

use mdls_analyze::{analyze_str, lints::LINTS};

/// `(line, lint-id)` pairs declared by `// FINDING: id[, id]` markers.
fn expected(src: &str) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for (idx, line) in src.lines().enumerate() {
        if let Some(pos) = line.find("FINDING:") {
            for id in line[pos + "FINDING:".len()..].split(',') {
                out.push((idx as u32 + 1, id.trim().to_string()));
            }
        }
    }
    out.sort();
    out
}

/// Analyze `src` as a non-test file of `krate` and compare against the
/// fixture's own markers.
fn check(name: &str, krate: &str, src: &str) {
    check_at(&format!("crates/{krate}/src/{name}"), krate, src);
}

/// [`check`] for path-scoped lints: analyze `src` as the file `rel`.
fn check_at(rel: &str, krate: &str, src: &str) {
    let mut got: Vec<(u32, String)> = analyze_str(rel, krate, src)
        .into_iter()
        .map(|f| (f.line, f.lint.to_string()))
        .collect();
    got.sort();
    assert_eq!(
        got,
        expected(src),
        "findings for fixture at `{rel}` (as crate `{krate}`) diverge from its markers"
    );
}

/// Analyze `src` as `krate` and require a completely clean report.
fn check_clean(name: &str, krate: &str, src: &str) {
    let got = analyze_str(&format!("crates/{krate}/src/{name}"), krate, src);
    assert!(
        got.is_empty(),
        "fixture `{name}` (as crate `{krate}`) should be clean, got:\n{}",
        got.iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

const LOCK_TRIP: &str = include_str!("fixtures/lock_across_emit_trip.rs");
const LOCK_CLEAN: &str = include_str!("fixtures/lock_across_emit_clean.rs");
const SERVICE_TRIP: &str = include_str!("fixtures/service_queue_trip.rs");
const SERVICE_CLEAN: &str = include_str!("fixtures/service_queue_clean.rs");
const ATOMIC_TRIP: &str = include_str!("fixtures/atomic_element_trip.rs");
const ATOMIC_CLEAN: &str = include_str!("fixtures/atomic_element_clean.rs");
const POOL_SCAN_TRIP: &str = include_str!("fixtures/pool_scan_trip.rs");
const POOL_SCAN_CLEAN: &str = include_str!("fixtures/pool_scan_clean.rs");
const ENGINE_STEP_TRIP: &str = include_str!("fixtures/engine_step_trip.rs");
const ENGINE_STEP_CLEAN: &str = include_str!("fixtures/engine_step_clean.rs");

#[test]
fn lock_across_emit_trips_and_cleans() {
    check("lock_across_emit_trip.rs", "pipeline", LOCK_TRIP);
    assert_eq!(expected(LOCK_TRIP).len(), 2, "marker count drifted");
    check_clean("lock_across_emit_clean.rs", "pipeline", LOCK_CLEAN);
}

#[test]
fn lock_across_emit_applies_everywhere() {
    // Scope::All — even the root crate's sources are covered
    check("lock_across_emit_trip.rs", "multidouble-ls", LOCK_TRIP);
}

#[test]
fn unbounded_service_queue_trips_and_cleans() {
    check("service_queue_trip.rs", "pipeline", SERVICE_TRIP);
    assert_eq!(expected(SERVICE_TRIP).len(), 4, "marker count drifted");
    check_clean("service_queue_clean.rs", "pipeline", SERVICE_CLEAN);
}

#[test]
fn unbounded_service_queue_is_path_scoped() {
    // the same pushes under a file name that does not denote service
    // code are out of scope — bounded ingress is the shell's contract,
    // not every VecDeque's
    let got = analyze_str("crates/pipeline/src/stream.rs", "pipeline", SERVICE_TRIP);
    assert!(
        got.is_empty(),
        "non-service path should be out of scope: {got:?}"
    );
    // and the lint is pipeline-only policy: the bench crate's own
    // service.rs (the harness) is exempt
    check_clean("service_queue_trip.rs", "bench", SERVICE_TRIP);
}

#[test]
fn unbounded_service_queue_skips_test_files_by_path() {
    // skip_tests: a service test may build scenario queues freely
    let got = analyze_str("crates/pipeline/tests/service.rs", "pipeline", SERVICE_TRIP);
    assert!(got.is_empty(), "tests/ path should be exempt: {got:?}");
}

#[test]
fn atomic_on_element_path_trips_and_cleans() {
    check_at("crates/gpusim/src/buffer.rs", "gpusim", ATOMIC_TRIP);
    check_at("crates/qr/src/kernels.rs", "qr", ATOMIC_TRIP);
    assert_eq!(expected(ATOMIC_TRIP).len(), 5, "marker count drifted");
    let got = analyze_str("crates/gpusim/src/buffer.rs", "gpusim", ATOMIC_CLEAN);
    assert!(got.is_empty(), "clean fixture should be clean: {got:?}");
}

#[test]
fn atomic_on_element_path_is_path_scoped() {
    // per-block bookkeeping (the parallel executor's block counter in
    // exec.rs) is not the element path and keeps its atomics
    check_clean("exec.rs", "gpusim", ATOMIC_TRIP);
    check_clean("driver.rs", "qr", ATOMIC_TRIP);
}

#[test]
fn pool_linear_scan_trips_and_cleans() {
    check_at("crates/pipeline/src/pool.rs", "pipeline", POOL_SCAN_TRIP);
    assert_eq!(expected(POOL_SCAN_TRIP).len(), 5, "marker count drifted");
    let got = analyze_str("crates/pipeline/src/pool.rs", "pipeline", POOL_SCAN_CLEAN);
    assert!(got.is_empty(), "clean fixture should be clean: {got:?}");
}

#[test]
fn pool_linear_scan_is_path_scoped() {
    // `intervals` and `live` are private to pool.rs; a field of the same
    // name elsewhere (a report's `live` jobs) is not the sorted registry
    check_clean("service.rs", "pipeline", POOL_SCAN_TRIP);
    let got = analyze_str("crates/bench/src/pool.rs", "bench", POOL_SCAN_TRIP);
    assert!(got.is_empty(), "bench is out of scope: {got:?}");
}

#[test]
fn engine_step_fork_trips_and_cleans() {
    check_at(
        "crates/pipeline/src/stream.rs",
        "pipeline",
        ENGINE_STEP_TRIP,
    );
    assert_eq!(expected(ENGINE_STEP_TRIP).len(), 6, "marker count drifted");
    let got = analyze_str(
        "crates/pipeline/src/batch.rs",
        "pipeline",
        ENGINE_STEP_CLEAN,
    );
    assert!(got.is_empty(), "clean fixture should be clean: {got:?}");
}

#[test]
fn engine_step_fork_is_path_scoped() {
    // pool.rs defines `preview_stages` and plans its own bookings with
    // it; tests and other crates drive the primitives freely
    let scoped_out = [
        ("crates/pipeline/src/pool.rs", "pipeline"),
        ("crates/pipeline/tests/service.rs", "pipeline"),
        ("crates/bench/src/experiments.rs", "bench"),
    ];
    for (rel, krate) in scoped_out {
        let got = analyze_str(rel, krate, ENGINE_STEP_TRIP);
        assert!(got.is_empty(), "`{rel}` is out of scope: {got:?}");
    }
}

#[test]
fn policy_table_is_the_five_token_lints() {
    let ids: Vec<&str> = LINTS.iter().map(|l| l.id).collect();
    let five = "lock-across-emit unbounded-service-queue atomic-on-element-path \
                pool-linear-scan engine-step-fork";
    assert_eq!(ids.join(" "), five);
}
