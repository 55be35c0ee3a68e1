//! The lint passes and the per-crate policy table.
//!
//! Every lint here is grounded in a real hazard of this reproduction
//! (see the README's "Static analysis" section for the full story):
//!
//! * [`LOCK_ACROSS_EMIT`] — the observer contract is "inert": an
//!   emit site that holds a planner/cache `MutexGuard` hands every
//!   observer a loaded gun (re-entering the planner deadlocks).
//! * [`UNBOUNDED_SERVICE_QUEUE`] — the service shell's overload story
//!   (reject / shed-oldest / block) only holds while every ingress and
//!   backlog queue is bounded; one unguarded `push_back` in service
//!   code and a bursty tenant grows memory without ever tripping
//!   backpressure.
//! * [`ATOMIC_ON_ELEMENT_PATH`] — functional kernels cost their
//!   arithmetic plus plain loads and stores; one atomic read-modify-
//!   write on a per-element path (`DeviceBuf::get`/`set`, a kernel
//!   body's inner loop) costs more than a double double multiply-add
//!   and serializes the parallel executor's threads on one cache line.
//!   Traffic is *declared* in `KernelCost`, never counted per access.
//! * [`POOL_LINEAR_SCAN`] — the service books 10⁵–10⁶ spans per run,
//!   and every pool operation between dispatch and refund finds its
//!   interval or live booking by bisection (starts, ends and booking
//!   ids are all monotone). One `.iter().find(..)` over a lane's
//!   `intervals` or the `live` registry makes `serve` quadratic in run
//!   length again.
//! * [`ENGINE_STEP_FORK`] — the batch loop, the stream and the service
//!   shell share one admit → place → execute → settle path; each step
//!   has one owning function, and a second call site of a step's
//!   primitive is how the three engines drifted apart before (the
//!   stream settled without transient replays; the shell previewed one
//!   booking and committed another).

use crate::lexer::{lex, TokKind, Token};
use crate::report::Finding;

pub const LOCK_ACROSS_EMIT: &str = "lock-across-emit";
pub const UNBOUNDED_SERVICE_QUEUE: &str = "unbounded-service-queue";
pub const ATOMIC_ON_ELEMENT_PATH: &str = "atomic-on-element-path";
pub const POOL_LINEAR_SCAN: &str = "pool-linear-scan";
pub const ENGINE_STEP_FORK: &str = "engine-step-fork";

/// Which crates a lint applies to.
pub enum Scope {
    /// Every workspace crate.
    All,
    /// Only the named crates.
    Only(&'static [&'static str]),
}

impl Scope {
    fn applies(&self, krate: &str) -> bool {
        match self {
            Scope::All => true,
            Scope::Only(list) => list.contains(&krate),
        }
    }
}

/// One lint's identity and policy.
pub struct LintDef {
    pub id: &'static str,
    pub scope: Scope,
    /// Skip `#[cfg(test)]` modules and `tests/`/`benches/` files.
    pub skip_tests: bool,
    pub summary: &'static str,
}

/// The policy table: which lint runs where. One place to read, one
/// place to change.
pub const LINTS: &[LintDef] = &[
    LintDef {
        id: LOCK_ACROSS_EMIT,
        scope: Scope::All,
        skip_tests: false,
        summary: "no MutexGuard live across an .emit(..) observer call",
    },
    LintDef {
        id: UNBOUNDED_SERVICE_QUEUE,
        scope: Scope::Only(&["pipeline"]),
        skip_tests: true,
        summary: "service-shell queues grow only behind a len/capacity/is_full guard (bounded ingress)",
    },
    LintDef {
        id: ATOMIC_ON_ELEMENT_PATH,
        scope: Scope::All,
        skip_tests: true,
        summary: "no atomic read-modify-write in gpusim's buffer.rs or any kernels.rs (traffic is declared, not counted)",
    },
    LintDef {
        id: POOL_LINEAR_SCAN,
        scope: Scope::Only(&["pipeline"]),
        skip_tests: true,
        summary: "pool.rs finds intervals and live bookings by bisection — no .iter().find/position/all/any over `intervals` or `live`",
    },
    LintDef {
        id: ENGINE_STEP_FORK,
        scope: Scope::Only(&["pipeline"]),
        skip_tests: true,
        summary: "admit_job / settle_staged_dispatch / replay_transients / preview_stages / thread::scope are called only from the one function that owns that engine step",
    },
];

/// Look a lint up by id.
pub fn lint_by_id(id: &str) -> Option<&'static LintDef> {
    LINTS.iter().find(|l| l.id == id)
}

/// Map a workspace-relative path to its crate name, or `None` when the
/// file is out of scope (vendored stand-ins, build output, the
/// analyzer's own intentionally-dirty fixture corpus).
pub fn crate_of(rel: &str) -> Option<&str> {
    let rel = rel.trim_start_matches("./");
    if rel.starts_with("vendor/") || rel.starts_with("target/") || rel.contains("/fixtures/") {
        return None;
    }
    if let Some(rest) = rel.strip_prefix("crates/") {
        return rest.split('/').next();
    }
    if rel.starts_with("src/") || rel.starts_with("tests/") || rel.starts_with("examples/") {
        return Some("multidouble-ls");
    }
    None
}

/// Whether a path is test-only by location.
fn is_test_path(rel: &str) -> bool {
    rel.split('/').any(|c| c == "tests" || c == "benches")
}

/// Service-shell code by file name — the files whose queue growth the
/// [`UNBOUNDED_SERVICE_QUEUE`] lint polices. Path-scoped like
/// [`is_element_path`]: the bounded-ingress contract belongs to the
/// multi-tenant shell, not to every `VecDeque` in the pipeline.
fn is_service_path(rel: &str) -> bool {
    rel.rsplit('/').next().unwrap_or(rel).contains("service")
}

/// The per-element path by file — device-buffer access and the kernel
/// bodies built on it, the files [`ATOMIC_ON_ELEMENT_PATH`] polices.
/// Path-scoped like [`is_service_path`]: launch bookkeeping elsewhere in
/// `gpusim` (the parallel executor's block counter) is per block, not
/// per element, and keeps its atomics.
fn is_element_path(rel: &str) -> bool {
    let rel = rel.trim_start_matches("./");
    rel == "crates/gpusim/src/buffer.rs"
        || (rel.starts_with("crates/") && rel.ends_with("/src/kernels.rs"))
}

// ---------------------------------------------------------------------
// token-scope helpers
// ---------------------------------------------------------------------

fn is(t: &Token, s: &str) -> bool {
    t.text == s
}

/// Index of the brace/bracket/paren closing the one at `open`.
fn matching(toks: &[Token], open: usize) -> usize {
    let (o, c) = match toks[open].text.as_str() {
        "{" => ("{", "}"),
        "(" => ("(", ")"),
        "[" => ("[", "]"),
        _ => return open,
    };
    let mut depth = 0usize;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.kind == TokKind::Punct {
            if t.text == o {
                depth += 1;
            } else if t.text == c {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Index of the paren/bracket *opening* the one closing at `close`,
/// scanning backwards.
fn matching_back(toks: &[Token], close: usize) -> usize {
    let (o, c) = match toks[close].text.as_str() {
        ")" => ("(", ")"),
        "]" => ("[", "]"),
        "}" => ("{", "}"),
        _ => return close,
    };
    let mut depth = 0usize;
    for i in (0..=close).rev() {
        let t = &toks[i];
        if t.kind == TokKind::Punct {
            if t.text == c {
                depth += 1;
            } else if t.text == o {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
        }
    }
    0
}

/// Token-index spans of `#[cfg(test)] mod ... { ... }` bodies.
fn cfg_test_spans(toks: &[Token]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i + 4 < toks.len() {
        if is(&toks[i], "#")
            && is(&toks[i + 1], "[")
            && is(&toks[i + 2], "cfg")
            && is(&toks[i + 3], "(")
        {
            let close_paren = matching(toks, i + 3);
            let has_test = toks[i + 4..close_paren].iter().any(|t| t.text == "test");
            let mut j = matching(toks, i + 1) + 1; // past the `]`
            if has_test {
                // skip further attributes
                while j + 1 < toks.len() && is(&toks[j], "#") && is(&toks[j + 1], "[") {
                    j = matching(toks, j + 1) + 1;
                }
                // pub? mod name {
                if j < toks.len() && is(&toks[j], "pub") {
                    j += 1;
                    if j < toks.len() && is(&toks[j], "(") {
                        j = matching(toks, j) + 1;
                    }
                }
                if j + 2 < toks.len() && is(&toks[j], "mod") && is(&toks[j + 2], "{") {
                    let open = j + 2;
                    spans.push((open, matching(toks, open)));
                }
            }
            i = j;
            continue;
        }
        i += 1;
    }
    spans
}

// ---------------------------------------------------------------------
// the per-file analysis
// ---------------------------------------------------------------------

/// Run every applicable lint over `src` as if it lived at `rel` in `krate`.
pub fn analyze_str(rel: &str, krate: &str, src: &str) -> Vec<Finding> {
    let toks = &lex(src);
    let test_spans = cfg_test_spans(toks);
    let path_is_test = is_test_path(rel);

    let mut raw: Vec<Finding> = Vec::new();
    let enabled = |id: &str| {
        lint_by_id(id)
            .map(|l| l.scope.applies(krate))
            .unwrap_or(false)
    };
    let skip_tests = |id: &str| lint_by_id(id).map(|l| l.skip_tests).unwrap_or(false);

    if enabled(LOCK_ACROSS_EMIT) {
        lint_lock_across_emit(rel, toks, &mut raw);
    }
    // the service shell's overload ladder assumes every ingress and
    // backlog queue is bounded — growth in service files must sit
    // behind a capacity check
    if enabled(UNBOUNDED_SERVICE_QUEUE) && is_service_path(rel) {
        lint_unbounded_service_queue(rel, toks, &mut raw);
    }

    if enabled(ATOMIC_ON_ELEMENT_PATH) && is_element_path(rel) {
        lint_atomic_on_element_path(rel, toks, &mut raw);
    }
    // the interval lists and the live registry are private to pool.rs,
    // so that file is the only place a scan over them can be written
    if enabled(POOL_LINEAR_SCAN) && rel.trim_start_matches("./") == "crates/pipeline/src/pool.rs" {
        lint_pool_linear_scan(rel, toks, &mut raw);
    }
    // pool.rs defines `preview_stages` (and plans its own bookings with
    // it); every other pipeline source file is an engine or a step
    if enabled(ENGINE_STEP_FORK)
        && rel
            .trim_start_matches("./")
            .starts_with("crates/pipeline/src/")
        && rel.trim_start_matches("./") != "crates/pipeline/src/pool.rs"
    {
        lint_engine_step_fork(rel, toks, &mut raw);
    }

    // drop findings of skip_tests lints that landed in test code
    raw.retain(|f| {
        if !skip_tests(f.lint) {
            return true;
        }
        if path_is_test {
            return false;
        }
        // token-index spans → line check: a finding inside a
        // #[cfg(test)] mod is dropped
        !test_spans.iter().any(|&(a, b)| {
            let (lo, hi) = (toks[a].line, toks[b].line);
            f.line >= lo && f.line <= hi
        })
    });

    raw.sort_by(|a, b| (a.line, a.lint).cmp(&(b.line, b.lint)));
    raw
}

// ---------------------------------------------------------------------
// individual lints
// ---------------------------------------------------------------------

/// The object a method chain ending at `dot` (the `.` of a call)
/// actually operates on: walk left *through* method calls — `.lock()`,
/// `.unwrap()` and friends hand the same underlying object along — and
/// stop at the first plain field/variable segment, which is the
/// receiver. `fused.stage_wall_ms.iter()` iterates `stage_wall_ms`,
/// not `fused`; `self.cache.lock().unwrap().iter()` iterates `cache`.
fn chain_receiver(toks: &[Token], dot: usize) -> Option<String> {
    let mut i = dot; // index of the `.`
    loop {
        if i == 0 {
            return None;
        }
        let prev = i - 1;
        match toks[prev].kind {
            TokKind::Ident => return Some(toks[prev].text.clone()),
            TokKind::Punct if toks[prev].text == ")" || toks[prev].text == "]" => {
                // a call or index — skip over it and its callee name,
                // staying on the same logical object
                let open = matching_back(toks, prev);
                if open == 0 {
                    return None;
                }
                i = open;
                if toks[prev].text == ")" && toks[i - 1].kind == TokKind::Ident {
                    i -= 1; // past the method name
                }
            }
            _ => return None,
        }
        // continue only across `.` / `::`
        if i == 0 {
            return None;
        }
        let link = &toks[i - 1];
        if link.text == "." || link.text == "::" {
            i -= 1;
        } else {
            return None;
        }
    }
}

/// Words a guard header must mention for queue growth to count as
/// bounded. `len`/`capacity` cover the direct comparison forms
/// (`q.len() < cap`); `is_full` covers a named predicate.
const CAPACITY_WORDS: &[&str] = &["len", "capacity", "is_full"];

/// Receiver names that denote an ingress/backlog queue for the
/// `.push(..)` rule. `.push_back(..)` needs no name filter: in service
/// code a `VecDeque` *is* a queue, whatever it is called.
const QUEUE_WORDS: &[&str] = &["queue", "pending", "backlog", "inbox"];

/// Token range of the header introducing the block opening at `open`:
/// everything back to the previous statement boundary, exclusive of
/// the brace itself.
fn block_header(toks: &[Token], open: usize) -> (usize, usize) {
    let mut s = open;
    while s > 0 {
        match toks[s - 1].text.as_str() {
            ";" | "{" | "}" => break,
            _ => s -= 1,
        }
    }
    (s, open)
}

/// Does the block opening at `open` sit behind a capacity check — an
/// `if`/`while` (or `else` branch of one) whose header names one of
/// [`CAPACITY_WORDS`]? A bare `else` inherits its `if`'s header: in
/// `if q.len() >= cap { .. } else { q.push_back(v) }` the else arm is
/// exactly the under-capacity branch.
fn header_guards(toks: &[Token], open: usize) -> bool {
    let (mut s, mut o) = block_header(toks, open);
    if s + 1 == o && is(&toks[s], "else") {
        if s == 0 || !is(&toks[s - 1], "}") {
            return false;
        }
        let if_open = matching_back(toks, s - 1);
        (s, o) = block_header(toks, if_open);
    }
    if s >= o {
        return false;
    }
    let head = toks[s].text.as_str();
    if !(head == "if" || head == "while" || head == "else") {
        return false;
    }
    toks[s..o]
        .iter()
        .any(|t| t.kind == TokKind::Ident && CAPACITY_WORDS.contains(&t.text.as_str()))
}

/// Walk outward through the blocks enclosing token `i` until one of
/// their headers is a capacity guard. Outward (not nearest-only)
/// because the guard legitimately sits above intervening structure:
/// `if q.len() + batch.len() <= cap { for v in batch { q.push_back(v) } }`.
fn is_capacity_guarded(toks: &[Token], mut i: usize) -> bool {
    loop {
        let mut depth = 0i32;
        let mut open = None;
        for b in (0..i).rev() {
            match toks[b].text.as_str() {
                "}" => depth += 1,
                "{" => {
                    if depth == 0 {
                        open = Some(b);
                        break;
                    }
                    depth -= 1;
                }
                _ => {}
            }
        }
        let Some(open) = open else { return false };
        if header_guards(toks, open) {
            return true;
        }
        if open == 0 {
            return false;
        }
        i = open;
    }
}

/// Unguarded growth of a service-shell queue. `.push_back(..)` on any
/// receiver and `.push(..)` on a queue-named one must sit inside a
/// capacity-checked block — the bounded-ingress contract the overload
/// ladder (reject / shed-oldest / block) depends on.
fn lint_unbounded_service_queue(rel: &str, toks: &[Token], out: &mut Vec<Finding>) {
    for i in 0..toks.len() {
        if !(toks[i].text == "."
            && i + 2 < toks.len()
            && toks[i + 1].kind == TokKind::Ident
            && is(&toks[i + 2], "("))
        {
            continue;
        }
        let method = toks[i + 1].text.as_str();
        let receiver = chain_receiver(toks, i);
        let queue_named = receiver
            .as_deref()
            .map(|r| QUEUE_WORDS.iter().any(|q| r.contains(q)))
            .unwrap_or(false);
        let hit = match method {
            "push_back" => true,
            "push" => queue_named,
            _ => false,
        };
        if !hit || is_capacity_guarded(toks, i) {
            continue;
        }
        out.push(Finding::new(
            rel,
            toks[i + 1].line,
            UNBOUNDED_SERVICE_QUEUE,
            format!(
                "`.{}(..)` grows `{}` without a capacity check — service ingress/backlog \
                 queues are bounded by contract; guard the push with len/capacity/is_full \
                 (see `push_bounded` in service.rs)",
                method,
                receiver.as_deref().unwrap_or("a service queue"),
            ),
        ));
    }
}

const MEMORY_ORDERINGS: &[&str] = &[
    "Ordering", "Relaxed", "Acquire", "Release", "AcqRel", "SeqCst",
];

/// Atomic read-modify-write calls: any `.fetch_*(..)`,
/// `.compare_exchange(..)`/`.compare_exchange_weak(..)`, and `.swap(..)`
/// when its arguments name a memory ordering (a slice's `swap(i, j)`
/// is a plain exchange and stays legal).
fn lint_atomic_on_element_path(rel: &str, toks: &[Token], out: &mut Vec<Finding>) {
    for i in 0..toks.len() {
        if !(toks[i].text == "."
            && i + 2 < toks.len()
            && toks[i + 1].kind == TokKind::Ident
            && is(&toks[i + 2], "("))
        {
            continue;
        }
        let method = toks[i + 1].text.as_str();
        let hit = match method {
            "compare_exchange" | "compare_exchange_weak" => true,
            "swap" => toks[i + 3..matching(toks, i + 2)]
                .iter()
                .any(|t| t.kind == TokKind::Ident && MEMORY_ORDERINGS.contains(&t.text.as_str())),
            _ => method.starts_with("fetch_"),
        };
        if hit {
            out.push(Finding::new(
                rel,
                toks[i + 1].line,
                ATOMIC_ON_ELEMENT_PATH,
                format!(
                    "atomic `.{method}(..)` on the per-element path — a kernel costs its \
                     arithmetic plus plain loads and stores; declare traffic in `KernelCost` \
                     instead of counting it"
                ),
            ));
        }
    }
}

fn lint_lock_across_emit(rel: &str, toks: &[Token], out: &mut Vec<Finding>) {
    for i in 0..toks.len() {
        // `.lock()` call
        if !(toks[i].text == "."
            && i + 2 < toks.len()
            && toks[i + 1].text == "lock"
            && is(&toks[i + 2], "("))
        {
            continue;
        }
        let lock_line = toks[i + 1].line;
        // walk back to the statement start
        let mut start = i;
        while start > 0 {
            match toks[start - 1].text.as_str() {
                ";" | "{" | "}" => break,
                _ => start -= 1,
            }
        }
        let head = &toks[start];
        // chain after .lock(): which methods follow?
        let mut j = matching(toks, i + 2) + 1;
        let mut guard_persists = true; // `.unwrap()`/`.expect()` only
        while j + 2 < toks.len() && toks[j].text == "." && toks[j + 1].kind == TokKind::Ident {
            let m = toks[j + 1].text.as_str();
            if is(&toks[j + 2], "(") {
                if !(m == "unwrap" || m == "expect") {
                    guard_persists = false;
                }
                j = matching(toks, j + 2) + 1;
            } else {
                guard_persists = false;
                break;
            }
        }

        let (span, origin): (Option<(usize, usize)>, &str) = match head.text.as_str() {
            // condition temporaries live through the whole expression,
            // arms and all — even when the guard is chained further
            // (`..lock().unwrap().get(&k)` still borrows the guard)
            "if" | "while" | "match" => {
                let mut k = i;
                let mut d = 0i32;
                while k < toks.len() {
                    match toks[k].text.as_str() {
                        "(" | "[" => d += 1,
                        ")" | "]" => d -= 1,
                        "{" if d == 0 => break,
                        _ => {}
                    }
                    k += 1;
                }
                if k < toks.len() {
                    let mut end = matching(toks, k);
                    // chained else / else if blocks extend the span
                    while end + 1 < toks.len() && is(&toks[end + 1], "else") {
                        let mut b = end + 1;
                        while b < toks.len() && !is(&toks[b], "{") {
                            b += 1;
                        }
                        if b >= toks.len() {
                            break;
                        }
                        end = matching(toks, b);
                    }
                    (Some((k, end)), "a temporary guard in this condition")
                } else {
                    (None, "")
                }
            }
            "let" if guard_persists => {
                // named guard: live to the end of the enclosing block
                // (or an explicit drop)
                let mut name_idx = start + 1;
                if name_idx < toks.len() && is(&toks[name_idx], "mut") {
                    name_idx += 1;
                }
                let name = toks
                    .get(name_idx)
                    .map(|t| t.text.clone())
                    .unwrap_or_default();
                // enclosing block: nearest unmatched `{` before start
                let mut depth = 0i32;
                let mut open = 0usize;
                for b in (0..start).rev() {
                    match toks[b].text.as_str() {
                        "}" => depth += 1,
                        "{" => {
                            if depth == 0 {
                                open = b;
                                break;
                            }
                            depth -= 1;
                        }
                        _ => {}
                    }
                }
                let mut end = matching(toks, open);
                // an explicit drop(name) releases it early
                for d in i..end {
                    if is(&toks[d], "drop")
                        && d + 2 < toks.len()
                        && is(&toks[d + 1], "(")
                        && toks[d + 2].text == name
                    {
                        end = d;
                        break;
                    }
                }
                (Some((i, end)), "a named guard binding")
            }
            _ => (None, ""), // plain statement: temporary dies at `;`
        };

        let Some((a, b)) = span else { continue };
        for e in a..=b.min(toks.len().saturating_sub(1)) {
            if toks[e].text == "."
                && e + 2 < toks.len()
                && toks[e + 1].text == "emit"
                && is(&toks[e + 2], "(")
            {
                out.push(Finding::new(
                    rel,
                    toks[e + 1].line,
                    LOCK_ACROSS_EMIT,
                    format!(
                        "`.emit(..)` runs while {} from `.lock()` (line {}) is still live — \
                         an observer that re-enters the lock deadlocks; drop the guard first",
                        origin, lock_line
                    ),
                ));
            }
        }
    }
}

/// Searches that visit a list front to back, and the two sorted lists
/// of `pool.rs` they must not visit.
const SCAN_ADAPTERS: &[&str] = &["find", "position", "all", "any"];
const BISECTED_LISTS: &[&str] = &["intervals", "live"];

/// `<recv>.iter().find(..)` (or `iter_mut`; `position`, `all`, `any`)
/// whose receiver chain ends in `intervals` or `live`. A bounded walk
/// from a bisected index is a slice loop (`for iv in &list[from..]`)
/// and stays legal; so does a whole-list pass that is the operation
/// itself (`retain`).
fn lint_pool_linear_scan(rel: &str, toks: &[Token], out: &mut Vec<Finding>) {
    for i in 0..toks.len().saturating_sub(6) {
        // `.iter().<adapter>(`
        let at = |k: usize, s: &str| is(&toks[i + k], s);
        if !(at(0, ".") && at(2, "(") && at(3, ")") && at(4, ".") && at(6, "(")) {
            continue;
        }
        let (iter, adapter) = (toks[i + 1].text.as_str(), toks[i + 5].text.as_str());
        if !(matches!(iter, "iter" | "iter_mut") && SCAN_ADAPTERS.contains(&adapter)) {
            continue;
        }
        let Some(list) = chain_receiver(toks, i) else {
            continue;
        };
        if BISECTED_LISTS.contains(&list.as_str()) {
            out.push(Finding::new(
                rel,
                toks[i + 5].line,
                POOL_LINEAR_SCAN,
                format!(
                    "`{list}.{iter}().{adapter}(..)` scans a sorted list from the front — \
                     `{list}` is ordered, enter it through `partition_point`/`binary_search` \
                     (pool operations stay logarithmic in schedule history)"
                ),
            ));
        }
    }
}

/// The primitives of the shared engine path and the function(s) that
/// own the step each belongs to: admit (`resilient::admit`), place
/// (`microbatch::dispatch_group_where` previews under SECT; admission's
/// `earliest_end` previews a deadline), execute
/// (`batch::execute_round`, the crate's one `thread::scope`) and settle
/// (`batch::settle_group`).
const ENGINE_STEPS: &[(&str, &[&str])] = &[
    ("admit_job", &["admit"]),
    ("settle_staged_dispatch", &["settle_group"]),
    ("replay_transients", &["settle_group"]),
    ("preview_stages", &["dispatch_group_where", "earliest_end"]),
    ("scope", &["execute_round"]),
];

/// `(name, body open, body close)` of every `fn` with a body, by token
/// index.
fn fn_bodies(toks: &[Token]) -> Vec<(&str, usize, usize)> {
    let mut out = Vec::new();
    for i in 0..toks.len().saturating_sub(1) {
        if !(toks[i].kind == TokKind::Ident && is(&toks[i], "fn"))
            || toks[i + 1].kind != TokKind::Ident
        {
            continue;
        }
        // the signature ends at the body's `{` (or a bodiless `;`)
        let Some(open) = (i + 2..toks.len()).find(|&j| is(&toks[j], "{") || is(&toks[j], ";"))
        else {
            continue;
        };
        if is(&toks[open], "{") {
            out.push((toks[i + 1].text.as_str(), open, matching(toks, open)));
        }
    }
    out
}

/// A call of an engine-step primitive (`name(`, or `thread::scope(`)
/// from a function that does not own that step.
fn lint_engine_step_fork(rel: &str, toks: &[Token], out: &mut Vec<Finding>) {
    let bodies = fn_bodies(toks);
    for i in 1..toks.len().saturating_sub(1) {
        let t = &toks[i];
        if t.kind != TokKind::Ident || !is(&toks[i + 1], "(") || is(&toks[i - 1], "fn") {
            continue;
        }
        let Some((step, owners)) = ENGINE_STEPS.iter().find(|(name, _)| t.text == *name) else {
            continue;
        };
        // `scope` is only the step when it is `thread::scope`
        if *step == "scope" && !(i >= 2 && is(&toks[i - 1], "::") && is(&toks[i - 2], "thread")) {
            continue;
        }
        // innermost enclosing fn
        let owner = bodies
            .iter()
            .filter(|&&(_, open, close)| open < i && i < close)
            .max_by_key(|&&(_, open, _)| open)
            .map(|&(name, _, _)| name);
        if owner.is_some_and(|f| owners.contains(&f)) {
            continue;
        }
        let call = if *step == "scope" {
            "thread::scope"
        } else {
            step
        };
        out.push(Finding::new(
            rel,
            t.line,
            ENGINE_STEP_FORK,
            format!(
                "`{call}(..)` called from `{}` — that engine step is owned by `{}`; the \
                 batch loop, the stream and the service shell go through the owner, never \
                 around it",
                owner.unwrap_or("<module>"),
                owners.join("`/`"),
            ),
        ));
    }
}
