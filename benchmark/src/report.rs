//! The metric registry — the one place names, units, directions and
//! regression bounds live — plus the result documents built from it:
//! the driver's one-line JSON, `BENCHMARK.json` itself (`manifest`),
//! and the `compare` verdicts.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use mdls_obs::json::Json;

use crate::workloads::WORKLOADS;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn tag(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system would see.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before the driver rejects a change (it compares runs on
    /// different seeds, so simulated metrics get the seed-to-seed
    /// spread here; `compare` on equal seeds holds them to [`EXACT`]).
    pub bound: f64,
    /// Host-clock metrics are noisy; everything else repeats exactly.
    pub host_clock: bool,
}

/// Relative slack of an exact comparison (float formatting only).
pub const EXACT: f64 = 1e-9;

use Better::{Higher, Lower};

const fn host(name: &'static str, unit: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better: Lower,
        bound,
        host_clock: true,
    }
}

const fn sim(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        host_clock: false,
    }
}

/// Simulated time carries its clock in the unit: `sim_ms` is
/// milliseconds of modelled device time, never host time.
pub const END_TO_END: [EndToEnd; 11] = [
    host("setup_s", "s", 0.25),
    host("host_wall_s", "s", 0.25),
    host("host_peak_rss_mb", "MB", 0.10),
    sim("sim_makespan_ms", "sim_ms", Lower, 0.01),
    sim("sim_solves_per_s", "1/sim_s", Higher, 0.01),
    sim("sim_p50_ms", "sim_ms", Lower, 0.01),
    sim("sim_p99_ms", "sim_ms", Lower, 0.02),
    sim("sim_priority_p99_ms", "sim_ms", Lower, 0.02),
    sim("sim_deadline_met_frac", "fraction", Higher, 0.01),
    sim("ok_frac", "fraction", Higher, 0.01),
    sim("sim_gflops", "GF/sim_s", Higher, 0.01),
];

/// A per-layer metric: `(name, unit, better)`. The prefix is the
/// module measured. No bounds — these explain, they do not gate.
pub const PER_LAYER: [(&str, &str, Better); 116] = [
    ("multidouble.dd_fma_ns", "ns", Lower),
    ("multidouble.qd_fma_ns", "ns", Lower),
    ("multidouble.od_fma_ns", "ns", Lower),
    ("multidouble.dd_add_ns", "ns", Lower),
    ("multidouble.qd_add_ns", "ns", Lower),
    ("multidouble.od_add_ns", "ns", Lower),
    ("multidouble.qd_over_dd", "ratio", Lower),
    ("multidouble.od_over_qd", "ratio", Lower),
    ("matrix.residual_od_ms", "ms", Lower),
    ("matrix.matvec_qd_ms", "ms", Lower),
    ("gpusim.launch_seq_us", "us", Lower),
    ("gpusim.launch_par_us", "us", Lower),
    ("gpusim.launch_model_ns", "ns", Lower),
    ("gpusim.buf_rw_ns", "ns", Lower),
    ("qr.host_ms_dd", "ms", Lower),
    ("qr.host_ms_qd", "ms", Lower),
    ("qr.host_ms_od", "ms", Lower),
    ("qr.host_ms_d1_256", "ms", Lower),
    ("qr.host_ref_ms_d1_256", "ms", Lower),
    ("qr.host_sim_over_ref", "ratio", Lower),
    ("qr.flops_per_byte_dd", "flop/B", Higher),
    ("qr.flops_per_byte_qd", "flop/B", Higher),
    ("qr.flops_per_byte_od", "flop/B", Higher),
    ("qr.sim_gflops_v100_dd_1024", "GF/sim_s", Higher),
    ("qr.sim_gflops_v100_qd_1024", "GF/sim_s", Higher),
    ("qr.sim_gflops_v100_od_1024", "GF/sim_s", Higher),
    ("qr.sim_gflops_p100_dd_1024", "GF/sim_s", Higher),
    ("backsub.host_ms_dd", "ms", Lower),
    ("backsub.host_ms_qd", "ms", Lower),
    ("backsub.host_ms_od", "ms", Lower),
    ("backsub.sim_gflops_v100_qd_17920", "GF/sim_s", Higher),
    ("core.lstsq_host_ms_dd", "ms", Lower),
    ("core.lstsq_host_ms_qd", "ms", Lower),
    ("core.lstsq_host_ms_od", "ms", Lower),
    ("core.host_overhead_dd_qd", "ratio", Lower),
    ("core.host_overhead_qd_od", "ratio", Lower),
    ("core.sim_overhead_dd_qd", "ratio", Lower),
    ("core.sim_overhead_qd_od", "ratio", Lower),
    ("core.sim_overhead_dd_qd_1024", "ratio", Lower),
    ("core.sim_overhead_qd_od_1024", "ratio", Lower),
    ("core.sim_backsub_share_dd", "fraction", Lower),
    ("core.sim_backsub_share_qd", "fraction", Lower),
    ("core.sim_backsub_share_od", "fraction", Lower),
    ("core.digits_dd", "digits", Higher),
    ("core.digits_qd", "digits", Higher),
    ("core.digits_od", "digits", Higher),
    ("core.digits_margin_min", "digits", Higher),
    ("core.factor_batched_host_ms", "ms", Lower),
    ("planner.plan_miss_us", "us", Lower),
    ("planner.plan_hit_ns", "ns", Lower),
    ("planner.plan_fused_hit_ns", "ns", Lower),
    ("planner.group_size_miss_us", "us", Lower),
    ("planner.cache_hits", "count", Higher),
    ("planner.cache_misses", "count", Lower),
    ("planner.candidates_scored", "count", Lower),
    ("planner.fused_memo_hits", "count", Higher),
    ("planner.fused_memo_misses", "count", Lower),
    ("pool.commit_us_at_256", "us", Lower),
    ("pool.commit_us_at_1024", "us", Lower),
    ("pool.commit_us_at_4096", "us", Lower),
    ("pool.preview_us_at_256", "us", Lower),
    ("pool.preview_us_at_1024", "us", Lower),
    ("pool.preview_us_at_4096", "us", Lower),
    ("pool.rebook_compact_us_at_256", "us", Lower),
    ("pool.rebook_compact_us_at_1024", "us", Lower),
    ("pool.rebook_compact_us_at_4096", "us", Lower),
    ("pool.mark_settled_us_at_256", "us", Lower),
    ("pool.mark_settled_us_at_1024", "us", Lower),
    ("pool.mark_settled_us_at_4096", "us", Lower),
    ("pool.fail_device_us_at_1024", "us", Lower),
    ("pool.commit_growth_exp", "exponent", Lower),
    ("pool.stage_bookings", "count", Lower),
    ("pool.refunds", "count", Higher),
    ("pool.gap_fills", "count", Higher),
    ("pool.compactions", "count", Higher),
    ("pool.slid_dispatches", "count", Higher),
    ("pool.staging_waits", "count", Lower),
    ("pool.holds", "count", Lower),
    ("pool.pass_extensions", "count", Lower),
    ("pool.sim_utilization", "fraction", Higher),
    ("pool.sim_refunded_ms", "sim_ms", Higher),
    ("scheduler.sect_previews", "count", Lower),
    ("scheduler.dispatch_us", "us", Lower),
    ("microbatch.groups_formed", "count", Lower),
    ("microbatch.mean_group_size", "jobs", Higher),
    ("microbatch.deadline_caps", "count", Lower),
    ("microbatch.plan_groups_us_per_job", "us", Lower),
    ("batch.exec_parallel_speedup", "ratio", Higher),
    ("batch.promoted_cache_hits", "count", Higher),
    ("batch.promoted_cache_misses", "count", Lower),
    ("batch.corrections_run_mean", "passes", Lower),
    ("batch.sim_share_factor", "fraction", Lower),
    ("batch.sim_share_residual", "fraction", Lower),
    ("batch.sim_share_correct", "fraction", Lower),
    ("stream.host_us_per_job", "us", Lower),
    ("service.host_us_per_job", "us", Lower),
    ("service.host_us_per_job_half", "us", Lower),
    ("service.growth_exp", "exponent", Lower),
    ("service.enqueued", "count", Higher),
    ("service.shed_reject", "count", Lower),
    ("service.shed_evict", "count", Lower),
    ("service.shed_overload", "count", Lower),
    ("service.degraded", "count", Lower),
    ("service.retries", "count", Lower),
    ("service.faults_injected", "count", Lower),
    ("service.breaker_opens", "count", Lower),
    ("service.breaker_probes", "count", Lower),
    ("service.breaker_closes", "count", Higher),
    ("service.quota_exhaustions", "count", Lower),
    ("resilient.host_ms_48", "ms", Lower),
    ("resilient.completed_frac", "fraction", Higher),
    ("obs.trace_overhead_ratio", "ratio", Lower),
    ("obs.events_total", "count", Lower),
    ("obs.recorder_ns_per_event", "ns", Lower),
    ("obs.metrics_ms_per_100k_events", "ms", Lower),
    ("obs.chrome_trace_ms_per_100k_events", "ms", Lower),
];

/// Why each workload is in the benchmark (one line, for the manifest).
const WHY: [&str; 4] = [
    "200k model-only 8x8 jobs through serve: host time is all service/pool/planner, none arithmetic",
    "8000 tiny functional tracker solves in bursts: per-launch, per-buffer and per-booking overhead",
    "12 mid-size mixed-precision refinement jobs on V100+P100: multi-double arithmetic, 2 threads",
    "19 plain lstsq calls at 64x64 (dd, qd, od), one thread, no pipeline: the paper's core experiment",
];

/// Seconds one run measures (the driver passes it back as `--seconds`).
pub const RUN_SECONDS: u64 = 9;

/// A metric set being filled in: name → value, checked against the
/// registry when rendered.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        let known = END_TO_END.iter().any(|m| m.name == name)
            || PER_LAYER.iter().any(|(n, _, _)| *n == name);
        assert!(known, "metric {name} is not in the registry");
        assert!(
            self.0.insert(name, value).is_none(),
            "metric {name} set twice"
        );
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// `(name, unit, better)` of every metric of one pass, in registry
/// order: end to end (`trace` off) or per layer (`trace` on).
pub fn rows(trace: bool) -> Vec<(&'static str, &'static str, Better)> {
    if trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, m.better))
            .collect()
    }
}

/// JSON number with all its digits (non-finite values have no JSON
/// form; they render as 0 and the caller flags the run incorrect).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}

/// The driver's result object: every end-to-end metric (`trace` off)
/// or every per-layer metric (`trace` on), in registry order.
pub fn result_line(
    trace: bool,
    values: &Values,
    correct: bool,
    attempted: usize,
    failed: usize,
) -> String {
    let mut complete = true;
    let mut metrics = String::new();
    for (i, (name, unit, _)) in rows(trace).into_iter().enumerate() {
        let v = values.get(name).unwrap_or(f64::NAN);
        complete &= v.is_finite();
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(v)
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        correct && complete,
        attempted.max(1),
        failed,
        metrics
    )
}

/// One human-readable line per metric: name, value, unit, direction.
pub fn print_metrics(workload: &str, trace: bool, values: &Values) {
    for (name, unit, better) in rows(trace) {
        let v = values.get(name).unwrap_or(f64::NAN);
        println!(
            "metric {workload} {name} {v:.6} {unit} ({} is better)",
            better.tag()
        );
    }
}

/// `BENCHMARK.json`, generated from the registry.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, (w, why)) in WORKLOADS.iter().zip(WHY).enumerate() {
        let sep = if i + 1 == WORKLOADS.len() { "" } else { "," };
        let _ = writeln!(out, "    {{\"name\": \"{w}\", \"why\": \"{why}\"}}{sep}");
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name,
            m.unit,
            m.better.tag(),
            m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 == PER_LAYER.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}{sep}",
            better.tag()
        );
    }
    out.push_str("  ]\n}\n");
    out
}

// ---------------------------------------------------------------------
// compare
// ---------------------------------------------------------------------

fn field<'a>(doc: &'a Json, path: &[&str]) -> Option<&'a Json> {
    path.iter().try_fold(doc, |j, k| j.get(k))
}

fn samples(metric: &Json) -> Vec<f64> {
    metric
        .get("samples")
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

fn lo(s: &[f64]) -> f64 {
    s.iter().copied().fold(f64::INFINITY, f64::min)
}

fn hi(s: &[f64]) -> f64 {
    s.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Spread of a sample as a share of its median (0 for < 2 samples).
fn spread(s: &[f64], median: f64) -> f64 {
    if s.len() < 2 || median == 0.0 {
        return 0.0;
    }
    (hi(s) - lo(s)) / median.abs()
}

/// Compare two `run` documents metric by metric and workload by
/// workload. Returns the report and whether anything regressed.
pub fn compare(a: &Json, b: &Json) -> (String, bool) {
    let mut out = String::new();
    let mut regressed = false;
    for key in ["seed", "quick"] {
        if a.get(key) != b.get(key) {
            let _ = writeln!(
                out,
                "note: the runs differ in `{key}`; exact metrics are only comparable on equal inputs"
            );
        }
    }
    let _ = writeln!(
        out,
        "{:<16} {:<24} {:>16} {:>16} {:>9}  verdict",
        "workload", "metric", "a", "b", "change"
    );
    for w in WORKLOADS {
        let (da, db) = (
            field(a, &["workloads", w, "input_digest"]),
            field(b, &["workloads", w, "input_digest"]),
        );
        if da != db {
            let _ = writeln!(out, "note: {w} ran different inputs (input_digest differs)");
        }
        for m in &END_TO_END {
            let (Some(ma), Some(mb)) = (
                field(a, &["workloads", w, "end_to_end", m.name]),
                field(b, &["workloads", w, "end_to_end", m.name]),
            ) else {
                let _ = writeln!(out, "{w:<16} {:<24} missing", m.name);
                regressed = true;
                continue;
            };
            let va = ma.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let vb = mb.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            // positive = b is worse
            let worse = match m.better {
                Lower => (vb - va) / va.abs(),
                Higher => (va - vb) / va.abs(),
            };
            let verdict = if m.host_clock {
                let (sa, sb) = (samples(ma), samples(mb));
                let noisy = spread(&sa, va).max(spread(&sb, vb)) > m.bound;
                // every repetition of b better than every one of a
                let separated = match m.better {
                    Lower => hi(&sb) < lo(&sa),
                    Higher => lo(&sb) > hi(&sa),
                };
                if noisy && !separated {
                    "unresolved"
                } else if worse > m.bound {
                    "regressed"
                } else if worse < -m.bound {
                    "improved"
                } else {
                    "unchanged"
                }
            } else if worse > EXACT {
                "regressed"
            } else if worse < -EXACT {
                "improved"
            } else {
                "unchanged"
            };
            regressed |= verdict == "regressed";
            let _ = writeln!(
                out,
                "{w:<16} {:<24} {va:>16.6} {vb:>16.6} {:>+8.2}%  {verdict}",
                m.name,
                100.0 * (vb - va) / va.abs()
            );
        }
        // counts and simulated layer metrics repeat exactly
        let mut differing = Vec::new();
        let mut equal = 0;
        for (name, unit, _) in &PER_LAYER {
            if !(*unit == "count" || name.contains(".sim_")) {
                continue;
            }
            let va = field(a, &["workloads", w, "per_layer", name, "value"]);
            let vb = field(b, &["workloads", w, "per_layer", name, "value"]);
            if va == vb && va.is_some() {
                equal += 1;
            } else {
                differing.push(*name);
            }
        }
        let _ = writeln!(
            out,
            "{w:<16} counts and sim layer metrics: {equal} bit-equal, {} differ {}",
            differing.len(),
            differing.join(" ")
        );
    }
    (out, regressed)
}
