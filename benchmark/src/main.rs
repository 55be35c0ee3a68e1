//! Two-clock benchmark of the multidouble-ls solve service.
//!
//! Four workloads, each measured on two clocks: `host_*` is wall time
//! on this machine (`std::time::Instant`), `sim_*` is simulated device
//! time from the cost model (bit-repeatable). The cost model is
//! **unvalidated against hardware** — the repo holds no timings from
//! the paper's GPUs — so no model-error figure is stated anywhere.
//!
//! ```text
//! mdls-benchmark --workload W --seed N --seconds S --trace 0|1 [--quick]
//! mdls-benchmark run [--seed N] [--seconds S] [--quick] [--out FILE]
//! mdls-benchmark compare A.json B.json
//! mdls-benchmark manifest
//! ```
//!
//! The first form measures one workload in this process and prints one
//! JSON object as its last line: the end-to-end metrics (`--trace 0`,
//! no observer attached) or the per-layer metrics (`--trace 1`, the
//! traced pass). `run` drives both passes of all four workloads, each
//! in its own child process of this binary, one at a time.

mod probes;
mod report;
mod runner;
mod spans;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::Instant;

use mdls_obs::json::{self, Json};
use mdls_pipeline::promoted_cache_stats;

use report::{Values, RUN_SECONDS};
use runner::{run_rep, Rep};
use spans::{Counter, Spans};
use workloads::{generate, Inputs, Payload, WORKLOADS};

/// Set-ups per measuring run (input generation + construction + one
/// untimed warm-up repetition each); `setup_s` is their median.
const SETUPS: usize = 2;
/// Fewest timed repetitions behind `host_wall_s`.
const MIN_REPS: usize = 3;

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: String::new(),
        seed: 2022,
        seconds: RUN_SECONDS as f64,
        trace: false,
        quick: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => o.workload = value()?.clone(),
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => o.trace = value()? == "1",
            "--out" => o.out = Some(PathBuf::from(value()?)),
            "--quick" => o.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(o)
}

fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|l| l.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Check results of one child: failed operations, failed checks, and
/// the standing invariant that simulated results repeat bit for bit.
#[derive(Default)]
struct Verdict {
    attempted: usize,
    failed: usize,
    check_failures: Vec<String>,
    first: Option<(runner::Sim, u64)>,
}

impl Verdict {
    fn take(&mut self, rep: &Rep, counted: bool, invariant: &str) {
        if counted {
            self.attempted += rep.submitted;
            self.failed += rep.failed;
        }
        for c in &rep.check_failures {
            if !self.check_failures.contains(c) {
                self.check_failures.push(c.clone());
            }
        }
        let first = *self.first.get_or_insert((rep.sim, rep.digest));
        if first != (rep.sim, rep.digest) && !self.check_failures.iter().any(|c| c == invariant) {
            self.check_failures.push(invariant.to_string());
        }
    }

    fn correct(&self) -> bool {
        self.check_failures.is_empty() && self.failed == 0
    }

    /// Print the verdict and the result line; the process exit code.
    fn finish(&self, workload: &str, trace: bool, values: &Values, detail: &str) -> ExitCode {
        report::print_metrics(workload, trace, values);
        for c in &self.check_failures {
            println!("check_failed {c}");
        }
        if self.failed > 0 {
            println!(
                "check_failed operations ({} of {})",
                self.failed, self.attempted
            );
        }
        println!("detail {detail}");
        println!(
            "{}",
            report::result_line(trace, values, self.correct(), self.attempted, self.failed)
        );
        if self.correct() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

fn set_sim(values: &mut Values, sim: &runner::Sim) {
    values.set("sim_makespan_ms", sim.makespan_ms);
    values.set("sim_solves_per_s", sim.solves_per_s);
    values.set("sim_p50_ms", sim.p50_ms);
    values.set("sim_p99_ms", sim.p99_ms);
    values.set("sim_priority_p99_ms", sim.priority_p99_ms);
    values.set("sim_deadline_met_frac", sim.deadline_met_frac);
    values.set("ok_frac", sim.ok_frac);
    values.set("sim_gflops", sim.gflops);
}

fn json_list(samples: &[f64]) -> String {
    let items: Vec<String> = samples.iter().map(|v| format!("{v:?}")).collect();
    format!("[{}]", items.join(", "))
}

/// The end-to-end pass: no observer attached, spans not stored.
fn measure(o: &Opts) -> ExitCode {
    let mut spans = Spans::new(false);
    let mut verdict = Verdict::default();
    let invariant = "sim_bit_equal_across_repetitions";
    let mut setups = Vec::new();
    let mut inputs: Option<Inputs> = None;
    // quick mode: one set-up, one repetition
    let (setups_wanted, reps_wanted, seconds) = if o.quick {
        (1, 1, 0.0)
    } else {
        (SETUPS, MIN_REPS, o.seconds)
    };
    for _ in 0..setups_wanted {
        drop(inputs.take());
        let t = Instant::now();
        let fresh = generate(&o.workload, o.seed, o.quick).expect("workload checked by caller");
        let warm_up = run_rep(&fresh, &None, &mut spans, true, false);
        setups.push(t.elapsed().as_secs_f64());
        verdict.take(&warm_up, false, invariant);
        inputs = Some(fresh);
    }
    let inputs = inputs.expect("at least one set-up ran");
    let mut walls = Vec::new();
    let mut sim = None;
    while walls.len() < reps_wanted || walls.iter().sum::<f64>() < seconds {
        let rep = run_rep(&inputs, &None, &mut spans, true, walls.is_empty());
        verdict.take(&rep, true, invariant);
        walls.push(rep.host_s);
        sim.get_or_insert(rep.sim);
    }
    let mut values = Values::default();
    values.set("setup_s", median(&setups));
    values.set("host_wall_s", median(&walls));
    values.set("host_peak_rss_mb", peak_rss_mb());
    set_sim(&mut values, &sim.expect("at least one repetition ran"));
    let lo = walls.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = walls.iter().copied().fold(0.0, f64::max);
    println!("input_digest {} {:016x}", o.workload, inputs.digest);
    println!(
        "samples {} host_wall_s n={} min={lo:.4} max={hi:.4}; setup_s n={}",
        o.workload,
        walls.len(),
        setups.len()
    );
    let detail = format!(
        "{{\"input_digest\": \"{:016x}\", \"samples\": {{\"setup_s\": {}, \"host_wall_s\": {}}}}}",
        inputs.digest,
        json_list(&setups),
        json_list(&walls)
    );
    verdict.finish(&o.workload, false, &values, &detail)
}

/// The traced pass: a warm-up, one untraced and one observed
/// repetition, the workload's own layer measurements, then the
/// direct-call probes.
fn trace(o: &Opts) -> ExitCode {
    let mut spans = Spans::new(true);
    let root = spans.enter(&format!("workload.{}", o.workload));
    let mut verdict = Verdict::default();
    let invariant = "observer_inert";
    let (inputs, _) = spans.time("setup.generate", |_| {
        generate(&o.workload, o.seed, o.quick).expect("workload checked by caller")
    });
    // untimed, like the end-to-end pass: the ratios below compare
    // repetitions that all run warm
    let (warm_up, _) = spans.time("rep.warm_up", |s| run_rep(&inputs, &None, s, true, false));
    verdict.take(&warm_up, false, invariant);
    let (plain, _) = spans.time("rep.untraced", |s| run_rep(&inputs, &None, s, true, true));
    verdict.take(&plain, true, invariant);
    let counter = Arc::new(Counter::default());
    let promoted_before = promoted_cache_stats();
    let (observed, _) = spans.time("rep.traced", |s| {
        run_rep(&inputs, &Some(counter.clone()), s, true, false)
    });
    let promoted_after = promoted_cache_stats();
    verdict.take(&observed, true, invariant);

    let mut v = Values::default();
    for (name, count) in counter.counts() {
        v.set(name, count);
    }
    v.set("pool.sim_utilization", observed.facts.pool_utilization);
    v.set("pool.sim_refunded_ms", observed.facts.pool_refunded_ms);
    v.set(
        "batch.promoted_cache_hits",
        (promoted_after.0 - promoted_before.0) as f64,
    );
    v.set(
        "batch.promoted_cache_misses",
        (promoted_after.1 - promoted_before.1) as f64,
    );
    v.set(
        "batch.corrections_run_mean",
        observed.facts.corrections_run_mean,
    );
    println!(
        "probe obs.trace_overhead_ratio = {:.4} s traced / {:.4} s untraced",
        observed.host_s, plain.host_s
    );
    v.set("obs.trace_overhead_ratio", observed.host_s / plain.host_s);
    v.set("core.digits_margin_min", observed.facts.digits_margin_min);

    // host time per job of the engine the workload calls; a layer the
    // workload does not call reads 0
    let per_job_us = |rep: &Rep| rep.host_s / rep.submitted as f64 * 1e6;
    let (mut service_us, mut half_us, mut growth, mut stream_us, mut speedup) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    match &inputs.payload {
        Payload::Service { jobs, .. } => {
            let half = workloads::service_model(o.seed, jobs.len() / 2);
            let (half_rep, _) =
                spans.time("rep.half_size", |s| run_rep(&half, &None, s, true, false));
            service_us = per_job_us(&plain);
            half_us = per_job_us(&half_rep);
            growth = (plain.host_s / half_rep.host_s).log2();
            println!(
                "probe service.growth_exp = log2({:.4} s at {} jobs / {:.4} s at {} jobs)",
                plain.host_s,
                jobs.len(),
                half_rep.host_s,
                jobs.len() / 2
            );
        }
        Payload::Stream { .. } => stream_us = per_job_us(&plain),
        Payload::Batch { .. } => {
            let (serial, _) = spans.time("rep.host_serial", |s| {
                run_rep(&inputs, &None, s, false, false)
            });
            verdict.take(&serial, false, "parallel_equals_serial");
            speedup = serial.host_s / plain.host_s;
            println!(
                "probe batch.exec_parallel_speedup = {:.4} s serial / {:.4} s parallel",
                serial.host_s, plain.host_s
            );
        }
        Payload::Ladder { .. } => {}
    }
    v.set("service.host_us_per_job", service_us);
    v.set("service.host_us_per_job_half", half_us);
    v.set("service.growth_exp", growth);
    v.set("stream.host_us_per_job", stream_us);
    v.set("batch.exec_parallel_speedup", speedup);

    // the ladder workload measures the per-rung costs itself; the
    // others run three solves per rung as a probe
    let ladder = if matches!(inputs.payload, Payload::Ladder { .. }) {
        let mut both = plain.facts.ladder.clone();
        for (all, more) in both.iter_mut().zip(&observed.facts.ladder) {
            all.extend(more);
        }
        both
    } else {
        spans
            .time("probe.core.ladder", |s| probes::ladder_samples(s, o.quick))
            .0
    };
    probes::core_ladder(&mut v, &ladder);
    let ctx = probes::Ctx::of(&inputs);
    probes::run_all(&ctx, o.quick, &mut v, &mut spans);
    spans.exit(root);

    println!("self time by span name (s, calls):");
    for (name, secs, calls) in spans.self_times().into_iter().take(12) {
        println!("  {name:<40} {secs:>9.4} {calls:>7}");
    }
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let file = dir.join(format!("trace-{}.json", o.workload));
    match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&file, spans.chrome_trace())) {
        Ok(()) => println!("trace written to {}", file.display()),
        Err(e) => eprintln!("could not write {}: {e}", file.display()),
    }
    let detail = format!("{{\"input_digest\": \"{:016x}\"}}", inputs.digest);
    verdict.finish(&o.workload, true, &v, &detail)
}

// ---------------------------------------------------------------------
// run: both passes of every workload, one child process at a time
// ---------------------------------------------------------------------

/// Spawn this binary for one pass, echo its output, and return its
/// `detail` and result objects.
fn child(o: &Opts, workload: &str, trace: bool) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if o.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = text.lines().collect();
    let (result, shown) = lines.split_last().ok_or("child printed nothing")?;
    for line in shown.iter().filter(|l| !l.starts_with("detail ")) {
        println!("{line}");
    }
    let detail = shown
        .iter()
        .find_map(|l| l.strip_prefix("detail "))
        .ok_or("child printed no detail line")?;
    let parsed = (json::parse(detail)?, json::parse(result)?);
    if !out.status.success() {
        println!("check_failed {workload} (child exited with {})", out.status);
    }
    Ok(parsed)
}

/// Registry facts of a metric merged into the child's `{value, unit}`.
fn doc_metrics(result: &Json, trace: bool, samples: Option<&Json>) -> String {
    let mut out = String::new();
    for (i, (name, _, better)) in report::rows(trace).into_iter().enumerate() {
        let better = better.tag();
        let m = result.get("metrics").and_then(|m| m.get(name));
        let value = m.and_then(|m| m.get("value")).and_then(Json::as_f64);
        let unit = m.and_then(|m| m.get("unit")).and_then(Json::as_str);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {:?}, \"unit\": \"{}\", \"better\": \"{better}\"",
            value.unwrap_or(0.0),
            unit.unwrap_or("")
        );
        if let Some(s) = samples.and_then(|s| s.get(name)).and_then(Json::as_arr) {
            let s: Vec<f64> = s.iter().filter_map(Json::as_f64).collect();
            let _ = write!(out, ", \"samples\": {}", json_list(&s));
        }
        out.push('}');
    }
    out
}

fn run(o: &Opts) -> ExitCode {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "mdls-benchmark run: seed {} quick {} host threads available {nproc}",
        o.seed, o.quick
    );
    if o.quick {
        println!("quick mode: sizes / 20, one repetition - numbers are NOT comparable");
    }
    let mut doc = format!(
        "{{\"schema\": 1, \"seed\": {}, \"quick\": {}, \"comparable\": {}, \"nproc\": {nproc}, \
         \"cost_model\": \"unvalidated against hardware\", \"workloads\": {{",
        o.seed, o.quick, !o.quick
    );
    let mut all_correct = true;
    for (i, w) in WORKLOADS.iter().enumerate() {
        let passes = child(o, w, false).and_then(|e2e| Ok((e2e, child(o, w, true)?)));
        let ((detail, e2e), (_, layers)) = match passes {
            Ok(p) => p,
            Err(e) => {
                eprintln!("{w}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let ok = |j: &Json| j.get("correct") == Some(&Json::Bool(true));
        all_correct &= ok(&e2e) && ok(&layers);
        let count = |k: &str| e2e.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            doc,
            "{sep}\"{w}\": {{\"input_digest\": \"{}\", \"correct\": {}, \"attempted\": {}, \
             \"failed\": {}, \"end_to_end\": {{{}}}, \"per_layer\": {{{}}}}}",
            detail
                .get("input_digest")
                .and_then(Json::as_str)
                .unwrap_or(""),
            ok(&e2e) && ok(&layers),
            count("attempted"),
            count("failed"),
            doc_metrics(&e2e, false, detail.get("samples")),
            doc_metrics(&layers, true, None),
        );
    }
    doc.push_str("}}");
    if let Some(path) = &o.out {
        if let Err(e) = std::fs::write(path, format!("{doc}\n")) {
            eprintln!("could not write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("results written to {}", path.display());
    }
    println!("{doc}");
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare(files: &[String]) -> ExitCode {
    let load = |p: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        json::parse(text.trim_end()).map_err(|e| format!("{p}: {e}"))
    };
    let [a, b] = files else {
        eprintln!("usage: mdls-benchmark compare A.json B.json");
        return ExitCode::from(2);
    };
    match (load(a), load(b)) {
        (Ok(a), Ok(b)) => {
            let (table, regressed) = report::compare(&a, &b);
            print!("{table}");
            if regressed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = || {
        eprintln!(
            "usage: mdls-benchmark --workload <{}> --seed N --seconds S --trace 0|1 [--quick]\n\
             \x20      mdls-benchmark run [--seed N] [--seconds S] [--quick] [--out FILE]\n\
             \x20      mdls-benchmark compare A.json B.json\n\
             \x20      mdls-benchmark manifest",
            WORKLOADS.join("|")
        );
        ExitCode::from(2)
    };
    match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", report::manifest());
            ExitCode::SUCCESS
        }
        Some("compare") => compare(&args[1..]),
        Some("run") => match parse_opts(&args[1..]) {
            Ok(o) if o.workload.is_empty() => run(&o),
            _ => usage(),
        },
        Some(_) => match parse_opts(&args) {
            Ok(o) if WORKLOADS.contains(&o.workload.as_str()) => {
                if o.trace {
                    trace(&o)
                } else {
                    measure(&o)
                }
            }
            Ok(o) => {
                eprintln!("unknown workload `{}`", o.workload);
                usage()
            }
            Err(e) => {
                eprintln!("{e}");
                usage()
            }
        },
        None => usage(),
    }
}
