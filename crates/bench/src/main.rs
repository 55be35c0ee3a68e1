//! `repro` — regenerate the paper's tables and figures on the simulator.
//!
//! ```text
//! repro <command>
//!   table1 .. table11   one table (paper numbering)
//!   fig1 .. fig5        one figure (text rendering)
//!   verify              functional runs with residual checks
//!   ablate-smem         shared-memory ablation
//!   ablate-invert       tile-inversion ablation
//!   throughput          batched pipeline: scaling, batch depth, planner,
//!                       direct-vs-refinement A/B, fused-vs-singleton
//!                       micro-batching A/B, greedy-vs-SECT
//!                       dispatch-policy A/B, stage-overlap, online
//!                       re-booking, timeline-compaction and
//!                       host-staging A/Bs, bursty deadline misses;
//!                       writes target/bench-throughput.json
//!   throughput-smoke    policy A/B at a small job count + refinement A/B
//!                       + micro-batching A/B + stage-overlap,
//!                       re-booking, compaction and staging A/Bs +
//!                       bench-throughput.json validation (CI)
//!   trace               record a bursty tracker stream, write the
//!                       Chrome-trace JSON (chrome://tracing / Perfetto)
//!                       and print latency / counter / calibration tables
//!   trace-smoke         record a small stream and validate the exported
//!                       trace: one prep + one compute track per device (CI)
//!   chaos               seeded device-fault A/B on 4 V100s: fault-free vs
//!                       fail-the-batch vs retry/re-dispatch (completion
//!                       rate, disposition taxonomy, makespan overhead);
//!                       writes target/bench-chaos.json
//!   chaos-smoke         small chaos A/B asserting recovery strictly beats
//!                       fail-all on completion rate + bench-chaos.json
//!                       validation (CI)
//!   service             sustained-load multi-tenant shell: 10^5 jobs,
//!                       6 tenants (one adversarial burster) on 4 V100s,
//!                       weighted-fair vs FIFO A/B with per-tenant tails,
//!                       shed/degrade taxonomy and breaker trips;
//!                       writes target/bench-service.json
//!   service-smoke       small service A/B asserting weighted fair strictly
//!                       beats FIFO on the premium tenant's p99, the burster
//!                       is shed at its bounded queue, the breaker cycles and
//!                       bench-service.json validates (CI)
//!   all                 everything, in paper order
//! ```

use mdls_bench::{ablate, chaos, experiments as ex, figures, service, throughput, trace, verify};

fn print_tables(ts: &[mdls_bench::TextTable]) {
    for t in ts {
        println!("{}", t.render());
    }
}

/// Write machine-readable results to `target/bench-<name>.json`,
/// validating the document round-trips through the JSON reader first
/// (the smoke contract).
fn write_json(name: &str, doc: String) {
    if let Err(e) = mdls_obs::json::parse(&doc) {
        eprintln!("bench-{name}.json does not parse: {e}");
        std::process::exit(1);
    }
    let path = std::path::Path::new("target").join(format!("bench-{name}.json"));
    match std::fs::create_dir_all("target").and_then(|()| std::fs::write(&path, &doc)) {
        Ok(()) => println!("machine-readable results written to {}", path.display()),
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

fn run(cmd: &str) -> bool {
    match cmd {
        "table1" => println!("{}", ex::table1().render()),
        "table2" => println!("{}", ex::table2().render()),
        "table3" => println!("{}", ex::table3().render()),
        "table4" => print_tables(&ex::table4()),
        "table5" => print_tables(&ex::table5()),
        "table6" => print_tables(&ex::table6()),
        "table7" => print_tables(&ex::table7()),
        "table8" => println!("{}", ex::table8().render()),
        "table9" => print_tables(&ex::table9()),
        "table10" => println!("{}", ex::table10().render()),
        "table11" => print_tables(&ex::table11()),
        "fig1" => println!("{}", figures::fig1()),
        "fig2" => println!("{}", figures::fig2()),
        "fig3" => println!("{}", figures::fig3()),
        "fig4" => println!("{}", figures::fig4()),
        "fig5" => println!("{}", figures::fig5()),
        "verify" => println!("{}", verify::report()),
        "ablate-smem" => println!("{}", ablate::smem_ablation().render()),
        "ablate-invert" => println!("{}", ablate::invert_ablation().render()),
        "throughput" => {
            println!("{}", throughput::throughput_scaling().render());
            println!("{}", throughput::batch_size_sweep().render());
            println!("{}", throughput::planner_choices().render());
            println!("{}", throughput::refinement_ab().render());
            println!("{}", throughput::microbatch_ab().render());
            println!("{}", throughput::microbatch_queue_ab(256).render());
            println!("{}", throughput::policy_ab(60).render());
            println!("{}", throughput::stage_overlap_ab(48).render());
            println!("{}", throughput::rebooking_ab(24).render());
            println!("{}", throughput::timeline_ab(24).render());
            println!("{}", throughput::staging_ab(48).render());
            println!("{}", throughput::bursty_deadline_table(36).render());
            write_json("throughput", throughput::bench_json(24));
        }
        "throughput-smoke" => {
            println!("{}", throughput::policy_ab(24).render());
            println!("{}", throughput::refinement_ab().render());
            println!("{}", throughput::microbatch_ab().render());
            println!("{}", throughput::microbatch_queue_ab(64).render());
            println!("{}", throughput::stage_overlap_ab(24).render());
            println!("{}", throughput::rebooking_ab(12).render());
            println!("{}", throughput::timeline_ab(12).render());
            println!("{}", throughput::staging_ab(24).render());
            write_json("throughput", throughput::bench_json(8));
        }
        "chaos" => {
            println!("{}", chaos::chaos_table(48).render());
            write_json("chaos", chaos::chaos_json(24));
        }
        "chaos-smoke" => {
            match chaos::chaos_smoke() {
                Ok(msg) => println!("{msg}"),
                Err(e) => {
                    eprintln!("chaos-smoke failed: {e}");
                    std::process::exit(1);
                }
            }
            write_json("chaos", chaos::chaos_json(12));
        }
        "service" => {
            println!("{}", service::service_table(100_000).render());
            write_json("service", service::service_json(20_000));
        }
        "service-smoke" => {
            match service::service_smoke() {
                Ok(msg) => println!("{msg}"),
                Err(e) => {
                    eprintln!("service-smoke failed: {e}");
                    std::process::exit(1);
                }
            }
            write_json("service", service::service_json(2_000));
        }
        "trace" => {
            let r = trace::trace_report(48);
            print_tables(&r.tables);
            let path = std::path::Path::new("target").join("repro-trace.json");
            let write = std::fs::create_dir_all("target")
                .and_then(|()| std::fs::write(&path, &r.trace_json));
            match write {
                Ok(()) => println!(
                    "chrome trace written to {} — open in chrome://tracing or ui.perfetto.dev",
                    path.display()
                ),
                Err(e) => {
                    eprintln!("cannot write {}: {e}", path.display());
                    std::process::exit(1);
                }
            }
        }
        "trace-smoke" => match trace::trace_smoke() {
            Ok(msg) => println!("{msg}"),
            Err(e) => {
                eprintln!("trace-smoke failed: {e}");
                std::process::exit(1);
            }
        },
        "all" => {
            for c in [
                "table1",
                "table2",
                "table3",
                "table4",
                "fig1",
                "table5",
                "table6",
                "fig2",
                "table7",
                "fig3",
                "table8",
                "table9",
                "fig4",
                "table10",
                "fig5",
                "table11",
                "ablate-smem",
                "ablate-invert",
                "throughput",
                "chaos",
                "service",
                "verify",
            ] {
                run(c);
            }
        }
        _ => return false,
    }
    true
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: repro <table1..table11 | fig1..fig5 | verify | ablate-smem | ablate-invert | throughput | throughput-smoke | trace | trace-smoke | chaos | chaos-smoke | service | service-smoke | all>");
        std::process::exit(2);
    }
    for a in &args {
        if !run(a) {
            eprintln!("unknown command {a:?}");
            std::process::exit(2);
        }
    }
}
