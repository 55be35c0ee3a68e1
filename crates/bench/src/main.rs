//! `repro` — regenerate the paper's tables and figures on the simulator.
//!
//! ```text
//! repro <command>
//!   table1 .. table11   one table (paper numbering)
//!   fig1 .. fig5        one figure (text rendering)
//!   verify              functional runs with residual checks
//!   ablate-smem         shared-memory ablation
//!   ablate-invert       tile-inversion ablation
//!   all                 everything, in paper order
//! ```

use mdls_bench::{ablate, experiments as ex, figures, verify};

fn print_tables(ts: &[mdls_bench::TextTable]) {
    for t in ts {
        println!("{}", t.render());
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
        eprintln!("usage: repro <table1..table11 | fig1..fig5 | verify | ablate-smem | ablate-invert | all>");
        std::process::exit(2);
    }
    for a in &args {
        if !run(a) {
            eprintln!("unknown command {a:?}");
            std::process::exit(2);
        }
    }
}
