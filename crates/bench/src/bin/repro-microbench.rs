//! Machine-level micro-benchmark: times the simulator's primitive
//! operations (trap-free save/restore, overflow, underflow, context
//! switch, audit pass, scheduler enqueue/dispatch, wait-free counter
//! publication) with window auditing off and on, and writes the
//! deterministic-order `BENCH_machine.json` document.
//!
//! Usage: `repro-microbench [--quick] [--out <file>]`

use regwin_bench::microbench::{microbench_to_json, run_microbench, MicrobenchConfig};
use regwin_bench::write_bench_json;
use std::path::PathBuf;

fn main() {
    let mut quick = false;
    let mut out = PathBuf::from("BENCH_machine.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => {
                out = PathBuf::from(args.next().unwrap_or_else(|| {
                    eprintln!("--out needs a path");
                    std::process::exit(2);
                }));
            }
            "--help" | "-h" => {
                println!("usage: repro-microbench [--quick] [--out <file>]");
                return;
            }
            other => {
                eprintln!("unknown flag {other}");
                eprintln!("usage: repro-microbench [--quick] [--out <file>]");
                std::process::exit(2);
            }
        }
    }
    let cfg = if quick { MicrobenchConfig::quick() } else { MicrobenchConfig::full() };
    let ms = run_microbench(cfg);
    println!("{:<10} {:>6} {:>8} {:>14} {:>12}", "op", "audit", "ops", "cycles/op", "ns/op");
    for m in &ms {
        println!(
            "{:<10} {:>6} {:>8} {:>14.2} {:>12.1}",
            m.op,
            if m.audit { "on" } else { "off" },
            m.ops,
            m.cycles_per_op,
            m.ns_per_op
        );
    }
    write_bench_json(&out, &microbench_to_json(cfg, quick, &ms));
}
