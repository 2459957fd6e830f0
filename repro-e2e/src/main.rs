//! `repro-e2e` — the end-to-end host-time benchmark.
//!
//! Each invocation runs one reference workload in process through the
//! same public entry points the repro binaries and the daemon use, and
//! prints every end-to-end metric as `name value unit`, the correctness
//! checks, and a final JSON result line. `--trace 1` instead runs the
//! workload once more under spans and prints the per-layer metrics,
//! measured from outside by timing calls into each layer.
//!
//! ```text
//! repro-e2e --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1]
//!           [--trace-dir <dir>]
//! repro-e2e --all [--seed <n>] [--seconds <s>] [--trace 0|1]
//! repro-e2e --repeat <n> (--workload <name> | --all) [--seed <n>] ...
//! repro-e2e --compare <parent.json> <change.json>
//! ```
//!
//! Workloads: `sweep_fifo`, `sweep_ws`, `cluster_pe`, `fuzz_farm`,
//! `serve_warm` (see README.md for why each exists).

mod cluster;
mod expected;
mod fuzz;
mod harness;
mod layers;
mod rusage;
mod serve;
mod span;
mod stats;
mod sweep;
mod tooling;

use harness::{Env, Size, WORKLOADS};
use std::path::PathBuf;

const USAGE: &str = "usage: repro-e2e --workload <name> [--seed <n>] [--seconds <s>] \
[--trace 0|1] [--trace-dir <dir>]
       repro-e2e --all [options]
       repro-e2e --repeat <n> (--workload <name> | --all) [options]
       repro-e2e --compare <parent.json> <change.json>
workloads: sweep_fifo sweep_ws cluster_pe fuzz_farm serve_warm";

/// Scratch space for every run, inside the working directory.
const SCRATCH: &str = ".e2e-tmp";

#[derive(Debug, Default)]
struct Opts {
    workload: Option<String>,
    all: bool,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    trace_dir: Option<PathBuf>,
    repeat: Option<usize>,
    compare: Option<(PathBuf, PathBuf)>,
    /// Run the workload in this process (set on the child a run spawns).
    in_process: bool,
}

fn usage(problem: &str) -> ! {
    eprintln!("error: {problem}\n{USAGE}");
    std::process::exit(2);
}

fn parse_u64(v: &str) -> Option<u64> {
    match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => v.parse().ok(),
    }
}

fn parse_args() -> Opts {
    let mut o = Opts { seconds: 10.0, ..Opts::default() };
    let mut it = std::env::args().skip(1);
    let value = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" => {
                let w = value(&mut it, "--workload");
                if !WORKLOADS.contains(&w.as_str()) {
                    usage(&format!("unknown workload {w:?}"));
                }
                o.workload = Some(w);
            }
            "--all" => o.all = true,
            "--seed" => {
                let v = value(&mut it, "--seed");
                o.seed = Some(parse_u64(&v).unwrap_or_else(|| usage("--seed needs an integer")));
            }
            "--seconds" => {
                let v = value(&mut it, "--seconds");
                o.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .unwrap_or_else(|| usage("--seconds needs a non-negative number"));
            }
            "--trace" => {
                o.trace = match value(&mut it, "--trace").as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                };
            }
            "--trace-dir" => o.trace_dir = Some(PathBuf::from(value(&mut it, "--trace-dir"))),
            tooling::IN_PROCESS => o.in_process = true,
            "--repeat" => {
                let v = value(&mut it, "--repeat");
                o.repeat = Some(
                    v.parse()
                        .ok()
                        .filter(|&n| n > 0)
                        .unwrap_or_else(|| usage("--repeat needs n > 0")),
                );
            }
            "--compare" => {
                let a = value(&mut it, "--compare");
                let b = value(&mut it, "--compare");
                o.compare = Some((PathBuf::from(a), PathBuf::from(b)));
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if o.compare.is_none() && o.all == o.workload.is_some() {
        usage("give exactly one of --workload <name> and --all");
    }
    o
}

/// The flags a child run inherits.
fn child_args(o: &Opts) -> Vec<String> {
    let mut args = vec![
        "--seconds".into(),
        o.seconds.to_string(),
        "--trace".into(),
        u8::from(o.trace).to_string(),
    ];
    if let Some(dir) = &o.trace_dir {
        args.extend(["--trace-dir".into(), dir.display().to_string()]);
    }
    args
}

fn run(o: Opts) -> Result<i32, String> {
    if let Some((parent, change)) = &o.compare {
        let read =
            |p: &PathBuf| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
        let (line, regressed) = tooling::compare(
            &tooling::load_series(&read(parent)?)?,
            &tooling::load_series(&read(change)?)?,
        );
        println!("{line}");
        return Ok(i32::from(regressed));
    }
    let selected: Vec<&str> = match &o.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    if let Some(n) = o.repeat {
        let (series, correct) = tooling::repeat(&selected, n, o.seed, &child_args(&o))?;
        println!("{}", tooling::summarize(&series, n));
        return Ok(if correct { 0 } else { 1 });
    }
    if o.all {
        let mut args = child_args(&o);
        if let Some(seed) = o.seed {
            args.extend(["--seed".into(), seed.to_string()]);
        }
        let mut correct = true;
        let mut results = Vec::new();
        for w in WORKLOADS {
            let outcome = tooling::run_child(w, &args)?;
            correct &= outcome.correct;
            let value =
                regwin_sweep::json::parse(&outcome.json_line()).map_err(|e| e.to_string())?;
            results.push((w.to_string(), value));
        }
        println!("{}", regwin_sweep::json::Value::Obj(results).to_json());
        return Ok(if correct { 0 } else { 1 });
    }

    let workload = selected[0];
    if !o.in_process {
        return tooling::rerun_in_child();
    }
    let env = Env {
        seed: o.seed.unwrap_or_else(|| harness::default_seed(workload)),
        size: Size::Full,
        dir: PathBuf::from(SCRATCH).join(format!("{workload}-{}", std::process::id())),
    };
    let outcome = if o.trace {
        harness::run_traced(workload, &env, o.trace_dir.as_deref())
    } else {
        harness::run_measured(workload, &env, o.seconds)
    };
    // Every daemon and worker has been joined by now; the scratch
    // directory is the run's only leftover.
    let _ = std::fs::remove_dir_all(&env.dir);
    let _ = std::fs::remove_dir(SCRATCH);
    let outcome = outcome?;
    println!("{}", outcome.json_line());
    Ok(if outcome.correct { 0 } else { 1 })
}

fn main() {
    let opts = parse_args();
    std::process::exit(run(opts).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        1
    }));
}

#[cfg(test)]
mod tests {
    use super::harness::{self, default_seed, END_TO_END, WORKLOADS};
    use super::*;
    use regwin_sweep::json::{self, Value};
    use std::time::{Duration, Instant};

    fn scratch(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("repro-e2e-test-{}-{tag}", std::process::id()))
    }

    #[test]
    fn every_workload_runs_at_toy_size_with_every_check() {
        let t = Instant::now();
        for w in WORKLOADS {
            let env = Env { seed: default_seed(w), size: Size::Toy, dir: scratch(w) };
            let out = harness::run_measured(w, &env, 0.0);
            let _ = std::fs::remove_dir_all(&env.dir);
            let out = out.unwrap_or_else(|e| panic!("{w}: {e}"));
            assert!(out.correct && out.failed == 0 && out.attempted > 0, "{w}: {out:?}");
            let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
            let want: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
            assert_eq!(names, want, "{w}");
            assert!(out.metrics.iter().all(|m| m.value > 0.0), "{w}: {out:?}");
        }
        assert!(t.elapsed() < Duration::from_secs(15), "smoke run took {:?}", t.elapsed());
    }

    #[test]
    fn traced_toy_run_reports_every_layer_metric() {
        let env = Env { seed: 3, size: Size::Toy, dir: scratch("traced") };
        let out = harness::run_traced("sweep_fifo", &env, Some(&env.dir.join("trace")));
        let spans = std::fs::read_to_string(env.dir.join("trace/sweep_fifo.spans.jsonl"));
        let _ = std::fs::remove_dir_all(&env.dir);
        let out = out.unwrap();
        assert!(out.correct, "{out:?}");
        assert_eq!(out.metrics.len(), layers::CATALOGUE.len());
        assert!(spans.unwrap().lines().count() > 10);
    }

    #[test]
    fn benchmark_json_matches_the_code() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let list = |k: &str| doc.get(k).and_then(Value::as_arr).unwrap().to_vec();
        let names = |k: &str| -> Vec<String> {
            list(k)
                .iter()
                .map(|m| m.get("name").and_then(Value::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        for (m, &(name, unit, better, bound)) in list("end_to_end").iter().zip(END_TO_END) {
            assert_eq!(m.get("name").and_then(Value::as_str), Some(name));
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit));
            assert_eq!(m.get("better").and_then(Value::as_str), Some(better));
            assert_eq!(m.get("bound").and_then(Value::as_f64), Some(bound));
        }
        assert_eq!(list("end_to_end").len(), END_TO_END.len());
        let per_layer = list("per_layer");
        assert_eq!(per_layer.len(), layers::CATALOGUE.len());
        for (m, &(name, unit, better)) in per_layer.iter().zip(layers::CATALOGUE) {
            assert_eq!(m.get("name").and_then(Value::as_str), Some(name));
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit));
            assert_eq!(m.get("better").and_then(Value::as_str), Some(better));
        }
    }
}
