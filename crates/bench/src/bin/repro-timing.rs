//! Timing-backend comparison: the high-concurrency sweep executed for
//! every scheme × scheduling policy × timing backend, all through the
//! `regwin-sweep` engine (content-addressed cache, worker pool,
//! quarantine). The summary — per-backend execution-cycle series plus
//! flat-vs-pipeline context-switch cost deltas under FIFO — is written
//! to the deterministic `BENCH_timing.json` artifact.
//!
//! The `s20` backend reproduces the paper's flat Table-2 accounting
//! byte-for-byte (the differential suite compares its artifacts against
//! the committed ones); the `pipeline` backend replaces flat per-window
//! transfer constants with load/store-queue occupancy and scoreboard
//! hazards, so its switch costs depend on burst shape instead of the
//! Table-2 constants.
//!
//! Every number derives purely from simulated cycles, so the file is
//! byte-identical across `--jobs` counts, cache states and machines.
//!
//! Accepts the common repro flags (`--scale`, `--quick`, `--out <dir>`,
//! `--jobs`, `--cache-dir`/`--no-cache`, ...); `--policy` and
//! `--timing` are ignored here because this binary always sweeps every
//! policy and every backend.

use regwin_bench::{write_bench_json, Args};
use regwin_core::figures::Sweep;
use regwin_core::report::Series;
use regwin_machine::TimingKind;
use regwin_rt::SchedulingPolicy;
use regwin_sweep::json::{obj, Value};
use std::path::PathBuf;

fn main() {
    let args = Args::parse();
    let engine = args.engine();
    let windows = args.windows();

    // One high-concurrency sweep per (backend, policy); FIFO series are
    // kept per backend for the switch-cost delta section.
    let mut backend_rows = Vec::new();
    let mut fifo_switch: Vec<(TimingKind, Vec<Series>)> = Vec::new();
    for kind in TimingKind::ALL {
        let mut policy_rows = Vec::new();
        for policy in SchedulingPolicy::ALL {
            eprintln!("{kind} / {policy} sweep ({}% corpus)...", args.scale);
            let before = engine.quarantine().len();
            let spec = Sweep::high_spec(args.corpus(), &windows, policy).with_timing(kind);
            let records = engine.run_matrix(&spec).unwrap_or_else(|e| {
                eprintln!("error: {kind}/{policy} sweep failed: {e}");
                std::process::exit(1);
            });
            let jobs = records.len();
            let quarantined = engine.quarantine().len() - before;
            // The per-cell health line timing-smoke CI greps for.
            println!("timing {kind} policy {policy}: {jobs} runs, {quarantined} quarantined");
            let sweep = Sweep::from_records(records);
            if policy == SchedulingPolicy::Fifo {
                fifo_switch.push((kind, sweep.avg_switch_series()));
            }
            policy_rows.push(obj(vec![
                ("policy", Value::Str(policy.name().to_string())),
                ("series", series_json(&sweep.execution_time_series())),
            ]));
        }
        backend_rows.push(obj(vec![
            ("backend", Value::Str(kind.name().to_string())),
            ("policies", Value::Arr(policy_rows)),
        ]));
    }

    // Flat-vs-pipeline switch-cost deltas under FIFO: for every
    // (scheme, granularity) series and window count, the average
    // context-switch cycles under each backend and their difference.
    // Positive delta: the pipeline's queue-depth-dependent flushes cost
    // more than the flat Table-2 constants; negative: less.
    let (s20_switch, pipe_switch) = (&fifo_switch[0].1, &fifo_switch[1].1);
    let mut delta_rows = Vec::new();
    println!("\n{:<14} {:>4} {:>12} {:>12} {:>10}", "series", "w", "s20", "pipeline", "delta");
    for series in s20_switch {
        for &(w, flat) in &series.points {
            let Some(pipe) = value_at(pipe_switch, &series.label, w) else { continue };
            println!("{:<14} {w:>4} {flat:>12.1} {pipe:>12.1} {:>10.1}", series.label, pipe - flat);
            delta_rows.push(obj(vec![
                ("series", Value::Str(series.label.clone())),
                ("nwindows", Value::Int(w as u64)),
                ("s20_avg_switch", Value::Float(flat)),
                ("pipeline_avg_switch", Value::Float(pipe)),
                ("delta", Value::Float(pipe - flat)),
            ]));
        }
    }

    let doc = obj(vec![
        ("schema", Value::Int(1)),
        ("kind", Value::Str("timing_backends".to_string())),
        ("quick", Value::Bool(args.quick)),
        ("scale_pct", Value::Int(args.scale as u64)),
        ("windows", Value::Arr(windows.iter().map(|&w| Value::Int(w as u64)).collect())),
        (
            "backends",
            Value::Arr(TimingKind::ALL.iter().map(|t| Value::Str(t.name().to_string())).collect()),
        ),
        (
            "policies",
            Value::Arr(
                SchedulingPolicy::ALL.iter().map(|p| Value::Str(p.name().to_string())).collect(),
            ),
        ),
        ("rows", Value::Arr(backend_rows)),
        ("switch_cost_deltas", Value::Arr(delta_rows)),
    ]);
    let path = args.out_dir.clone().unwrap_or_else(|| PathBuf::from(".")).join("BENCH_timing.json");
    write_bench_json(&path, &doc);
    let s = engine.summary();
    eprintln!(
        "sweep: {} jobs, {} cache hits, {} executed, {} quarantined",
        s.jobs, s.cache_hits, s.cache_misses, s.quarantined
    );
}

/// Serializes execution-cycle series with integer cycle values.
fn series_json(series: &[Series]) -> Value {
    Value::Arr(
        series
            .iter()
            .map(|s| {
                obj(vec![
                    ("label", Value::Str(s.label.clone())),
                    (
                        "points",
                        Value::Arr(
                            s.points
                                .iter()
                                .map(|&(w, cycles)| {
                                    obj(vec![
                                        ("nwindows", Value::Int(w as u64)),
                                        ("cycles", Value::Int(cycles as u64)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    )
}

/// The value of `label`'s series at window count `w`, if present.
fn value_at(series: &[Series], label: &str, w: usize) -> Option<f64> {
    series
        .iter()
        .find(|s| s.label == label)?
        .points
        .iter()
        .find(|&&(pw, _)| pw == w)
        .map(|&(_, v)| v)
}
