//! What every workload shares: a measured phase of whole passes, each on
//! a freshly timed set-up, the correctness gate, and the output format.

use crate::layers::{self, LayerMetrics};
use crate::rusage::Usage;
use crate::span::{self_times, Recorder};
use crate::stats::{median, percentile};
use regwin_sweep::json::{self, obj, Value};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Sweep workers and closed-loop clients per workload: the core count of
/// the machine the benchmark was sized on. Fixed, so runs on different
/// hosts do the same work.
pub const WORKERS: usize = 2;

/// Every end-to-end metric: name, unit, which direction is better, and
/// the bound — the share of the parent's median by which the metric may
/// worsen before a change counts as a regression.
pub const END_TO_END: &[(&str, &str, &str, f64)] = &[
    ("setup_s", "s", "lower", 0.25),
    ("pass_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.15),
    ("op_ms_p50", "ms", "lower", 0.25),
    ("op_ms_p95", "ms", "lower", 0.25),
];

/// Input size: the frozen reference size, or a toy size for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The size every reported number is measured at.
    Full,
    /// A few cells per workload: exercises every path and check quickly
    /// (the smoke test's size).
    #[cfg_attr(not(test), allow(dead_code))]
    Toy,
}

/// Where and on what a workload runs.
#[derive(Debug, Clone)]
pub struct Env {
    /// The workload seed every input derives from.
    pub seed: u64,
    /// Input size.
    pub size: Size,
    /// A scratch directory the workload owns (removed after the run).
    pub dir: PathBuf,
}

/// One pass of the measured phase.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Latency of each operation (job, scenario or request), ms.
    pub op_ms: Vec<f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: quarantined jobs, divergences, client
    /// errors and mismatched records.
    pub failed: u64,
}

/// A traced pass: the pass plus how much of its wall time the layers
/// account for.
#[derive(Debug, Clone)]
pub struct TracedPass {
    /// The pass itself.
    pub pass: Pass,
    /// Wall time of the traced pass, ns.
    pub wall_ns: u64,
    /// Wall time attributed to layers, ns: spans around calls inside the
    /// pass, job-log times, and replicas of work the engine does outside
    /// jobs.
    pub attributed_ns: u64,
    /// Whether the engine's own overhead for one pass (probed with
    /// no-op jobs) adds to `attributed_ns`: true when the pass runs the
    /// engine in process.
    pub plus_engine_overhead: bool,
}

/// Deterministic simulated totals, in print order.
pub type Totals = Vec<(&'static str, u64)>;

/// A named correctness check and its outcome.
pub type Check = (String, Result<(), String>);

/// One reference workload.
pub trait Workload {
    /// Runs one pass with `workers` sweep workers (or clients).
    fn pass(&mut self, workers: usize) -> Result<Pass, String>;
    /// A fingerprint of the last pass's deterministic outputs; every
    /// pass of a run must repeat it. `None` where passes differ by
    /// design.
    fn digest(&self) -> Option<u64>;
    /// The simulated totals of the last pass, identical for every pass
    /// and every commit that does not change simulated behaviour.
    fn totals(&self) -> Totals;
    /// Workload-specific correctness checks, run after measuring.
    fn checks(&mut self) -> Vec<Check>;
    /// Runs one pass with one worker under spans, plus replicas of the
    /// pass's work through each layer's public functions; fills the
    /// metrics that only this workload's pass can give.
    fn trace(
        &mut self,
        rec: &Recorder,
        root: usize,
        lm: &mut LayerMetrics,
    ) -> Result<TracedPass, String>;
    /// The inputs the common layer probes run on.
    fn layer_inputs(&self) -> layers::Inputs;
}

/// The reference workloads, in report order.
pub const WORKLOADS: [&str; 5] =
    ["sweep_fifo", "sweep_ws", "cluster_pe", "fuzz_farm", "serve_warm"];

/// The default seed of each workload (used when `--seed` is absent).
pub fn default_seed(workload: &str) -> u64 {
    match workload {
        "sweep_fifo" | "sweep_ws" => 1993,
        "cluster_pe" => 7,
        "fuzz_farm" => 0xFA2A_F00D,
        _ => 0x5EED,
    }
}

/// Builds workload `name`.
pub fn setup(name: &str, env: &Env) -> Result<Box<dyn Workload>, String> {
    use regwin_rt::SchedulingPolicy;
    std::fs::create_dir_all(&env.dir).map_err(|e| format!("{}: {e}", env.dir.display()))?;
    Ok(match name {
        "sweep_fifo" => Box::new(crate::sweep::SweepBench::setup(SchedulingPolicy::Fifo, env)?),
        "sweep_ws" => Box::new(crate::sweep::SweepBench::setup(SchedulingPolicy::WorkingSet, env)?),
        "cluster_pe" => Box::new(crate::cluster::ClusterBench::setup(env)?),
        "fuzz_farm" => Box::new(crate::fuzz::FuzzBench::setup(env)?),
        "serve_warm" => Box::new(crate::serve::ServeBench::setup(env)?),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// A reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: String,
}

/// Everything a run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every check passed and nothing failed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The result line: one JSON object, the last line a run prints.
    pub fn json_line(&self) -> String {
        let metrics = Value::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    (
                        m.name.clone(),
                        obj(vec![
                            ("value", Value::Float(m.value)),
                            ("unit", Value::Str(m.unit.clone())),
                        ]),
                    )
                })
                .collect(),
        );
        obj(vec![
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Int(self.attempted)),
            ("failed", Value::Int(self.failed)),
            ("metrics", metrics),
        ])
        .to_json()
    }

    /// Parses a result line back (the inverse of [`Outcome::json_line`]).
    pub fn parse(line: &str) -> Result<Outcome, String> {
        let v = json::parse(line.trim()).map_err(|e| e.to_string())?;
        let field = |k: &str| v.get(k).ok_or_else(|| format!("result line has no {k:?}"));
        let metrics = match field("metrics")? {
            Value::Obj(pairs) => pairs
                .iter()
                .map(|(name, m)| {
                    Ok(Metric {
                        name: name.clone(),
                        value: m
                            .get("value")
                            .and_then(Value::as_f64)
                            .ok_or("metric without value")?,
                        unit: m.get("unit").and_then(Value::as_str).unwrap_or("").to_string(),
                    })
                })
                .collect::<Result<Vec<_>, &str>>()?,
            _ => return Err("metrics is not an object".into()),
        };
        Ok(Outcome {
            correct: field("correct")?.as_bool().ok_or("correct is not a bool")?,
            attempted: field("attempted")?.as_u64().ok_or("attempted is not a count")?,
            failed: field("failed")?.as_u64().ok_or("failed is not a count")?,
            metrics,
        })
    }
}

/// The human-readable metric line: `name value unit`.
pub fn metric_line(m: &Metric) -> String {
    format!("{} {} {}", m.name, m.value, m.unit)
}

fn metric(name: &str, value: f64, unit: &str) -> Metric {
    Metric { name: name.to_string(), value, unit: unit.to_string() }
}

/// Set-ups before each pass: at least one, and more, each discarded
/// but the last, until [`SETUP_SAMPLE_S`] seconds have gone into them
/// ([`SETUP_FIRST_S`] before the first pass) or [`SETUP_MAX_PER_PASS`]
/// have run — so a millisecond set-up is timed hundreds of times a run.
pub const SETUP_SAMPLE_S: f64 = 0.25;
/// The set-up time before the first pass. Longer than the later
/// batches because a workload whose pass outlasts half the run gets no
/// other batch, and a quarter of a second often fell wholly in a slow
/// spell of the host.
pub const SETUP_FIRST_S: f64 = 1.0;
/// See [`SETUP_SAMPLE_S`].
pub const SETUP_MAX_PER_PASS: usize = 2048;

/// Runs `name` untraced: whole passes, each on a fresh set-up, until
/// `seconds` have elapsed, then the correctness gate. Prints the metric
/// lines and check lines; returns the outcome.
///
/// Setting up before every pass samples set-up time throughout the run,
/// under the same host conditions as the passes: on a shared host whose
/// speed drifts over seconds, set-ups timed back to back at the start
/// would all land in whatever state the host was in then.
///
/// `setup_s` is the fastest set-up of the run, not the median. A set-up
/// is a short single-threaded step, and on the shared reference host its
/// median followed the host's state: `fuzz_farm`'s moved from 0.98 to
/// 1.31 ms and `sweep_ws`'s from 4.9 to 6.2 ms between two sets of ten
/// runs a quarter of an hour apart, further than any bound may allow,
/// while their passes moved 9% and 5%. The fastest of `fuzz_farm`'s
/// hundreds of set-ups a run spread 3–6% over ten runs, and work moved
/// into set-up still raises it.
pub fn run_measured(name: &str, env: &Env, seconds: f64) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let mut passes = Vec::new();
    let mut digests = Vec::new();
    // Peak RSS is read after the first pass: later passes of the same
    // process grow it with the pass count, which would tie it to host
    // speed.
    let mut rss_mib = 0.0;
    let mut bench: Option<Box<dyn Workload>> = None;
    let phase = Instant::now();
    loop {
        // A run shorter than a batch (the smoke test's) sets up once.
        let budget = if walls.is_empty() { SETUP_FIRST_S } else { SETUP_SAMPLE_S }.min(seconds);
        let mut setup_s = 0.0;
        for k in 0.. {
            // The previous instance (a daemon drains and exits) goes
            // first, untimed, with its scratch directory.
            drop(bench.take());
            if let Some(prev) = setups.len().checked_sub(1) {
                let _ = std::fs::remove_dir_all(env.dir.join(format!("setup{prev}")));
            }
            let env_k = Env { dir: env.dir.join(format!("setup{}", setups.len())), ..env.clone() };
            let t = Instant::now();
            bench = Some(setup(name, &env_k)?);
            let s = t.elapsed().as_secs_f64();
            setups.push(s);
            setup_s += s;
            if setup_s >= budget || k + 1 >= SETUP_MAX_PER_PASS {
                break;
            }
        }
        let b = bench.as_mut().expect("a set-up ran");

        let u0 = Usage::now();
        let t0 = Instant::now();
        let pass = b.pass(WORKERS)?;
        let wall = t0.elapsed().as_secs_f64();
        walls.push(wall);
        let usage = Usage::now();
        cpus.push(usage.since(u0).cpu_s());
        if passes.is_empty() {
            rss_mib = usage.maxrss_kib as f64 / 1024.0;
        }
        passes.push(pass);
        digests.push(b.digest());
        // Stop at the pass boundary nearest to the time budget, so the
        // measured phase neither overruns it by a whole pass nor falls
        // short by one.
        if phase.elapsed().as_secs_f64() + (setup_s + wall) / 2.0 >= seconds {
            break;
        }
    }
    let mut bench = bench.expect("at least one pass ran");
    let ops: Vec<f64> = passes.iter().flat_map(|p| p.op_ms.iter().copied()).collect();
    let metrics = vec![
        metric("setup_s", setups.iter().copied().fold(f64::INFINITY, f64::min), "s"),
        metric("pass_s", median(&walls).expect("passes ran"), "s"),
        metric("cpu_s", median(&cpus).expect("passes ran"), "s"),
        metric("peak_rss_mb", rss_mib, "MiB"),
        metric("op_ms_p50", percentile(&ops, 50.0).ok_or("no operations timed")?, "ms"),
        metric("op_ms_p95", percentile(&ops, 95.0).ok_or("no operations timed")?, "ms"),
    ];
    for m in &metrics {
        println!("{}", metric_line(m));
    }
    println!(
        "set-ups {} (median {} s) passes {} ops {} walls_s {walls:?} cpus_s {cpus:?}",
        setups.len(),
        median(&setups).expect("set-ups ran"),
        passes.len(),
        ops.len()
    );
    Ok(gate(name, env, bench.as_mut(), &passes, &digests, metrics))
}

/// Runs `name` traced: one set-up, one untraced and one traced pass with
/// a single worker, then the layer probes. Writes the spans and the
/// per-layer report into `trace_dir` when given.
pub fn run_traced(name: &str, env: &Env, trace_dir: Option<&Path>) -> Result<Outcome, String> {
    let rec = Recorder::new();
    let root = rec.begin("bench.run", None, 0);
    let (_, bench) = rec.time("bench.setup", Some(root), 0, || setup(name, env));
    let mut bench = bench?;

    let u0 = Usage::now();
    let t0 = Instant::now();
    let plain = bench.pass(1)?;
    let plain_ns = t0.elapsed().as_nanos() as f64;
    let usage = Usage::now().since(u0);
    let mut digests = vec![bench.digest()];

    let mut lm = LayerMetrics::default();
    let traced = bench.trace(&rec, root, &mut lm)?;
    digests.push(bench.digest());
    let probes = rec.begin("bench.probes", Some(root), 0);
    layers::probe_all(&rec, probes, &bench.layer_inputs(), &mut lm, &env.dir)?;
    rec.end(probes);
    rec.end(root);

    let wall = traced.wall_ns.max(1) as f64;
    let mut attributed = traced.attributed_ns as f64;
    if traced.plus_engine_overhead {
        attributed += lm.get("sweep.engine_overhead_ms").unwrap_or(0.0) * 1e6;
    }
    lm.set("trace.overhead_frac", wall / plain_ns.max(1.0) - 1.0);
    lm.set("trace.unattributed_frac", (wall - attributed) / wall);
    lm.set("proc.user_s", usage.user_s);
    lm.set("proc.sys_s", usage.sys_s);
    lm.set("proc.vcsw", usage.vcsw as f64);
    lm.set("proc.ivcsw", usage.ivcsw as f64);

    let metrics = layers::CATALOGUE
        .iter()
        .map(|&(n, unit, _)| {
            lm.get(n).map(|v| metric(n, v, unit)).ok_or_else(|| format!("layer metric {n} unset"))
        })
        .collect::<Result<Vec<_>, String>>()?;
    for m in &metrics {
        println!("{}", metric_line(m));
    }
    if let Some(dir) = trace_dir {
        write_trace_files(dir, name, &rec, &lm)?;
    }
    let passes = [plain, traced.pass];
    Ok(gate(name, env, bench.as_mut(), &passes, &digests, metrics))
}

/// The correctness gate: every pass repeats the same outputs, nothing
/// failed, the totals match the pinned ones (full size only) and the
/// workload's own checks pass. Prints one line per check.
fn gate(
    name: &str,
    env: &Env,
    bench: &mut dyn Workload,
    passes: &[Pass],
    digests: &[Option<u64>],
    metrics: Vec<Metric>,
) -> Outcome {
    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    let totals = bench.totals();
    println!(
        "totals {name} seed={} {}",
        env.seed,
        totals.iter().map(|(k, v)| format!("{k}={v}")).collect::<Vec<_>>().join(" ")
    );
    let mut checks: Vec<Check> = vec![
        (
            "passes-repeat".into(),
            if digests.windows(2).all(|w| w[0] == w[1]) {
                Ok(())
            } else {
                Err("passes produced different outputs".into())
            },
        ),
        (
            "no-failures".into(),
            if failed == 0 { Ok(()) } else { Err(format!("{failed} of {attempted} failed")) },
        ),
    ];
    if env.size == Size::Full {
        match crate::expected::check(name, env.seed, &totals) {
            Some(result) => checks.push(("pinned-totals".into(), result)),
            None => println!("totals not pinned for seed {}: compare the totals line", env.seed),
        }
    }
    checks.extend(bench.checks());
    let mut correct = attempted > 0;
    for (check, result) in &checks {
        match result {
            Ok(()) => println!("check {check}: ok"),
            Err(e) => {
                correct = false;
                println!("check {check}: FAILED: {e}");
            }
        }
    }
    Outcome { correct, attempted, failed, metrics }
}

fn write_trace_files(
    dir: &Path,
    name: &str,
    rec: &Recorder,
    lm: &LayerMetrics,
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let spans = rec.spans();
    let selfs = self_times(&spans);
    let mut layers: Vec<(String, u64, u64)> = Vec::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        match layers.iter_mut().find(|(l, ..)| l == s.layer()) {
            Some(entry) => {
                entry.1 += self_ns;
                entry.2 += 1;
            }
            None => layers.push((s.layer().to_string(), self_ns, 1)),
        }
    }
    let doc = Value::Obj(
        layers
            .into_iter()
            .map(|(layer, self_ns, count)| {
                let prefix = format!("{layer}.");
                let metrics = Value::Obj(
                    layers::CATALOGUE
                        .iter()
                        .filter(|(n, ..)| n.starts_with(&prefix))
                        .filter_map(|&(n, ..)| lm.get(n).map(|v| (n.to_string(), Value::Float(v))))
                        .collect(),
                );
                let v = obj(vec![
                    ("self_ns", Value::Int(self_ns)),
                    ("count", Value::Int(count)),
                    ("metrics", metrics),
                ]);
                (layer, v)
            })
            .collect(),
    );
    let write = |file: String, text: String| {
        std::fs::write(dir.join(&file), text).map_err(|e| format!("{file}: {e}"))
    };
    write(format!("{name}.spans.jsonl"), rec.to_jsonl())?;
    write(format!("{name}.layers.json"), doc.to_json() + "\n")
}

/// Per-job wall times (ms) from an engine's job log — the engine's own
/// job spans are emitted after each job ends and have no length, so the
/// log is the only per-job timing the engine exposes.
pub fn job_walls(engine: &regwin_sweep::SweepEngine) -> Vec<f64> {
    engine
        .artifact_value()
        .get("jobs")
        .and_then(Value::as_arr)
        .map(|jobs| jobs.iter().filter_map(|j| j.get("wall_ms").and_then(Value::as_f64)).collect())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_and_has_exactly_the_contract_keys() {
        let o = Outcome {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![metric("pass_s", 1.2034, "s"), metric("peak_rss_mb", 12.0, "MiB")],
        };
        let line = o.json_line();
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":1000,"failed":0,"metrics":{"pass_s":{"value":1.2034,"unit":"s"},"peak_rss_mb":{"value":12.0,"unit":"MiB"}}}"#
        );
        let back = Outcome::parse(&line).unwrap();
        assert_eq!(back.metrics, o.metrics);
        assert_eq!((back.correct, back.attempted, back.failed), (true, 1000, 0));
    }

    #[test]
    fn metric_lines_are_name_value_unit() {
        let m = metric("op_ms_p95", 17.25, "ms");
        assert_eq!(metric_line(&m), "op_ms_p95 17.25 ms");
        // Values keep every digit measured.
        let m = metric("setup_s", 0.812_734_561_9, "s");
        assert_eq!(metric_line(&m), "setup_s 0.8127345619 s");
    }
}
