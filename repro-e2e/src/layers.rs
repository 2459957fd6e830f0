//! Per-layer metrics, measured from outside: each probe times calls
//! into one layer's public functions on the workload's own inputs.
//! The result line of every `--trace 1` run must carry every `per_layer`
//! metric that BENCHMARK.json lists, whatever the workload. So layers a
//! workload does not use (the cluster and the daemon outside
//! `cluster_pe` and `serve_warm`) are probed on small inputs derived
//! from the same seed; on those workloads the numbers are controls that
//! a change to another layer must leave flat, not measurements of the
//! workload.

use crate::rusage::Usage;
use crate::span::{instant_pair_ns, Recorder};
use crate::stats::{median, percentile};
use regwin_cluster::{run_spell_cluster, BusConfig, ClusterConfig};
use regwin_core::{Behavior, MatrixSpec};
use regwin_gen::{run_bundle, Scenario, Workload as GenWorkload, FUZZ_BUDGET};
use regwin_machine::{MachineConfig, SchemeKind, ThreadId, TimingKind};
use regwin_rt::{
    fuzzed_policy, RtError, RunReport, SchedulingPolicy, SimOptions, Simulation, Trace, TraceEvent,
};
use regwin_spell::{reference, Corpus, CorpusSpec, SpellConfig, SpellPipeline};
use regwin_sweep::{
    report_from_json, report_to_json, Job, JobKey, JobRecord, ResultCache, SweepConfig,
    SweepEngine, SweepJournal,
};
use regwin_traps::{build_scheme, Cpu};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Every per-layer metric: name, unit and which direction is better.
pub const CATALOGUE: &[(&str, &str, &str)] = &[
    ("machine.save_ns", "ns", "lower"),
    ("machine.restore_ns", "ns", "lower"),
    ("machine.compute_ns", "ns", "lower"),
    ("machine.audit_ns_per_event", "ns", "lower"),
    ("machine.pipeline_ns_per_event", "ns", "lower"),
    ("traps.overflow_ns.NS", "ns", "lower"),
    ("traps.overflow_ns.SNP", "ns", "lower"),
    ("traps.overflow_ns.SP", "ns", "lower"),
    ("traps.underflow_ns.NS", "ns", "lower"),
    ("traps.underflow_ns.SNP", "ns", "lower"),
    ("traps.underflow_ns.SP", "ns", "lower"),
    ("traps.switch_ns.NS", "ns", "lower"),
    ("traps.switch_ns.SNP", "ns", "lower"),
    ("traps.switch_ns.SP", "ns", "lower"),
    ("traps.replay_ns_per_event", "ns", "lower"),
    ("rt.record_ms", "ms", "lower"),
    ("rt.direct_ns_per_switch", "ns", "lower"),
    ("rt.handoff_ns_per_switch", "ns", "lower"),
    ("rt.os_vcsw_per_switch", "ratio", "lower"),
    ("rt.sim_fixed_us", "us", "lower"),
    ("rt.trace_events", "count", "lower"),
    ("spell.corpus_ms", "ms", "lower"),
    ("spell.body_ms", "ms", "lower"),
    ("gen.scenario_us", "us", "lower"),
    ("gen.bundle_ms_p50", "ms", "lower"),
    ("gen.bundle_ms_p90", "ms", "lower"),
    ("cluster.ns_per_switch_pe1", "ns", "lower"),
    ("cluster.ns_per_switch_pemax", "ns", "lower"),
    ("cluster.os_vcsw_per_switch_pemax", "ratio", "lower"),
    ("cluster.job_ms_pemax", "ms", "lower"),
    ("sweep.job_ms_p50", "ms", "lower"),
    ("sweep.job_ms_p90", "ms", "lower"),
    ("sweep.engine_overhead_ms", "ms", "lower"),
    ("sweep.cache_store_us", "us", "lower"),
    ("sweep.cache_load_us", "us", "lower"),
    ("sweep.encode_us", "us", "lower"),
    ("sweep.decode_us", "us", "lower"),
    ("sweep.journal_append_us", "us", "lower"),
    ("sweep.artifact_ms", "ms", "lower"),
    ("serve.connect_ms", "ms", "lower"),
    ("serve.sweep_us_per_cell", "us", "lower"),
    ("serve.artifact_ms", "ms", "lower"),
    ("proc.user_s", "s", "lower"),
    ("proc.sys_s", "s", "lower"),
    ("proc.vcsw", "count", "lower"),
    ("proc.ivcsw", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.unattributed_frac", "ratio", "lower"),
];

/// The per-layer values gathered so far.
#[derive(Debug, Default)]
pub struct LayerMetrics(BTreeMap<&'static str, f64>);

impl LayerMetrics {
    /// Sets `name`, which must be in [`CATALOGUE`].
    pub fn set(&mut self, name: &str, value: f64) {
        let (key, ..) = CATALOGUE
            .iter()
            .find(|(n, ..)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a catalogued layer metric"));
        self.0.insert(key, value);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    fn has(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }
}

/// A representative simulation of the workload: what the machine,
/// trap and runtime probes run.
#[derive(Debug, Clone)]
pub enum Rep {
    /// One spell-pipeline cell.
    Spell {
        /// Pipeline configuration (corpus, buffers, policy, timing).
        config: SpellConfig,
        /// The generated corpus.
        corpus: Corpus,
        /// Window count.
        nwindows: usize,
        /// Window-management scheme.
        scheme: SchemeKind,
    },
    /// A sample of generated scenarios.
    Gen(Vec<Scenario>),
}

/// What the common probes run on.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The representative simulation.
    pub rep: Rep,
    /// Reports the workload's pass produced, with their keys.
    pub reports: Vec<(JobKey, RunReport)>,
    /// Engine jobs in one pass.
    pub jobs_per_pass: usize,
    /// The workload seed.
    pub seed: u64,
}

/// Largest report sample the per-call sweep I/O probes use.
const IO_SAMPLE: usize = 64;
/// Window count of the per-scheme trap breakdown: NS's minimum, so that
/// every scheme overflows and underflows (on 4 windows the spell traces
/// never overflow under NS, whose switches flush every window).
const TRAP_WINDOWS: usize = 3;
/// PE counts of the cluster probe on workloads other than `cluster_pe`.
const PROBE_PES: [usize; 2] = [1, 4];
/// Requests of the daemon probe on workloads other than `serve_warm`.
const PROBE_REQUESTS: u64 = 10;

/// Runs every probe whose metrics the workload has not already filled.
pub fn probe_all(
    rec: &Recorder,
    parent: usize,
    inputs: &Inputs,
    lm: &mut LayerMetrics,
    dir: &Path,
) -> Result<(), String> {
    probe_spell(rec, parent, inputs, lm);
    probe_sim(rec, parent, inputs, lm)?;
    probe_gen(rec, parent, inputs.seed, lm)?;
    if !lm.has("cluster.job_ms_pemax") {
        probe_cluster(rec, parent, inputs.seed, lm)?;
    }
    probe_sweep_io(rec, parent, inputs, lm, &dir.join("probe-io"))?;
    if !lm.has("serve.connect_ms") {
        probe_serve(rec, parent, inputs.seed, lm, &dir.join("probe-serve"))?;
    }
    Ok(())
}

/// Runs `f` `n` times, each under a span named `name`, and returns the
/// median span length in ns together with the last result.
fn timed<T>(
    rec: &Recorder,
    parent: usize,
    name: &str,
    n: usize,
    mut f: impl FnMut() -> T,
) -> (f64, T) {
    let mut lens = Vec::with_capacity(n);
    let mut last = None;
    for i in 0..n {
        let (id, out) = rec.time(name, Some(parent), i as u64, &mut f);
        lens.push(rec.len_ns(id) as f64);
        last = Some(out);
    }
    (median(&lens).expect("n > 0"), last.expect("n > 0"))
}

fn probe_spell(rec: &Recorder, parent: usize, inputs: &Inputs, lm: &mut LayerMetrics) {
    let spec = match &inputs.rep {
        Rep::Spell { config, .. } => config.corpus,
        Rep::Gen(_) => CorpusSpec { seed: inputs.seed, ..CorpusSpec::small() },
    };
    let (gen_ns, corpus) = timed(rec, parent, "spell.corpus", 3, || Corpus::generate(&spec));
    let (body_ns, _) = timed(rec, parent, "spell.check_sorted", 3, || {
        reference::check_sorted(&corpus.document, &corpus.dict1, &corpus.dict2)
    });
    lm.set("spell.corpus_ms", gen_ns / 1e6);
    lm.set("spell.body_ms", body_ns / 1e6);
}

/// Recorded, direct and replayed runs of the representative
/// simulation, summed over its cells.
struct SimRuns {
    record_ns: f64,
    direct_ns: f64,
    replay_ns: f64,
    switches: u64,
    vcsw: u64,
    /// The longest recorded trace and the machine it replays on.
    trace: Trace,
    nwindows: usize,
    timing: TimingKind,
    scheme: SchemeKind,
}

/// Builds a generated scenario's simulation exactly as the invariant
/// bundle's direct leg does.
fn gen_sim(sc: &Scenario, wl: &GenWorkload, traced: bool) -> Result<Simulation, RtError> {
    let opts = SimOptions {
        policy: sc.policy,
        sched: sc.fuzz.map(|seed| fuzzed_policy(sc.policy, seed, FUZZ_BUDGET)),
        audit: false,
        traced,
        fault: None,
    };
    let mut sim = Simulation::assemble(sc.machine_config(), build_scheme(sc.scheme), opts)?;
    wl.install(&mut sim);
    Ok(sim)
}

fn sim_runs(rec: &Recorder, parent: usize, rep: &Rep) -> Result<SimRuns, RtError> {
    match rep {
        Rep::Spell { config, corpus, nwindows, scheme } => {
            let p = SpellPipeline::with_corpus(corpus.clone(), *config);
            let (record_ns, recorded) =
                timed(rec, parent, "rt.record", 1, || p.run_traced(*nwindows, *scheme));
            let (outcome, trace) = recorded?;
            let u0 = Usage::now();
            let (direct_ns, direct) =
                timed(rec, parent, "rt.direct", 1, || p.run(*nwindows, *scheme));
            let vcsw = Usage::now().since(u0).vcsw;
            direct?;
            let (replay_ns, replayed) = timed(rec, parent, "traps.replay", 1, || {
                trace.replay(p.machine_config(*nwindows), build_scheme(*scheme))
            });
            replayed?;
            Ok(SimRuns {
                record_ns,
                direct_ns,
                replay_ns,
                switches: outcome.report.stats.context_switches,
                vcsw,
                trace,
                nwindows: *nwindows,
                timing: config.timing,
                scheme: *scheme,
            })
        }
        Rep::Gen(scenarios) => {
            let mut runs: Option<SimRuns> = None;
            for (i, sc) in scenarios.iter().enumerate() {
                let wl = GenWorkload::synthesize(&sc.spec);
                let (record_ns, recorded) =
                    timed(rec, parent, "rt.record", 1, || gen_sim(sc, &wl, true)?.run_with_trace());
                let (report, trace) = recorded?;
                let trace = trace.ok_or_else(|| RtError::Internal {
                    detail: format!("scenario {i}: traced run returned no trace"),
                })?;
                let u0 = Usage::now();
                let (direct_ns, direct) =
                    timed(rec, parent, "rt.direct", 1, || gen_sim(sc, &wl, false)?.run());
                let vcsw = Usage::now().since(u0).vcsw;
                direct?;
                let (replay_ns, replayed) = timed(rec, parent, "traps.replay", 1, || {
                    trace.replay(sc.machine_config(), build_scheme(sc.scheme))
                });
                replayed?;
                let this = SimRuns {
                    record_ns,
                    direct_ns,
                    replay_ns,
                    switches: report.stats.context_switches,
                    vcsw,
                    trace,
                    nwindows: sc.nwindows,
                    timing: sc.timing,
                    scheme: sc.scheme,
                };
                runs = Some(match runs {
                    None => this,
                    Some(acc) => {
                        let keep_new = this.trace.len() > acc.trace.len();
                        let (longest, other) = if keep_new { (this, acc) } else { (acc, this) };
                        SimRuns {
                            record_ns: longest.record_ns + other.record_ns,
                            direct_ns: longest.direct_ns + other.direct_ns,
                            replay_ns: longest.replay_ns + other.replay_ns,
                            switches: longest.switches + other.switches,
                            vcsw: longest.vcsw + other.vcsw,
                            ..longest
                        }
                    }
                });
            }
            runs.ok_or_else(|| RtError::BadConfig { detail: "no scenarios to probe".into() })
        }
    }
}

/// Host time per call of each machine operation during one replay, ns.
#[derive(Debug, Default)]
struct CallTimes {
    save: Mean,
    restore: Mean,
    compute: Mean,
    overflow: Mean,
    underflow: Mean,
    switch: Mean,
}

#[derive(Debug, Default)]
struct Mean {
    sum: f64,
    n: u64,
}

impl Mean {
    fn add(&mut self, x: f64) {
        self.sum += x;
        self.n += 1;
    }

    fn get(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }
}

/// Replays `trace` the way `Trace::replay` does, timing every call on
/// the CPU. A save or restore whose statistics delta shows a trap counts
/// as an overflow or underflow; `pair_ns` (the cost of the timer itself)
/// is subtracted from each call.
fn timed_replay(
    trace: &Trace,
    config: MachineConfig,
    kind: SchemeKind,
    pair_ns: f64,
) -> Result<CallTimes, String> {
    let mut cpu = Cpu::with_config(config, build_scheme(kind)).map_err(|e| e.to_string())?;
    let threads: Vec<ThreadId> =
        (0..trace.thread_names().len()).map(|_| cpu.add_thread()).collect();
    let mut ct = CallTimes::default();
    let err = |e: regwin_traps::SchemeError| e.to_string();
    for event in trace.events() {
        match *event {
            TraceEvent::Save => {
                let before = cpu.machine().stats().overflow_traps;
                let t = Instant::now();
                cpu.save().map_err(err)?;
                let ns = t.elapsed().as_nanos() as f64 - pair_ns;
                if cpu.machine().stats().overflow_traps == before {
                    ct.save.add(ns);
                } else {
                    ct.overflow.add(ns);
                }
            }
            TraceEvent::Restore => {
                let before = cpu.machine().stats().underflow_traps;
                let t = Instant::now();
                cpu.restore().map_err(err)?;
                let ns = t.elapsed().as_nanos() as f64 - pair_ns;
                if cpu.machine().stats().underflow_traps == before {
                    ct.restore.add(ns);
                } else {
                    ct.underflow.add(ns);
                }
            }
            TraceEvent::Compute(c) => {
                let t = Instant::now();
                cpu.compute(c);
                ct.compute.add(t.elapsed().as_nanos() as f64 - pair_ns);
            }
            TraceEvent::SwitchTo(to) => {
                let thread = *threads
                    .get(to.index())
                    .ok_or_else(|| format!("trace switches to unknown thread {}", to.index()))?;
                let t = Instant::now();
                cpu.switch_to(thread).map_err(err)?;
                ct.switch.add(t.elapsed().as_nanos() as f64 - pair_ns);
            }
            TraceEvent::Terminate => {
                cpu.terminate_current().map_err(err)?;
            }
        }
    }
    Ok(ct)
}

fn probe_sim(
    rec: &Recorder,
    parent: usize,
    inputs: &Inputs,
    lm: &mut LayerMetrics,
) -> Result<(), String> {
    let runs = sim_runs(rec, parent, &inputs.rep).map_err(|e| e.to_string())?;
    let switches = runs.switches.max(1) as f64;
    // The spell program's own work (the sequential reference checker on
    // the same corpus) is the floor a simulated run cannot go below;
    // generated workloads have no separable body.
    let body_ns = match &inputs.rep {
        Rep::Spell { .. } => lm.get("spell.body_ms").unwrap_or(0.0) * 1e6,
        Rep::Gen(_) => 0.0,
    };
    lm.set("rt.record_ms", runs.record_ns / 1e6);
    lm.set("rt.direct_ns_per_switch", runs.direct_ns / switches);
    lm.set("rt.handoff_ns_per_switch", (runs.direct_ns - runs.replay_ns - body_ns) / switches);
    lm.set("rt.os_vcsw_per_switch", runs.vcsw as f64 / switches);
    lm.set("rt.trace_events", runs.trace.len() as f64);
    let (fixed_ns, fixed) = timed(rec, parent, "rt.sim_fixed", 21, || {
        let mut sim = Simulation::new(8, SchemeKind::Sp)?;
        for i in 0..7 {
            sim.spawn(format!("T{i}"), |_| Ok(()));
        }
        sim.run()
    });
    fixed.map_err(|e| e.to_string())?;
    lm.set("rt.sim_fixed_us", fixed_ns / 1e3);

    let pair = instant_pair_ns();
    let config = |timing: TimingKind| MachineConfig::new(runs.nwindows).with_timing(timing);
    let calls = timed_replay(&runs.trace, config(runs.timing), runs.scheme, pair)?;
    lm.set("machine.save_ns", calls.save.get());
    lm.set("machine.restore_ns", calls.restore.get());
    lm.set("machine.compute_ns", calls.compute.get());

    let events = runs.trace.len().max(1) as f64;
    let replay = |name: &str, cfg: MachineConfig, audit: bool| {
        let (ns, out) = timed(rec, parent, name, 3, || {
            runs.trace.replay_with_options(cfg.clone(), build_scheme(runs.scheme), None, audit)
        });
        out.map(|_| ns).map_err(|e| e.to_string())
    };
    let plain = replay("traps.replay", config(runs.timing), false)?;
    let audited = replay("machine.audit_replay", config(runs.timing), true)?;
    let s20 = replay("machine.s20_replay", config(TimingKind::S20), false)?;
    let pipeline = replay("machine.pipeline_replay", config(TimingKind::Pipeline), false)?;
    lm.set("traps.replay_ns_per_event", plain / events);
    lm.set("machine.audit_ns_per_event", (audited - plain) / events);
    lm.set("machine.pipeline_ns_per_event", (pipeline - s20) / events);

    for kind in SchemeKind::ALL {
        let (_, calls) = timed(rec, parent, "traps.timed_replay", 1, || {
            timed_replay(&runs.trace, MachineConfig::new(TRAP_WINDOWS), kind, pair)
        });
        let calls = calls?;
        lm.set(&format!("traps.overflow_ns.{}", kind.name()), calls.overflow.get());
        lm.set(&format!("traps.underflow_ns.{}", kind.name()), calls.underflow.get());
        lm.set(&format!("traps.switch_ns.{}", kind.name()), calls.switch.get());
    }
    Ok(())
}

fn probe_gen(
    rec: &Recorder,
    parent: usize,
    seed: u64,
    lm: &mut LayerMetrics,
) -> Result<(), String> {
    let per_combo = crate::fuzz::SEEDS_PER_COMBO;
    let (farm_ns, scenarios) =
        timed(rec, parent, "gen.scenarios", 3, || crate::fuzz::farm(seed, per_combo));
    lm.set("gen.scenario_us", farm_ns / scenarios.len().max(1) as f64 / 1e3);
    if !lm.has("gen.bundle_ms_p50") {
        // Every 25th farm scenario: a sample across every policy and
        // timing backend.
        let mut ms = Vec::new();
        for (i, sc) in scenarios.iter().step_by(25).enumerate() {
            let (id, out) = rec.time("gen.bundle", Some(parent), i as u64, || run_bundle(sc));
            out.map_err(|e| format!("bundle {}: {e}", sc.canonical()))?;
            ms.push(rec.len_ns(id) as f64 / 1e6);
        }
        set_bundle_percentiles(lm, &ms);
    }
    Ok(())
}

/// Sets the bundle-latency percentiles from per-bundle times in ms.
pub fn set_bundle_percentiles(lm: &mut LayerMetrics, ms: &[f64]) {
    lm.set("gen.bundle_ms_p50", percentile(ms, 50.0).unwrap_or(0.0));
    lm.set("gen.bundle_ms_p90", percentile(ms, 90.0).unwrap_or(0.0));
}

/// One cluster job as the cluster metrics see it.
#[derive(Debug, Clone, Copy)]
pub struct ClusterJob {
    /// PEs in the job.
    pub pes: usize,
    /// Host time, ns.
    pub ns: f64,
    /// Merged simulated context switches.
    pub switches: u64,
    /// Voluntary OS context switches during the job.
    pub vcsw: u64,
}

/// Sets the cluster metrics from the 1-PE job and the largest job.
pub fn set_cluster_metrics(lm: &mut LayerMetrics, jobs: &[ClusterJob]) {
    let per = |j: &ClusterJob| j.ns / j.switches.max(1) as f64;
    if let Some(pe1) = jobs.iter().find(|j| j.pes == 1) {
        lm.set("cluster.ns_per_switch_pe1", per(pe1));
    }
    if let Some(max) = jobs.iter().max_by_key(|j| j.pes) {
        lm.set("cluster.ns_per_switch_pemax", per(max));
        lm.set("cluster.os_vcsw_per_switch_pemax", max.vcsw as f64 / max.switches.max(1) as f64);
        lm.set("cluster.job_ms_pemax", max.ns / 1e6);
    }
}

fn probe_cluster(
    rec: &Recorder,
    parent: usize,
    seed: u64,
    lm: &mut LayerMetrics,
) -> Result<(), String> {
    let spell = SpellConfig::new(CorpusSpec { seed, ..CorpusSpec::small() }, 4, 4);
    let mut jobs = Vec::new();
    for pes in PROBE_PES {
        let mut cfg = ClusterConfig::homogeneous(pes, SchemeKind::Sp, 8, spell);
        cfg.bus = BusConfig::default();
        let u0 = Usage::now();
        let (id, out) =
            rec.time("cluster.job", Some(parent), pes as u64, || run_spell_cluster(&cfg, None));
        let vcsw = Usage::now().since(u0).vcsw;
        let outcome = out.map_err(|e| e.to_string())?;
        jobs.push(ClusterJob {
            pes,
            ns: rec.len_ns(id) as f64,
            switches: outcome.report.merged().stats.context_switches,
            vcsw,
        });
    }
    set_cluster_metrics(lm, &jobs);
    Ok(())
}

fn mean_us(rec: &Recorder, ids: &[usize]) -> f64 {
    let total: u64 = ids.iter().map(|&id| rec.len_ns(id)).sum();
    total as f64 / ids.len().max(1) as f64 / 1e3
}

fn probe_sweep_io(
    rec: &Recorder,
    parent: usize,
    inputs: &Inputs,
    lm: &mut LayerMetrics,
    dir: &Path,
) -> Result<(), String> {
    let sample = &inputs.reports[..inputs.reports.len().min(IO_SAMPLE)];
    if sample.is_empty() {
        return Err("the pass produced no reports to probe the sweep layer with".into());
    }
    let cache = ResultCache::new(dir.join("cache"));
    let mut stores = Vec::new();
    let mut loads = Vec::new();
    let mut encodes = Vec::new();
    let mut decodes = Vec::new();
    for (i, (key, report)) in sample.iter().enumerate() {
        let u = i as u64;
        stores.push(rec.time("sweep.cache_store", Some(parent), u, || cache.store(key, report)).0);
        let (id, loaded) = rec.time("sweep.cache_load", Some(parent), u, || cache.load(key));
        loads.push(id);
        if loaded.as_ref() != Some(report) {
            return Err(format!("cache entry {} did not load back intact", key.label()));
        }
        let (id, text) = rec.time("sweep.encode", Some(parent), u, || report_to_json(report));
        encodes.push(id);
        let (id, decoded) = rec.time("sweep.decode", Some(parent), u, || report_from_json(&text));
        decodes.push(id);
        if decoded.as_ref().ok() != Some(report) {
            return Err(format!("report {} did not decode back intact", key.label()));
        }
    }
    lm.set("sweep.cache_store_us", mean_us(rec, &stores));
    lm.set("sweep.cache_load_us", mean_us(rec, &loads));
    lm.set("sweep.encode_us", mean_us(rec, &encodes));
    lm.set("sweep.decode_us", mean_us(rec, &decodes));

    let journal = SweepJournal::create(dir.join("journal.jsonl")).map_err(|e| e.to_string())?;
    let mut appends = Vec::new();
    for (i, (key, report)) in sample.iter().enumerate() {
        let record = JobRecord {
            id: key.id(),
            key: key.canonical(),
            label: key.label(),
            cache_hit: false,
            wall_ms: 0.0,
            total_cycles: report.total_cycles(),
        };
        let (id, out) = rec.time("sweep.journal_append", Some(parent), i as u64, || {
            journal.append_job(&record, report)
        });
        out.map_err(|e| format!("journal append: {e}"))?;
        appends.push(id);
    }
    lm.set("sweep.journal_append_us", mean_us(rec, &appends));

    // The engine's own cost for one pass's worth of jobs: no-op jobs
    // that hand back a ready report, one worker, no cache.
    let jobs: Vec<Job> = (0..inputs.jobs_per_pass.max(1))
        .map(|i| {
            let (key, report) = sample[i % sample.len()].clone();
            let key = JobKey { experiment: format!("noop:{i}"), ..key };
            Job::new(key, move || Ok(report.clone()))
        })
        .collect();
    let (overhead_ns, engine) = timed(rec, parent, "sweep.run_jobs_noop", 3, || {
        let engine = SweepEngine::with_config(
            SweepConfig::builder().workers(1).build().expect("a one-worker config is valid"),
        );
        engine.run_jobs(&jobs);
        engine
    });
    lm.set("sweep.engine_overhead_ms", overhead_ns / 1e6);
    if !lm.has("sweep.artifact_ms") {
        let (ns, _) = timed(rec, parent, "sweep.artifact", 3, || engine.artifact_value().to_json());
        lm.set("sweep.artifact_ms", ns / 1e6);
    }
    Ok(())
}

fn probe_serve(
    rec: &Recorder,
    parent: usize,
    seed: u64,
    lm: &mut LayerMetrics,
    dir: &Path,
) -> Result<(), String> {
    let daemon = crate::serve::Daemon::start(dir, 1)?;
    let spec = MatrixSpec {
        corpus: CorpusSpec { seed, ..CorpusSpec::small() },
        behaviors: vec![Behavior::high_concurrency()[2]],
        schemes: vec![SchemeKind::Sp],
        windows: vec![4, 8],
        policy: SchedulingPolicy::Fifo,
        timing: TimingKind::S20,
    };
    daemon.request(None, "probe-prime", &spec)?;
    let mut times = Vec::new();
    for i in 0..PROBE_REQUESTS {
        let t = daemon.request(Some((rec, parent, i)), &format!("probe-{i}"), &spec)?;
        times.push(t);
    }
    crate::serve::set_serve_metrics(lm, &times);
    Ok(())
}
