//! Bus-saturation figure: the sharded spell workload on multi-PE
//! clusters of growing size, every cell executed through the
//! `regwin-sweep` engine (content-addressed cache, worker pool,
//! quarantine) and summarised into the deterministic
//! `BENCH_cluster.json` artifact — cluster throughput and bus stall
//! cycles vs PE count, the PIE64 question the paper's schemes were
//! built for.
//!
//! Every number in the artifact derives from simulated cycles, so the
//! file is byte-identical across `--jobs` counts, cache states and
//! machines.
//!
//! Usage: `repro-cluster [--quick] [--out <file>] [--jobs <n>]
//! [--cache-dir <dir>] [--no-cache] [--arbitration <fixed|rr>]
//! [--fault-plan <spec>] [--audit] [--check-1pe] [--policy <name>]
//! [--timing <s20|pipeline>]`

use regwin_bench::write_bench_json;
use regwin_cluster::{run_spell_cluster, Arbitration, BusConfig, ClusterConfig};
use regwin_machine::TimingKind;
use regwin_obs::Histogram;
use regwin_rt::SchedulingPolicy;
use regwin_spell::{SpellConfig, SpellPipeline};
use regwin_sweep::json::{obj, Value};
use regwin_sweep::{Job, JobKey, SweepConfig, SweepEngine};
use regwin_traps::SchemeKind;
use std::path::PathBuf;

/// PE counts of the committed figure.
const PE_COUNTS: [usize; 6] = [1, 2, 4, 8, 16, 64];
/// PE counts of the `--quick` CI smoke run.
const PE_COUNTS_QUICK: [usize; 3] = [1, 2, 4];

const USAGE: &str = "usage: repro-cluster [--quick] [--out <file>] [--jobs <n>] \
[--cache-dir <dir>] [--no-cache] [--arbitration <fixed|rr>] [--fault-plan <spec>] \
[--audit] [--check-1pe] [--policy <FIFO|WorkingSet|WindowGreedy|Aging>] \
[--timing <s20|pipeline>]";

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!("{USAGE}");
    std::process::exit(2);
}

struct Opts {
    quick: bool,
    out: PathBuf,
    jobs: usize,
    cache_dir: Option<PathBuf>,
    arbitration: Arbitration,
    fault_plan: Option<String>,
    audit: bool,
    check_1pe: bool,
    policy: SchedulingPolicy,
    timing: TimingKind,
}

fn parse_opts() -> Opts {
    let mut o = Opts {
        quick: false,
        out: PathBuf::from("BENCH_cluster.json"),
        jobs: 0,
        cache_dir: Some(PathBuf::from("target/sweep-cache")),
        arbitration: Arbitration::RoundRobin,
        fault_plan: None,
        audit: false,
        check_1pe: false,
        policy: SchedulingPolicy::Fifo,
        timing: TimingKind::S20,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => o.quick = true,
            "--out" => {
                o.out = PathBuf::from(it.next().unwrap_or_else(|| usage("--out needs a path")));
            }
            "--jobs" => {
                o.jobs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--jobs needs a thread count"));
            }
            "--cache-dir" => {
                o.cache_dir = Some(PathBuf::from(
                    it.next().unwrap_or_else(|| usage("--cache-dir needs a dir")),
                ));
            }
            "--no-cache" => o.cache_dir = None,
            "--arbitration" => {
                let v = it.next().unwrap_or_else(|| usage("--arbitration needs fixed|rr"));
                o.arbitration = Arbitration::parse(&v)
                    .unwrap_or_else(|| usage(&format!("unknown arbitration {v:?}")));
            }
            "--fault-plan" => {
                o.fault_plan = Some(
                    it.next().unwrap_or_else(|| usage("--fault-plan needs a kind@index spec")),
                );
            }
            "--audit" => o.audit = true,
            "--check-1pe" => o.check_1pe = true,
            "--policy" => {
                let v = it.next().unwrap_or_else(|| usage("--policy needs a policy name"));
                o.policy = SchedulingPolicy::parse(&v)
                    .unwrap_or_else(|| usage(&format!("unknown policy {v:?}")));
            }
            "--timing" => {
                let v = it.next().unwrap_or_else(|| usage("--timing needs s20|pipeline"));
                o.timing = TimingKind::parse(&v)
                    .unwrap_or_else(|| usage(&format!("unknown timing backend {v:?}")));
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    o
}

fn main() {
    let opts = parse_opts();
    let spell = SpellConfig::small().with_policy(opts.policy).with_timing(opts.timing);
    let scheme = SchemeKind::Sp;
    let nwindows = 8;
    let bus = BusConfig { arbitration: opts.arbitration, ..BusConfig::default() };
    let fault = opts.fault_plan.as_deref().map(|spec| {
        regwin_rt::FaultPlan::parse(spec).unwrap_or_else(|e| usage(&format!("--fault-plan: {e}")))
    });

    if opts.check_1pe {
        check_1pe(&spell, scheme, nwindows, bus);
    }

    let mut builder = SweepConfig::builder().workers(opts.jobs).stream_events(true);
    if let Some(dir) = &opts.cache_dir {
        builder = builder.cache_dir(dir.clone());
    }
    if let Some(plan) = &fault {
        // Registering the plan with the engine disables the result
        // cache, so faulted reports never poison clean runs.
        builder = builder.fault_plan(plan.clone());
    }
    builder = builder.window_audit(opts.audit);
    let engine =
        SweepEngine::with_config(builder.build().unwrap_or_else(|e| usage(&e.to_string())));

    let pe_counts: &[usize] = if opts.quick { &PE_COUNTS_QUICK } else { &PE_COUNTS };
    let jobs: Vec<Job> = pe_counts
        .iter()
        .map(|&p| {
            let key = JobKey {
                experiment: format!(
                    "cluster:arb={}:cpb={}:lat={}:pes={p}",
                    bus.arbitration.name(),
                    bus.cycles_per_byte,
                    bus.latency
                ),
                corpus: spell.corpus,
                m: spell.m,
                n: spell.n,
                policy: spell.policy,
                scheme: scheme.name().to_string(),
                nwindows,
                timing: spell.timing,
                gen: None,
                fuzz: None,
            };
            let mut cfg = ClusterConfig::homogeneous(p, scheme, nwindows, spell);
            cfg.bus = bus;
            cfg.audit = opts.audit;
            let plan = fault.clone();
            Job::new(key, move || run_spell_cluster(&cfg, plan.as_ref()).map(|o| o.report.merged()))
        })
        .collect();
    let results = engine.run_jobs(&jobs);

    let mut rows = Vec::new();
    println!(
        "{:>4} {:>14} {:>22} {:>12} {:>10} {:>10}",
        "pes", "makespan", "shards/Mcycle", "bus stalls", "grants", "messages"
    );
    for (i, &p) in pe_counts.iter().enumerate() {
        let Some(report) = &results[i] else { continue };
        // A 1-PE merged report is the legacy report verbatim — no bus
        // section — so the figure's bus columns are zero there.
        let (makespan, stalls, grants, messages, per_pe) = match &report.bus {
            Some(b) => {
                (b.makespan_cycles, b.stall_cycles, b.grants, b.messages, b.per_pe_cycles.clone())
            }
            None => (report.cycles.total(), 0, 0, 0, vec![report.cycles.total()]),
        };
        let throughput = p as f64 * 1e6 / makespan as f64;
        println!(
            "{p:>4} {makespan:>14} {throughput:>22.3} {stalls:>12} {grants:>10} {messages:>10}"
        );
        let mut hist = Histogram::new();
        for &c in &per_pe {
            hist.record(c);
        }
        rows.push(obj(vec![
            ("pes", Value::Int(p as u64)),
            ("makespan_cycles", Value::Int(makespan)),
            ("throughput_shards_per_mcycle", Value::Float(throughput)),
            ("bus_stall_cycles", Value::Int(stalls)),
            ("bus_grants", Value::Int(grants)),
            ("bus_messages", Value::Int(messages)),
            ("per_pe_cycles", Value::Arr(per_pe.iter().map(|&c| Value::Int(c)).collect())),
            (
                "per_pe_cycle_hist",
                Value::Arr(
                    hist.buckets()
                        .into_iter()
                        .map(|(lo, n)| obj(vec![("ge", Value::Int(lo)), ("count", Value::Int(n))]))
                        .collect(),
                ),
            ),
        ]));
    }

    let quarantine = engine
        .quarantine()
        .iter()
        .map(|q| {
            obj(vec![
                ("label", Value::Str(q.label.clone())),
                ("reason", Value::Str(q.reason.to_string())),
                ("attempts", Value::Int(u64::from(q.attempts))),
                ("detail", Value::Str(q.detail.clone())),
            ])
        })
        .collect();
    let doc = obj(vec![
        ("schema", Value::Int(1)),
        ("kind", Value::Str("cluster_saturation".to_string())),
        ("quick", Value::Bool(opts.quick)),
        ("scheme", Value::Str(scheme.name().to_string())),
        ("nwindows", Value::Int(nwindows as u64)),
        ("arbitration", Value::Str(bus.arbitration.name().to_string())),
        ("bus_cycles_per_byte", Value::Int(bus.cycles_per_byte)),
        ("bus_latency", Value::Int(bus.latency)),
        ("pe_counts", Value::Arr(pe_counts.iter().map(|&p| Value::Int(p as u64)).collect())),
        ("rows", Value::Arr(rows)),
        ("quarantine", Value::Arr(quarantine)),
    ]);
    write_bench_json(&opts.out, &doc);
    let s = engine.summary();
    eprintln!(
        "sweep: {} jobs, {} cache hits, {} executed, {} quarantined",
        s.jobs, s.cache_hits, s.cache_misses, s.quarantined
    );
    for q in engine.quarantine() {
        eprintln!(
            "  quarantined [{}] {} after {} attempts: {}",
            q.reason, q.label, q.attempts, q.detail
        );
    }
}

/// The 1-PE differential oracle: a 1-PE cluster must match the legacy
/// single-machine spell path in every reported number and output byte.
fn check_1pe(spell: &SpellConfig, scheme: SchemeKind, nwindows: usize, bus: BusConfig) {
    let mut cfg = ClusterConfig::homogeneous(1, scheme, nwindows, *spell);
    cfg.bus = bus;
    let cluster = run_spell_cluster(&cfg, None).unwrap_or_else(|e| {
        eprintln!("error: 1-PE cluster run failed: {e}");
        std::process::exit(1);
    });
    let legacy = SpellPipeline::new(*spell).run(nwindows, scheme).unwrap_or_else(|e| {
        eprintln!("error: legacy run failed: {e}");
        std::process::exit(1);
    });
    let merged = cluster.report.merged();
    if merged != legacy.report || cluster.outputs != vec![legacy.output] {
        eprintln!("error: 1-PE cluster differs from the legacy single-machine path");
        eprintln!("  cluster: {merged}");
        eprintln!("  legacy:  {}", legacy.report);
        std::process::exit(1);
    }
    eprintln!("1-PE differential: cluster report and output identical to the legacy path");
}
