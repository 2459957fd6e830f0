//! The standing differential-oracle regression farm: seeded synthetic
//! scenarios from `regwin-gen` swept across every scheduling policy ×
//! timing backend, each one run as an invariant bundle (direct vs
//! trace-replay vs 1-PE cluster vs masked-fault, plus any injected
//! plan) through the `regwin-sweep` engine. A divergence quarantines
//! the job with a full reproducer, is shrunk to a minimal scenario, and
//! lands in the deterministic `BENCH_fuzz.json` census.
//!
//! Every number derives purely from simulated cycles and seeded specs,
//! so the file is byte-identical across `--jobs` counts, cache states
//! and machines.
//!
//! Modes:
//!
//! - default: the farm sweep. `--quick` runs 63 seeds per combo (504
//!   scenarios over 4 policies × 2 timing backends), the full run 125
//!   (1000 scenarios); `--scale <pct>` scales the per-combo seed count.
//! - `--gen <scenario>`: replay one canonical scenario string — the
//!   quarantine `repro` field — through the bundle, shrinking on
//!   failure. Exit status 1 if the scenario diverges.
//!
//! `--fault-plan`/`--fault-seed` inject the plan into **every**
//! scenario's `injected-fault` invariant (and worker faults into the
//! engine as usual): an unmasked fault must be detected in every single
//! scenario, which is what the CI fault-detection leg pins down.

use regwin_bench::{write_bench_json, Args};
use regwin_gen::{run_bundle, shrink, Scenario, WorkloadSpec};
use regwin_machine::{SchemeKind, TimingKind};
use regwin_rt::SchedulingPolicy;
use regwin_spell::CorpusSpec;
use regwin_sweep::json::{obj, Value};
use regwin_sweep::{Job, JobKey};
use std::path::PathBuf;

/// Seeds per (policy × timing) combo: 63 under `--quick` (504
/// scenarios), 125 in a full run (1000 scenarios), scaled by
/// `--scale <pct>` and floored at one.
fn seeds_per_combo(quick: bool, scale: usize) -> usize {
    let base = if quick { 63 } else { 125 };
    (base * scale / 100).max(1)
}

/// The same splitmix64 the generator seeds from — scenario seeds must
/// not depend on anything but the farm's fixed base constant and the
/// scenario ordinal.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds scenario `i` of a (policy, timing) combo: the spec seed, the
/// scheme, the window count and the fuzz seed all derive from the
/// global ordinal, so the farm's scenario set is a pure function of
/// (quick, scale).
fn scenario(policy: SchedulingPolicy, timing: TimingKind, ordinal: u64, args: &Args) -> Scenario {
    let mut state = 0xFA2A_F00D ^ ordinal;
    let spec_seed = splitmix64(&mut state);
    let mut sc = Scenario::new(WorkloadSpec::from_seed(spec_seed));
    sc.policy = policy;
    sc.timing = timing;
    sc.scheme = SchemeKind::ALL[(ordinal % 3) as usize];
    sc.nwindows = 4 + (ordinal % 5) as usize;
    sc.audit = args.audit;
    // Every other scenario runs under seeded schedule fuzzing.
    if ordinal % 2 == 1 {
        sc.fuzz = Some(splitmix64(&mut state));
    }
    sc.fault = args.fault_plan().filter(|p| p.has_sim_faults());
    sc
}

/// The content-addressed key of one farm scenario. Corpus/m/n describe
/// the spell workload, which the farm does not run: the scenario string
/// in `gen` (plus the spec seed standing in for the corpus seed) is the
/// whole identity.
fn key_for(sc: &Scenario) -> JobKey {
    JobKey {
        experiment: "fuzz".to_string(),
        corpus: CorpusSpec { doc_bytes: 0, dict_bytes: 0, seed: sc.spec.seed },
        m: 0,
        n: 0,
        policy: sc.policy,
        scheme: sc.scheme.name().to_string(),
        nwindows: sc.nwindows,
        timing: sc.timing,
        gen: Some(sc.canonical()),
        fuzz: sc.fuzz,
    }
}

/// Replay mode (`--gen`): one scenario through the bundle, shrunk on
/// failure.
fn replay(spec: &str) -> ! {
    let sc = Scenario::parse(spec).unwrap_or_else(|e| {
        eprintln!("error: --gen: {e}");
        std::process::exit(2);
    });
    match run_bundle(&sc) {
        Ok(report) => {
            println!("gen scenario: PASS ({} cycles)", report.total_cycles());
            std::process::exit(0);
        }
        Err(e) => {
            println!("gen scenario: FAIL: {e}");
            if let Some(outcome) = shrink(&sc, 40) {
                println!("shrunk: {}", outcome.scenario.canonical());
                println!("shrunk detail: {}", outcome.detail);
            }
            std::process::exit(1);
        }
    }
}

fn main() {
    let args = Args::parse();
    if let Some(spec) = &args.gen {
        replay(spec);
    }
    let engine = args.engine();
    let seeds = seeds_per_combo(args.quick, args.scale);

    let mut combo_rows = Vec::new();
    let mut divergences = Vec::new();
    let mut ordinal = 0u64;
    let mut total = 0usize;
    for policy in SchedulingPolicy::ALL {
        for timing in TimingKind::ALL {
            let scenarios: Vec<Scenario> = (0..seeds)
                .map(|_| {
                    let sc = scenario(policy, timing, ordinal, &args);
                    ordinal += 1;
                    sc
                })
                .collect();
            let jobs: Vec<Job> = scenarios
                .iter()
                .map(|sc| {
                    let sc = sc.clone();
                    Job::new(key_for(&sc), move || run_bundle(&sc))
                })
                .collect();
            let before = engine.quarantine().len();
            let results = engine.run_jobs(&jobs);
            let mut after: Vec<_> = engine.quarantine().split_off(before);
            // Quarantine push order follows worker completion order;
            // the artifact promises byte-identity across `--jobs`
            // counts, so order by canonical key.
            after.sort_by(|a, b| a.key.cmp(&b.key));
            let diverged = after.len();
            let cycles: u64 = results.iter().flatten().map(|r| r.total_cycles()).sum();
            total += scenarios.len();
            // The per-combo health line fuzz-smoke CI greps for.
            println!(
                "fuzz {policy}/{timing}: {} scenarios, {diverged} divergences",
                scenarios.len()
            );
            combo_rows.push(obj(vec![
                ("policy", Value::Str(policy.name().to_string())),
                ("timing", Value::Str(timing.name().to_string())),
                ("scenarios", Value::Int(scenarios.len() as u64)),
                ("divergences", Value::Int(diverged as u64)),
                ("total_cycles", Value::Int(cycles)),
            ]));
            // Shrink every divergence to a minimal reproducer.
            for q in &after {
                let sc = scenarios.iter().find(|sc| key_for(sc).id() == q.id);
                let (shrunk, shrunk_detail) = match sc.and_then(|sc| shrink(sc, 40)) {
                    Some(o) => (o.scenario.canonical(), o.detail),
                    None => (String::new(), String::new()),
                };
                println!("  divergence [{}] {}: {}", q.reason, q.label, q.detail);
                if !shrunk.is_empty() {
                    println!("  shrunk: {shrunk}");
                }
                divergences.push(obj(vec![
                    ("id", Value::Str(q.id.clone())),
                    ("scenario", Value::Str(sc.map(Scenario::canonical).unwrap_or_default())),
                    ("reason", Value::Str(q.reason.into())),
                    ("detail", Value::Str(q.detail.clone())),
                    ("repro", Value::Str(q.repro.clone())),
                    ("shrunk", Value::Str(shrunk)),
                    ("shrunk_detail", Value::Str(shrunk_detail)),
                ]));
            }
        }
    }
    println!("fuzz farm: {total} scenarios, {} divergences", divergences.len());

    let doc = obj(vec![
        ("schema", Value::Int(1)),
        ("kind", Value::Str("fuzz_farm".to_string())),
        ("quick", Value::Bool(args.quick)),
        ("scale_pct", Value::Int(args.scale as u64)),
        ("seeds_per_combo", Value::Int(seeds as u64)),
        ("scenarios_total", Value::Int(total as u64)),
        (
            "policies",
            Value::Arr(
                SchedulingPolicy::ALL.iter().map(|p| Value::Str(p.name().to_string())).collect(),
            ),
        ),
        (
            "timings",
            Value::Arr(TimingKind::ALL.iter().map(|t| Value::Str(t.name().to_string())).collect()),
        ),
        ("combos", Value::Arr(combo_rows)),
        ("divergences", Value::Arr(divergences)),
    ]);
    let path = args.out_dir.clone().unwrap_or_else(|| PathBuf::from(".")).join("BENCH_fuzz.json");
    write_bench_json(&path, &doc);
    args.finish(&engine);
}
