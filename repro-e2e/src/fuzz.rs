//! `fuzz_farm`: the `repro-fuzz` differential-oracle farm at full size —
//! 125 seeds × 4 policies × 2 timing backends = 1000 generated
//! scenarios per pass, each through the five-run invariant bundle
//! (direct, replay, 1-PE cluster, audited, masked fault). Thousands of
//! tiny simulations: per-simulation thread spawn and join dominate, not
//! per-switch handoff.

use crate::harness::{job_walls, Check, Env, Pass, Size, Totals, TracedPass, Workload};
use crate::layers::{self, LayerMetrics, Rep};
use crate::span::Recorder;
use crate::stats::percentile;
use regwin_gen::{run_bundle, Scenario, WorkloadSpec};
use regwin_machine::{SchemeKind, TimingKind};
use regwin_rt::{RunReport, SchedulingPolicy};
use regwin_spell::CorpusSpec;
use regwin_sweep::json;
use regwin_sweep::{fnv1a, Job, JobKey, SweepConfig, SweepEngine};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Seeds per (policy × timing) combo: `repro-fuzz`'s full farm.
pub const SEEDS_PER_COMBO: usize = 125;
const SEEDS_PER_COMBO_TOY: usize = 2;
/// The committed farm census: at the default seed every combo's
/// scenario count, divergences and cycle total must match it.
const COMMITTED: &str = include_str!("../../BENCH_fuzz.json");

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Scenario `ordinal` of the farm with base seed `base`, derived exactly
/// as `repro-fuzz` derives it.
fn scenario(base: u64, policy: SchedulingPolicy, timing: TimingKind, ordinal: u64) -> Scenario {
    let mut state = base ^ ordinal;
    let spec_seed = splitmix64(&mut state);
    let mut sc = Scenario::new(WorkloadSpec::from_seed(spec_seed));
    sc.policy = policy;
    sc.timing = timing;
    sc.scheme = SchemeKind::ALL[(ordinal % 3) as usize];
    sc.nwindows = 4 + (ordinal % 5) as usize;
    if ordinal % 2 == 1 {
        sc.fuzz = Some(splitmix64(&mut state));
    }
    sc
}

/// The whole farm, combo by combo (policy-major, then timing).
pub fn farm(base: u64, per_combo: usize) -> Vec<Scenario> {
    let mut out = Vec::with_capacity(per_combo * 8);
    let mut ordinal = 0u64;
    for policy in SchedulingPolicy::ALL {
        for timing in TimingKind::ALL {
            for _ in 0..per_combo {
                out.push(scenario(base, policy, timing, ordinal));
                ordinal += 1;
            }
        }
    }
    out
}

/// `repro-fuzz`'s content-addressed key of one scenario.
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

/// The fuzz-farm workload.
pub struct FuzzBench {
    seed: u64,
    size: Size,
    per_combo: usize,
    scenarios: Vec<Scenario>,
    /// One job batch per combo, as the farm submits them.
    batches: Vec<Vec<Job>>,
    /// (scenario index, start, end) of every bundle run.
    timings: Arc<Mutex<Vec<(usize, Instant, Instant)>>>,
    last: Vec<Option<RunReport>>,
    last_quarantined: usize,
}

impl FuzzBench {
    /// Derives the farm's scenarios and job batches from the seed.
    pub fn setup(env: &Env) -> Result<Self, String> {
        let per_combo = match env.size {
            Size::Full => SEEDS_PER_COMBO,
            Size::Toy => SEEDS_PER_COMBO_TOY,
        };
        let scenarios = farm(env.seed, per_combo);
        let timings: Arc<Mutex<Vec<(usize, Instant, Instant)>>> = Arc::default();
        let batches = scenarios
            .chunks(per_combo)
            .enumerate()
            .map(|(c, combo)| {
                combo
                    .iter()
                    .enumerate()
                    .map(|(j, sc)| {
                        let index = c * per_combo + j;
                        let sc = sc.clone();
                        let timings = Arc::clone(&timings);
                        Job::new(key_for(&sc), move || {
                            let start = Instant::now();
                            let out = run_bundle(&sc);
                            let end = Instant::now();
                            timings.lock().expect("timing sink poisoned").push((index, start, end));
                            out
                        })
                    })
                    .collect()
            })
            .collect();
        Ok(FuzzBench {
            seed: env.seed,
            size: env.size,
            per_combo,
            scenarios,
            batches,
            timings,
            last: Vec::new(),
            last_quarantined: 0,
        })
    }

    fn run(&mut self, workers: usize) -> Result<(Pass, SweepEngine, Vec<usize>), String> {
        let engine = SweepEngine::with_config(
            SweepConfig::builder().workers(workers).build().map_err(|e| e.to_string())?,
        );
        self.timings.lock().expect("timing sink poisoned").clear();
        let mut results = Vec::with_capacity(self.scenarios.len());
        let mut batch_ends = Vec::new();
        for jobs in &self.batches {
            results.extend(engine.run_jobs(jobs));
            batch_ends.push(results.len());
        }
        // A job whose bundle diverged or errored is quarantined and
        // leaves its slot empty.
        let missing = results.iter().filter(|r| r.is_none()).count();
        self.last = results;
        self.last_quarantined = engine.quarantine().len();
        let pass = Pass {
            op_ms: job_walls(&engine),
            attempted: self.scenarios.len() as u64,
            failed: missing as u64,
        };
        Ok((pass, engine, batch_ends))
    }

    /// Per-combo (scenarios, cycle total) in farm order.
    fn combos(&self) -> Vec<(usize, u64)> {
        self.last
            .chunks(self.per_combo)
            .map(|c| (c.len(), c.iter().flatten().map(RunReport::total_cycles).sum()))
            .collect()
    }

    /// At the committed seed and size, the census is the committed one.
    fn combos_match_committed(&self) -> Result<(), String> {
        let committed = json::parse(COMMITTED).map_err(|e| format!("BENCH_fuzz.json: {e}"))?;
        let want: Vec<(u64, u64, u64)> = committed
            .get("combos")
            .and_then(json::Value::as_arr)
            .ok_or("BENCH_fuzz.json has no combos")?
            .iter()
            .map(|c| {
                let field = |k: &str| c.get(k).and_then(json::Value::as_u64).unwrap_or(u64::MAX);
                (field("scenarios"), field("divergences"), field("total_cycles"))
            })
            .collect();
        let got: Vec<(u64, u64, u64)> =
            self.combos().into_iter().map(|(n, cycles)| (n as u64, 0, cycles)).collect();
        if got == want {
            Ok(())
        } else {
            Err(format!("combo census {got:?} differs from the committed {want:?}"))
        }
    }
}

impl Workload for FuzzBench {
    fn pass(&mut self, workers: usize) -> Result<Pass, String> {
        self.run(workers).map(|(pass, ..)| pass)
    }

    fn digest(&self) -> Option<u64> {
        let bytes: Vec<u8> = self
            .last
            .iter()
            .flat_map(|r| {
                let (cycles, switches) =
                    r.as_ref().map_or((0, 0), |r| (r.total_cycles(), r.stats.context_switches));
                cycles.to_le_bytes().into_iter().chain(switches.to_le_bytes())
            })
            .collect();
        Some(fnv1a(&bytes))
    }

    fn totals(&self) -> Totals {
        let reports: Vec<&RunReport> = self.last.iter().flatten().collect();
        vec![
            ("scenarios", self.last.len() as u64),
            ("cycles", reports.iter().map(|r| r.total_cycles()).sum()),
            ("switches", reports.iter().map(|r| r.stats.context_switches).sum()),
            (
                "traps",
                reports.iter().map(|r| r.stats.overflow_traps + r.stats.underflow_traps).sum(),
            ),
            ("divergences", self.last_quarantined as u64),
        ]
    }

    fn checks(&mut self) -> Vec<Check> {
        let mut checks = vec![(
            "zero-divergences".to_string(),
            match self.last_quarantined {
                0 => Ok(()),
                n => Err(format!("{n} scenarios diverged")),
            },
        )];
        if self.size == Size::Full && self.seed == crate::harness::default_seed("fuzz_farm") {
            checks.push(("combos-match-BENCH_fuzz".to_string(), self.combos_match_committed()));
        }
        checks
    }

    fn trace(
        &mut self,
        rec: &Recorder,
        root: usize,
        lm: &mut LayerMetrics,
    ) -> Result<TracedPass, String> {
        let pass_id = rec.begin("bench.pass", Some(root), 0);
        let (pass, engine, _) = self.run(1)?;
        rec.end(pass_id);
        let mut bundles = Vec::new();
        let mut attributed_ns = 0;
        for &(index, start, end) in self.timings.lock().expect("timing sink poisoned").iter() {
            let id = rec.record_span("gen.bundle", Some(pass_id), index as u64, start, end);
            attributed_ns += rec.len_ns(id);
            bundles.push(rec.len_ns(id) as f64 / 1e6);
        }
        layers::set_bundle_percentiles(lm, &bundles);
        let walls = job_walls(&engine);
        lm.set("sweep.job_ms_p50", percentile(&walls, 50.0).unwrap_or(0.0));
        lm.set("sweep.job_ms_p90", percentile(&walls, 90.0).unwrap_or(0.0));
        let (id, _) =
            rec.time("sweep.artifact", Some(root), 0, || engine.artifact_value().to_json());
        lm.set("sweep.artifact_ms", rec.len_ns(id) as f64 / 1e6);
        Ok(TracedPass {
            pass,
            wall_ns: rec.len_ns(pass_id),
            attributed_ns,
            plus_engine_overhead: true,
        })
    }

    fn layer_inputs(&self) -> layers::Inputs {
        // Every 50th scenario: a sample across every combo.
        let sample = self.scenarios.iter().step_by(50).cloned().collect();
        let reports = self
            .scenarios
            .iter()
            .zip(&self.last)
            .filter_map(|(sc, r)| Some((key_for(sc), r.clone()?)))
            .collect();
        layers::Inputs {
            rep: Rep::Gen(sample),
            reports,
            jobs_per_pass: self.scenarios.len(),
            seed: self.seed,
        }
    }
}
