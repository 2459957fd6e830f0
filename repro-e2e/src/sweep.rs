//! `sweep_fifo` and `sweep_ws`: the paper's high-concurrency matrix
//! (3 behaviours × 3 schemes × the window sweep) through
//! `SweepEngine::run_matrix`, each pass against a fresh empty cache so
//! every cell is computed and stored.
//!
//! Under FIFO the engine records one trace per behaviour and replays
//! every cell through `traps::Cpu` (the record-once/replay-many path);
//! under WorkingSet every cell is a direct run, so host time is the
//! runtime handing its turn token between OS threads.

use crate::harness::{job_walls, Check, Env, Pass, Size, Totals, TracedPass, Workload};
use crate::layers::{self, LayerMetrics, Rep};
use crate::span::Recorder;
use crate::stats::percentile;
use regwin_core::figures::Sweep;
use regwin_core::{Behavior, MatrixSpec, RunRecord};
use regwin_machine::{MachineConfig, SchemeKind};
use regwin_rt::{RunReport, SchedulingPolicy};
use regwin_spell::{reference, Corpus, CorpusSpec, SpellConfig, SpellPipeline};
use regwin_sweep::{fnv1a, records_to_json, JobKey, ResultCache, SweepConfig, SweepEngine};
use regwin_traps::build_scheme;
use std::path::PathBuf;

/// Corpus size of `sweep_fifo`, % of the paper's: one pass (108 cells)
/// takes about 2.2 s on the 2-core reference host. The paper corpus
/// (9 s a pass) spread more from run to run, not less (README).
const FIFO_SCALE: usize = 25;
/// Corpus size of `sweep_ws`, % of the paper's: one pass (63 direct
/// cells) takes about 11 s on the same host.
const WS_SCALE: usize = 25;

/// A sweep workload.
pub struct SweepBench {
    spec: MatrixSpec,
    corpus: Corpus,
    /// What the sequential reference checker reports for the corpus.
    expected: Vec<String>,
    dir: PathBuf,
    seed: u64,
    engines: usize,
    last: Vec<RunRecord>,
    last_quarantined: usize,
}

impl SweepBench {
    /// Builds the matrix spec, the corpus and its reference output.
    pub fn setup(policy: SchedulingPolicy, env: &Env) -> Result<Self, String> {
        let (scale, windows) = match (policy, env.size) {
            (SchedulingPolicy::Fifo, Size::Full) => (FIFO_SCALE, MatrixSpec::paper_window_sweep()),
            (_, Size::Full) => (WS_SCALE, MatrixSpec::quick_window_sweep()),
            (_, Size::Toy) => (1, vec![4, 8]),
        };
        let corpus_spec = CorpusSpec { seed: env.seed, ..CorpusSpec::scaled(scale) };
        let spec = Sweep::high_spec(corpus_spec, &windows, policy);
        let corpus = Corpus::generate(&corpus_spec);
        let expected = reference::check_sorted(&corpus.document, &corpus.dict1, &corpus.dict2);
        Ok(SweepBench {
            spec,
            corpus,
            expected,
            dir: env.dir.clone(),
            seed: env.seed,
            engines: 0,
            last: Vec::new(),
            last_quarantined: 0,
        })
    }

    /// A fresh engine on a fresh, empty cache directory.
    fn engine(&mut self, workers: usize) -> Result<SweepEngine, String> {
        let cache = self.dir.join(format!("cache{}", self.engines));
        self.engines += 1;
        let config = SweepConfig::builder()
            .workers(workers)
            .cache_dir(cache)
            .build()
            .map_err(|e| e.to_string())?;
        Ok(SweepEngine::with_config(config))
    }

    fn finish_pass(&mut self, engine: &SweepEngine, records: Vec<RunRecord>) -> Pass {
        let quarantined = engine.quarantine().len();
        let missing = self.spec.len().saturating_sub(records.len());
        let pass = Pass {
            op_ms: job_walls(engine),
            attempted: self.spec.len() as u64,
            failed: (quarantined + missing) as u64,
        };
        self.last = records;
        self.last_quarantined = quarantined;
        pass
    }

    fn pipeline(&self, behavior: Behavior) -> SpellPipeline {
        let (m, n) = behavior.buffers();
        let config = SpellConfig::new(self.spec.corpus, m, n)
            .with_policy(self.spec.policy)
            .with_timing(self.spec.timing);
        SpellPipeline::with_corpus(self.corpus.clone(), config)
    }

    /// The cell the differential oracle re-runs: the cheapest behaviour
    /// (coarse, fewest switches), scheme and window count from the seed.
    fn oracle_cell(&self) -> (Behavior, SchemeKind, usize) {
        let s = self.seed as usize;
        (
            self.spec.behaviors[0],
            self.spec.schemes[s % self.spec.schemes.len()],
            self.spec.windows[(s / 3) % self.spec.windows.len()],
        )
    }

    fn record_for(&self, b: Behavior, s: SchemeKind, w: usize) -> Option<&RunReport> {
        self.last
            .iter()
            .find(|r| r.behavior == b && r.scheme == s && r.nwindows == w)
            .map(|r| &r.report)
    }

    /// Direct ≡ engine: the oracle cell re-run directly must report what
    /// the engine reported (under FIFO the engine replayed a trace, so
    /// this is the replay ≡ direct oracle), and its output must be the
    /// reference checker's. Under WorkingSet the run is also traced, and
    /// the trace's replay must reproduce it.
    fn oracle(&self) -> Result<(), String> {
        let (b, s, w) = self.oracle_cell();
        let engine = self.record_for(b, s, w).ok_or("oracle cell missing from the pass")?;
        let pipeline = self.pipeline(b);
        let (outcome, trace) = pipeline.run_traced(w, s).map_err(|e| e.to_string())?;
        if &outcome.report != engine {
            return Err(format!("{b} {s} w={w}: direct run differs from the engine's record"));
        }
        if outcome.sorted_misspellings() != self.expected {
            return Err(format!("{b} {s} w={w}: output differs from the reference checker"));
        }
        let mut replayed = trace
            .replay(MachineConfig::new(w).with_timing(self.spec.timing), build_scheme(s))
            .map_err(|e| e.to_string())?;
        replayed.policy = outcome.report.policy;
        if replayed != outcome.report {
            return Err(format!("{b} {s} w={w}: trace replay differs from the direct run"));
        }
        Ok(())
    }

    /// Paper §5.2: under FIFO the schedule, and so every switch count,
    /// is independent of the scheme and the window count.
    fn fifo_invariance(&self) -> Result<(), String> {
        for &b in &self.spec.behaviors {
            let counts: Vec<u64> = self
                .last
                .iter()
                .filter(|r| r.behavior == b)
                .map(|r| r.report.stats.context_switches)
                .collect();
            if counts.windows(2).any(|w| w[0] != w[1]) {
                return Err(format!("{b}: switch counts vary across cells: {counts:?}"));
            }
        }
        Ok(())
    }
}

impl Workload for SweepBench {
    fn pass(&mut self, workers: usize) -> Result<Pass, String> {
        let engine = self.engine(workers)?;
        let records = engine.run_matrix(&self.spec).map_err(|e| e.to_string())?;
        Ok(self.finish_pass(&engine, records))
    }

    fn digest(&self) -> Option<u64> {
        Some(fnv1a(records_to_json(&self.last).as_bytes()))
    }

    fn totals(&self) -> Totals {
        vec![
            ("cells", self.last.len() as u64),
            ("cycles", self.last.iter().map(|r| r.report.total_cycles()).sum()),
            ("switches", self.last.iter().map(|r| r.report.stats.context_switches).sum()),
            (
                "traps",
                self.last
                    .iter()
                    .map(|r| r.report.stats.overflow_traps + r.report.stats.underflow_traps)
                    .sum(),
            ),
            ("divergences", self.last_quarantined as u64),
        ]
    }

    fn checks(&mut self) -> Vec<Check> {
        let mut checks = vec![("direct-oracle".to_string(), self.oracle())];
        if self.spec.policy == SchedulingPolicy::Fifo {
            checks.push(("fifo-schedule-invariance".to_string(), self.fifo_invariance()));
        }
        checks
    }

    fn trace(
        &mut self,
        rec: &Recorder,
        root: usize,
        lm: &mut LayerMetrics,
    ) -> Result<TracedPass, String> {
        let engine = self.engine(1)?;
        let pass_id = rec.begin("bench.pass", Some(root), 0);
        let (_, records) =
            rec.time("sweep.run_matrix", Some(pass_id), 0, || engine.run_matrix(&self.spec));
        rec.end(pass_id);
        let records = records.map_err(|e| e.to_string())?;
        let walls = job_walls(&engine);
        lm.set("sweep.job_ms_p50", percentile(&walls, 50.0).unwrap_or(0.0));
        lm.set("sweep.job_ms_p90", percentile(&walls, 90.0).unwrap_or(0.0));
        let (id, _) =
            rec.time("sweep.artifact", Some(root), 0, || engine.artifact_value().to_json());
        lm.set("sweep.artifact_ms", rec.len_ns(id) as f64 / 1e6);
        let pass = self.finish_pass(&engine, records);

        // Attribution. Each job's own time is in situ, from the engine's
        // job log (the engine exposes no per-job start, so jobs are not
        // spans). What the engine does outside jobs — corpus generation,
        // the FIFO recordings, cache stores — is replicated through the
        // same public calls, one span each. Their sum, plus the engine's
        // own overhead probed separately, is what the pass's wall time is
        // attributed to.
        let replica = rec.begin("bench.replica", Some(root), 0);
        let spec = &self.spec;
        rec.time("spell.corpus", Some(replica), 0, || Corpus::generate(&spec.corpus));
        if spec.policy == SchedulingPolicy::Fifo {
            for (i, &b) in spec.behaviors.iter().enumerate() {
                let (m, n) = b.buffers();
                let config = SpellConfig::new(spec.corpus, m, n).with_policy(spec.policy);
                let p = SpellPipeline::with_corpus(self.corpus.clone(), config);
                let (_, out) = rec
                    .time("rt.record", Some(replica), i as u64, || p.run_traced(8, SchemeKind::Sp));
                out.map_err(|e| e.to_string())?;
            }
        }
        let cache = ResultCache::new(self.dir.join("replica-cache"));
        for (i, r) in self.last.iter().enumerate() {
            let key = JobKey::for_cell(spec, r.behavior, r.scheme, r.nwindows);
            rec.time("sweep.cache_store", Some(replica), i as u64, || cache.store(&key, &r.report));
        }
        rec.end(replica);
        let replicated: u64 =
            rec.spans().iter().filter(|s| s.parent == Some(replica)).map(|s| s.len_ns()).sum();
        let attributed_ns = replicated + (walls.iter().sum::<f64>() * 1e6) as u64;
        Ok(TracedPass {
            pass,
            wall_ns: rec.len_ns(pass_id),
            attributed_ns,
            plus_engine_overhead: true,
        })
    }

    fn layer_inputs(&self) -> layers::Inputs {
        // The representative cell: the finest-grained behaviour (most
        // switches) under SP on 8 windows, the recording configuration.
        let fine = self.spec.behaviors[self.spec.behaviors.len() - 1];
        let reports = self
            .last
            .iter()
            .map(|r| {
                (JobKey::for_cell(&self.spec, r.behavior, r.scheme, r.nwindows), r.report.clone())
            })
            .collect();
        layers::Inputs {
            rep: Rep::Spell {
                config: *self.pipeline(fine).config(),
                corpus: self.corpus.clone(),
                nwindows: 8,
                scheme: SchemeKind::Sp,
            },
            reports,
            jobs_per_pass: self.spec.len(),
            seed: self.seed,
        }
    }
}
