//! `cluster_pe`: `repro-cluster`'s committed configuration through
//! `SweepEngine::run_jobs` — PEs {1, 2, 4, 8, 16, 64}, SP on 8 windows,
//! round-robin bus, `SpellConfig::small()` shards, no cache. The only
//! workload that drives the stepping API, bus arbitration and cross-PE
//! delivery; the 64-PE job alone holds 448 OS threads.

use crate::harness::{job_walls, Check, Env, Pass, Size, Totals, TracedPass, Workload};
use crate::layers::{self, ClusterJob, LayerMetrics, Rep};
use crate::rusage::Usage;
use crate::span::Recorder;
use crate::stats::percentile;
use regwin_cluster::{run_spell_cluster, BusConfig, ClusterConfig};
use regwin_machine::SchemeKind;
use regwin_obs::Histogram;
use regwin_rt::RunReport;
use regwin_spell::{reference, Corpus, CorpusSpec, SpellConfig};
use regwin_sweep::json::{self, obj, Value};
use regwin_sweep::{fnv1a, Job, JobKey, SweepConfig, SweepEngine};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// PE counts of the committed figure.
const PE_COUNTS: [usize; 6] = [1, 2, 4, 8, 16, 64];
/// PE counts at toy size.
const PE_COUNTS_TOY: [usize; 2] = [1, 2];
const SCHEME: SchemeKind = SchemeKind::Sp;
const NWINDOWS: usize = 8;
/// The committed figure: at the default seed, every row this workload
/// computes must serialize to exactly the committed row.
const COMMITTED: &str = include_str!("../../BENCH_cluster.json");

/// What one cluster job left behind for the checks and the trace.
#[derive(Debug, Clone)]
struct JobOutput {
    index: usize,
    outputs: Vec<Vec<u8>>,
    start: Instant,
    end: Instant,
    vcsw: u64,
}

/// The cluster workload.
pub struct ClusterBench {
    spell: SpellConfig,
    pe_counts: Vec<usize>,
    /// The reference checker's output for each PE's shard.
    expected: Vec<Vec<String>>,
    seed: u64,
    size: Size,
    jobs: Vec<Job>,
    sink: Arc<Mutex<Vec<JobOutput>>>,
    last: Vec<Option<RunReport>>,
    last_outputs: Vec<JobOutput>,
    last_quarantined: usize,
}

impl ClusterBench {
    /// Builds the job list and every shard's reference output.
    pub fn setup(env: &Env) -> Result<Self, String> {
        let pe_counts = match env.size {
            Size::Full => PE_COUNTS.to_vec(),
            Size::Toy => PE_COUNTS_TOY.to_vec(),
        };
        let spell = SpellConfig::new(CorpusSpec { seed: env.seed, ..CorpusSpec::small() }, 4, 4);
        let max_pes = pe_counts.iter().copied().max().unwrap_or(1);
        let expected = (0..max_pes)
            .map(|pe| {
                let c = Corpus::generate(&CorpusSpec {
                    seed: spell.corpus.seed.wrapping_add(pe as u64),
                    ..spell.corpus
                });
                reference::check_sorted(&c.document, &c.dict1, &c.dict2)
            })
            .collect();
        let sink: Arc<Mutex<Vec<JobOutput>>> = Arc::default();
        let bus = BusConfig::default();
        let jobs = pe_counts
            .iter()
            .enumerate()
            .map(|(index, &pes)| {
                let key = JobKey {
                    experiment: format!(
                        "cluster:arb={}:cpb={}:lat={}:pes={pes}",
                        bus.arbitration.name(),
                        bus.cycles_per_byte,
                        bus.latency
                    ),
                    corpus: spell.corpus,
                    m: spell.m,
                    n: spell.n,
                    policy: spell.policy,
                    scheme: SCHEME.name().to_string(),
                    nwindows: NWINDOWS,
                    timing: spell.timing,
                    gen: None,
                    fuzz: None,
                };
                let mut cfg = ClusterConfig::homogeneous(pes, SCHEME, NWINDOWS, spell);
                cfg.bus = bus;
                let sink = Arc::clone(&sink);
                Job::new(key, move || {
                    let u0 = Usage::now();
                    let start = Instant::now();
                    let outcome = run_spell_cluster(&cfg, None)?;
                    let end = Instant::now();
                    let vcsw = Usage::now().since(u0).vcsw;
                    sink.lock().expect("output sink poisoned").push(JobOutput {
                        index,
                        outputs: outcome.outputs,
                        start,
                        end,
                        vcsw,
                    });
                    Ok(outcome.report.merged())
                })
            })
            .collect();
        Ok(ClusterBench {
            spell,
            pe_counts,
            expected,
            seed: env.seed,
            size: env.size,
            jobs,
            sink,
            last: Vec::new(),
            last_outputs: Vec::new(),
            last_quarantined: 0,
        })
    }

    fn run(&mut self, workers: usize) -> Result<(Pass, SweepEngine), String> {
        let engine = SweepEngine::with_config(
            SweepConfig::builder().workers(workers).build().map_err(|e| e.to_string())?,
        );
        self.sink.lock().expect("output sink poisoned").clear();
        let results = engine.run_jobs(&self.jobs);
        // A quarantined job leaves its slot empty.
        let missing = results.iter().filter(|r| r.is_none()).count();
        self.last = results;
        self.last_quarantined = engine.quarantine().len();
        let mut outputs = std::mem::take(&mut *self.sink.lock().expect("output sink poisoned"));
        outputs.sort_by_key(|o| o.index);
        self.last_outputs = outputs;
        let pass = Pass {
            op_ms: job_walls(&engine),
            attempted: self.jobs.len() as u64,
            failed: missing as u64,
        };
        Ok((pass, engine))
    }

    /// The figure rows exactly as `repro-cluster` writes them.
    fn rows(&self) -> Value {
        let rows = self
            .pe_counts
            .iter()
            .zip(&self.last)
            .filter_map(|(&p, report)| {
                let report = report.as_ref()?;
                let (makespan, stalls, grants, messages, per_pe) = match &report.bus {
                    Some(b) => (
                        b.makespan_cycles,
                        b.stall_cycles,
                        b.grants,
                        b.messages,
                        b.per_pe_cycles.clone(),
                    ),
                    None => (report.cycles.total(), 0, 0, 0, vec![report.cycles.total()]),
                };
                let throughput = p as f64 * 1e6 / makespan as f64;
                let mut hist = Histogram::new();
                for &c in &per_pe {
                    hist.record(c);
                }
                Some(obj(vec![
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
                                .map(|(lo, n)| {
                                    obj(vec![("ge", Value::Int(lo)), ("count", Value::Int(n))])
                                })
                                .collect(),
                        ),
                    ),
                ]))
            })
            .collect();
        Value::Arr(rows)
    }

    /// Every PE's collected output is its shard's reference output.
    fn outputs_match_reference(&self) -> Result<(), String> {
        if self.last_outputs.len() != self.pe_counts.len() {
            return Err(format!(
                "{} of {} jobs left outputs",
                self.last_outputs.len(),
                self.pe_counts.len()
            ));
        }
        for out in &self.last_outputs {
            let pes = self.pe_counts[out.index];
            if out.outputs.len() != pes {
                return Err(format!("{pes}-PE job returned {} outputs", out.outputs.len()));
            }
            for (pe, bytes) in out.outputs.iter().enumerate() {
                // The reported words, one per line, as a sorted multiset
                // (what `SpellOutcome::sorted_misspellings` compares).
                let mut got: Vec<String> = String::from_utf8_lossy(bytes)
                    .lines()
                    .filter(|l| !l.is_empty())
                    .map(str::to_string)
                    .collect();
                got.sort();
                if got != self.expected[pe] {
                    return Err(format!("{pes}-PE job: PE {pe} output differs from the reference"));
                }
            }
        }
        Ok(())
    }

    /// At the committed seed and size, the rows are the committed rows.
    fn rows_match_committed(&self) -> Result<(), String> {
        let committed = json::parse(COMMITTED).map_err(|e| format!("BENCH_cluster.json: {e}"))?;
        let want = committed.get("rows").ok_or("BENCH_cluster.json has no rows")?;
        if self.rows().to_json() == want.to_json() {
            Ok(())
        } else {
            Err("rows differ from the committed BENCH_cluster.json".into())
        }
    }
}

impl Workload for ClusterBench {
    fn pass(&mut self, workers: usize) -> Result<Pass, String> {
        self.run(workers).map(|(pass, _)| pass)
    }

    fn digest(&self) -> Option<u64> {
        Some(fnv1a(self.rows().to_json().as_bytes()))
    }

    fn totals(&self) -> Totals {
        let reports: Vec<&RunReport> = self.last.iter().flatten().collect();
        vec![
            ("jobs", reports.len() as u64),
            ("cycles", reports.iter().map(|r| r.total_cycles()).sum()),
            ("switches", reports.iter().map(|r| r.stats.context_switches).sum()),
            (
                "traps",
                reports.iter().map(|r| r.stats.overflow_traps + r.stats.underflow_traps).sum(),
            ),
            (
                "bus_stalls",
                reports.iter().filter_map(|r| r.bus.as_ref()).map(|b| b.stall_cycles).sum(),
            ),
            ("divergences", self.last_quarantined as u64),
        ]
    }

    fn checks(&mut self) -> Vec<Check> {
        let mut checks =
            vec![("outputs-match-reference".to_string(), self.outputs_match_reference())];
        if self.size == Size::Full && self.seed == crate::harness::default_seed("cluster_pe") {
            checks.push(("rows-match-BENCH_cluster".to_string(), self.rows_match_committed()));
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
        let run_id = rec.begin("sweep.run_jobs", Some(pass_id), 0);
        let (pass, engine) = self.run(1)?;
        rec.end(run_id);
        rec.end(pass_id);
        let mut attributed_ns = 0;
        let mut jobs = Vec::new();
        for out in &self.last_outputs {
            let id =
                rec.record_span("cluster.job", Some(run_id), out.index as u64, out.start, out.end);
            let ns = rec.len_ns(id);
            attributed_ns += ns;
            let switches = self.last[out.index].as_ref().map_or(0, |r| r.stats.context_switches);
            jobs.push(ClusterJob {
                pes: self.pe_counts[out.index],
                ns: ns as f64,
                switches,
                vcsw: out.vcsw,
            });
        }
        layers::set_cluster_metrics(lm, &jobs);
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
        let reports = self
            .jobs
            .iter()
            .zip(&self.last)
            .filter_map(|(job, r)| Some((job.key().clone(), r.clone()?)))
            .collect();
        layers::Inputs {
            rep: Rep::Spell {
                config: self.spell,
                corpus: Corpus::generate(&self.spell.corpus),
                nwindows: NWINDOWS,
                scheme: SCHEME,
            },
            reports,
            jobs_per_pass: self.jobs.len(),
            seed: self.seed,
        }
    }
}
