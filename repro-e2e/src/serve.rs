//! `serve_warm`: an in-process `regwin-serve` daemon whose cache is
//! primed during set-up with every cell its clients ask for. The
//! measured phase is a closed loop of 2 clients that replay the session
//! `repro-tradeoff` opens as a thin client (`--server`): one
//! high-concurrency sweep (`Sweep::high_spec`, FIFO, S-20), alternately
//! with the quick (63 cells) and the paper window sweep (108 cells).
//! Each request is a fresh session (hello → sweep → artifact → bye). No
//! simulation runs: every cell is a cache read plus a fsync'd journal
//! append, so the path is protocol framing, JSON, cache, journal and
//! artifacts.

use crate::harness::{job_walls, Check, Env, Pass, Size, Totals, TracedPass, Workload, WORKERS};
use crate::layers::{self, LayerMetrics, Rep};
use crate::span::Recorder;
use crate::stats::{median, percentile};
use regwin_core::figures::Sweep;
use regwin_core::{Behavior, MatrixSpec, RunRecord};
use regwin_machine::SchemeKind;
use regwin_rt::{RunReport, SchedulingPolicy};
use regwin_serve::{ServeClient, Server, ServerConfig};
use regwin_spell::{Corpus, CorpusSpec, SpellConfig};
use regwin_sweep::json::{self, Value};
use regwin_sweep::{JobKey, SweepConfig, SweepEngine};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Requests each client sends per pass (even, so every pass sends as
/// many quick sweeps as paper ones): about 7.5 s a pass on the 2-core
/// reference host.
const REQUESTS_PER_CLIENT: u64 = 150;
const REQUESTS_PER_CLIENT_TOY: u64 = 2;

/// A daemon serving on a socket in its own directory, shut down and
/// joined on drop.
pub struct Daemon {
    socket: PathBuf,
    cache: PathBuf,
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

/// The host time of one request's steps, ns, plus what it returned.
#[derive(Debug, Clone)]
pub struct Request {
    /// `ServeClient::connect` (hello → ready).
    pub connect_ns: u64,
    /// `ServeClient::run_matrix`.
    pub sweep_ns: u64,
    /// `ServeClient::artifact`.
    pub artifact_ns: u64,
    /// `ServeClient::bye`.
    pub bye_ns: u64,
    /// The records the sweep returned.
    pub records: Vec<RunRecord>,
    /// The artifact text.
    pub artifact: String,
}

impl Request {
    /// The whole request, client side, ns.
    pub fn total_ns(&self) -> u64 {
        self.connect_ns + self.sweep_ns + self.artifact_ns + self.bye_ns
    }
}

/// Runs `f`, timing it; with `span` (recorder, parent, unit) the call is
/// also recorded as a span named `name`.
fn step<T>(span: Option<(&Recorder, usize, u64)>, name: &str, f: impl FnOnce() -> T) -> (u64, T) {
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    let ns = match span {
        Some((rec, parent, unit)) => {
            rec.len_ns(rec.record_span(name, Some(parent), unit, start, end))
        }
        None => (end - start).as_nanos() as u64,
    };
    (ns, out)
}

impl Daemon {
    /// Binds a daemon in `dir` (socket, cache and journal directories)
    /// with `workers` workers and starts its accept loop.
    pub fn start(dir: &Path, workers: usize) -> Result<Daemon, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let socket = dir.join("d.sock");
        let cache = dir.join("cache");
        let config = ServerConfig {
            socket: socket.clone(),
            cache_dir: Some(cache.clone()),
            journal_dir: Some(dir.join("journal")),
            workers,
            max_clients: 8,
        };
        let shutdown = Arc::new(AtomicBool::new(false));
        let server = Server::bind(config, Arc::clone(&shutdown))
            .map_err(|e| format!("bind {}: {e}", socket.display()))?;
        let thread = std::thread::spawn(move || server.run());
        Ok(Daemon { socket, cache, shutdown, thread: Some(thread) })
    }

    /// One request as a fresh session: connect, sweep `spec`, fetch the
    /// artifact, say bye.
    pub fn request(
        &self,
        span: Option<(&Recorder, usize, u64)>,
        session: &str,
        spec: &MatrixSpec,
    ) -> Result<Request, String> {
        let (connect_ns, client) =
            step(span, "serve.connect", || ServeClient::connect(&self.socket, session));
        let mut client = client.map_err(|e| format!("connect: {e}"))?;
        let (sweep_ns, records) = step(span, "serve.sweep", || client.run_matrix(spec));
        let records = records.map_err(|e| format!("sweep: {e}"))?;
        let (artifact_ns, artifact) = step(span, "serve.artifact", || client.artifact());
        let artifact = artifact.map_err(|e| format!("artifact: {e}"))?;
        let (bye_ns, ()) = step(span, "serve.bye", || client.bye());
        Ok(Request { connect_ns, sweep_ns, artifact_ns, bye_ns, records, artifact })
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            // Drop cannot report errors; a failed drain only leaves the
            // scratch directory behind.
            let _ = thread.join();
        }
    }
}

/// Sets the serve metrics from a set of timed requests.
pub fn set_serve_metrics(lm: &mut LayerMetrics, requests: &[Request]) {
    let connect: Vec<f64> = requests.iter().map(|r| r.connect_ns as f64 / 1e6).collect();
    let artifact: Vec<f64> = requests.iter().map(|r| r.artifact_ns as f64 / 1e6).collect();
    let sweep_ns: u64 = requests.iter().map(|r| r.sweep_ns).sum();
    let cells: usize = requests.iter().map(|r| r.records.len()).sum();
    lm.set("serve.connect_ms", median(&connect).unwrap_or(0.0));
    lm.set("serve.sweep_us_per_cell", sweep_ns as f64 / cells.max(1) as f64 / 1e3);
    lm.set("serve.artifact_ms", median(&artifact).unwrap_or(0.0));
}

/// The warm-daemon workload.
pub struct ServeBench {
    daemon: Daemon,
    /// `repro-tradeoff`'s sweep on the paper windows: every cell a
    /// request can ask for.
    spec: MatrixSpec,
    /// The quick window sweep at this size.
    quick_windows: Vec<usize>,
    /// The primed report of every cell.
    primed: BTreeMap<(Behavior, SchemeKind, usize), RunReport>,
    primed_quarantined: usize,
    seed: u64,
    per_client: u64,
    /// Passes sent so far: every pass sends the same requests, each in
    /// a session of its own.
    passes: u64,
}

impl ServeBench {
    /// Starts the daemon and primes its cache with the paper-window
    /// sweep, which holds the quick sweep's cells too.
    pub fn setup(env: &Env) -> Result<Self, String> {
        let corpus = CorpusSpec { seed: env.seed, ..CorpusSpec::small() };
        let (paper_windows, quick_windows, per_client) = match env.size {
            Size::Full => (
                MatrixSpec::paper_window_sweep(),
                MatrixSpec::quick_window_sweep(),
                REQUESTS_PER_CLIENT,
            ),
            Size::Toy => (vec![4, 8], vec![4], REQUESTS_PER_CLIENT_TOY),
        };
        let spec = Sweep::high_spec(corpus, &paper_windows, SchedulingPolicy::Fifo);
        let daemon = Daemon::start(&env.dir, WORKERS)?;
        let prime = daemon.request(None, &format!("prime-{}", env.seed), &spec)?;
        let primed_quarantined = json::parse(&prime.artifact)
            .ok()
            .and_then(|a| a.get("quarantined").and_then(Value::as_u64))
            .ok_or("priming artifact has no quarantine count")?
            as usize;
        let primed = prime
            .records
            .into_iter()
            .map(|r| ((r.behavior, r.scheme, r.nwindows), r.report))
            .collect();
        Ok(ServeBench {
            daemon,
            spec,
            quick_windows,
            primed,
            primed_quarantined,
            seed: env.seed,
            per_client,
            passes: 0,
        })
    }

    /// Request `i` of `client`: `repro-tradeoff`'s sweep, with `--quick`
    /// on every other request. Clients start one apart, so the two do
    /// not send the same shape in step.
    fn request_spec(&self, client: usize, i: u64) -> MatrixSpec {
        if (client as u64 + i).is_multiple_of(2) {
            MatrixSpec { windows: self.quick_windows.clone(), ..self.spec.clone() }
        } else {
            self.spec.clone()
        }
    }

    /// Whether a request returned exactly the primed records, all of
    /// them, and an artifact listing one job per cell.
    fn verify(&self, spec: &MatrixSpec, req: &Request) -> Result<(), String> {
        if req.records.len() != spec.len() {
            return Err(format!("{} of {} cells returned", req.records.len(), spec.len()));
        }
        for r in &req.records {
            if self.primed.get(&(r.behavior, r.scheme, r.nwindows)) != Some(&r.report) {
                return Err(format!(
                    "{} {} w={}: record differs from priming",
                    r.behavior, r.scheme, r.nwindows
                ));
            }
        }
        let jobs = json::parse(&req.artifact)
            .ok()
            .and_then(|a| a.get("jobs_total").and_then(Value::as_u64));
        if jobs != Some(spec.len() as u64) {
            return Err(format!("artifact lists {jobs:?} jobs for {} cells", spec.len()));
        }
        Ok(())
    }

    /// A session name no earlier request used, so every request opens a
    /// fresh session (a repeated name would resume its journal).
    fn session(&self, client: usize, i: u64) -> String {
        format!("e2e-{}-p{}-c{client}-r{i}", self.seed, self.passes)
    }

    /// Every request of a pass, as (client, index).
    fn requests(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        (0..WORKERS).flat_map(move |c| (0..self.per_client).map(move |i| (c, i)))
    }
}

impl Workload for ServeBench {
    fn pass(&mut self, workers: usize) -> Result<Pass, String> {
        // Every pass sends the same requests; with fewer clients than
        // request streams, a client serves several streams in turn.
        let this = &*self;
        let per_client: Vec<Vec<(f64, bool)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|t| {
                    scope.spawn(move || {
                        this.requests()
                            .filter(|&(c, _)| c % workers == t)
                            .map(|(c, i)| {
                                let spec = this.request_spec(c, i);
                                let t = Instant::now();
                                let out = this.daemon.request(None, &this.session(c, i), &spec);
                                let ms = t.elapsed().as_secs_f64() * 1e3;
                                let ok = match out.and_then(|req| this.verify(&spec, &req)) {
                                    Ok(()) => true,
                                    Err(e) => {
                                        eprintln!("request c{c} r{i}: {e}");
                                        false
                                    }
                                };
                                (ms, ok)
                            })
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });
        self.passes += 1;
        let all: Vec<(f64, bool)> = per_client.into_iter().flatten().collect();
        Ok(Pass {
            op_ms: all.iter().map(|&(ms, _)| ms).collect(),
            attempted: all.len() as u64,
            failed: all.iter().filter(|&&(_, ok)| !ok).count() as u64,
        })
    }

    fn digest(&self) -> Option<u64> {
        // Sessions differ between passes; every request is checked
        // against the priming records instead.
        None
    }

    fn totals(&self) -> Totals {
        vec![
            ("cells", self.primed.len() as u64),
            ("cycles", self.primed.values().map(RunReport::total_cycles).sum()),
            ("switches", self.primed.values().map(|r| r.stats.context_switches).sum()),
            (
                "traps",
                self.primed
                    .values()
                    .map(|r| r.stats.overflow_traps + r.stats.underflow_traps)
                    .sum(),
            ),
            ("divergences", self.primed_quarantined as u64),
        ]
    }

    fn checks(&mut self) -> Vec<Check> {
        let complete = if self.primed.len() == self.spec.len() && self.primed_quarantined == 0 {
            Ok(())
        } else {
            Err(format!(
                "priming produced {} of {} cells, {} quarantined",
                self.primed.len(),
                self.spec.len(),
                self.primed_quarantined
            ))
        };
        vec![("priming-complete".to_string(), complete)]
    }

    fn trace(
        &mut self,
        rec: &Recorder,
        root: usize,
        lm: &mut LayerMetrics,
    ) -> Result<TracedPass, String> {
        let pass_id = rec.begin("bench.pass", Some(root), 0);
        // A measured pass's requests, sent serially by one client.
        let mut requests = Vec::new();
        let mut attempted = 0;
        for (unit, (c, i)) in self.requests().enumerate() {
            let unit = unit as u64;
            let spec = self.request_spec(c, i);
            let req_id = rec.begin("bench.request", Some(pass_id), unit);
            let out = self.daemon.request(Some((rec, req_id, unit)), &self.session(c, i), &spec);
            rec.end(req_id);
            attempted += 1;
            match out.and_then(|req| self.verify(&spec, &req).map(|()| req)) {
                Ok(req) => requests.push(req),
                Err(e) => eprintln!("traced request c{c} r{i}: {e}"),
            }
        }
        rec.end(pass_id);
        self.passes += 1;
        set_serve_metrics(lm, &requests);
        let attributed_ns = requests.iter().map(Request::total_ns).sum();
        let pass = Pass {
            op_ms: requests.iter().map(|r| r.total_ns() as f64 / 1e6).collect(),
            attempted,
            failed: attempted - requests.len() as u64,
        };

        // Replica: the same sweeps through an in-process engine on the
        // daemon's cache — the sweep layer's share of each request, with
        // the per-job times the daemon's engine does not expose.
        let replica = rec.begin("bench.replica", Some(root), 0);
        let engine = SweepEngine::with_config(
            SweepConfig::builder()
                .workers(1)
                .cache_dir(self.daemon.cache.clone())
                .build()
                .map_err(|e| e.to_string())?,
        );
        for (unit, (c, i)) in self.requests().enumerate() {
            let spec = self.request_spec(c, i);
            let (_, out) = rec
                .time("sweep.run_matrix", Some(replica), unit as u64, || engine.run_matrix(&spec));
            out.map_err(|e| e.to_string())?;
        }
        rec.end(replica);
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
            plus_engine_overhead: false,
        })
    }

    fn layer_inputs(&self) -> layers::Inputs {
        let fine = Behavior::high_concurrency()[2];
        let (m, n) = fine.buffers();
        let reports = self
            .primed
            .iter()
            .map(|(&(b, s, w), r)| (JobKey::for_cell(&self.spec, b, s, w), r.clone()))
            .collect();
        layers::Inputs {
            rep: Rep::Spell {
                config: SpellConfig::new(self.spec.corpus, m, n),
                corpus: Corpus::generate(&self.spec.corpus),
                nwindows: 8,
                scheme: SchemeKind::Sp,
            },
            reports,
            jobs_per_pass: self.requests().map(|(c, i)| self.request_spec(c, i).len()).sum(),
            seed: self.seed,
        }
    }
}
