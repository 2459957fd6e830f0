//! # regwin-bench
//!
//! The reproduction harness: shared plumbing for the `repro-*` binaries
//! that regenerate each table and figure of the paper's evaluation, and
//! the host-time microbenchmarks of the simulator itself
//! ([`microbench`], run by `repro-microbench`).
//!
//! Binaries (run with `cargo run --release -p regwin-bench --bin <name>`):
//!
//! | binary | exhibit |
//! |--------|---------|
//! | `repro-table1` | Table 1 — program behaviour |
//! | `repro-table2` | Table 2 — context-switch cycles |
//! | `repro-fig11` | Figure 11 — execution time, high concurrency |
//! | `repro-fig12` | Figure 12 — average switch time |
//! | `repro-fig13` | Figure 13 — trap probability |
//! | `repro-fig14` | Figure 14 — execution time, low concurrency |
//! | `repro-fig15` | Figure 15 — working-set scheduling |
//! | `repro-all` | everything above, sharing sweeps |
//! | `repro-ablations` | §4.2/§4.3/§4.4 design-choice ablations |
//! | `repro-sched` | scheduling-policy frontier (`BENCH_sched.json`) |
//! | `repro-fuzz` | differential-oracle fuzz farm (`BENCH_fuzz.json`) |
//!
//! Common flags: `--scale <pct>` (corpus size as % of the paper's,
//! default 100), `--quick` (reduced window sweep), `--out <dir>` (also
//! write CSV files), `--cache-dir <dir>` (result cache location,
//! default `target/sweep-cache`), `--no-cache`, `--jobs <n>` (worker
//! threads, default one per CPU), `--policy <name>` (ready-queue
//! scheduling policy for the policy-parameterised binaries).
//!
//! Hardening and fault-injection flags (see `EXPERIMENTS.md`):
//! `--fault-seed <u64>` / `--fault-plan <kind@index,...>` inject a
//! deterministic fault plan, `--job-timeout-ms <ms>`, `--retries <n>`
//! and `--retry-backoff-ms <ms>` bound each job attempt, and
//! `--fail-on-quarantine` turns any quarantined job into exit status 3.
//!
//! Recovery flags (see the Recovery section of `EXPERIMENTS.md`):
//! `--journal` keeps a crash-safe write-ahead journal next to the
//! artifact (`BENCH_sweep.json.journal.jsonl`), `--resume` replays it
//! after a crash so only unfinished jobs re-run (the resumed artifact
//! is byte-identical to an uninterrupted one).
//!
//! Observability flags: `--trace-out <file>` writes the deterministic
//! JSONL job trace and `--metrics` prints the deterministic metrics
//! section (global and per-scheme typed counters) to stdout; both
//! derive purely from the run reports, so their bytes are identical
//! across `--jobs` counts and cache states.
//!
//! Fuzz farm (`repro-fuzz`, see the Fuzz farm section of
//! `EXPERIMENTS.md`): sweeps seeded synthetic scenarios × every policy
//! × every timing backend through the differential-oracle invariant
//! bundle of `regwin-gen`, writes the `BENCH_fuzz.json` census, and
//! shrinks every divergence before reporting it. `--gen <scenario>`
//! replays one canonical scenario string (the quarantine `repro` field)
//! instead of sweeping.
//!
//! Sweep service (`repro-tradeoff`, `repro-sched`; see the Sweep
//! service section of `EXPERIMENTS.md`): `--server <socket>` runs the
//! sweeps on a resident `regwin-served` daemon instead of in process.
//! The daemon owns the cache, journal and worker pool (so the
//! corresponding flags conflict with `--server`), streams job progress
//! back live, and produces records — and a `BENCH_sweep.json` — that
//! are byte-identical to the in-process deterministic path.
//!
//! Integrity: `--audit` switches window auditing on inside every
//! simulated run. Auditing never changes any reported number — it buys
//! masked-corruption repair and quarantine of unrecoverable corruption
//! — so audited and unaudited invocations share cache entries.
//!
//! All repro binaries execute through the `regwin-sweep` engine: jobs
//! are content-addressed, cached across invocations, fanned out over a
//! worker pool, and logged to a `BENCH_sweep.json` artifact.

#![deny(missing_docs)]

use regwin_core::figures::{FigureId, Sweep};
use regwin_core::{CorpusSpec, MatrixSpec, RunRecord, TextTable};
use regwin_machine::TimingKind;
use regwin_rt::{FaultPlan, RtError, SchedulingPolicy};
use regwin_serve::ServeClient;
use regwin_sweep::json::Value;
use regwin_sweep::{QuarantineRecord, SweepConfig, SweepEngine, SweepSummary};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

pub use regwin_core::figures::FigureResult;

pub mod microbench;

/// Parsed command-line options shared by all repro binaries.
#[derive(Debug, Clone)]
pub struct Args {
    /// Corpus scale in percent of the paper's sizes.
    pub scale: usize,
    /// Use the reduced window sweep.
    pub quick: bool,
    /// Directory to write CSV outputs into.
    pub out_dir: Option<PathBuf>,
    /// Result-cache directory (`None` with `--no-cache`).
    pub cache_dir: Option<PathBuf>,
    /// Worker threads (`0` = one per CPU).
    pub jobs: usize,
    /// Seed for a derived fault plan (`--fault-seed`).
    pub fault_seed: Option<u64>,
    /// Explicit `kind@index` fault spec (`--fault-plan`).
    pub fault_plan: Option<String>,
    /// Per-job attempt timeout in milliseconds (`--job-timeout-ms`).
    pub job_timeout_ms: Option<u64>,
    /// Retries after a failed attempt (`--retries`).
    pub retries: u32,
    /// Linear retry backoff step in milliseconds (`--retry-backoff-ms`).
    pub retry_backoff_ms: u64,
    /// Exit nonzero if any job was quarantined (`--fail-on-quarantine`).
    pub fail_on_quarantine: bool,
    /// Write the deterministic JSONL job trace here (`--trace-out`).
    pub trace_out: Option<PathBuf>,
    /// Print the deterministic metrics section to stdout (`--metrics`).
    pub metrics: bool,
    /// Keep a crash-safe write-ahead journal next to the artifact
    /// (`--journal`); implied by `--resume`.
    pub journal: bool,
    /// Replay the journal and re-run only unfinished jobs (`--resume`).
    pub resume: bool,
    /// Enable window integrity auditing in every simulated run
    /// (`--audit`). Audited runs report identical numbers — the flag
    /// buys corruption detection and repair, not different results.
    pub audit: bool,
    /// Ready-queue scheduling policy for policy-parameterised sweeps
    /// (`--policy`, default FIFO). Figure binaries that reproduce a
    /// specific paper exhibit keep their fixed policy; `repro-tradeoff`,
    /// `repro-cluster` and `repro-sched` honour this flag.
    pub policy: SchedulingPolicy,
    /// Timing backend for the parameterised sweeps (`--timing`, default
    /// s20). Figure binaries that reproduce a specific paper exhibit
    /// keep the flat s20 model; `repro-tradeoff`, `repro-sched` and
    /// `repro-timing` honour this flag.
    pub timing: TimingKind,
    /// A canonical generated-scenario string (`--gen`, `repro-fuzz`
    /// only): replay this single scenario's invariant bundle instead of
    /// sweeping — the quarantine `repro` field pasted back in.
    pub gen: Option<String>,
    /// Run sweeps on the resident daemon at this socket instead of in
    /// process (`--server`, `repro-tradeoff`/`repro-sched`). The
    /// daemon owns the cache, journal, workers and fault knobs, so
    /// those flags conflict with this one. Artifacts are byte-identical
    /// to the in-process deterministic path.
    pub server: Option<PathBuf>,
}

impl Args {
    /// Parses `std::env::args()`. Exits with a usage message on error.
    pub fn parse() -> Self {
        let mut args = Args {
            scale: 100,
            quick: false,
            out_dir: None,
            cache_dir: Some(PathBuf::from("target/sweep-cache")),
            jobs: 0,
            fault_seed: None,
            fault_plan: None,
            job_timeout_ms: None,
            retries: 0,
            retry_backoff_ms: 100,
            fail_on_quarantine: false,
            trace_out: None,
            metrics: false,
            journal: false,
            resume: false,
            audit: false,
            policy: SchedulingPolicy::Fifo,
            timing: TimingKind::S20,
            gen: None,
            server: None,
        };
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            match a.as_str() {
                "--scale" => {
                    args.scale = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--scale needs a percentage"));
                }
                "--quick" => args.quick = true,
                "--out" => {
                    args.out_dir = Some(PathBuf::from(
                        it.next().unwrap_or_else(|| usage("--out needs a dir")),
                    ));
                }
                "--cache-dir" => {
                    args.cache_dir = Some(PathBuf::from(
                        it.next().unwrap_or_else(|| usage("--cache-dir needs a dir")),
                    ));
                }
                "--no-cache" => args.cache_dir = None,
                "--jobs" => {
                    args.jobs = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--jobs needs a thread count"));
                }
                "--fault-seed" => {
                    args.fault_seed = Some(
                        it.next()
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| usage("--fault-seed needs a u64 seed")),
                    );
                }
                "--fault-plan" => {
                    args.fault_plan = Some(
                        it.next().unwrap_or_else(|| usage("--fault-plan needs a kind@index spec")),
                    );
                }
                "--job-timeout-ms" => {
                    args.job_timeout_ms = Some(
                        it.next()
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| usage("--job-timeout-ms needs milliseconds")),
                    );
                }
                "--retries" => {
                    args.retries = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--retries needs a count"));
                }
                "--retry-backoff-ms" => {
                    args.retry_backoff_ms = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--retry-backoff-ms needs milliseconds"));
                }
                "--fail-on-quarantine" => args.fail_on_quarantine = true,
                "--trace-out" => {
                    args.trace_out = Some(PathBuf::from(
                        it.next().unwrap_or_else(|| usage("--trace-out needs a file path")),
                    ));
                }
                "--metrics" => args.metrics = true,
                "--journal" => args.journal = true,
                "--resume" => {
                    args.journal = true;
                    args.resume = true;
                }
                "--audit" => args.audit = true,
                "--policy" => {
                    let v = it.next().unwrap_or_else(|| usage("--policy needs a policy name"));
                    args.policy = SchedulingPolicy::parse(&v).unwrap_or_else(|| {
                        usage(&format!(
                            "unknown policy {v:?} (expected one of: {})",
                            SchedulingPolicy::ALL.map(|p| p.name()).join(", ")
                        ))
                    });
                }
                "--timing" => {
                    let v = it.next().unwrap_or_else(|| usage("--timing needs a backend name"));
                    args.timing = TimingKind::parse(&v).unwrap_or_else(|| {
                        usage(&format!(
                            "unknown timing backend {v:?} (expected one of: {})",
                            TimingKind::ALL.map(|t| t.name()).join(", ")
                        ))
                    });
                }
                "--gen" => {
                    args.gen = Some(
                        it.next()
                            .unwrap_or_else(|| usage("--gen needs a canonical scenario string")),
                    );
                }
                "--server" => {
                    args.server = Some(PathBuf::from(
                        it.next().unwrap_or_else(|| usage("--server needs a socket path")),
                    ));
                }
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown flag {other}")),
            }
        }
        args
    }

    /// The fault plan this invocation injects: `--fault-plan` parsed
    /// (with `--fault-seed` as the corruption-mask seed), or a plan
    /// derived from `--fault-seed` alone, or `None`.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        match (&self.fault_plan, self.fault_seed) {
            (Some(spec), seed) => {
                let plan =
                    FaultPlan::parse(spec).unwrap_or_else(|e| usage(&format!("--fault-plan: {e}")));
                Some(plan.with_seed(seed.unwrap_or(0)))
            }
            (None, Some(seed)) => Some(FaultPlan::from_seed(seed)),
            (None, None) => None,
        }
    }

    /// The sweep engine for this invocation: caching per `--cache-dir`/
    /// `--no-cache`, `--jobs` workers, progress events on stderr, and
    /// the hardening/fault-injection knobs.
    pub fn engine(&self) -> SweepEngine {
        let plan = self.fault_plan();
        if let Some(plan) = &plan {
            eprintln!("fault plan: {plan} (seed {})", plan.seed());
        }
        let mut builder = SweepConfig::builder()
            .workers(self.jobs)
            .stream_events(true)
            .retries(self.retries)
            .retry_backoff(Duration::from_millis(self.retry_backoff_ms));
        if let Some(dir) = &self.cache_dir {
            builder = builder.cache_dir(dir.clone());
        }
        if let Some(ms) = self.job_timeout_ms {
            builder = builder.job_timeout(Duration::from_millis(ms));
        }
        if let Some(plan) = plan {
            builder = builder.fault_plan(plan);
        }
        if self.journal {
            builder = builder.journal(self.journal_path()).resume(self.resume);
        }
        builder = builder.window_audit(self.audit);
        let config = builder.build().unwrap_or_else(|e| usage(&e.to_string()));
        SweepEngine::with_config(config)
    }

    /// The `BENCH_sweep.json` artifact path for this invocation (into
    /// `--out` if given, else the current directory).
    pub fn artifact_path(&self) -> PathBuf {
        self.out_dir.clone().unwrap_or_else(|| PathBuf::from(".")).join("BENCH_sweep.json")
    }

    /// The write-ahead journal path: the artifact path with a
    /// `.journal.jsonl` suffix.
    pub fn journal_path(&self) -> PathBuf {
        let mut name = self.artifact_path().into_os_string();
        name.push(".journal.jsonl");
        PathBuf::from(name)
    }

    /// Prints the engine's aggregate counters and writes the
    /// `BENCH_sweep.json` artifact (into `--out` if given, else the
    /// current directory). Call once per binary, after the last sweep.
    /// With `--fail-on-quarantine`, exits with status 3 if any job was
    /// quarantined (after writing the artifact, so the quarantine
    /// section is always on disk for inspection).
    pub fn finish(&self, engine: &SweepEngine) {
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
        let path = self.artifact_path();
        match engine.write_artifact(&path) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
        if let Some(trace_path) = &self.trace_out {
            match engine.write_trace(trace_path) {
                Ok(()) => eprintln!("wrote {}", trace_path.display()),
                Err(e) => eprintln!("warning: cannot write {}: {e}", trace_path.display()),
            }
        }
        if self.metrics {
            println!("{}", engine.metrics_value().to_json());
        }
        if self.fail_on_quarantine && s.quarantined > 0 {
            eprintln!("error: {} job(s) quarantined (--fail-on-quarantine)", s.quarantined);
            std::process::exit(3);
        }
    }

    /// The sweep session for this invocation: an in-process engine, or
    /// — with `--server <socket>` — a thin client on the resident
    /// daemon. `binary` names the invoking repro binary; together with
    /// the sweep-defining flags it forms the stable session string the
    /// daemon hashes into the journal identity, so re-running the same
    /// invocation after a daemon restart resumes its journal.
    pub fn session(&self, binary: &str) -> SweepSession {
        let Some(socket) = &self.server else {
            return SweepSession::Local(Box::new(self.engine()));
        };
        let conflicts: &[(&str, bool)] = &[
            ("--journal/--resume", self.journal || self.resume),
            ("--fault-seed", self.fault_seed.is_some()),
            ("--fault-plan", self.fault_plan.is_some()),
            ("--trace-out", self.trace_out.is_some()),
            ("--metrics", self.metrics),
            ("--audit", self.audit),
            ("--job-timeout-ms", self.job_timeout_ms.is_some()),
            ("--retries", self.retries > 0),
        ];
        for (flag, set) in conflicts {
            if *set {
                usage(&format!("{flag} conflicts with --server (the daemon owns those knobs)"));
            }
        }
        let session_string = format!(
            "{binary}|scale={}|quick={}|policy={}|timing={}",
            self.scale, self.quick, self.policy, self.timing
        );
        match ServeClient::connect(socket, &session_string) {
            Ok(client) => {
                eprintln!(
                    "connected to sweep daemon at {} (session {})",
                    socket.display(),
                    client.session_id()
                );
                SweepSession::Remote(Mutex::new(client))
            }
            Err(e) => {
                eprintln!("error: cannot reach sweep daemon: {e}");
                std::process::exit(2);
            }
        }
    }

    /// [`Args::finish`] for either kind of session: prints the sweep
    /// summary and quarantine, then writes the `BENCH_sweep.json`
    /// artifact — fetched from the daemon in `--server` mode, where its
    /// bytes are identical to the in-process deterministic path.
    pub fn finish_session(&self, session: &SweepSession) {
        match session {
            SweepSession::Local(engine) => self.finish(engine),
            SweepSession::Remote(client) => {
                let mut client = client.lock().unwrap_or_else(|e| e.into_inner());
                let s = client.summary();
                eprintln!(
                    "sweep: {} jobs, {} cache hits, {} executed, {} quarantined",
                    s.jobs, s.cache_hits, s.cache_misses, s.quarantined
                );
                for q in client.quarantine() {
                    eprintln!(
                        "  quarantined [{}] {} after {} attempts: {}",
                        q.reason, q.label, q.attempts, q.detail
                    );
                }
                let path = self.artifact_path();
                match client.artifact() {
                    Ok(data) => match regwin_sweep::write_file_atomic(&path, &data) {
                        Ok(()) => eprintln!("wrote {}", path.display()),
                        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
                    },
                    Err(e) => eprintln!("warning: cannot fetch artifact: {e}"),
                }
                if self.fail_on_quarantine && s.quarantined > 0 {
                    eprintln!("error: {} job(s) quarantined (--fail-on-quarantine)", s.quarantined);
                    std::process::exit(3);
                }
            }
        }
    }

    /// The corpus spec for this invocation.
    pub fn corpus(&self) -> CorpusSpec {
        if self.scale == 100 {
            CorpusSpec::paper()
        } else {
            CorpusSpec::scaled(self.scale)
        }
    }

    /// The window sweep for this invocation.
    pub fn windows(&self) -> Vec<usize> {
        if self.quick {
            MatrixSpec::quick_window_sweep()
        } else {
            MatrixSpec::paper_window_sweep()
        }
    }

    /// Writes `table` as `<name>.csv` into the output directory, if one
    /// was requested.
    pub fn save_csv(&self, name: &str, table: &TextTable) {
        if let Some(dir) = &self.out_dir {
            let path = dir.join(format!("{name}.csv"));
            if let Err(e) = regwin_sweep::write_file_atomic(&path, &table.to_csv()) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            } else {
                eprintln!("wrote {}", path.display());
            }
        }
    }
}

/// Where a repro binary's sweeps execute: an in-process
/// [`SweepEngine`], or a [`ServeClient`] session on the resident
/// daemon (`--server`). Records — and therefore every table, figure
/// and artifact derived from them — are identical either way.
#[derive(Debug)]
pub enum SweepSession {
    /// The classic in-process engine (boxed: the engine is much larger
    /// than the client handle).
    Local(Box<SweepEngine>),
    /// A thin-client session on a `regwin-served` daemon.
    Remote(Mutex<ServeClient>),
}

impl SweepSession {
    /// Runs one matrix, locally or on the daemon.
    ///
    /// # Errors
    ///
    /// Local sweep errors propagate as-is; daemon-side failures
    /// (including a graceful drain cutting the sweep short) surface as
    /// [`RtError::BadConfig`] carrying the daemon's message.
    pub fn run_matrix(&self, spec: &MatrixSpec) -> Result<Vec<RunRecord>, RtError> {
        match self {
            SweepSession::Local(engine) => engine.run_matrix(spec),
            SweepSession::Remote(client) => client
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .run_matrix(spec)
                .map_err(|e| RtError::BadConfig { detail: e.to_string() }),
        }
    }

    /// The sweep summary so far (daemon-side state in `--server` mode).
    pub fn summary(&self) -> SweepSummary {
        match self {
            SweepSession::Local(engine) => engine.summary(),
            SweepSession::Remote(client) => {
                client.lock().unwrap_or_else(|e| e.into_inner()).summary()
            }
        }
    }

    /// The quarantine list so far (daemon-side state in `--server`
    /// mode).
    pub fn quarantine(&self) -> Vec<QuarantineRecord> {
        match self {
            SweepSession::Local(engine) => engine.quarantine(),
            SweepSession::Remote(client) => {
                client.lock().unwrap_or_else(|e| e.into_inner()).quarantine()
            }
        }
    }
}

fn usage(problem: &str) -> ! {
    if !problem.is_empty() {
        eprintln!("error: {problem}");
    }
    eprintln!(
        "usage: repro-* [--scale <pct>] [--quick] [--out <dir>] \
         [--jobs <n>] [--cache-dir <dir> | --no-cache] \
         [--fault-seed <u64>] [--fault-plan <kind@index,...>] \
         [--job-timeout-ms <ms>] [--retries <n>] [--retry-backoff-ms <ms>] \
         [--fail-on-quarantine] [--trace-out <file>] [--metrics] \
         [--journal] [--resume] [--audit] \
         [--policy <FIFO|WorkingSet|WindowGreedy|Aging>] \
         [--timing <s20|pipeline>] [--gen <scenario>] [--server <socket>]"
    );
    std::process::exit(if problem.is_empty() { 0 } else { 2 });
}

/// Writes a `BENCH_*.json` document to `path`, replacing the file
/// atomically: its JSON and a newline, then `wrote <path>` on stderr.
/// Exits 1 when the write fails.
pub fn write_bench_json(path: &Path, doc: &Value) {
    if let Err(e) = regwin_sweep::write_file_atomic(path, &(doc.to_json() + "\n")) {
        eprintln!("error: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    eprintln!("wrote {}", path.display());
}

/// A stderr progress callback for sweep runs.
pub fn progress(done: usize, total: usize) {
    eprint!("\r  {done}/{total} runs");
    if done == total {
        eprintln!();
    }
    let _ = std::io::stderr().flush();
}

/// The whole body of a `repro-figNN` binary: runs the figure's sweep
/// through the engine, prints the table and an ASCII chart, saves the
/// CSV, and returns the result. The five figure binaries differ only in
/// the [`FigureId`] they pass.
///
/// # Errors
///
/// Propagates the first failed run.
pub fn run_figure(
    args: &Args,
    engine: &SweepEngine,
    fig: FigureId,
) -> Result<FigureResult, RtError> {
    eprintln!("{} ({}% corpus)...", fig.title(), args.scale);
    let records = engine.run_matrix(&fig.spec(args.corpus(), &args.windows()))?;
    let result = fig.from_sweep(&Sweep::from_records(records));
    println!("{}", result.table);
    println!("{}", regwin_core::chart::ascii_chart(&result.title, "value", &result.series, 64, 18));
    args.save_csv(fig.csv_name(), &result.table);
    Ok(result)
}
