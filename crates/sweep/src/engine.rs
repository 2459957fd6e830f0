//! The sweep engine: declarative matrix → job graph → parallel worker
//! pool → content-addressed cache → structured progress events.
//!
//! Jobs are pure functions of their [`JobKey`]; the engine probes the
//! cache first, fans the misses out across a pool of OS threads with a
//! shared work queue, stores fresh results, and streams one JSON event
//! per job to stderr. Results come back in deterministic
//! (behaviour-major, then scheme, then window) order regardless of
//! completion order or worker count.
//!
//! Under FIFO scheduling the engine keeps the paper's emulator
//! methodology: one recorded execution per behaviour, replayed for
//! every (scheme × window) cell — and it only records a behaviour's
//! trace when at least one of its cells actually missed the cache.

use crate::cache::ResultCache;
use crate::disk::write_file_atomic;
use crate::gate::AdmissionGate;
use crate::journal::{replay_journal, JournalOpenError, JournalReplay, SweepJournal};
use crate::json::{obj, Value};
use crate::key::{JobKey, KeyNames};
use crate::serial::{quarantine_to_value, report_to_json, write_records};
use regwin_core::{Behavior, MatrixSpec, RunRecord};
use regwin_machine::MachineConfig;
use regwin_obs::jsonl::Row;
use regwin_obs::{Histogram, Metric, MetricSet, Probe, ProbeEvent, SpanKind};
use regwin_rt::{FaultKind, FaultPlan, RtError, RunReport, SchedulingPolicy, Trace, WorkerFault};
use regwin_spell::{Corpus, SpellConfig, SpellPipeline};
use regwin_traps::{build_scheme, SchemeKind};
use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Engine configuration.
#[derive(Debug, Clone, Default)]
pub struct SweepConfig {
    /// Cache directory; `None` disables caching. Ignored (treated as
    /// `None`) while a non-empty fault plan is active, so injected
    /// faults can neither poison the cache nor be masked by it.
    pub cache_dir: Option<PathBuf>,
    /// Worker threads; `0` means one per available CPU.
    pub workers: usize,
    /// Stream one JSON event per job to stderr.
    pub stream_events: bool,
    /// Wall-clock limit per job attempt; `None` disables timeouts. The
    /// attempt runs on its worker thread under
    /// [`regwin_rt::with_deadline`], so the job's simulation or trace
    /// replay stops itself at its next deadline check. Work that never
    /// reaches a check is not bounded: a simulated thread that loops
    /// without ever blocking, or job work outside a simulation or replay.
    pub job_timeout: Option<Duration>,
    /// Extra attempts after a failed one (panic, timeout or error)
    /// before the job is quarantined.
    pub retries: u32,
    /// Backoff slept before retry attempt `k` is `k × retry_backoff`
    /// (linear).
    pub retry_backoff: Duration,
    /// Deterministic fault plan injected into jobs and workers; `None`
    /// or an empty plan injects nothing.
    pub fault_plan: Option<FaultPlan>,
    /// Instrumentation sink for job-lifecycle events: a `Job` span per
    /// completed cell plus cache-hit/miss, retry and quarantine
    /// counters. `None` (the default) costs one branch per event site.
    pub probe: Option<Arc<dyn Probe>>,
    /// Write-ahead journal path: every executed or quarantined job is
    /// appended as a checksummed line and fsync'd the moment it
    /// finishes, so a killed sweep can resume. A cache hit writes no
    /// line: the checksummed cache entry it was served from is its
    /// durable record (see [`crate::journal`]). Journaling also
    /// switches the `BENCH_sweep.json` artifact into deterministic mode
    /// — wall-clock fields are zeroed and the job/quarantine logs are
    /// sorted by key — so an interrupted-then-resumed sweep produces an
    /// artifact byte-identical to an uninterrupted one.
    pub journal_path: Option<PathBuf>,
    /// Replay an existing journal at `journal_path` before running:
    /// jobs it records as finished are served from their journaled
    /// reports instead of re-running. Requires `journal_path`.
    pub resume: bool,
    /// Enable window integrity auditing inside every simulated run.
    /// Auditing never touches cycle counts or statistics, so audited
    /// and unaudited runs produce identical reports and legitimately
    /// share cache entries; the flag buys masked-corruption repair (and
    /// quarantine of unrecoverable corruption), not different numbers.
    pub audit: bool,
    /// Force deterministic artifacts even without a journal: wall-clock
    /// fields are zeroed, logs sort by key, and cache-state-dependent
    /// sections (`cache_dir`, hit/miss flags and counts, `timings`) are
    /// omitted, so two engines produce byte-identical artifacts for the
    /// same job set no matter how warm their caches were. Journaling
    /// implies this mode.
    pub deterministic_artifact: bool,
    /// Cross-engine admission gate: when set, every cache-missing job
    /// acquires a slot (as `admission_session`) before executing, so
    /// several engines sharing one gate respect a global concurrency
    /// bound with round-robin fairness across sessions. Jobs refused by
    /// a closed gate (daemon drain) are *skipped* — not run, not
    /// quarantined, not journaled — and counted in
    /// [`SweepEngine::shutdown_skipped`].
    pub admission: Option<Arc<AdmissionGate>>,
    /// This engine's session id under `admission`.
    pub admission_session: u64,
}

impl SweepConfig {
    /// A validating builder — the preferred way to construct a config.
    /// Unlike filling the struct in by hand, the builder rejects
    /// inconsistent combinations (see [`SweepConfigError`]) at build
    /// time instead of warning at run time.
    pub fn builder() -> SweepConfigBuilder {
        SweepConfigBuilder::default()
    }

    /// Checks the configuration for combinations that cannot behave as
    /// asked. [`SweepConfigBuilder::build`] calls this; struct-literal
    /// configs that skip it are only warned about on stderr when the
    /// engine starts.
    ///
    /// # Errors
    ///
    /// Returns the first inconsistency found.
    pub fn validate(&self) -> Result<(), SweepConfigError> {
        if self.job_timeout.is_some_and(|t| t.is_zero()) {
            return Err(SweepConfigError::ZeroTimeout);
        }
        if self.job_timeout.is_none()
            && self
                .fault_plan
                .as_ref()
                .is_some_and(|p| p.events().iter().any(|e| e.kind == FaultKind::WorkerStall))
        {
            return Err(SweepConfigError::StallWithoutTimeout);
        }
        if self.resume && self.journal_path.is_none() {
            return Err(SweepConfigError::ResumeWithoutJournal);
        }
        Ok(())
    }
}

/// A [`SweepConfig`] combination that cannot behave as asked, rejected
/// by [`SweepConfigBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SweepConfigError {
    /// The fault plan injects worker stalls but no job timeout is
    /// configured. A stall can only be observed through a timeout;
    /// without one the injection silently degrades to a short nap and
    /// the job succeeds.
    StallWithoutTimeout,
    /// The job timeout is zero: every attempt would time out instantly
    /// and every job would quarantine.
    ZeroTimeout,
    /// `resume` was requested without a `journal_path`: there is no
    /// journal to replay.
    ResumeWithoutJournal,
    /// The configured journal is locked by another live engine: a
    /// journal is single-writer (two appenders would interleave torn
    /// lines), so the second opener is rejected instead. Only
    /// [`SweepEngine::try_with_config`] surfaces this;
    /// [`SweepEngine::with_config`] downgrades it to a warning and runs
    /// without a journal.
    JournalBusy {
        /// The busy journal's path.
        path: PathBuf,
    },
}

impl std::fmt::Display for SweepConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepConfigError::StallWithoutTimeout => write!(
                f,
                "fault plan injects worker stalls but no job timeout is configured; \
                 stalls cannot time out and will not quarantine (set a job timeout)"
            ),
            SweepConfigError::ZeroTimeout => {
                write!(f, "job timeout is zero: every attempt would quarantine instantly")
            }
            SweepConfigError::ResumeWithoutJournal => {
                write!(f, "resume requested without a journal path; nothing to replay")
            }
            SweepConfigError::JournalBusy { path } => write!(
                f,
                "journal {} is locked by another live sweep engine (journals are \
                 single-writer; use a distinct journal path per engine)",
                path.display()
            ),
        }
    }
}

impl std::error::Error for SweepConfigError {}

impl From<SweepConfigError> for RtError {
    fn from(e: SweepConfigError) -> Self {
        RtError::BadConfig { detail: e.to_string() }
    }
}

/// Builder for [`SweepConfig`]; see [`SweepConfig::builder`].
#[derive(Debug, Clone, Default)]
pub struct SweepConfigBuilder {
    config: SweepConfig,
}

impl SweepConfigBuilder {
    /// Sets the cache directory (caching is off without one).
    #[must_use]
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.config.cache_dir = Some(dir.into());
        self
    }

    /// Sets the worker-thread count; `0` means one per available CPU.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Streams one JSON event per job to stderr.
    #[must_use]
    pub fn stream_events(mut self, on: bool) -> Self {
        self.config.stream_events = on;
        self
    }

    /// Sets the per-attempt wall-clock limit.
    #[must_use]
    pub fn job_timeout(mut self, limit: Duration) -> Self {
        self.config.job_timeout = Some(limit);
        self
    }

    /// Sets the extra attempts after a failed one.
    #[must_use]
    pub fn retries(mut self, retries: u32) -> Self {
        self.config.retries = retries;
        self
    }

    /// Sets the linear retry backoff unit.
    #[must_use]
    pub fn retry_backoff(mut self, backoff: Duration) -> Self {
        self.config.retry_backoff = backoff;
        self
    }

    /// Installs a deterministic fault plan.
    #[must_use]
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.config.fault_plan = Some(plan);
        self
    }

    /// Installs an instrumentation probe for job-lifecycle events.
    #[must_use]
    pub fn probe(mut self, probe: Arc<dyn Probe>) -> Self {
        self.config.probe = Some(probe);
        self
    }

    /// Enables the crash-safe write-ahead journal at `path` (see
    /// [`SweepConfig::journal_path`]).
    #[must_use]
    pub fn journal(mut self, path: impl Into<PathBuf>) -> Self {
        self.config.journal_path = Some(path.into());
        self
    }

    /// Replays the journal before running, so only unfinished jobs
    /// re-run (see [`SweepConfig::resume`]).
    #[must_use]
    pub fn resume(mut self, on: bool) -> Self {
        self.config.resume = on;
        self
    }

    /// Enables window integrity auditing in every job's simulation (see
    /// [`SweepConfig::audit`]).
    #[must_use]
    pub fn window_audit(mut self, on: bool) -> Self {
        self.config.audit = on;
        self
    }

    /// Forces deterministic artifacts without requiring a journal (see
    /// [`SweepConfig::deterministic_artifact`]).
    #[must_use]
    pub fn deterministic_artifact(mut self, on: bool) -> Self {
        self.config.deterministic_artifact = on;
        self
    }

    /// Installs a cross-engine admission gate under which this engine
    /// executes jobs as `session` (see [`SweepConfig::admission`]).
    #[must_use]
    pub fn admission(mut self, gate: Arc<AdmissionGate>, session: u64) -> Self {
        self.config.admission = Some(gate);
        self.config.admission_session = session;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Rejects inconsistent combinations — notably stall injection
    /// without a job timeout ([`SweepConfigError::StallWithoutTimeout`]).
    pub fn build(self) -> Result<SweepConfig, SweepConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// What happened to one job, for the artifact and the summary.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Content hash (cache file stem).
    pub id: String,
    /// Canonical key string.
    pub key: String,
    /// Human-readable label.
    pub label: String,
    /// Whether the result came from the cache.
    pub cache_hit: bool,
    /// Wall time spent on this job (≈0 for hits).
    pub wall_ms: f64,
    /// The result's total simulated cycles.
    pub total_cycles: u64,
}

/// What happened to one job the engine gave up on: every attempt
/// panicked, timed out or returned an error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineRecord {
    /// Content hash (cache file stem).
    pub id: String,
    /// Canonical key string.
    pub key: String,
    /// Human-readable label.
    pub label: String,
    /// Why the final attempt failed: `"panic"`, `"timeout"` or
    /// `"error"`.
    pub reason: &'static str,
    /// Attempts made (1 + retries).
    pub attempts: u32,
    /// The final attempt's panic message or error display.
    pub detail: String,
    /// Canonical reproducer: the job key plus the engine-level fault
    /// plan, seed and audit flag — everything needed to replay the
    /// failing cell outside the sweep (see EXPERIMENTS.md).
    pub repro: String,
}

/// Aggregate counters for one engine lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepSummary {
    /// Jobs executed or served from cache.
    pub jobs: usize,
    /// Cache hits.
    pub cache_hits: usize,
    /// Cache misses (actually simulated).
    pub cache_misses: usize,
    /// Jobs quarantined after exhausting every attempt.
    pub quarantined: usize,
}

/// What a batch's cache probe found for one job.
enum Lookup<'e> {
    /// Finished by the interrupted run whose journal this engine
    /// resumed: served from the journaled record and report.
    Journaled(&'e JobRecord, &'e RunReport),
    /// Quarantined by the resumed journal: skipped.
    Quarantined,
    /// A valid cache entry, and the milliseconds its load and
    /// validation took.
    Hit {
        /// The cached report.
        report: Box<RunReport>,
        /// The entry's verified report bytes, served as they are to a
        /// caller that asks for the text.
        json: String,
        /// Load-and-validate time.
        load_ms: f64,
    },
    /// Nothing to serve: the job must execute.
    Miss,
}

/// What a batch served for one job: its report and, when the batch
/// already held it, the report's [`report_to_json`] text — a hit's
/// verified cache bytes or a miss's one serialization.
type Served = (RunReport, Option<String>);

/// A job's stderr event: its name, the job's id and label, then `more`.
fn job_event(names: &KeyNames, event: &str, more: Vec<(&'static str, Value)>) -> Value {
    let mut pairs = vec![
        ("event", Value::Str(event.into())),
        ("id", Value::Str(names.id.clone())),
        ("label", Value::Str(names.label.clone())),
    ];
    pairs.extend(more);
    obj(pairs)
}

/// A job's `job_done` event; `cache` says where its report came from.
fn job_done(names: &KeyNames, cache: &str, wall_ms: f64, cycles: u64) -> Value {
    let cache = Value::Str(cache.into());
    let more =
        vec![("cache", cache), ("wall_ms", Value::Float(wall_ms)), ("cycles", Value::Int(cycles))];
    job_event(names, "job_done", more)
}

/// One schedulable unit: a key plus the closure computing its report.
///
/// The closure is owned, `Send + Sync` and `'static`. Every attempt runs
/// on the worker thread that picked the job, so nothing outlives the
/// batch; `'static` stays because `Job` has no lifetime parameter and
/// callers store `Vec<Job>` in struct fields.
pub struct Job {
    key: JobKey,
    run: Box<dyn Fn() -> Result<RunReport, RtError> + Send + Sync>,
}

impl Job {
    /// A job computing the report for `key` via `run`.
    pub fn new(
        key: JobKey,
        run: impl Fn() -> Result<RunReport, RtError> + Send + Sync + 'static,
    ) -> Self {
        Job { key, run: Box::new(run) }
    }

    /// The job's key.
    pub fn key(&self) -> &JobKey {
        &self.key
    }
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job").field("key", &self.key).finish()
    }
}

/// The experiment orchestrator. One engine instance accumulates the job
/// log across every sweep it runs, so a multi-exhibit binary (repro-all)
/// gets a single unified artifact.
#[derive(Debug)]
pub struct SweepEngine {
    config: SweepConfig,
    cache: Option<ResultCache>,
    /// The engine's one record per finished job. The artifact's job log,
    /// its counters, its `metrics` and `timings` sections and the JSONL
    /// trace are all derived from it when they are read. A batch appends
    /// its entries once, after its pool has joined.
    log: Mutex<Vec<LogEntry>>,
    quarantine: Mutex<Vec<QuarantineRecord>>,
    /// Failed attempts that were retried, across every batch.
    retries: AtomicU64,
    /// Engine-lifetime job sequence counter: worker faults target the
    /// N-th cache-missing job across every batch this engine runs.
    seq: AtomicU64,
    started: Instant,
    /// The write-ahead journal, when configured.
    journal: Option<SweepJournal>,
    /// Jobs replayed from the journal on resume (canonical key →
    /// record + report); consulted before the cache, never re-run.
    resumed: BTreeMap<String, (JobRecord, RunReport)>,
    /// Keys the replayed journal already quarantined; skipped outright.
    resumed_quarantine: std::collections::BTreeSet<String>,
    /// Jobs skipped because the admission gate closed mid-batch
    /// (daemon drain): never run, never quarantined, never journaled —
    /// a resumed engine re-runs them.
    skipped: AtomicU64,
    /// Journaling is on: zero wall-clock fields and sort logs in the
    /// artifact, so resumed and uninterrupted runs serialize
    /// byte-identically.
    deterministic: bool,
}

/// One finished job in the engine's log: its [`JobRecord`] plus the
/// scheme and report-derived counters the `metrics` section and the
/// JSONL trace sum. The counters derive purely from the run report, so a
/// cache hit and the run that produced its entry log identical ones.
#[derive(Debug)]
struct LogEntry {
    record: JobRecord,
    scheme: &'static str,
    metrics: MetricSet,
}

/// What one cache-missing job came to, handed back from its worker to
/// the orchestrating thread.
enum MissOutcome {
    /// It ran: what it served and its log entry.
    Done(Box<(Served, LogEntry)>),
    /// Every attempt failed.
    Quarantined(QuarantineRecord),
}

/// A job's [`JobRecord`].
fn job_record(names: &KeyNames, cache_hit: bool, wall_ms: f64, total_cycles: u64) -> JobRecord {
    JobRecord {
        id: names.id.clone(),
        key: names.canonical.clone(),
        label: names.label.clone(),
        cache_hit,
        wall_ms,
        total_cycles,
    }
}

impl SweepEngine {
    /// An engine with the given configuration.
    ///
    /// Configs produced by [`SweepConfig::builder`] are already
    /// validated; hand-filled struct literals that would fail
    /// [`SweepConfig::validate`] are accepted here for compatibility,
    /// with the problem reported as a stderr warning.
    pub fn with_config(config: SweepConfig) -> Self {
        if let Err(e) = config.validate() {
            eprintln!("warning: {e}");
        }
        let (journal, replay) = match Self::open_configured_journal(&config) {
            Ok(pair) => pair,
            Err(e) => {
                // A busy journal downgrades like any other journal-open
                // failure on this compatibility path: the sweep still
                // runs, just without resumability (and without torn
                // interleaved lines). try_with_config surfaces it typed.
                eprintln!("warning: {e}; journaling disabled");
                (None, JournalReplay::default())
            }
        };
        Self::assemble(config, journal, replay)
    }

    /// Like [`SweepEngine::with_config`], but config inconsistencies
    /// and a busy journal are returned typed instead of warned about.
    ///
    /// # Errors
    ///
    /// [`SweepConfigError::JournalBusy`] when another live engine holds
    /// the configured journal's single-writer lock; any
    /// [`SweepConfig::validate`] error otherwise.
    pub fn try_with_config(config: SweepConfig) -> Result<Self, SweepConfigError> {
        config.validate()?;
        let (journal, replay) = Self::open_configured_journal(&config)?;
        Ok(Self::assemble(config, journal, replay))
    }

    /// Opens (or resumes) the configured journal, taking its
    /// single-writer lock. Plain i/o failures degrade to a warned
    /// `None` (an unjournaled sweep is still correct); a *busy* journal
    /// is a real configuration conflict and comes back typed.
    fn open_configured_journal(
        config: &SweepConfig,
    ) -> Result<(Option<SweepJournal>, JournalReplay), SweepConfigError> {
        let open = |result: Result<SweepJournal, JournalOpenError>| match result {
            Ok(journal) => Ok(Some(journal)),
            Err(JournalOpenError::Busy { path }) => Err(SweepConfigError::JournalBusy { path }),
            Err(JournalOpenError::Io(e)) => {
                eprintln!("warning: cannot open sweep journal: {e}");
                Ok(None)
            }
        };
        match &config.journal_path {
            Some(path) if config.resume => {
                let replay = replay_journal(path);
                Ok((open(SweepJournal::append_to(path))?, replay))
            }
            Some(path) => Ok((open(SweepJournal::create(path))?, JournalReplay::default())),
            None => Ok((None, JournalReplay::default())),
        }
    }

    fn assemble(config: SweepConfig, journal: Option<SweepJournal>, replay: JournalReplay) -> Self {
        // A fault plan disables the cache entirely: faulty results must
        // never be stored, and cached results must never shadow the
        // injection the caller asked for.
        let faulty = config.fault_plan.as_ref().is_some_and(|p| !p.is_empty());
        let cache = if faulty { None } else { config.cache_dir.as_ref().map(ResultCache::new) };
        let deterministic = config.journal_path.is_some() || config.deterministic_artifact;
        let resumed_quarantine = replay
            .quarantined
            .iter()
            .map(|q| q.key.clone())
            .collect::<std::collections::BTreeSet<_>>();
        let replayed_quarantines = replay.quarantined.len();
        let engine = SweepEngine {
            config,
            cache,
            log: Mutex::new(Vec::new()),
            quarantine: Mutex::new(replay.quarantined),
            retries: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            started: Instant::now(),
            journal,
            resumed: replay.jobs,
            resumed_quarantine,
            skipped: AtomicU64::new(0),
            deterministic,
        };
        // Replayed quarantines stay in the quarantine list, so the
        // resumed artifact's `timings.ops` counts them like the original
        // run's; the probe hears of them too.
        for _ in 0..replayed_quarantines {
            engine.probe_event(&ProbeEvent::Counter { metric: Metric::JobsQuarantined, delta: 1 });
        }
        engine
    }

    /// An engine with default configuration (no cache, auto workers,
    /// quiet).
    pub fn quiet() -> Self {
        SweepEngine::with_config(SweepConfig::default())
    }

    /// The number of worker threads a pool of `total` jobs will use:
    /// the configured worker count, or one per available CPU, but never
    /// more than the jobs.
    fn effective_workers(&self, total: usize) -> usize {
        let width = match self.config.workers {
            0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
            workers => workers,
        };
        width.min(total.max(1))
    }

    /// The engine's one fan-out: runs `f` on every index in `0..total`
    /// across [`SweepEngine::effective_workers`] scoped OS threads that
    /// take the next index from a shared counter, and returns the
    /// results in index order. A panic in `f` reaches the caller once
    /// every thread has joined.
    fn fan_out<T: Send>(&self, total: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        if total == 0 {
            return Vec::new();
        }
        let mut results: Vec<Option<T>> = (0..total).map(|_| None).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.effective_workers(total))
                .map(|_| {
                    scope.spawn(|| {
                        let mut out = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= total {
                                return out;
                            }
                            out.push((i, f(i)));
                        }
                    })
                })
                .collect();
            for handle in handles {
                let out =
                    handle.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload));
                for (i, result) in out {
                    results[i] = Some(result);
                }
            }
        });
        results.into_iter().map(|r| r.expect("every index ran")).collect()
    }

    /// Prints the event `event` builds to stderr, when events stream.
    fn emit(&self, event: impl FnOnce() -> Value) {
        if self.config.stream_events {
            eprintln!("{}", event().to_json());
        }
    }

    /// Appends an executed job, with its report serialized by
    /// [`report_to_json`], to the write-ahead journal, if one is
    /// configured. Journal write failures degrade resumability, not
    /// correctness, so they warn instead of failing the job.
    fn journal_job(&self, record: &JobRecord, report_json: &str) {
        if let Some(journal) = &self.journal {
            if let Err(e) = journal.append_encoded(record, report_json) {
                eprintln!("warning: cannot journal job {}: {e}", record.id);
            }
        }
    }

    /// The canonical reproducer string for a job under this engine's
    /// configuration: the full key plus the engine-level fault plan,
    /// fault seed and audit flag. Single-quoted fields, space-separated
    /// — canonical strings contain neither quotes nor whitespace.
    fn repro_string(&self, names: &KeyNames) -> String {
        let plan = self.config.fault_plan.as_ref();
        format!(
            "key='{}' audit={} plan='{}' planseed={:#x}",
            names.canonical,
            u8::from(self.config.audit),
            plan.map(FaultPlan::canonical).unwrap_or_else(|| "-".to_string()),
            plan.map_or(0, FaultPlan::seed),
        )
    }

    /// Appends a quarantine record to the write-ahead journal, if one
    /// is configured.
    fn journal_quarantine(&self, q: &QuarantineRecord) {
        if let Some(journal) = &self.journal {
            if let Err(e) = journal.append_quarantine(q) {
                eprintln!("warning: cannot journal quarantine {}: {e}", q.id);
            }
        }
    }

    /// Jobs skipped because the admission gate closed mid-batch (see
    /// [`SweepConfig::admission`]): their result slots came back `None`
    /// without running, quarantining or journaling, so a resumed engine
    /// re-runs exactly these.
    pub fn shutdown_skipped(&self) -> u64 {
        self.skipped.load(Ordering::Relaxed)
    }

    fn probe_event(&self, event: &ProbeEvent<'_>) {
        if let Some(p) = &self.config.probe {
            p.record(event);
        }
    }

    /// A finished job's log entry. Its probe events — a `Job` span
    /// around a cache hit or miss counter — leave here, as it finishes.
    fn log_entry(&self, names: &KeyNames, report: &RunReport, record: JobRecord) -> LogEntry {
        let name = &names.canonical;
        let metric = if record.cache_hit { Metric::CacheHits } else { Metric::CacheMisses };
        self.probe_event(&ProbeEvent::SpanStart { kind: SpanKind::Job, name });
        self.probe_event(&ProbeEvent::Counter { metric, delta: 1 });
        let cycles = report.total_cycles();
        self.probe_event(&ProbeEvent::SpanEnd { kind: SpanKind::Job, name, cycles });
        LogEntry { record, scheme: report.scheme.name(), metrics: report.as_metrics() }
    }

    /// Ends a batch of probe events: a hit batch, or one miss.
    fn flush_probe(&self) {
        if let Some(p) = &self.config.probe {
            p.flush();
        }
    }

    /// Runs a batch of keyed jobs: probes the cache, executes the misses
    /// across the worker pool, stores fresh results, and returns the
    /// reports in input order.
    ///
    /// Every miss runs under `catch_unwind`, an optional per-attempt
    /// wall-clock timeout and bounded retry-with-backoff
    /// ([`SweepConfig`]); a job whose attempts are all exhausted lands
    /// in the quarantine log ([`SweepEngine::quarantine`]) and returns
    /// `None` in its slot instead of aborting the batch — the remaining
    /// cells always complete.
    pub fn run_jobs(&self, jobs: &[Job]) -> Vec<Option<RunReport>> {
        let Ok(served) = self.serve(jobs.iter().map(Job::key), |missing| {
            Ok::<_, std::convert::Infallible>(missing.iter().map(|&i| (i, &jobs[i])).collect())
        });
        served.into_iter().map(|served| served.map(|(report, _)| report)).collect()
    }

    /// The one path every batch takes. Looks each of `keys` up in the
    /// resumed journal and the cache, hands the indices of the misses to
    /// `build` for their jobs, and serves the batch: journaled and cached
    /// jobs from what the lookup loaded, the misses by executing them
    /// across the worker pool. Returns what each slot served; a
    /// quarantined or skipped job's slot is `None`.
    ///
    /// A hit writes no journal line: the checksummed cache entry it was
    /// served from is its durable record, and a journaled engine's
    /// artifact leaves out the hit/miss flags, so a resume that finds
    /// the entry gone re-runs the job to the same bytes.
    ///
    /// # Errors
    ///
    /// Whatever `build` returns; nothing is served then.
    pub(crate) fn serve<'k, J: Borrow<Job> + Sync, E>(
        &self,
        keys: impl IntoIterator<Item = &'k JobKey>,
        build: impl FnOnce(&[usize]) -> Result<Vec<(usize, J)>, E>,
    ) -> Result<Vec<Option<Served>>, E> {
        let names: Vec<KeyNames> = keys.into_iter().map(KeyNames::of).collect();
        // The batch's one cache probe. Its misses decide which jobs are
        // built at all; its hits are served from the reports it loaded,
        // so a job judged cached is never executed.
        let lookups: Vec<Lookup<'_>> = names.iter().map(|names| self.lookup(names)).collect();
        let missing: Vec<usize> =
            (0..names.len()).filter(|&i| matches!(lookups[i], Lookup::Miss)).collect();
        let jobs = build(&missing)?;

        let mut results: Vec<Option<Served>> = (0..names.len()).map(|_| None).collect();
        let mut log = Vec::new();
        for (i, (lookup, names)) in lookups.into_iter().zip(&names).enumerate() {
            match lookup {
                Lookup::Journaled(record, report) => {
                    self.emit(|| job_done(names, "journal", 0.0, record.total_cycles));
                    log.push(self.log_entry(names, report, record.clone()));
                    results[i] = Some((report.clone(), None));
                }
                Lookup::Hit { report, json, load_ms } => {
                    // A hit's wall time is the load-and-validate cost —
                    // real, if small; deterministic artifacts zero it.
                    let wall_ms = if self.deterministic { 0.0 } else { load_ms };
                    self.emit(|| job_done(names, "hit", wall_ms, report.total_cycles()));
                    let record = job_record(names, true, wall_ms, report.total_cycles());
                    log.push(self.log_entry(names, &report, record));
                    results[i] = Some((*report, Some(json)));
                }
                // The interrupted run already gave up on a quarantined
                // job (its record was replayed at engine construction);
                // misses run below.
                Lookup::Quarantined | Lookup::Miss => {}
            }
        }
        // The hits' events leave as one batch, before any miss starts.
        self.flush_probe();
        let mut quarantined = Vec::new();
        if !jobs.is_empty() {
            let outcomes = self.run_misses(&names, &jobs);
            for ((i, _), outcome) in jobs.iter().zip(outcomes) {
                match outcome {
                    Some(MissOutcome::Done(done)) => {
                        let (served, entry) = *done;
                        log.push(entry);
                        results[*i] = Some(served);
                    }
                    Some(MissOutcome::Quarantined(q)) => quarantined.push(q),
                    None => {}
                }
            }
        }
        // Poisoned mutexes are recovered: an append leaves either list
        // whole, so a panicking job cannot take the engine's reporting
        // down with it.
        self.log.lock().unwrap_or_else(|e| e.into_inner()).extend(log);
        if !quarantined.is_empty() {
            self.quarantine.lock().unwrap_or_else(|e| e.into_inner()).extend(quarantined);
        }
        Ok(results)
    }

    /// Executes the cache-missing `jobs` (each paired with its slot in
    /// `names`) across the worker pool in the caller's order, and
    /// returns each one's outcome; `None` for a job a closed admission
    /// gate skipped.
    fn run_misses<J: Borrow<Job> + Sync>(
        &self,
        names: &[KeyNames],
        jobs: &[(usize, J)],
    ) -> Vec<Option<MissOutcome>> {
        let base_seq = self.seq.fetch_add(jobs.len() as u64, Ordering::Relaxed);
        self.fan_out(jobs.len(), |d| {
            let (i, job) = &jobs[d];
            // Under a shared admission gate, hold a granted slot for the
            // job's duration — the global bound plus round-robin fairness
            // across engine sessions. A closed gate (daemon drain) skips
            // the job entirely.
            let _ticket = match &self.config.admission {
                Some(gate) => match gate.acquire(self.config.admission_session) {
                    Ok(ticket) => Some(ticket),
                    Err(_closed) => {
                        self.skipped.fetch_add(1, Ordering::Relaxed);
                        return None;
                    }
                },
                None => None,
            };
            let outcome = execute_job(self, job.borrow(), &names[*i], base_seq + d as u64);
            // The job's events leave as one batch.
            self.flush_probe();
            Some(outcome)
        })
    }

    /// The batch's one look at the journal and the cache for the job
    /// named `names`. A resumed journal outranks the cache: it records
    /// exactly what the interrupted run executed, including each job's
    /// original hit/miss flag.
    fn lookup(&self, names: &KeyNames) -> Lookup<'_> {
        if let Some((record, report)) = self.resumed.get(&names.canonical) {
            return Lookup::Journaled(record, report);
        }
        if self.resumed_quarantine.contains(&names.canonical) {
            return Lookup::Quarantined;
        }
        let t_load = Instant::now();
        match self.cache.as_ref().and_then(|c| c.load_verified(names)) {
            Some((report, json)) => Lookup::Hit {
                report: Box::new(report),
                json,
                load_ms: t_load.elapsed().as_secs_f64() * 1e3,
            },
            None => Lookup::Miss,
        }
    }

    /// Executes every cell of `spec` — the engine's counterpart of
    /// [`regwin_core::run_matrix`] (the serial direct-run reference it is
    /// tested against), with parallel workers, caching, events and the
    /// record-once/replay-many FIFO fast path. Records are returned in
    /// the same deterministic behaviour-major order; cells that land in
    /// quarantine are simply absent from the returned records (and
    /// present in [`SweepEngine::quarantine`]). Consumers must therefore
    /// match records to cells by identity (behaviour, scheme, window
    /// count), never by position — e.g.
    /// `regwin_core::figures::table1_from_records` keys by behaviour and
    /// returns a typed error when handed a gapped set.
    ///
    /// # Errors
    ///
    /// Returns the first trace-recording error (cell execution itself
    /// never aborts the sweep — failures quarantine instead).
    pub fn run_matrix(&self, spec: &MatrixSpec) -> Result<Vec<RunRecord>, RtError> {
        Ok(self.sweep(spec)?.into_iter().map(|(record, _)| record).collect())
    }

    /// Runs `spec` like [`SweepEngine::run_matrix`] and appends its
    /// records to `out` as the text [`crate::records_to_json`] writes for
    /// them. Each hit's verified cache bytes and each miss's one
    /// serialization go into the text as they are, so no report is
    /// encoded a second time.
    ///
    /// # Errors
    ///
    /// As [`SweepEngine::run_matrix`], leaving `out` unchanged.
    pub fn run_matrix_json(&self, spec: &MatrixSpec, out: &mut String) -> Result<(), RtError> {
        let served = self.sweep(spec)?;
        write_records(out, served.iter().map(|(record, json)| (record, json.as_deref())));
        Ok(())
    }

    /// [`SweepEngine::run_matrix`], each record with the report text its
    /// batch already held.
    fn sweep(&self, spec: &MatrixSpec) -> Result<Vec<(RunRecord, Option<String>)>, RtError> {
        let mut cells = Vec::new();
        for (bi, &behavior) in spec.behaviors.iter().enumerate() {
            for &scheme in &spec.schemes {
                for &nwindows in &spec.windows {
                    cells.push((bi, behavior, scheme, nwindows));
                }
            }
        }
        let keys: Vec<JobKey> = cells
            .iter()
            .map(|&(_, behavior, scheme, nwindows)| {
                JobKey::for_cell(spec, behavior, scheme, nwindows)
            })
            .collect();
        let mut sweep_t0 = Instant::now();
        let served = self.serve(&keys, |missing| {
            self.emit(|| {
                obj(vec![
                    ("event", Value::Str("sweep_start".into())),
                    ("jobs", Value::Int(cells.len() as u64)),
                    // The worker count the miss fan-out will actually
                    // use — a warm sweep with one miss reports one
                    // worker, not the full pool width, and a fully warm
                    // sweep spawns none at all.
                    (
                        "workers",
                        Value::Int(if missing.is_empty() {
                            0
                        } else {
                            self.effective_workers(missing.len()) as u64
                        }),
                    ),
                    ("policy", Value::Str(spec.policy.name().into())),
                ])
            });
            sweep_t0 = Instant::now();
            self.matrix_jobs(spec, &cells, &keys, missing)
        })?;
        self.emit(|| {
            let summary = self.summary();
            obj(vec![
                ("event", Value::Str("sweep_done".into())),
                ("jobs", Value::Int(cells.len() as u64)),
                ("cache_hits", Value::Int(summary.cache_hits as u64)),
                ("cache_misses", Value::Int(summary.cache_misses as u64)),
                ("quarantined", Value::Int(summary.quarantined as u64)),
                ("wall_ms", Value::Float(sweep_t0.elapsed().as_secs_f64() * 1e3)),
            ])
        });

        Ok(cells
            .into_iter()
            .zip(served)
            .filter_map(|((_, behavior, scheme, nwindows), served)| {
                served.map(|(report, json)| {
                    let policy = spec.policy;
                    (RunRecord { behavior, scheme, nwindows, policy, report }, json)
                })
            })
            .collect())
    }

    /// The jobs for the cells of `spec` at `missing` (indices into
    /// `cells` and `keys`), paired with their index. Generates the corpus
    /// and records the FIFO traces only when some cell is missing, and
    /// then only for the behaviours that own one.
    fn matrix_jobs(
        &self,
        spec: &MatrixSpec,
        cells: &[(usize, Behavior, SchemeKind, usize)],
        keys: &[JobKey],
        missing: &[usize],
    ) -> Result<Vec<(usize, Job)>, RtError> {
        if missing.is_empty() {
            return Ok(Vec::new());
        }
        let mut behavior_missing = vec![false; spec.behaviors.len()];
        for &i in missing {
            behavior_missing[cells[i].0] = true;
        }

        // Shared job data goes in `Arc`s (not borrows): each job's
        // closure is `'static` and owns its share (see [`Job`]).
        let corpus = Arc::new(Corpus::generate(&spec.corpus));

        // FIFO: the schedule depends only on the buffer configuration
        // (paper §5.2), so record once per behaviour and replay each
        // cell; replay-equals-direct is guaranteed by the rt test suite
        // and checked here against `regwin_core::run_matrix`.
        let traces: Arc<Vec<Option<Trace>>> = Arc::new(if spec.policy == SchedulingPolicy::Fifo {
            let to_record: Vec<usize> =
                (0..spec.behaviors.len()).filter(|&bi| behavior_missing[bi]).collect();
            let record = |behavior: Behavior| -> Result<Trace, RtError> {
                let (m, n) = behavior.buffers();
                self.emit(|| {
                    obj(vec![
                        ("event", Value::Str("trace_record".into())),
                        ("behavior", Value::Str(behavior.to_string())),
                    ])
                });
                let config = SpellConfig::new(spec.corpus, m, n).with_policy(spec.policy);
                let mut pipeline = SpellPipeline::with_corpus((*corpus).clone(), config);
                if self.config.audit {
                    pipeline = pipeline.with_window_audit();
                }
                let (_, trace) = pipeline.run_traced(8, SchemeKind::Sp)?;
                Ok(trace)
            };
            // A panic while recording becomes a typed error, and the
            // first error in behaviour order wins.
            let recorded = self
                .fan_out(to_record.len(), |i| {
                    let behavior = spec.behaviors[to_record[i]];
                    catch_unwind(AssertUnwindSafe(|| record(behavior))).unwrap_or_else(|p| {
                        let name = format!("sweep-{i}: {}", panic_message(p.as_ref()));
                        Err(RtError::ThreadPanicked { name })
                    })
                })
                .into_iter()
                .collect::<Result<Vec<Trace>, RtError>>()?;
            let mut traces = vec![None; spec.behaviors.len()];
            for (bi, trace) in to_record.into_iter().zip(recorded) {
                traces[bi] = Some(trace);
            }
            traces
        } else {
            vec![None; spec.behaviors.len()]
        });

        // Simulation-level faults (machine and stream) are installed
        // into every cell; the trace-replay path carries the machine
        // portion only, since a trace has no stream operations.
        let sim_plan: Option<Arc<FaultPlan>> = self
            .config
            .fault_plan
            .as_ref()
            .filter(|p| p.has_sim_faults())
            .map(|p| Arc::new(p.clone()));

        let corpus_spec = spec.corpus;
        let policy = spec.policy;
        let timing = spec.timing;
        let audit = self.config.audit;
        Ok(missing
            .iter()
            .map(|&i| {
                let (bi, behavior, scheme, nwindows) = cells[i];
                let corpus = Arc::clone(&corpus);
                let traces = Arc::clone(&traces);
                let sim_plan = sim_plan.clone();
                let job = Job::new(keys[i].clone(), move || match &traces[bi] {
                    Some(trace) => trace.replay_with_options(
                        MachineConfig::new(nwindows).with_timing(timing),
                        build_scheme(scheme),
                        sim_plan.as_deref().map(FaultPlan::machine_schedule),
                        audit,
                    ),
                    // No trace: a non-FIFO policy runs every cell directly.
                    None => {
                        let (m, n) = behavior.buffers();
                        let config = SpellConfig::new(corpus_spec, m, n)
                            .with_policy(policy)
                            .with_timing(timing);
                        let mut pipeline = SpellPipeline::with_corpus((*corpus).clone(), config);
                        if audit {
                            pipeline = pipeline.with_window_audit();
                        }
                        match &sim_plan {
                            Some(plan) => Ok(pipeline.run_faulted(nwindows, scheme, plan)?.report),
                            None => Ok(pipeline.run(nwindows, scheme)?.report),
                        }
                    }
                });
                (i, job)
            })
            .collect())
    }

    /// The jobs quarantined so far (empty on a healthy run).
    pub fn quarantine(&self) -> Vec<QuarantineRecord> {
        self.quarantine.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Counters over every job this engine has run so far.
    pub fn summary(&self) -> SweepSummary {
        let log = self.log.lock().unwrap_or_else(|e| e.into_inner());
        let cache_hits = log.iter().filter(|e| e.record.cache_hit).count();
        SweepSummary {
            jobs: log.len(),
            cache_hits,
            cache_misses: log.len() - cache_hits,
            quarantined: self.quarantine.lock().unwrap_or_else(|e| e.into_inner()).len(),
        }
    }

    /// The `BENCH_sweep.json` artifact: engine configuration, aggregate
    /// counters and the full per-job log with wall times.
    ///
    /// In deterministic mode (journaled, or
    /// [`SweepConfig::deterministic_artifact`]) the artifact is a pure
    /// function of the *job set*: wall-clock fields are zeroed, logs
    /// sort by canonical key, and every cache-state-dependent section —
    /// `cache_dir`, per-job `cache` hit/miss flags, the global
    /// `cache_hits`/`cache_misses` counters and the host-measured
    /// `timings` — is omitted. That is what lets a warm server-side
    /// sweep, a cold in-process sweep and a killed-and-resumed sweep
    /// all serialize byte-identically.
    pub fn artifact_value(&self) -> Value {
        let mut log: Vec<JobRecord> = self
            .log
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|e| e.record.clone())
            .collect();
        let mut quarantine = self.quarantine.lock().unwrap_or_else(|e| e.into_inner()).clone();
        if self.deterministic {
            // Deterministic runs promise a byte-identical artifact
            // whether the sweep ran straight through or was killed and
            // resumed: order by canonical key instead of completion
            // order.
            log.sort_by(|a, b| a.key.cmp(&b.key));
            quarantine.sort_by(|a, b| a.key.cmp(&b.key));
        }
        let summary_hits = log.iter().filter(|j| j.cache_hit).count();
        let jobs = Value::Arr(
            log.iter()
                .map(|j| {
                    let mut fields = vec![
                        ("id", Value::Str(j.id.clone())),
                        ("key", Value::Str(j.key.clone())),
                        ("label", Value::Str(j.label.clone())),
                    ];
                    if !self.deterministic {
                        fields.push((
                            "cache",
                            Value::Str(if j.cache_hit { "hit" } else { "miss" }.into()),
                        ));
                    }
                    fields.push(("wall_ms", Value::Float(j.wall_ms)));
                    fields.push(("total_cycles", Value::Int(j.total_cycles)));
                    obj(fields)
                })
                .collect(),
        );
        let mut fields = vec![("version", Value::Int(u64::from(crate::key::FORMAT_VERSION)))];
        if !self.deterministic {
            fields.push((
                "cache_dir",
                match &self.config.cache_dir {
                    Some(d) => Value::Str(d.display().to_string()),
                    None => Value::Null,
                },
            ));
        }
        fields.push(("jobs_total", Value::Int(log.len() as u64)));
        if !self.deterministic {
            fields.push(("cache_hits", Value::Int(summary_hits as u64)));
            fields.push(("cache_misses", Value::Int((log.len() - summary_hits) as u64)));
        }
        fields.push(("quarantined", Value::Int(quarantine.len() as u64)));
        fields.push((
            "wall_ms",
            Value::Float(if self.deterministic {
                0.0
            } else {
                self.started.elapsed().as_secs_f64() * 1e3
            }),
        ));
        fields.push(("metrics", self.metrics_value()));
        if !self.deterministic {
            fields.push(("timings", self.timings_value()));
        }
        fields.push(("jobs", jobs));
        fields.push(("quarantine", quarantine_to_value(&quarantine)));
        obj(fields)
    }

    /// The deterministic `metrics` artifact section: typed counters
    /// derived purely from the run reports — global totals and a
    /// per-scheme split. Byte-identical across worker counts and cache
    /// states, because equal reports yield equal metric sets.
    pub fn metrics_value(&self) -> Value {
        let mut global = MetricSet::new();
        let mut per_scheme: BTreeMap<&str, MetricSet> = BTreeMap::new();
        for entry in self.log.lock().unwrap_or_else(|e| e.into_inner()).iter() {
            global.merge(&entry.metrics);
            per_scheme.entry(entry.scheme).or_default().merge(&entry.metrics);
        }
        obj(vec![
            ("global", metric_set_value(&global)),
            (
                "per_scheme",
                Value::Obj(
                    per_scheme
                        .iter()
                        .map(|(scheme, set)| ((*scheme).to_string(), metric_set_value(set)))
                        .collect(),
                ),
            ),
        ])
    }

    /// The wall-clock `timings` artifact section: engine operational
    /// counters (cache hits/misses, retries, quarantines) and cache
    /// hit/miss latency histograms in nanoseconds (`schema: 2` — schema
    /// 1 recorded microseconds, which truncated every warm hit to a
    /// flat zero). Unlike [`SweepEngine::metrics_value`] this section
    /// is *not* deterministic — it measures the host, not the
    /// simulation.
    fn timings_value(&self) -> Value {
        let mut ops = MetricSet::new();
        let (mut hit_wall_ns, mut miss_wall_ns) = (Histogram::new(), Histogram::new());
        for entry in self.log.lock().unwrap_or_else(|e| e.into_inner()).iter() {
            let (metric, wall_ns) = if entry.record.cache_hit {
                (Metric::CacheHits, &mut hit_wall_ns)
            } else {
                (Metric::CacheMisses, &mut miss_wall_ns)
            };
            ops.add(metric, 1);
            // Nanoseconds: a warm hit costs single-digit microseconds or
            // less, which a microsecond histogram truncates to a flat zero.
            wall_ns.record((entry.record.wall_ms * 1e6) as u64);
        }
        ops.add(Metric::JobRetries, self.retries.load(Ordering::Relaxed));
        let quarantined = self.quarantine.lock().unwrap_or_else(|e| e.into_inner()).len();
        ops.add(Metric::JobsQuarantined, quarantined as u64);
        obj(vec![
            ("schema", Value::Int(2)),
            ("ops", metric_set_value(&ops)),
            ("cache_hit_wall_ns", histogram_value(&hit_wall_ns)),
            ("cache_miss_wall_ns", histogram_value(&miss_wall_ns)),
        ])
    }

    /// The deterministic JSONL trace of every job observed so far, one
    /// event object per line: a `job` span per cell wrapping a
    /// `simulation` span wrapping the job's nonzero counters in
    /// canonical [`Metric`] order. Rows are sorted by canonical job key,
    /// and every value derives from the run report, so the bytes are
    /// identical across worker counts, completion orders and cache
    /// states.
    pub fn trace_string(&self) -> String {
        let log = self.log.lock().unwrap_or_else(|e| e.into_inner());
        let mut entries: Vec<&LogEntry> = log.iter().collect();
        entries.sort_by(|a, b| a.record.key.cmp(&b.record.key));
        let mut out = String::new();
        let mut line = |row: Row| {
            out.push_str(&row.finish());
            out.push('\n');
        };
        for entry in entries {
            let (key, cycles) = (&entry.record.key, entry.record.total_cycles);
            line(Row::new().str("event", "span_start").str("kind", "job").str("name", key));
            line(
                Row::new()
                    .str("event", "span_start")
                    .str("kind", "simulation")
                    .str("name", entry.scheme),
            );
            for (metric, value) in entry.metrics.iter_nonzero() {
                line(
                    Row::new()
                        .str("event", "counter")
                        .str("metric", metric.name())
                        .int("value", value),
                );
            }
            line(
                Row::new()
                    .str("event", "span_end")
                    .str("kind", "simulation")
                    .str("name", entry.scheme)
                    .int("cycles", cycles),
            );
            line(
                Row::new()
                    .str("event", "span_end")
                    .str("kind", "job")
                    .str("name", key)
                    .int("cycles", cycles),
            );
        }
        out
    }

    /// Writes [`SweepEngine::trace_string`] to `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_trace(&self, path: &Path) -> std::io::Result<()> {
        write_file_atomic(path, &self.trace_string())
    }

    /// Writes [`SweepEngine::artifact_value`] to `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_artifact(&self, path: &Path) -> std::io::Result<()> {
        write_file_atomic(path, &self.artifact_value().to_json())
    }
}

/// A [`MetricSet`] as a JSON object: nonzero counters in canonical
/// [`Metric::ALL`] order.
fn metric_set_value(set: &MetricSet) -> Value {
    Value::Obj(set.iter_nonzero().map(|(m, v)| (m.name().to_string(), Value::Int(v))).collect())
}

/// A [`Histogram`] summary as a JSON object.
fn histogram_value(h: &Histogram) -> Value {
    obj(vec![
        ("count", Value::Int(h.count())),
        ("sum", Value::Int(h.sum())),
        ("max", Value::Int(h.max())),
        ("mean", Value::Float(h.mean())),
    ])
}

/// The result of one attempt at one job.
enum AttemptOutcome {
    Done(Box<RunReport>),
    Error(RtError),
    Panic(String),
    Timeout(Duration),
}

/// Renders a caught panic payload for the quarantine log.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one attempt of `job` on the calling worker thread under
/// `catch_unwind` and, when configured, a [`regwin_rt::with_deadline`]
/// deadline one job timeout away. The job's simulation or replay checks
/// that deadline cooperatively, so a timed-out attempt has returned by
/// the time this does: nothing is left running.
fn run_attempt(
    engine: &SweepEngine,
    job: &Job,
    injected: Option<WorkerFault>,
    seq: u64,
) -> AttemptOutcome {
    let timeout = engine.config.job_timeout;
    let deadline = timeout.map(|limit| Instant::now() + limit);
    let body = AssertUnwindSafe(|| -> Result<RunReport, RtError> {
        match injected {
            Some(WorkerFault::Panic) => panic!("injected worker panic (job seq {seq})"),
            // Stalls until the deadline, checking it every millisecond;
            // without one (a config that skipped validation) it is a
            // short nap and the job then runs.
            Some(WorkerFault::Stall) => match deadline {
                Some(deadline) => loop {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Err(RtError::DeadlineExceeded);
                    }
                    std::thread::sleep(left.min(Duration::from_millis(1)));
                },
                None => std::thread::sleep(Duration::from_millis(50)),
            },
            None => {}
        }
        (job.run)()
    });
    let result = match deadline {
        Some(deadline) => regwin_rt::with_deadline(deadline, || catch_unwind(body)),
        None => catch_unwind(body),
    };
    match (result, timeout) {
        (Ok(Ok(report)), _) => AttemptOutcome::Done(Box::new(report)),
        (Ok(Err(RtError::DeadlineExceeded)), Some(limit)) => AttemptOutcome::Timeout(limit),
        (Ok(Err(e)), _) => AttemptOutcome::Error(e),
        (Err(payload), _) => AttemptOutcome::Panic(panic_message(payload.as_ref())),
    }
}

/// Drives one cache-missing job to success or quarantine: up to
/// `1 + retries` attempts with linear backoff, each hardened by
/// [`run_attempt`]. Success stores to cache and journals the job;
/// exhausted attempts emit a `job_quarantined` event and journal the
/// final failure. Either way the outcome goes back to the orchestrating
/// thread, which logs it once the pool has joined, so the job takes no
/// engine lock.
///
/// An injected worker fault is deterministic *per job* — every attempt
/// would fail identically — so a faulted job makes a single attempt
/// instead of burning the configured retries and their backoff sleeps.
fn execute_job(engine: &SweepEngine, job: &Job, names: &KeyNames, seq: u64) -> MissOutcome {
    let injected = engine.config.fault_plan.as_ref().and_then(|p| p.worker_fault_at(seq));
    engine.emit(|| job_event(names, "job_start", vec![]));
    let t0 = Instant::now();
    let attempts = if injected.is_some() { 1 } else { engine.config.retries.saturating_add(1) };
    let mut last_failure = ("error", String::new());
    for attempt in 1..=attempts {
        if attempt > 1 {
            std::thread::sleep(engine.config.retry_backoff.saturating_mul(attempt - 1));
            engine.retries.fetch_add(1, Ordering::Relaxed);
            engine.probe_event(&ProbeEvent::Counter { metric: Metric::JobRetries, delta: 1 });
            let attempt = Value::Int(u64::from(attempt));
            engine.emit(|| job_event(names, "job_retry", vec![("attempt", attempt)]));
        }
        match run_attempt(engine, job, injected, seq) {
            AttemptOutcome::Done(report) => {
                // Deterministic (journaled) artifacts zero the one
                // nondeterministic per-job field.
                let wall_ms =
                    if engine.deterministic { 0.0 } else { t0.elapsed().as_secs_f64() * 1e3 };
                // The report's one serialization, made only when a cache
                // or a journal will keep the bytes.
                let json = (engine.cache.is_some() || engine.journal.is_some())
                    .then(|| report_to_json(&report));
                if let (Some(cache), Some(json)) = (&engine.cache, &json) {
                    cache.store_json(names, json);
                }
                engine.emit(|| job_done(names, "miss", wall_ms, report.total_cycles()));
                let record = job_record(names, false, wall_ms, report.total_cycles());
                if let Some(json) = &json {
                    engine.journal_job(&record, json);
                }
                let entry = engine.log_entry(names, &report, record);
                return MissOutcome::Done(Box::new(((*report, json), entry)));
            }
            AttemptOutcome::Error(e) => last_failure = ("error", e.to_string()),
            AttemptOutcome::Panic(msg) => last_failure = ("panic", msg),
            AttemptOutcome::Timeout(limit) => {
                last_failure =
                    ("timeout", format!("exceeded {}ms wall-clock limit", limit.as_millis()));
            }
        }
    }
    let (reason, detail) = last_failure;
    engine.probe_event(&ProbeEvent::Counter { metric: Metric::JobsQuarantined, delta: 1 });
    let more =
        vec![("reason", Value::Str(reason.into())), ("attempts", Value::Int(attempts.into()))];
    engine.emit(|| job_event(names, "job_quarantined", more));
    let q = QuarantineRecord {
        id: names.id.clone(),
        key: names.canonical.clone(),
        label: names.label.clone(),
        reason,
        attempts,
        detail,
        repro: engine.repro_string(names),
    };
    engine.journal_quarantine(&q);
    MissOutcome::Quarantined(q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::records_to_json;
    use regwin_core::{run_matrix, Behavior, Concurrency, Granularity};
    use regwin_machine::TimingKind;
    use regwin_spell::CorpusSpec;

    fn small_spec() -> MatrixSpec {
        MatrixSpec {
            corpus: CorpusSpec::small(),
            behaviors: vec![Behavior::new(Concurrency::High, Granularity::Medium)],
            schemes: vec![SchemeKind::Ns, SchemeKind::Sp],
            windows: vec![4, 8],
            policy: SchedulingPolicy::Fifo,
            timing: TimingKind::S20,
        }
    }

    /// Runs `spec` on a quiet engine and on the serial direct-run
    /// reference, and asserts the two agree record for record: same
    /// length, no quarantined cell, same cell coordinates and the same
    /// whole report.
    fn assert_engine_matches_core(spec: &MatrixSpec) {
        let engine = SweepEngine::quiet();
        let ours = engine.run_matrix(spec).unwrap();
        assert!(engine.quarantine().is_empty(), "quarantined: {:?}", engine.quarantine());
        let reference = run_matrix(spec).unwrap();
        assert_eq!(ours.len(), spec.len());
        assert_eq!(ours.len(), reference.len());
        for (a, b) in ours.iter().zip(&reference) {
            assert_eq!(
                (a.behavior, a.scheme, a.nwindows, a.policy),
                (b.behavior, b.scheme, b.nwindows, b.policy)
            );
            assert_eq!(a.report, b.report, "{} {}@{}", a.behavior, a.scheme, a.nwindows);
        }
    }

    /// Under FIFO the engine records one trace per behaviour and replays
    /// every cell; the reference runs every cell directly.
    #[test]
    fn engine_matches_core_run_matrix() {
        assert_engine_matches_core(&small_spec());
    }

    #[test]
    fn engine_matches_core_on_working_set() {
        let mut spec = small_spec();
        spec.policy = SchedulingPolicy::WorkingSet;
        spec.windows = vec![6];
        assert_engine_matches_core(&spec);
    }

    #[test]
    fn second_run_hits_cache_for_every_cell() {
        let dir =
            std::env::temp_dir().join(format!("regwin-sweep-engine-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = small_spec();
        let total = spec.len();

        let first = SweepEngine::with_config(SweepConfig {
            cache_dir: Some(dir.clone()),
            ..SweepConfig::default()
        });
        let cold = first.run_matrix(&spec).unwrap();
        assert_eq!(first.summary().cache_misses, total);
        assert_eq!(first.summary().cache_hits, 0);

        let second = SweepEngine::with_config(SweepConfig {
            cache_dir: Some(dir.clone()),
            ..SweepConfig::default()
        });
        let warm = second.run_matrix(&spec).unwrap();
        assert_eq!(second.summary().cache_hits, total);
        assert_eq!(second.summary().cache_misses, 0);
        assert_eq!(records_to_json(&cold), records_to_json(&warm));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_matrix_json_writes_the_records_text_uncached_cold_warm_and_mixed() {
        let dir =
            std::env::temp_dir().join(format!("regwin-sweep-json-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = small_spec();
        let want = records_to_json(&SweepEngine::quiet().run_matrix(&spec).unwrap());
        let cached = || {
            SweepEngine::with_config(SweepConfig {
                cache_dir: Some(dir.clone()),
                ..SweepConfig::default()
            })
        };
        let check = |engine: SweepEngine, hits: usize| {
            let mut out = String::from("frame:");
            engine.run_matrix_json(&spec, &mut out).unwrap();
            assert_eq!(out, format!("frame:{want}"), "with {hits} hit(s)");
            assert_eq!(engine.summary().cache_hits, hits);
        };
        check(SweepEngine::quiet(), 0);
        check(cached(), 0);
        check(cached(), spec.len());
        let key = JobKey::for_cell(&spec, spec.behaviors[0], SchemeKind::Sp, 8);
        std::fs::remove_file(dir.join(format!("{}.json", key.id()))).unwrap();
        check(cached(), spec.len() - 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_lines_equal_append_job_for_misses() {
        let dir = std::env::temp_dir()
            .join(format!("regwin-sweep-miss-journal-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = small_spec();
        let engine = |journal: &str| {
            SweepEngine::with_config(
                SweepConfig::builder()
                    .cache_dir(dir.join("cache"))
                    .journal(dir.join(journal))
                    .build()
                    .unwrap(),
            )
        };
        let cold = engine("cold.jsonl").run_matrix(&spec).unwrap();
        let warm = engine("warm.jsonl");
        warm.run_matrix(&spec).unwrap();
        assert_eq!(warm.summary().cache_hits, spec.len());
        drop(warm);
        let written = |name: &str| -> Vec<String> {
            let mut lines: Vec<String> = std::fs::read_to_string(dir.join(name))
                .unwrap()
                .lines()
                .map(str::to_string)
                .collect();
            lines.sort();
            lines
        };
        assert!(written("warm.jsonl").is_empty(), "a hit writes no journal line");

        // The oracle: the lines `append_job` writes for the cold run's
        // reports. The cold journal holds each miss's one serialization.
        let oracle = SweepJournal::create(dir.join("oracle.jsonl")).unwrap();
        for r in &cold {
            let key = JobKey::for_cell(&spec, r.behavior, r.scheme, r.nwindows);
            let record = JobRecord {
                id: key.id(),
                key: key.canonical(),
                label: key.label(),
                cache_hit: false,
                wall_ms: 0.0,
                total_cycles: r.report.total_cycles(),
            };
            oracle.append_job(&record, &r.report).unwrap();
        }
        assert_eq!(written("cold.jsonl"), written("oracle.jsonl"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn artifact_reflects_the_job_log() {
        let engine = SweepEngine::quiet();
        let spec = MatrixSpec { windows: vec![8], schemes: vec![SchemeKind::Sp], ..small_spec() };
        engine.run_matrix(&spec).unwrap();
        let artifact = engine.artifact_value();
        assert_eq!(artifact.get("jobs_total").unwrap().as_u64(), Some(1));
        assert_eq!(artifact.get("cache_misses").unwrap().as_u64(), Some(1));
        assert_eq!(artifact.get("jobs").unwrap().as_arr().unwrap().len(), 1);
    }

    #[test]
    fn run_jobs_preserves_input_order() {
        let engine = SweepEngine::quiet();
        let spec = small_spec();
        // Two jobs whose reports differ by window count; order must hold.
        let keys: Vec<JobKey> = [12, 4]
            .iter()
            .map(|&w| JobKey::for_cell(&spec, spec.behaviors[0], SchemeKind::Sp, w))
            .collect();
        let jobs: Vec<Job> = keys
            .into_iter()
            .map(|key| {
                let w = key.nwindows;
                Job::new(key, move || {
                    let config = SpellConfig::new(CorpusSpec::small(), 4, 4);
                    Ok(SpellPipeline::new(config).run(w, SchemeKind::Sp)?.report)
                })
            })
            .collect();
        let reports = engine.run_jobs(&jobs);
        assert_eq!(reports[0].as_ref().unwrap().nwindows, 12);
        assert_eq!(reports[1].as_ref().unwrap().nwindows, 4);
        assert!(engine.quarantine().is_empty());
    }

    #[test]
    fn builder_rejects_stall_injection_without_timeout() {
        let plan = FaultPlan::new().with_event(FaultKind::WorkerStall, 0);
        let err = SweepConfig::builder().fault_plan(plan.clone()).build().unwrap_err();
        assert_eq!(err, SweepConfigError::StallWithoutTimeout);
        assert!(RtError::from(err).to_string().contains("stall"));

        // The same plan is fine once a timeout makes stalls observable.
        let config = SweepConfig::builder()
            .fault_plan(plan)
            .job_timeout(Duration::from_millis(200))
            .retries(1)
            .build()
            .unwrap();
        assert_eq!(config.retries, 1);
        assert!(config.validate().is_ok());
    }

    #[test]
    fn builder_rejects_zero_timeout() {
        let err = SweepConfig::builder().job_timeout(Duration::ZERO).build().unwrap_err();
        assert_eq!(err, SweepConfigError::ZeroTimeout);
    }

    #[test]
    fn metrics_and_trace_are_cache_state_independent() {
        let dir =
            std::env::temp_dir().join(format!("regwin-sweep-obs-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = small_spec();

        let cold =
            SweepEngine::with_config(SweepConfig::builder().cache_dir(&dir).build().unwrap());
        cold.run_matrix(&spec).unwrap();
        let warm =
            SweepEngine::with_config(SweepConfig::builder().cache_dir(&dir).build().unwrap());
        warm.run_matrix(&spec).unwrap();
        assert_eq!(warm.summary().cache_hits, spec.len());

        assert_eq!(cold.metrics_value().to_json(), warm.metrics_value().to_json());
        assert_eq!(cold.trace_string(), warm.trace_string());
        // The timings section is the one place hits and misses differ.
        let warm_ops = warm.timings_value();
        assert_eq!(
            warm_ops.get("ops").unwrap().get("cache_hits").unwrap().as_u64(),
            Some(spec.len() as u64)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_cycle_totals_match_the_reports() {
        let engine = SweepEngine::quiet();
        let spec = small_spec();
        let records = engine.run_matrix(&spec).unwrap();

        // Sum each scheme's simulated cycles straight from the reports.
        let mut expected: BTreeMap<&str, u64> = BTreeMap::new();
        for r in &records {
            *expected.entry(r.scheme.name()).or_default() += r.report.total_cycles();
        }

        // Re-derive the same totals from the JSONL trace's simulation
        // span-end lines.
        let mut traced: BTreeMap<String, u64> = BTreeMap::new();
        for line in engine.trace_string().lines() {
            let v = crate::json::parse(line).unwrap();
            if v.get("event").unwrap().as_str() == Some("span_end")
                && v.get("kind").unwrap().as_str() == Some("simulation")
            {
                let scheme = v.get("name").unwrap().as_str().unwrap().to_string();
                *traced.entry(scheme).or_default() += v.get("cycles").unwrap().as_u64().unwrap();
            }
        }
        assert_eq!(traced.len(), expected.len());
        for (scheme, cycles) in expected {
            assert_eq!(traced.get(scheme), Some(&cycles), "{scheme}");
        }

        // The metrics section's per-scheme cycle attribution must add up
        // to the same totals.
        let metrics = engine.metrics_value();
        let per_scheme = metrics.get("per_scheme").unwrap();
        for r in &records {
            let set = per_scheme.get(r.scheme.name()).unwrap();
            let attributed: u64 = [
                "cycles_app",
                "cycles_window_instr",
                "cycles_overflow_trap",
                "cycles_underflow_trap",
                "cycles_context_switch",
            ]
            .iter()
            .map(|k| set.get(k).and_then(Value::as_u64).unwrap_or(0))
            .sum();
            assert_eq!(attributed, traced[r.scheme.name()], "{}", r.scheme);
        }
    }

    #[test]
    fn job_probe_sees_lifecycle_events() {
        let probe = Arc::new(regwin_obs::RecordingProbe::new());
        let engine = SweepEngine::with_config(
            SweepConfig::builder().probe(probe.clone() as Arc<dyn Probe>).build().unwrap(),
        );
        let spec = small_spec();
        engine.run_matrix(&spec).unwrap();
        assert_eq!(probe.span_count(SpanKind::Job), spec.len());
        assert_eq!(probe.counter_total(Metric::CacheMisses), spec.len() as u64);
        assert_eq!(probe.counter_total(Metric::CacheHits), 0);
    }

    #[test]
    fn killed_sweep_resumes_to_a_byte_identical_artifact() {
        let dir =
            std::env::temp_dir().join(format!("regwin-sweep-resume-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let journal = dir.join("BENCH_sweep.json.journal.jsonl");
        let spec = small_spec(); // 4 cells

        // Reference: an uninterrupted journaled run.
        let reference =
            SweepEngine::with_config(SweepConfig::builder().journal(&journal).build().unwrap());
        reference.run_matrix(&spec).unwrap();
        let want = reference.artifact_value().to_json();
        // Release the journal's single-writer lock — the "killed"
        // run below reopens the same path.
        drop(reference);

        // Simulate kill -9 after two jobs: keep two intact journal
        // lines plus a torn third (an append cut mid-way).
        let full = std::fs::read_to_string(&journal).unwrap();
        let lines: Vec<&str> = full.lines().collect();
        assert_eq!(lines.len(), spec.len());
        let torn = format!("{}\n{}\n{}", lines[0], lines[1], &lines[2][..lines[2].len() / 2]);
        std::fs::write(&journal, torn).unwrap();

        let resumed = SweepEngine::with_config(
            SweepConfig::builder().journal(&journal).resume(true).build().unwrap(),
        );
        let records = resumed.run_matrix(&spec).unwrap();
        assert_eq!(records.len(), spec.len(), "resume must complete every cell");
        assert_eq!(
            resumed.artifact_value().to_json(),
            want,
            "resumed artifact must be byte-identical to the uninterrupted one"
        );
        // And the journal is whole again: a second resume re-runs nothing.
        let replay = crate::journal::replay_journal(&journal);
        assert_eq!(replay.jobs.len(), spec.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn builder_rejects_resume_without_journal() {
        assert_eq!(
            SweepConfig::builder().resume(true).build().unwrap_err(),
            SweepConfigError::ResumeWithoutJournal
        );
    }

    #[test]
    fn sweep_survives_poisoned_engine_mutexes() {
        // Poison every engine mutex the way a real panic would: a
        // thread dies while holding the guard. The engine must recover
        // the (append-only, never-half-updated) lists instead of
        // cascading the panic into every later job and reader.
        fn poison<T: Send>(m: &Mutex<T>) {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                std::thread::scope(|scope| {
                    scope.spawn(|| {
                        let _guard = m.lock().unwrap();
                        panic!("deliberate poison");
                    });
                });
            }));
            assert!(caught.is_err(), "poisoning panic must propagate");
        }
        let engine = SweepEngine::quiet();
        poison(&engine.log);
        poison(&engine.quarantine);
        assert!(engine.log.lock().is_err(), "log mutex must actually be poisoned");
        assert!(engine.quarantine.lock().is_err(), "quarantine mutex must actually be poisoned");

        let spec = small_spec();
        let records = engine.run_matrix(&spec).unwrap();
        assert_eq!(records.len(), spec.len());
        assert!(engine.quarantine().is_empty());
        assert_eq!(engine.summary().jobs, spec.len());
        let key = JobKey::for_cell(&spec, spec.behaviors[0], SchemeKind::Ns, 6);
        let failing = Job::new(key, || Err(RtError::DeadlineExceeded));
        assert!(engine.run_jobs(&[failing])[0].is_none());
        assert_eq!(engine.quarantine().len(), 1);
        let artifact = engine.artifact_value();
        assert_eq!(artifact.get("jobs_total").unwrap().as_u64(), Some(spec.len() as u64));
        assert_eq!(artifact.get("quarantined").unwrap().as_u64(), Some(1));
        assert!(!engine.trace_string().is_empty());
    }

    #[test]
    fn fault_free_hot_path_needs_no_engine_locks() {
        // Hold the job-log and quarantine mutexes for as long as the
        // jobs are computing. If the per-job path acquired either, no
        // job could finish while they are held and the test would
        // wedge; every job completes and only the post-batch append
        // waits.
        let engine = SweepEngine::with_config(SweepConfig { workers: 2, ..SweepConfig::default() });
        let spec = small_spec();
        let done = Arc::new(AtomicUsize::new(0));
        let jobs: Vec<Job> = [4usize, 8, 12]
            .iter()
            .map(|&w| {
                let key = JobKey::for_cell(&spec, spec.behaviors[0], SchemeKind::Sp, w);
                let done = Arc::clone(&done);
                Job::new(key, move || {
                    let config = SpellConfig::new(CorpusSpec::small(), 4, 4);
                    let report = SpellPipeline::new(config).run(w, SchemeKind::Sp)?.report;
                    done.fetch_add(1, Ordering::SeqCst);
                    Ok(report)
                })
            })
            .collect();
        let total = jobs.len();
        std::thread::scope(|scope| {
            let engine = &engine;
            let done = Arc::clone(&done);
            let (held_tx, held_rx) = std::sync::mpsc::channel::<()>();
            scope.spawn(move || {
                let log = engine.log.lock().unwrap();
                let quarantine = engine.quarantine.lock().unwrap();
                held_tx.send(()).unwrap();
                while done.load(Ordering::SeqCst) < total {
                    std::thread::sleep(Duration::from_millis(1));
                }
                drop((log, quarantine));
            });
            held_rx.recv().unwrap();
            let reports = engine.run_jobs(&jobs);
            assert!(reports.iter().all(Option::is_some));
        });
        assert_eq!(engine.summary().cache_misses, total);
    }

    /// Asserts `engine`'s `timings` section: the four `ops` counters and
    /// both histogram counts, and that the log-derived summary agrees.
    fn assert_timings(
        engine: &SweepEngine,
        hits: u64,
        misses: u64,
        retries: u64,
        quarantined: u64,
    ) {
        let timings = engine.timings_value();
        let ops = timings.get("ops").unwrap();
        let op = |name: &str| ops.get(name).and_then(Value::as_u64).unwrap_or(0);
        assert_eq!(
            [op("cache_hits"), op("cache_misses"), op("job_retries"), op("jobs_quarantined")],
            [hits, misses, retries, quarantined]
        );
        let count = |name: &str| timings.get(name).unwrap().get("count").unwrap().as_u64();
        assert_eq!(count("cache_hit_wall_ns"), Some(hits));
        assert_eq!(count("cache_miss_wall_ns"), Some(misses));
        let summary = engine.summary();
        assert_eq!(
            [summary.cache_hits, summary.cache_misses, summary.quarantined],
            [hits, misses, quarantined].map(|n| n as usize)
        );
    }

    #[test]
    fn timings_count_what_the_log_the_quarantine_list_and_the_plan_imply() {
        let dir =
            std::env::temp_dir().join(format!("regwin-sweep-timings-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = small_spec();
        let n = spec.len() as u64;
        let engine =
            SweepEngine::with_config(SweepConfig::builder().cache_dir(&dir).build().unwrap());
        engine.run_matrix(&spec).unwrap();
        assert_timings(&engine, 0, n, 0, 0);
        engine.run_matrix(&spec).unwrap();
        assert_timings(&engine, n, n, 0, 0);
        let _ = std::fs::remove_dir_all(&dir);

        // The plan panics the job dispatched second, which quarantines
        // after its one attempt; the first job fails its first attempt
        // and succeeds on its one retry.
        let plan = FaultPlan::new().with_event(FaultKind::WorkerPanic, 1);
        let engine = SweepEngine::with_config(
            SweepConfig::builder().fault_plan(plan).retries(1).workers(2).build().unwrap(),
        );
        let failed_once = Arc::new(AtomicUsize::new(0));
        let jobs: Vec<Job> = [4usize, 8, 12]
            .iter()
            .enumerate()
            .map(|(j, &w)| {
                let key = JobKey::for_cell(&spec, spec.behaviors[0], SchemeKind::Sp, w);
                let failed_once = Arc::clone(&failed_once);
                Job::new(key, move || {
                    if j == 0 && failed_once.fetch_add(1, Ordering::SeqCst) == 0 {
                        return Err(RtError::DeadlineExceeded);
                    }
                    let config = SpellConfig::new(CorpusSpec::small(), 4, 4);
                    Ok(SpellPipeline::new(config).run(w, SchemeKind::Sp)?.report)
                })
            })
            .collect();
        let reports = engine.run_jobs(&jobs);
        assert_eq!(reports.iter().map(Option::is_some).collect::<Vec<_>>(), [true, false, true]);
        assert_timings(&engine, 0, 2, 1, 1);
    }

    #[test]
    fn every_policy_is_byte_identical_across_workers_and_cache_states() {
        for policy in SchedulingPolicy::ALL {
            let dir = std::env::temp_dir().join(format!(
                "regwin-sweep-policy-{}-{}",
                policy.name(),
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let spec = MatrixSpec { policy, ..small_spec() };

            // One worker, no cache.
            let serial =
                SweepEngine::with_config(SweepConfig { workers: 1, ..SweepConfig::default() });
            let baseline = records_to_json(&serial.run_matrix(&spec).unwrap());

            // Eight workers, cold cache.
            let cold = SweepEngine::with_config(SweepConfig {
                workers: 8,
                cache_dir: Some(dir.clone()),
                ..SweepConfig::default()
            });
            let cold_json = records_to_json(&cold.run_matrix(&spec).unwrap());
            assert_eq!(cold.summary().cache_misses, spec.len());

            // Eight workers, warm cache.
            let warm = SweepEngine::with_config(SweepConfig {
                workers: 8,
                cache_dir: Some(dir.clone()),
                ..SweepConfig::default()
            });
            let warm_json = records_to_json(&warm.run_matrix(&spec).unwrap());
            assert_eq!(warm.summary().cache_hits, spec.len());

            assert_eq!(baseline, cold_json, "{policy:?}: 1 vs 8 workers");
            assert_eq!(baseline, warm_json, "{policy:?}: cold vs warm cache");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_second_engine_on_a_live_journal_is_journal_busy() {
        let dir = std::env::temp_dir()
            .join(format!("regwin-sweep-journal-busy-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let journal = dir.join("shared.journal.jsonl");
        let config = || SweepConfig::builder().journal(&journal).build().unwrap();
        let first = SweepEngine::try_with_config(config()).expect("fresh journal");
        match SweepEngine::try_with_config(config()) {
            Err(SweepConfigError::JournalBusy { path }) => assert_eq!(path, journal),
            other => panic!("second engine must be JournalBusy, got {other:?}"),
        }
        // The compatibility constructor degrades instead of failing:
        // the engine works, just without a journal.
        let degraded = SweepEngine::with_config(config());
        degraded.run_matrix(&small_spec()).unwrap();
        assert_eq!(degraded.summary().jobs, small_spec().len());
        drop(first);
        // Releasing the first engine frees the journal.
        SweepEngine::try_with_config(config()).expect("released journal must reopen");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deterministic_artifact_flag_is_cache_state_independent() {
        let dir = std::env::temp_dir()
            .join(format!("regwin-sweep-det-artifact-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = small_spec();
        // Cold: no cache at all. Warm: every cell already cached.
        let cold = SweepEngine::with_config(
            SweepConfig::builder().deterministic_artifact(true).build().unwrap(),
        );
        cold.run_matrix(&spec).unwrap();
        let seeder =
            SweepEngine::with_config(SweepConfig::builder().cache_dir(&dir).build().unwrap());
        seeder.run_matrix(&spec).unwrap();
        let warm = SweepEngine::with_config(
            SweepConfig::builder().cache_dir(&dir).deterministic_artifact(true).build().unwrap(),
        );
        warm.run_matrix(&spec).unwrap();
        assert_eq!(warm.summary().cache_hits, spec.len(), "warm engine must hit every cell");
        assert_eq!(
            warm.artifact_value().to_json(),
            cold.artifact_value().to_json(),
            "deterministic artifacts must not depend on cache state"
        );
        assert_eq!(warm.trace_string(), cold.trace_string());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_closed_admission_gate_skips_jobs_without_quarantining() {
        let gate = Arc::new(AdmissionGate::new(2));
        let engine = SweepEngine::with_config(
            SweepConfig::builder().admission(Arc::clone(&gate), 7).workers(2).build().unwrap(),
        );
        // Open gate: the sweep runs normally under admission control.
        let spec = small_spec();
        let records = engine.run_matrix(&spec).unwrap();
        assert_eq!(records.len(), spec.len());
        assert_eq!(engine.shutdown_skipped(), 0);
        // Closed gate: every remaining job is skipped — absent from the
        // results, the quarantine log and the journal-visible log.
        gate.close();
        let before = engine.summary().jobs;
        let mut spec2 = small_spec();
        spec2.windows = vec![6, 12];
        let records = engine.run_matrix(&spec2).unwrap();
        assert!(records.is_empty(), "a draining engine must not return fresh records");
        assert_eq!(engine.shutdown_skipped() as usize, spec2.len());
        assert_eq!(engine.summary().jobs, before, "skipped jobs must not be logged");
        assert!(engine.quarantine().is_empty(), "skipped jobs must not quarantine");
    }
}
