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
use crate::gate::AdmissionGate;
use crate::journal::{replay_journal, JournalOpenError, JournalReplay, SweepJournal};
use crate::json::{obj, Value};
use crate::key::JobKey;
use crate::lock::DirLock;
use regwin_core::{MatrixSpec, RunRecord};
use regwin_machine::MachineConfig;
use regwin_obs::jsonl::Row;
use regwin_obs::{AtomicMetricSet, Histogram, Metric, MetricSet, Probe, ProbeEvent, SpanKind};
use regwin_rt::{FaultKind, FaultPlan, RtError, RunReport, SchedulingPolicy, Trace, WorkerFault};
use regwin_spell::{Corpus, SpellConfig, SpellPipeline};
use regwin_traps::{build_scheme, SchemeKind};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// File inside the cache directory holding LPT scheduling hints: a JSON
/// object mapping job id → wall ms measured the last time the job
/// actually ran. Purely advisory — it orders cold-sweep execution,
/// never results.
const WALL_HINTS_FILE: &str = "wall_hints.json";

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
    /// Wall-clock limit per job attempt; `None` disables timeouts. A
    /// timed-out attempt's thread is abandoned (detached), so even a
    /// job that never returns cannot wedge the sweep — the abandoned
    /// thread and whatever it still references leak for as long as it
    /// keeps running.
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
    /// Write-ahead journal path: every completed or quarantined job is
    /// appended (checksummed and fsync'd) the moment it finishes, so a
    /// killed sweep can resume. Journaling also switches the
    /// `BENCH_sweep.json` artifact into deterministic mode — wall-clock
    /// fields are zeroed and the job/quarantine logs are sorted by key —
    /// so an interrupted-then-resumed sweep produces an artifact
    /// byte-identical to an uninterrupted one.
    pub journal_path: Option<PathBuf>,
    /// Replay an existing journal at `journal_path` before running:
    /// jobs it records as finished are served from their journaled
    /// reports instead of re-running. Requires `journal_path`.
    pub resume: bool,
    /// Cap on abandoned attempt threads (each timed-out attempt leaks
    /// its detached OS thread). Once the cap is reached, further jobs
    /// are quarantined with reason `"abandoned-cap"` instead of
    /// spawning new attempt threads. `None` (the default) never caps.
    pub abandoned_cap: Option<usize>,
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
        if self.abandoned_cap.is_some() && self.job_timeout.is_none() {
            return Err(SweepConfigError::AbandonedCapWithoutTimeout);
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
    /// An abandoned-thread cap was set without a job timeout: attempts
    /// are only ever abandoned when they time out, so the cap could
    /// never trip.
    AbandonedCapWithoutTimeout,
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
            SweepConfigError::AbandonedCapWithoutTimeout => write!(
                f,
                "abandoned-thread cap set without a job timeout; attempts are only \
                 abandoned on timeout, so the cap could never trip (set a job timeout)"
            ),
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

    /// Caps the abandoned attempt threads a sweep may accumulate (see
    /// [`SweepConfig::abandoned_cap`]).
    #[must_use]
    pub fn abandoned_cap(mut self, cap: usize) -> Self {
        self.config.abandoned_cap = Some(cap);
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

/// One schedulable unit: a key plus the closure computing its report.
///
/// The closure is owned, `Send + Sync` and `'static` (share data into
/// it via `Arc`/`Copy`, not borrows): a timed attempt runs the closure
/// on a detached thread that may outlive the batch when the attempt
/// times out, which is what lets the engine abandon — rather than
/// join — a wedged job.
pub struct Job {
    key: JobKey,
    run: Arc<dyn Fn() -> Result<RunReport, RtError> + Send + Sync>,
}

impl Job {
    /// A job computing the report for `key` via `run`.
    pub fn new(
        key: JobKey,
        run: impl Fn() -> Result<RunReport, RtError> + Send + Sync + 'static,
    ) -> Self {
        Job { key, run: Arc::new(run) }
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
    log: Mutex<Vec<JobRecord>>,
    quarantine: Mutex<Vec<QuarantineRecord>>,
    obs: Mutex<ObsAggregate>,
    /// Wait-free (1,N) operational-counter publication: one atomic slot
    /// row per participating thread (slot 0 = the orchestrating thread,
    /// slot 1+w = pool worker `w`), summed at report time. The job hot
    /// path bumps its own row with relaxed adds and never takes a lock.
    ops_slots: OpsSlots,
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
    /// Detached attempt threads abandoned to timeouts so far.
    abandoned: AtomicU64,
    /// Jobs skipped because the admission gate closed mid-batch
    /// (daemon drain): never run, never quarantined, never journaled —
    /// a resumed engine re-runs them.
    skipped: AtomicU64,
    /// Journaling is on: zero wall-clock fields and sort logs in the
    /// artifact, so resumed and uninterrupted runs serialize
    /// byte-identically.
    deterministic: bool,
    /// Measured wall times of this engine's cache-missing jobs (job id
    /// → ms), merged into the cache directory's hint store after each
    /// batch to seed LPT scheduling of future cold sweeps.
    wall_hints: Mutex<BTreeMap<String, f64>>,
}

/// One completed job's deterministic observability record: derived
/// purely from the run report, so cache hits and fresh runs contribute
/// byte-identical rows.
#[derive(Debug, Clone)]
struct TraceRow {
    key: String,
    scheme: &'static str,
    total_cycles: u64,
    metrics: MetricSet,
}

/// Everything the engine aggregates for the `metrics`/`timings`
/// artifact sections and the JSONL trace.
#[derive(Debug, Default)]
struct ObsAggregate {
    /// Report-derived counters over every job (deterministic).
    sim: MetricSet,
    /// The same, split by scheme (deterministic).
    per_scheme: BTreeMap<&'static str, MetricSet>,
    /// One row per completed job, for the JSONL trace (deterministic
    /// once sorted by key).
    rows: Vec<TraceRow>,
    /// Wall-clock latency of cache hits (entry load + validation), in
    /// nanoseconds.
    hit_wall_ns: Histogram,
    /// Wall-clock latency of cache misses (actual simulation), in
    /// nanoseconds.
    miss_wall_ns: Histogram,
}

impl ObsAggregate {
    /// Adds another aggregate into this one. Every constituent is
    /// commutative (saturating counter sums, histogram bucket sums,
    /// row concatenation later sorted by key), so merge order cannot
    /// change any deterministic artifact section.
    fn merge(&mut self, other: ObsAggregate) {
        self.sim.merge(&other.sim);
        for (scheme, set) in other.per_scheme {
            self.per_scheme.entry(scheme).or_default().merge(&set);
        }
        self.rows.extend(other.rows);
        self.hit_wall_ns.merge(&other.hit_wall_ns);
        self.miss_wall_ns.merge(&other.miss_wall_ns);
    }
}

/// The slot row written by the orchestrating (non-pool) thread.
const MAIN_SLOT: usize = 0;

/// A (1,N) single-writer/many-reader publication array for engine
/// operational counters (cache hits/misses, retries, quarantines).
/// Each participating thread owns one [`AtomicMetricSet`] row and
/// publishes with relaxed atomic adds — wait-free, no CAS loop, no
/// mutex — while any reader may sum every row at report time
/// ([`OpsSlots::total`]). Relaxed ordering suffices: each counter is an
/// independent monotone sum and the artifact readers run after the
/// batch's pool has joined.
#[derive(Debug)]
struct OpsSlots {
    slots: Box<[AtomicMetricSet]>,
}

impl OpsSlots {
    /// A slot array for the orchestrating thread plus `workers` pool
    /// threads.
    fn new(workers: usize) -> Self {
        OpsSlots { slots: (0..=workers).map(|_| AtomicMetricSet::new()).collect() }
    }

    /// Adds `delta` to `metric` in `slot`'s row (wait-free).
    fn add(&self, slot: usize, metric: Metric, delta: u64) {
        self.slots[slot].add(metric, delta);
    }

    /// Sums every row into one [`MetricSet`] (the report-time merge).
    fn total(&self) -> MetricSet {
        let mut set = MetricSet::new();
        for slot in self.slots.iter() {
            set.merge(&slot.snapshot());
        }
        set
    }
}

/// Everything one thread accumulates locally while running jobs of a
/// batch. Merged into the engine-wide aggregates exactly once per
/// thread per batch — never from the per-job hot path.
#[derive(Debug, Default)]
struct LocalBatch {
    log: Vec<JobRecord>,
    obs: ObsAggregate,
    wall_hints: Vec<(String, f64)>,
}

/// The per-thread publication sink for the job hot path. Structured
/// records (job log entries, trace rows, metric merges, wall hints)
/// accumulate thread-locally in a [`LocalBatch`]; operational counters
/// go straight to this thread's wait-free [`OpsSlots`] row. A
/// fault-free job therefore publishes its metrics and wall hints
/// without acquiring a single engine mutex — only the failure paths
/// (quarantine) and the once-per-batch merge ever lock.
struct BatchSink<'e> {
    engine: &'e SweepEngine,
    slot: usize,
    batch: LocalBatch,
}

impl<'e> BatchSink<'e> {
    fn new(engine: &'e SweepEngine, slot: usize) -> Self {
        BatchSink { engine, slot, batch: LocalBatch::default() }
    }

    /// Counts one engine operational event (retry, quarantine, cache
    /// hit/miss) in this thread's ops row and forwards it to the
    /// configured probe. Wait-free.
    fn note_op(&self, metric: Metric) {
        self.engine.probe_event(&ProbeEvent::Counter { metric, delta: 1 });
        self.engine.ops_slots.add(self.slot, metric, 1);
    }

    /// Remembers one cache-missing job's measured wall time for future
    /// LPT scheduling. Only meaningful with a cache (hints live in the
    /// cache directory, and a fault-plan run's wall times would
    /// mislead — fault plans disable the cache, so they skip here too).
    fn note_wall_hint(&mut self, id: String, wall_ms: f64) {
        if self.engine.cache.is_some() {
            self.batch.wall_hints.push((id, wall_ms));
        }
    }

    fn log_job(&mut self, record: JobRecord) {
        self.batch.log.push(record);
    }

    /// Folds one completed job into the local observability batch. The
    /// metric/trace contribution derives purely from the report, so a
    /// cache hit and the run that produced the cached entry contribute
    /// identically — which is what keeps the `metrics` section and the
    /// JSONL trace byte-stable across worker counts and cache states.
    fn observe_job(&mut self, key: &JobKey, report: &RunReport, cache_hit: bool, wall_ms: f64) {
        let canonical = key.canonical();
        let metrics = report.as_metrics();
        let scheme = report.scheme.name();
        self.engine.probe_event(&ProbeEvent::SpanStart { kind: SpanKind::Job, name: &canonical });
        self.note_op(if cache_hit { Metric::CacheHits } else { Metric::CacheMisses });
        self.engine.probe_event(&ProbeEvent::SpanEnd {
            kind: SpanKind::Job,
            name: &canonical,
            cycles: report.total_cycles(),
        });
        let obs = &mut self.batch.obs;
        obs.sim.merge(&metrics);
        obs.per_scheme.entry(scheme).or_default().merge(&metrics);
        // Nanoseconds: a warm hit costs single-digit microseconds or
        // less, which a microsecond histogram truncates to a flat zero.
        let wall_ns = (wall_ms * 1e6) as u64;
        if cache_hit {
            obs.hit_wall_ns.record(wall_ns);
        } else {
            obs.miss_wall_ns.record(wall_ns);
        }
        obs.rows.push(TraceRow {
            key: canonical,
            scheme,
            total_cycles: report.total_cycles(),
            metrics,
        });
    }

    fn into_batch(self) -> LocalBatch {
        self.batch
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
        let pool_width = pool_width(&config);
        let engine = SweepEngine {
            config,
            cache,
            log: Mutex::new(Vec::new()),
            quarantine: Mutex::new(replay.quarantined),
            obs: Mutex::new(ObsAggregate::default()),
            ops_slots: OpsSlots::new(pool_width),
            seq: AtomicU64::new(0),
            started: Instant::now(),
            journal,
            resumed: replay.jobs,
            resumed_quarantine,
            abandoned: AtomicU64::new(0),
            skipped: AtomicU64::new(0),
            deterministic,
            wall_hints: Mutex::new(BTreeMap::new()),
        };
        // Replayed quarantines keep their operational counter, so the
        // resumed artifact's `timings.ops` matches the original run's.
        for _ in 0..replayed_quarantines {
            engine.probe_event(&ProbeEvent::Counter { metric: Metric::JobsQuarantined, delta: 1 });
            engine.ops_slots.add(MAIN_SLOT, Metric::JobsQuarantined, 1);
        }
        engine
    }

    /// An engine with default configuration (no cache, auto workers,
    /// quiet).
    pub fn quiet() -> Self {
        SweepEngine::with_config(SweepConfig::default())
    }

    /// The number of worker threads a pool of `total` jobs will use.
    pub fn effective_workers(&self, total: usize) -> usize {
        pool_width(&self.config).min(total.max(1))
    }

    /// Whether every key already has a valid cache entry — an unlogged
    /// probe, used to skip expensive setup (like trace recording) that
    /// only matters if something will actually run.
    pub fn all_cached(&self, keys: &[JobKey]) -> bool {
        match &self.cache {
            Some(cache) => keys.iter().all(|k| cache.load(k).is_some()),
            None => false,
        }
    }

    fn emit(&self, event: Value) {
        if self.config.stream_events {
            eprintln!("{}", event.to_json());
        }
    }

    /// Merges one thread's locally accumulated batch into the
    /// engine-wide aggregates: the once-per-thread-per-batch step that
    /// replaces per-job locking. Poisoned mutexes are recovered (the
    /// protected data is a commutative aggregate, never left halfway
    /// through an invariant), so a panicking job cannot take the whole
    /// engine's reporting down with it.
    fn absorb(&self, batch: LocalBatch) {
        if !batch.log.is_empty() {
            self.log.lock().unwrap_or_else(|e| e.into_inner()).extend(batch.log);
        }
        // Every observe_job pushes a row, so an empty row list means an
        // empty aggregate: skip the lock entirely.
        if !batch.obs.rows.is_empty() {
            self.obs.lock().unwrap_or_else(|e| e.into_inner()).merge(batch.obs);
        }
        if !batch.wall_hints.is_empty() {
            let mut hints = self.wall_hints.lock().unwrap_or_else(|e| e.into_inner());
            for (id, ms) in batch.wall_hints {
                hints.insert(id, ms);
            }
        }
    }

    /// Appends a completed job to the write-ahead journal, if one is
    /// configured. Journal write failures degrade resumability, not
    /// correctness, so they warn instead of failing the job.
    fn journal_job(&self, record: &JobRecord, report: &RunReport) {
        if let Some(journal) = &self.journal {
            if let Err(e) = journal.append_job(record, report) {
                eprintln!("warning: cannot journal job {}: {e}", record.id);
            }
        }
    }

    /// The canonical reproducer string for a job under this engine's
    /// configuration: the full key plus the engine-level fault plan,
    /// fault seed and audit flag. Single-quoted fields, space-separated
    /// — canonical strings contain neither quotes nor whitespace.
    fn repro_string(&self, key: &JobKey) -> String {
        let plan = self.config.fault_plan.as_ref();
        format!(
            "key='{}' audit={} plan='{}' planseed={:#x}",
            key.canonical(),
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

    /// Detached attempt threads abandoned to timeouts so far (see
    /// [`SweepConfig::abandoned_cap`]).
    pub fn abandoned_threads(&self) -> u64 {
        self.abandoned.load(Ordering::Relaxed)
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

    /// Loads the persisted LPT scheduling hints (job id → wall ms of a
    /// prior cache miss) from the cache directory. Absent or
    /// unparseable files degrade scheduling quality, never correctness.
    fn load_wall_hints(&self) -> BTreeMap<String, f64> {
        let Some(cache) = &self.cache else { return BTreeMap::new() };
        let Ok(text) = std::fs::read_to_string(cache.dir().join(WALL_HINTS_FILE)) else {
            return BTreeMap::new();
        };
        match crate::json::parse(&text) {
            Ok(Value::Obj(pairs)) => {
                pairs.into_iter().filter_map(|(id, v)| v.as_f64().map(|ms| (id, ms))).collect()
            }
            _ => BTreeMap::new(),
        }
    }

    /// Merges this engine's measured wall times into the cache
    /// directory's hint store. Write failures cost future scheduling
    /// quality, not correctness, so they are silently ignored.
    ///
    /// The read-merge-write runs under the hint store's advisory lock:
    /// without it, two engines sharing a cache dir could both read the
    /// old file and the second rename would clobber the first engine's
    /// hints (last-write-wins). With the lock, concurrent engines'
    /// hints accumulate as a union. An unobtainable lock (live holder
    /// past the timeout) degrades to proceeding unlocked — hints are
    /// advisory, and wedging the sweep on them would invert priorities.
    fn persist_wall_hints(&self) {
        let Some(cache) = &self.cache else { return };
        let fresh = self.wall_hints.lock().unwrap_or_else(|e| e.into_inner());
        if fresh.is_empty() {
            return;
        }
        let lock_path = cache.dir().join(format!("{WALL_HINTS_FILE}.lock"));
        let _lock = DirLock::acquire(lock_path, Duration::from_secs(5)).ok().flatten();
        let mut merged = self.load_wall_hints();
        for (id, ms) in fresh.iter() {
            merged.insert(id.clone(), *ms);
        }
        let value = Value::Obj(merged.into_iter().map(|(id, ms)| (id, Value::Float(ms))).collect());
        let _ = write_file_atomic(&cache.dir().join(WALL_HINTS_FILE), &value.to_json());
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
        let mut results: Vec<Option<RunReport>> = (0..jobs.len()).map(|_| None).collect();
        let mut main_sink = BatchSink::new(self, MAIN_SLOT);
        let mut miss_indices = Vec::new();
        for (i, job) in jobs.iter().enumerate() {
            let canonical = job.key.canonical();
            // A resumed journal outranks the cache: it records exactly
            // what the interrupted run completed, including each job's
            // original hit/miss flag, which is what keeps the resumed
            // artifact byte-identical to an uninterrupted one.
            if let Some((record, report)) = self.resumed.get(&canonical) {
                self.emit(obj(vec![
                    ("event", Value::Str("job_done".into())),
                    ("id", Value::Str(record.id.clone())),
                    ("label", Value::Str(record.label.clone())),
                    ("cache", Value::Str("journal".into())),
                    ("wall_ms", Value::Float(0.0)),
                    ("cycles", Value::Int(record.total_cycles)),
                ]));
                main_sink.log_job(record.clone());
                main_sink.observe_job(&job.key, report, record.cache_hit, 0.0);
                results[i] = Some(report.clone());
                continue;
            }
            if self.resumed_quarantine.contains(&canonical) {
                // The interrupted run already gave up on this job; its
                // quarantine record was replayed at engine construction.
                continue;
            }
            let t_load = Instant::now();
            let cached = self.cache.as_ref().and_then(|c| c.load(&job.key));
            match cached {
                Some(report) => {
                    // A hit's wall time is the load-and-validate cost —
                    // real, if small; deterministic artifacts zero it.
                    let load_ms = t_load.elapsed().as_secs_f64() * 1e3;
                    let wall_ms = if self.deterministic { 0.0 } else { load_ms };
                    self.emit(obj(vec![
                        ("event", Value::Str("job_done".into())),
                        ("id", Value::Str(job.key.id())),
                        ("label", Value::Str(job.key.label())),
                        ("cache", Value::Str("hit".into())),
                        ("wall_ms", Value::Float(wall_ms)),
                        ("cycles", Value::Int(report.total_cycles())),
                    ]));
                    let record = JobRecord {
                        id: job.key.id(),
                        key: canonical,
                        label: job.key.label(),
                        cache_hit: true,
                        wall_ms,
                        total_cycles: report.total_cycles(),
                    };
                    self.journal_job(&record, &report);
                    main_sink.log_job(record);
                    main_sink.observe_job(&job.key, &report, true, wall_ms);
                    results[i] = Some(report);
                }
                None => miss_indices.push(i),
            }
        }
        // Hits merge before the miss pool spawns, keeping the job log's
        // hits-before-misses order.
        self.absorb(main_sink.into_batch());
        if miss_indices.is_empty() {
            return results;
        }

        // LPT (longest-processing-time-first): when prior runs left
        // wall-time hints in the cache directory, start the
        // expected-longest misses first so the pool's tail stays short.
        // Ordering only affects which worker picks which job — results
        // return in input order and deterministic artifacts sort by
        // key — so a missing or stale hint file costs schedule quality,
        // nothing else. Unhinted jobs follow the hinted ones in
        // canonical key order; with no hint file at all the misses keep
        // the caller's deterministic matrix order (which also keeps
        // worker-fault sequence targeting stable — fault plans disable
        // the cache, so they can never load hints).
        if miss_indices.len() > 1 {
            let hints = self.load_wall_hints();
            if !hints.is_empty() {
                let mut decorated: Vec<(usize, f64, String)> = miss_indices
                    .iter()
                    .map(|&i| {
                        let hint = hints.get(&jobs[i].key.id()).copied().unwrap_or(0.0);
                        (i, hint, jobs[i].key.canonical())
                    })
                    .collect();
                decorated.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.2.cmp(&b.2)));
                miss_indices = decorated.into_iter().map(|(i, ..)| i).collect();
            }
        }

        let total = miss_indices.len();
        let base_seq = self.seq.fetch_add(total as u64, Ordering::Relaxed);
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let next = &next;
            let miss_indices = &miss_indices;
            let handles: Vec<_> = (0..self.effective_workers(total))
                .map(|w| {
                    scope.spawn(move || {
                        // Slot 1+w: this worker's private wait-free ops
                        // row; the batch below is equally private.
                        let mut sink = BatchSink::new(self, 1 + w);
                        let mut out: Vec<(usize, Option<RunReport>)> = Vec::new();
                        loop {
                            let mi = next.fetch_add(1, Ordering::Relaxed);
                            if mi >= total {
                                break;
                            }
                            let i = miss_indices[mi];
                            // Under a shared admission gate, hold a
                            // granted slot for the job's duration —
                            // the global bound plus round-robin
                            // fairness across engine sessions. A
                            // closed gate (daemon drain) skips the job
                            // entirely.
                            let _ticket = match &self.config.admission {
                                Some(gate) => match gate.acquire(self.config.admission_session) {
                                    Ok(ticket) => Some(ticket),
                                    Err(_closed) => {
                                        self.skipped.fetch_add(1, Ordering::Relaxed);
                                        continue;
                                    }
                                },
                                None => None,
                            };
                            let report = execute_job(&mut sink, &jobs[i], base_seq + mi as u64);
                            out.push((i, report));
                        }
                        (sink.into_batch(), out)
                    })
                })
                .collect();
            // Joining inside the scope hands each worker's local batch
            // back with a happens-before edge — the merge needs no
            // synchronization beyond the join itself.
            for handle in handles {
                let (batch, out) = match handle.join() {
                    Ok(v) => v,
                    Err(payload) => std::panic::resume_unwind(payload),
                };
                self.absorb(batch);
                for (i, report) in out {
                    results[i] = report;
                }
            }
        });
        self.persist_wall_hints();
        results
    }

    /// Executes every cell of `spec` — the engine's counterpart of
    /// [`regwin_core::run_matrix`], with caching, events and the
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
        // Unlogged pre-probe: which cells will actually run? Decides
        // which behaviours need a recorded trace and how wide the miss
        // fan-out will really be. (run_jobs does the authoritative,
        // logged probe.)
        let (behavior_missing, missing_cells) = {
            let mut missing = vec![false; spec.behaviors.len()];
            let mut missing_cells = 0usize;
            for (&(bi, ..), key) in cells.iter().zip(&keys) {
                let canonical = key.canonical();
                if self.resumed.contains_key(&canonical)
                    || self.resumed_quarantine.contains(&canonical)
                {
                    continue;
                }
                if self.cache.as_ref().and_then(|c| c.load(key)).is_none() {
                    missing[bi] = true;
                    missing_cells += 1;
                }
            }
            (missing, missing_cells)
        };
        self.emit(obj(vec![
            ("event", Value::Str("sweep_start".into())),
            ("jobs", Value::Int(cells.len() as u64)),
            // The worker count the miss fan-out will actually use — a
            // warm sweep with one miss reports one worker, not the full
            // pool width, and a fully warm sweep spawns none at all.
            (
                "workers",
                Value::Int(if missing_cells == 0 {
                    0
                } else {
                    self.effective_workers(missing_cells) as u64
                }),
            ),
            ("policy", Value::Str(spec.policy.name().into())),
        ]));
        let sweep_t0 = Instant::now();

        // Shared job data goes in `Arc`s (not borrows): a timed-out
        // attempt's detached thread may outlive this call.
        let corpus = Arc::new(Corpus::generate(&spec.corpus));

        // FIFO: the schedule depends only on the buffer configuration
        // (paper §5.2), so record once per behaviour and replay each
        // cell; replay-equals-direct is guaranteed by the rt test suite.
        let traces: Arc<Vec<Option<Trace>>> = Arc::new(if spec.policy == SchedulingPolicy::Fifo {
            let to_record: Vec<usize> =
                (0..spec.behaviors.len()).filter(|&bi| behavior_missing[bi]).collect();
            let recorded =
                run_indexed(self.effective_workers(to_record.len()), to_record.len(), |i| {
                    let behavior = spec.behaviors[to_record[i]];
                    let (m, n) = behavior.buffers();
                    self.emit(obj(vec![
                        ("event", Value::Str("trace_record".into())),
                        ("behavior", Value::Str(behavior.to_string())),
                    ]));
                    let config = SpellConfig::new(spec.corpus, m, n).with_policy(spec.policy);
                    let mut pipeline = SpellPipeline::with_corpus((*corpus).clone(), config);
                    if self.config.audit {
                        pipeline = pipeline.with_window_audit();
                    }
                    let (_, trace) = pipeline.run_traced(8, SchemeKind::Sp)?;
                    Ok(trace)
                })?;
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
        let jobs: Vec<Job> = cells
            .iter()
            .zip(keys)
            .map(|(&(bi, behavior, scheme, nwindows), key)| {
                let corpus = Arc::clone(&corpus);
                let traces = Arc::clone(&traces);
                let sim_plan = sim_plan.clone();
                Job::new(key, move || match &traces[bi] {
                    Some(trace) => trace.replay_with_options(
                        MachineConfig::new(nwindows).with_timing(timing),
                        build_scheme(scheme),
                        sim_plan.as_deref().map(FaultPlan::machine_schedule),
                        audit,
                    ),
                    // No trace: direct run (working-set policy, or a
                    // cache entry that vanished after the pre-probe).
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
                })
            })
            .collect();

        let reports = self.run_jobs(&jobs);
        let summary = self.summary();
        self.emit(obj(vec![
            ("event", Value::Str("sweep_done".into())),
            ("jobs", Value::Int(cells.len() as u64)),
            ("cache_hits", Value::Int(summary.cache_hits as u64)),
            ("cache_misses", Value::Int(summary.cache_misses as u64)),
            ("quarantined", Value::Int(summary.quarantined as u64)),
            ("wall_ms", Value::Float(sweep_t0.elapsed().as_secs_f64() * 1e3)),
        ]));

        Ok(cells
            .into_iter()
            .zip(reports)
            .filter_map(|((_, behavior, scheme, nwindows), report)| {
                report.map(|report| RunRecord {
                    behavior,
                    scheme,
                    nwindows,
                    policy: spec.policy,
                    report,
                })
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
        let cache_hits = log.iter().filter(|j| j.cache_hit).count();
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
        let mut log = self.log.lock().unwrap_or_else(|e| e.into_inner()).clone();
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
        fields.push((
            "quarantine",
            Value::Arr(
                quarantine
                    .iter()
                    .map(|q| {
                        obj(vec![
                            ("id", Value::Str(q.id.clone())),
                            ("key", Value::Str(q.key.clone())),
                            ("label", Value::Str(q.label.clone())),
                            ("reason", Value::Str(q.reason.into())),
                            ("attempts", Value::Int(u64::from(q.attempts))),
                            ("detail", Value::Str(q.detail.clone())),
                            ("repro", Value::Str(q.repro.clone())),
                        ])
                    })
                    .collect(),
            ),
        ));
        obj(fields)
    }

    /// The deterministic `metrics` artifact section: typed counters
    /// derived purely from the run reports — global totals and a
    /// per-scheme split. Byte-identical across worker counts and cache
    /// states, because equal reports yield equal metric sets.
    pub fn metrics_value(&self) -> Value {
        let obs = self.obs.lock().unwrap_or_else(|e| e.into_inner());
        obj(vec![
            ("global", metric_set_value(&obs.sim)),
            (
                "per_scheme",
                Value::Obj(
                    obs.per_scheme
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
    pub fn timings_value(&self) -> Value {
        let obs = self.obs.lock().unwrap_or_else(|e| e.into_inner());
        obj(vec![
            ("schema", Value::Int(2)),
            // The report-time merge of the wait-free per-thread rows.
            ("ops", metric_set_value(&self.ops_slots.total())),
            ("cache_hit_wall_ns", histogram_value(&obs.hit_wall_ns)),
            ("cache_miss_wall_ns", histogram_value(&obs.miss_wall_ns)),
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
        let obs = self.obs.lock().unwrap_or_else(|e| e.into_inner());
        let mut rows: Vec<&TraceRow> = obs.rows.iter().collect();
        rows.sort_by(|a, b| a.key.cmp(&b.key));
        let mut out = String::new();
        let mut line = |row: Row| {
            out.push_str(&row.finish());
            out.push('\n');
        };
        for row in rows {
            line(Row::new().str("event", "span_start").str("kind", "job").str("name", &row.key));
            line(
                Row::new()
                    .str("event", "span_start")
                    .str("kind", "simulation")
                    .str("name", row.scheme),
            );
            for (metric, value) in row.metrics.iter_nonzero() {
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
                    .str("name", row.scheme)
                    .int("cycles", row.total_cycles),
            );
            line(
                Row::new()
                    .str("event", "span_end")
                    .str("kind", "job")
                    .str("name", &row.key)
                    .int("cycles", row.total_cycles),
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

/// The configured pool width before clamping to a batch's job count:
/// the explicit worker setting, or one per available CPU. Also sizes
/// the engine's wait-free ops-slot array (one row per pool worker plus
/// the orchestrating thread).
fn pool_width(config: &SweepConfig) -> usize {
    if config.workers > 0 {
        config.workers
    } else {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
    }
}

/// Writes `contents` to `path` atomically: the bytes land in a
/// process-unique `.tmp` sibling first and are renamed into place, so a
/// crash mid-write can never leave a torn file at `path`. Parent
/// directories are created as needed; concurrent writers of identical
/// bytes race benignly (either rename winning leaves the same file).
///
/// # Errors
///
/// Propagates filesystem errors (the temporary file is cleaned up).
pub fn write_file_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "out".to_string());
    let tmp = path.with_file_name(format!("{name}.tmp.{}", std::process::id()));
    let result = std::fs::write(&tmp, contents).and_then(|()| std::fs::rename(&tmp, path));
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
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

/// Serializes run records (without any timing data) to deterministic
/// JSON: the same matrix produces byte-identical output no matter the
/// worker count or cache state.
pub fn records_to_json(records: &[RunRecord]) -> String {
    Value::Arr(
        records
            .iter()
            .map(|r| {
                obj(vec![
                    ("behavior", Value::Str(r.behavior.to_string())),
                    ("scheme", Value::Str(r.scheme.name().into())),
                    ("policy", Value::Str(r.policy.name().into())),
                    ("nwindows", Value::Int(r.nwindows as u64)),
                    ("report", crate::serial::report_to_value(&r.report)),
                ])
            })
            .collect(),
    )
    .to_json()
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

/// Runs one attempt of `job` under `catch_unwind` and (when configured)
/// the per-attempt wall-clock timeout. Timed attempts run on a
/// *detached* thread owning a clone of the job's closure: a timed-out
/// attempt is abandoned — its channel send goes nowhere and nothing
/// ever joins it — so even a job that never returns cannot wedge the
/// sweep. The abandoned thread (and whatever its closure still
/// references) leaks for as long as it keeps running; that is the price
/// of a hard wall-clock bound.
fn run_attempt(
    engine: &SweepEngine,
    job: &Job,
    injected: Option<WorkerFault>,
    seq: u64,
) -> AttemptOutcome {
    let timeout = engine.config.job_timeout;
    let run = Arc::clone(&job.run);
    let body = move || -> Result<RunReport, RtError> {
        match injected {
            Some(WorkerFault::Panic) => panic!("injected worker panic (job seq {seq})"),
            Some(WorkerFault::Stall) => {
                // Overshoot the timeout but still terminate, so the
                // injected stall leaks its abandoned thread only
                // briefly (a real wedged job would leak it for good).
                let nap =
                    timeout.map_or(Duration::from_millis(50), |t| t + Duration::from_millis(150));
                std::thread::sleep(nap);
            }
            None => {}
        }
        (run)()
    };
    match timeout {
        None => match catch_unwind(AssertUnwindSafe(body)) {
            Ok(Ok(report)) => AttemptOutcome::Done(Box::new(report)),
            Ok(Err(e)) => AttemptOutcome::Error(e),
            Err(payload) => AttemptOutcome::Panic(panic_message(payload.as_ref())),
        },
        Some(limit) => {
            let (tx, rx) = mpsc::channel();
            let spawned = std::thread::Builder::new().name(format!("regwin-attempt-{seq}")).spawn(
                move || {
                    let _ = tx.send(catch_unwind(AssertUnwindSafe(body)));
                },
            );
            if let Err(e) = spawned {
                return AttemptOutcome::Error(RtError::BadConfig {
                    detail: format!("cannot spawn timed attempt thread: {e}"),
                });
            }
            match rx.recv_timeout(limit) {
                Ok(Ok(Ok(report))) => AttemptOutcome::Done(Box::new(report)),
                Ok(Ok(Err(e))) => AttemptOutcome::Error(e),
                Ok(Err(payload)) => AttemptOutcome::Panic(panic_message(payload.as_ref())),
                Err(_) => AttemptOutcome::Timeout(limit),
            }
        }
    }
}

/// Drives one cache-missing job to success or quarantine: up to
/// `1 + retries` attempts with linear backoff, each hardened by
/// [`run_attempt`]. Success stores to cache and logs the job; exhausted
/// attempts emit a `job_quarantined` event and record the final failure.
///
/// An injected worker fault is deterministic *per job* — every attempt
/// would fail identically — so a faulted job makes a single attempt
/// instead of burning the configured retries and their backoff sleeps.
///
/// The fault-free path publishes everything through `sink` — local
/// accumulation plus this thread's wait-free ops row — and acquires no
/// engine mutex; only quarantine (the failure path) locks.
fn execute_job(sink: &mut BatchSink<'_>, job: &Job, seq: u64) -> Option<RunReport> {
    let engine = sink.engine;
    // Each timed-out attempt leaks a detached OS thread; past the
    // configured cap, refuse to spawn more and quarantine instead, so a
    // systematically wedged sweep degrades to a bounded leak.
    if let Some(cap) = engine.config.abandoned_cap {
        if engine.abandoned_threads() >= cap as u64 {
            let q = QuarantineRecord {
                id: job.key.id(),
                key: job.key.canonical(),
                label: job.key.label(),
                reason: "abandoned-cap",
                attempts: 0,
                detail: format!(
                    "abandoned-thread cap ({cap}) reached; not spawning another attempt"
                ),
                repro: engine.repro_string(&job.key),
            };
            sink.note_op(Metric::JobsQuarantined);
            engine.emit(obj(vec![
                ("event", Value::Str("job_quarantined".into())),
                ("id", Value::Str(q.id.clone())),
                ("label", Value::Str(q.label.clone())),
                ("reason", Value::Str(q.reason.into())),
                ("attempts", Value::Int(0)),
            ]));
            engine.journal_quarantine(&q);
            engine.quarantine.lock().unwrap_or_else(|e| e.into_inner()).push(q);
            return None;
        }
    }
    let injected = engine.config.fault_plan.as_ref().and_then(|p| p.worker_fault_at(seq));
    engine.emit(obj(vec![
        ("event", Value::Str("job_start".into())),
        ("id", Value::Str(job.key.id())),
        ("label", Value::Str(job.key.label())),
    ]));
    let t0 = Instant::now();
    let attempts = if injected.is_some() { 1 } else { engine.config.retries.saturating_add(1) };
    let mut last_failure = ("error", String::new());
    for attempt in 1..=attempts {
        if attempt > 1 {
            std::thread::sleep(engine.config.retry_backoff.saturating_mul(attempt - 1));
            sink.note_op(Metric::JobRetries);
            engine.emit(obj(vec![
                ("event", Value::Str("job_retry".into())),
                ("id", Value::Str(job.key.id())),
                ("label", Value::Str(job.key.label())),
                ("attempt", Value::Int(u64::from(attempt))),
            ]));
        }
        match run_attempt(engine, job, injected, seq) {
            AttemptOutcome::Done(report) => {
                let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
                // The real wall time seeds LPT scheduling of future
                // cold sweeps, even when the artifact zeroes it below.
                sink.note_wall_hint(job.key.id(), wall_ms);
                // Deterministic (journaled) artifacts zero the one
                // nondeterministic per-job field.
                let wall_ms = if engine.deterministic { 0.0 } else { wall_ms };
                if let Some(cache) = &engine.cache {
                    cache.store(&job.key, &report);
                }
                engine.emit(obj(vec![
                    ("event", Value::Str("job_done".into())),
                    ("id", Value::Str(job.key.id())),
                    ("label", Value::Str(job.key.label())),
                    ("cache", Value::Str("miss".into())),
                    ("wall_ms", Value::Float(wall_ms)),
                    ("cycles", Value::Int(report.total_cycles())),
                ]));
                let record = JobRecord {
                    id: job.key.id(),
                    key: job.key.canonical(),
                    label: job.key.label(),
                    cache_hit: false,
                    wall_ms,
                    total_cycles: report.total_cycles(),
                };
                engine.journal_job(&record, &report);
                sink.log_job(record);
                sink.observe_job(&job.key, &report, false, wall_ms);
                return Some(*report);
            }
            AttemptOutcome::Error(e) => last_failure = ("error", e.to_string()),
            AttemptOutcome::Panic(msg) => last_failure = ("panic", msg),
            AttemptOutcome::Timeout(limit) => {
                engine.abandoned.fetch_add(1, Ordering::Relaxed);
                sink.note_op(Metric::AbandonedThreads);
                last_failure =
                    ("timeout", format!("exceeded {}ms wall-clock limit", limit.as_millis()));
            }
        }
    }
    let (reason, detail) = last_failure;
    sink.note_op(Metric::JobsQuarantined);
    engine.emit(obj(vec![
        ("event", Value::Str("job_quarantined".into())),
        ("id", Value::Str(job.key.id())),
        ("label", Value::Str(job.key.label())),
        ("reason", Value::Str(reason.into())),
        ("attempts", Value::Int(u64::from(attempts))),
    ]));
    let q = QuarantineRecord {
        id: job.key.id(),
        key: job.key.canonical(),
        label: job.key.label(),
        reason,
        attempts,
        detail,
        repro: engine.repro_string(&job.key),
    };
    engine.journal_quarantine(&q);
    engine.quarantine.lock().unwrap_or_else(|e| e.into_inner()).push(q);
    None
}

/// Runs `f(0..total)` across `workers` OS threads with a shared index
/// queue; results return in index order. The first error wins and stops
/// the queue; a panic inside `f` is caught and converted to a typed
/// [`RtError::ThreadPanicked`] rather than tearing down the pool.
fn run_indexed<T: Send>(
    workers: usize,
    total: usize,
    f: impl Fn(usize) -> Result<T, RtError> + Sync,
) -> Result<Vec<T>, RtError> {
    if total == 0 {
        return Ok(Vec::new());
    }
    let next = Mutex::new(0usize);
    let results: Mutex<Vec<Option<T>>> = Mutex::new((0..total).map(|_| None).collect());
    let error: Mutex<Option<RtError>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for _ in 0..workers.clamp(1, total) {
            scope.spawn(|| loop {
                let idx = {
                    let mut n = next.lock().unwrap_or_else(|e| e.into_inner());
                    if *n >= total || error.lock().unwrap_or_else(|e| e.into_inner()).is_some() {
                        return;
                    }
                    let i = *n;
                    *n += 1;
                    i
                };
                let outcome = catch_unwind(AssertUnwindSafe(|| f(idx))).unwrap_or_else(|p| {
                    Err(RtError::ThreadPanicked {
                        name: format!("sweep-{idx}: {}", panic_message(p.as_ref())),
                    })
                });
                match outcome {
                    Ok(v) => {
                        results.lock().unwrap_or_else(|e| e.into_inner())[idx] = Some(v);
                    }
                    Err(e) => {
                        let mut slot = error.lock().unwrap_or_else(|e| e.into_inner());
                        if slot.is_none() {
                            *slot = Some(e);
                        }
                        return;
                    }
                }
            });
        }
    });
    if let Some(e) = error.into_inner().unwrap_or_else(|e| e.into_inner()) {
        return Err(e);
    }
    Ok(results
        .into_inner()
        .unwrap_or_else(|e| e.into_inner())
        .into_iter()
        .map(|r| r.expect("all indices completed"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn engine_matches_core_run_matrix() {
        let spec = small_spec();
        let engine = SweepEngine::quiet();
        let ours = engine.run_matrix(&spec).unwrap();
        let reference = run_matrix(&spec, |_, _| {}).unwrap();
        assert_eq!(ours.len(), reference.len());
        for (a, b) in ours.iter().zip(&reference) {
            assert_eq!(a.scheme, b.scheme);
            assert_eq!(a.nwindows, b.nwindows);
            assert_eq!(a.report.total_cycles(), b.report.total_cycles());
            assert_eq!(a.report.stats, b.report.stats);
        }
    }

    #[test]
    fn engine_matches_core_on_working_set() {
        let mut spec = small_spec();
        spec.policy = SchedulingPolicy::WorkingSet;
        spec.windows = vec![6];
        let engine = SweepEngine::quiet();
        let ours = engine.run_matrix(&spec).unwrap();
        let reference = run_matrix(&spec, |_, _| {}).unwrap();
        for (a, b) in ours.iter().zip(&reference) {
            assert_eq!(a.report.total_cycles(), b.report.total_cycles());
        }
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
    fn lpt_scheduling_keeps_the_deterministic_artifact_byte_identical() {
        let dir =
            std::env::temp_dir().join(format!("regwin-sweep-lpt-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = small_spec();
        let config = |journal: &str| SweepConfig {
            cache_dir: Some(dir.clone()),
            journal_path: Some(dir.join(journal)),
            ..SweepConfig::default()
        };
        // Cold pass one: no wall hints exist yet, so the misses run in
        // canonical key order.
        let first = SweepEngine::with_config(config("j1.jsonl"));
        first.run_matrix(&spec).unwrap();
        assert_eq!(first.summary().cache_misses, spec.len());
        let baseline = first.artifact_value().to_json();
        assert!(dir.join(WALL_HINTS_FILE).exists(), "cold pass persists wall hints");
        // Drop the cached results but keep the hints: pass two is cold
        // again, and this time schedules its misses longest-first.
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if name.ends_with(".json") && name != WALL_HINTS_FILE {
                std::fs::remove_file(&path).unwrap();
            }
        }
        let second = SweepEngine::with_config(config("j2.jsonl"));
        second.run_matrix(&spec).unwrap();
        assert_eq!(second.summary().cache_misses, spec.len());
        // Scheduling order is pure wall-clock policy: the deterministic
        // artifact must not change by a byte.
        assert_eq!(second.artifact_value().to_json(), baseline);
        let _ = std::fs::remove_dir_all(&dir);
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
    fn builder_rejects_resume_without_journal_and_cap_without_timeout() {
        assert_eq!(
            SweepConfig::builder().resume(true).build().unwrap_err(),
            SweepConfigError::ResumeWithoutJournal
        );
        assert_eq!(
            SweepConfig::builder().abandoned_cap(2).build().unwrap_err(),
            SweepConfigError::AbandonedCapWithoutTimeout
        );
    }

    #[test]
    fn abandoned_cap_quarantines_instead_of_spawning_more_attempts() {
        let engine = SweepEngine::with_config(
            SweepConfig::builder()
                .job_timeout(Duration::from_millis(50))
                .abandoned_cap(1)
                .workers(1)
                .build()
                .unwrap(),
        );
        let spec = small_spec();
        let jobs: Vec<Job> = [4usize, 8]
            .iter()
            .map(|&w| {
                let key = JobKey::for_cell(&spec, spec.behaviors[0], SchemeKind::Sp, w);
                Job::new(key, || {
                    std::thread::sleep(Duration::from_secs(30));
                    Err(RtError::Internal { detail: "unreachable".to_string() })
                })
            })
            .collect();
        let reports = engine.run_jobs(&jobs);
        assert!(reports.iter().all(Option::is_none));
        assert_eq!(engine.abandoned_threads(), 1, "only the first job may leak a thread");
        let quarantine = engine.quarantine();
        assert_eq!(quarantine.len(), 2);
        assert_eq!(quarantine[0].reason, "timeout");
        assert_eq!(quarantine[1].reason, "abandoned-cap");
    }

    #[test]
    fn sweep_survives_poisoned_engine_mutexes() {
        // Poison every engine mutex the way a real panic would: a
        // thread dies while holding the guard. The engine must recover
        // the (commutative, never-half-updated) data instead of
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
        poison(&engine.obs);
        poison(&engine.quarantine);
        poison(&engine.wall_hints);
        assert!(engine.log.lock().is_err(), "log mutex must actually be poisoned");

        let spec = small_spec();
        let records = engine.run_matrix(&spec).unwrap();
        assert_eq!(records.len(), spec.len());
        assert!(engine.quarantine().is_empty());
        assert_eq!(engine.summary().jobs, spec.len());
        let artifact = engine.artifact_value();
        assert_eq!(artifact.get("jobs_total").unwrap().as_u64(), Some(spec.len() as u64));
        assert!(!engine.trace_string().is_empty());
    }

    #[test]
    fn fault_free_hot_path_needs_no_engine_locks() {
        // Hold the job-log, observability and wall-hint mutexes for as
        // long as the jobs are computing. If the per-job hot path
        // acquired any of them, no job could finish while they are held
        // and the test would wedge; with wait-free publication every
        // job completes and only the post-batch merge waits.
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
            let (held_tx, held_rx) = mpsc::channel::<()>();
            scope.spawn(move || {
                let log = engine.log.lock().unwrap();
                let obs = engine.obs.lock().unwrap();
                let hints = engine.wall_hints.lock().unwrap();
                held_tx.send(()).unwrap();
                while done.load(Ordering::SeqCst) < total {
                    std::thread::sleep(Duration::from_millis(1));
                }
                drop((log, obs, hints));
            });
            held_rx.recv().unwrap();
            let reports = engine.run_jobs(&jobs);
            assert!(reports.iter().all(Option::is_some));
        });
        assert_eq!(engine.summary().cache_misses, total);
        let timings = engine.timings_value();
        assert_eq!(
            timings.get("ops").unwrap().get("cache_misses").unwrap().as_u64(),
            Some(total as u64),
            "wait-free ops rows must still sum to the true counts"
        );
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
    fn timeout_bounds_a_job_that_never_finishes() {
        let engine = SweepEngine::with_config(SweepConfig {
            job_timeout: Some(Duration::from_millis(100)),
            ..SweepConfig::default()
        });
        let spec = small_spec();
        let key = JobKey::for_cell(&spec, spec.behaviors[0], SchemeKind::Sp, 8);
        // Sleeps far past the timeout — stands in for a genuinely wedged
        // job. Its detached attempt thread is abandoned, never joined.
        let jobs = vec![Job::new(key, || {
            std::thread::sleep(Duration::from_secs(30));
            Err(RtError::Internal { detail: "unreachable".to_string() })
        })];
        let t0 = Instant::now();
        let reports = engine.run_jobs(&jobs);
        assert!(reports[0].is_none());
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "run_jobs must abandon the wedged attempt, not join it"
        );
        let quarantine = engine.quarantine();
        assert_eq!(quarantine.len(), 1);
        assert_eq!(quarantine[0].reason, "timeout");
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
    fn concurrent_engines_accumulate_wall_hints_instead_of_clobbering() {
        let dir = std::env::temp_dir()
            .join(format!("regwin-sweep-hint-merge-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Two engines share one cache dir but run disjoint job sets
        // concurrently; each persists its own wall hints at batch end.
        // Merge-on-save under the hint lock means the union survives —
        // the old last-write-wins save would keep only one engine's.
        let spec_a = small_spec();
        let mut spec_b = small_spec();
        spec_b.windows = vec![6, 12];
        std::thread::scope(|scope| {
            for spec in [&spec_a, &spec_b] {
                let dir = &dir;
                scope.spawn(move || {
                    let engine = SweepEngine::with_config(
                        SweepConfig::builder().cache_dir(dir).build().unwrap(),
                    );
                    engine.run_matrix(spec).unwrap();
                });
            }
        });
        let hints = std::fs::read_to_string(dir.join(WALL_HINTS_FILE)).unwrap();
        let parsed = crate::json::parse(&hints).unwrap();
        let Value::Obj(pairs) = parsed else { panic!("hints must be an object") };
        let ids: std::collections::BTreeSet<String> = pairs.into_iter().map(|(id, _)| id).collect();
        for spec in [&spec_a, &spec_b] {
            for behavior in &spec.behaviors {
                for &scheme in &spec.schemes {
                    for &w in &spec.windows {
                        let key = JobKey::for_cell(spec, *behavior, scheme, w);
                        assert!(
                            ids.contains(&key.id()),
                            "hint for {} must survive the concurrent save",
                            key.canonical()
                        );
                    }
                }
            }
        }
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
