//! # regwin-sweep
//!
//! A parallel, cached, observable experiment-orchestration subsystem
//! for the regwin evaluation suite.
//!
//! The repro binaries describe *what* to measure — a sweep matrix of
//! (behaviour × scheme × window count) cells, or a list of ablation
//! variants — and this crate turns that description into a job graph:
//!
//! 1. **Identity** ([`key`]): every job is a pure function of its
//!    configuration; the canonical key string and its FNV-1a hash name
//!    the job everywhere (events, artifact, cache file).
//! 2. **Cache** ([`cache`]): one JSON file per job id. Hits skip
//!    simulation entirely; the stored canonical key is verified on
//!    load, so collisions and stale formats degrade to misses.
//! 3. **Execution** ([`engine`]): misses fan out across an OS-thread
//!    pool with a shared work queue. Under FIFO scheduling the engine
//!    records one trace per behaviour — and only for behaviours that
//!    actually missed — then replays each cell, exactly like the
//!    paper's register-window emulator methodology.
//! 4. **Observability** ([`engine`]): one JSON event per job on stderr
//!    (start/finish, cache hit/miss, wall time, simulated cycles), an
//!    aggregate [`SweepSummary`], and a `BENCH_sweep.json` artifact
//!    with the full job log.
//!
//! Results are returned in a deterministic order and serialize
//! deterministically ([`records_to_json`] is byte-identical across
//! worker counts and cache states), so downstream tables and figures
//! never depend on scheduling luck.
//!
//! ```rust
//! use regwin_core::{Behavior, Concurrency, Granularity, MatrixSpec};
//! use regwin_core::{CorpusSpec, SchedulingPolicy, SchemeKind, TimingKind};
//! use regwin_sweep::SweepEngine;
//!
//! let spec = MatrixSpec {
//!     corpus: CorpusSpec::small(),
//!     behaviors: vec![Behavior::new(Concurrency::High, Granularity::Medium)],
//!     schemes: vec![SchemeKind::Sp],
//!     windows: vec![8],
//!     policy: SchedulingPolicy::Fifo,
//!     timing: TimingKind::S20,
//! };
//! let engine = SweepEngine::quiet();
//! let records = engine.run_matrix(&spec).unwrap();
//! assert_eq!(records.len(), 1);
//! assert_eq!(engine.summary().jobs, 1);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod cache;
mod disk;
pub mod engine;
pub mod gate;
pub mod journal;
pub mod json;
pub mod key;
pub mod serial;
pub mod studies;

pub use cache::ResultCache;
pub use disk::{create_dir, remove_socket, write_file_atomic};
pub use engine::{
    Job, JobRecord, QuarantineRecord, SweepConfig, SweepConfigBuilder, SweepConfigError,
    SweepEngine, SweepSummary,
};
pub use gate::{AdmissionGate, GateClosed, GateTicket};
pub use journal::{replay_journal, JournalOpenError, JournalReplay, SweepJournal};
pub use key::{fnv1a, JobKey, FORMAT_VERSION};
pub use serial::{
    records_frame_from_json, records_to_json, report_from_json, report_to_json,
    write_records_frame, DecodeError, RecordsFrame,
};
pub use studies::run_ablation;
