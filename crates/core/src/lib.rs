//! # regwin-core
//!
//! Experiment drivers reproducing the evaluation of *"Multiple Threads in
//! Cyclic Register Windows"* (Hidaka, Koike, Tanaka — ISCA 1993):
//! every table and figure of §5–§6, driven over the `regwin-spell`
//! workload on the `regwin-rt`/`regwin-traps`/`regwin-machine` stack.
//!
//! Each exhibit is a matrix spec plus an assembler over the executed
//! records. The binaries execute specs with `regwin_sweep::SweepEngine`;
//! [`run_matrix`] is the serial direct-run reference.
//!
//! | Exhibit | Spec → assembler | What it reproduces |
//! |---------|------------------|--------------------|
//! | Table 1 | [`figures::table1_spec`] → [`figures::table1_from_records`] | context switches per thread for six behaviours + dynamic save counts |
//! | Table 2 | [`figures::table2_observed_spec`] → [`figures::table2_from_records`] | cycles per context switch, per scheme and transfer shape |
//! | Fig 11  | [`figures::FigureId::Fig11`]: [`spec`](figures::FigureId::spec) → [`from_sweep`](figures::FigureId::from_sweep) | execution time vs #windows, high concurrency |
//! | Fig 12  | [`figures::FigureId::Fig12`]: the same pair | average context-switch time vs #windows |
//! | Fig 13  | [`figures::FigureId::Fig13`]: the same pair | window-trap probability vs #windows |
//! | Fig 14  | [`figures::FigureId::Fig14`]: the same pair | execution time vs #windows, low concurrency |
//! | Fig 15  | [`figures::FigureId::Fig15`]: the same pair | execution time with working-set scheduling |
//!
//! ```rust
//! use regwin_core::{Behavior, Concurrency, Granularity};
//!
//! let b = Behavior::new(Concurrency::High, Granularity::Fine);
//! assert_eq!(b.buffers(), (1, 1)); // M = N = 1 byte
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod ablations;
pub mod activity;
mod behavior;
pub mod chart;
pub mod figures;
mod matrix;
pub mod report;
pub mod timeline;
pub mod tradeoff;

pub use behavior::{Behavior, Concurrency, Granularity};
pub use matrix::{run_matrix, MatrixSpec, RunRecord};
pub use report::{Series, TextTable};

pub use regwin_machine::{SchemeKind, TimingKind};
pub use regwin_rt::SchedulingPolicy;
pub use regwin_spell::CorpusSpec;
