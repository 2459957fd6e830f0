//! # regwin-gen
//!
//! Seeded synthetic workloads and deterministic schedule fuzzing for
//! the regwin differential-oracle regression farm.
//!
//! Every experiment elsewhere in the workspace runs the paper's single
//! spell-checker workload. This crate manufactures *scenario
//! diversity* without giving up reproducibility:
//!
//! 1. **[`WorkloadSpec`]** — a splitmix64-seeded spec (producer/
//!    consumer chains, parameterised call-depth distributions with
//!    bounded recursion, bursty switch pressure) that
//!    [`Workload::synthesize`] turns into plain-data thread programs.
//!    The programs interpret through [`regwin_rt::Ctx`] — the same op
//!    stream the spell pipeline emits — so generated scenarios run
//!    unmodified through machine, rt and cluster under any scheduling
//!    policy × timing backend.
//! 2. **Schedule fuzzing** — a [`Scenario`] can name a fuzz seed,
//!    running its policy in a [`regwin_rt::fuzzed_policy`] queue for
//!    seeded, bounded, fully replayable ready-queue perturbations.
//! 3. **The invariant bundle** — [`run_bundle`] executes each
//!    scenario several independent ways (direct, trace replay, 1-PE
//!    cluster, masked-fault, injected-fault) and errors on the first
//!    divergence, carrying a canonical reproducer.
//! 4. **The shrinker** — [`shrink`] greedily minimizes a failing
//!    scenario (fewer threads, shorter payload, shallower stacks, no
//!    fuzzing) before it is reported.
//!
//! The `repro-fuzz` binary in `regwin-bench` sweeps a fixed seed set ×
//! policies × timing backends through the sweep engine and writes the
//! committed `BENCH_fuzz.json` census.
//!
//! ```rust
//! use regwin_gen::{run_bundle, Scenario, WorkloadSpec};
//!
//! let spec = WorkloadSpec::from_seed(42);
//! let report = run_bundle(&Scenario::new(spec)).expect("clean scenario");
//! assert!(report.stats.context_switches > 0);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod oracle;
mod shrink;
mod spec;
mod workload;

pub use oracle::{masked_plan, run_bundle, Scenario, FUZZ_BUDGET};
pub use shrink::{shrink, ShrinkOutcome};
pub use spec::{DepthDist, WorkloadSpec};
pub use workload::{Step, StepIo, StreamDef, ThreadProgram, Workload};
