//! # regwin-rt
//!
//! A deterministic, non-preemptive multi-threading runtime running on the
//! simulated register-window CPU — the execution substrate for the
//! evaluation in *"Multiple Threads in Cyclic Register Windows"*
//! (Hidaka, Koike, Tanaka — ISCA 1993).
//!
//! The runtime reproduces the paper's execution model (§5.1):
//!
//! * threads communicate through bounded **cyclic FIFO streams**;
//! * scheduling is **non-preemptive**: "a thread execution continues
//!   until an input (output) buffer becomes empty (full)";
//! * the base scheduler is **FIFO**; the **working-set** refinement
//!   (§4.6) dispatches awoken threads whose windows are still resident
//!   ahead of everything else (FIFO among themselves). The one
//!   [`ReadyQueue`] also runs a conflict-aware **WindowGreedy** policy
//!   and a starvation-bounded **Aging** hybrid, each named by a
//!   [`SchedulingPolicy`] id;
//! * every procedure call in a thread body maps to a `save`/`restore`
//!   pair on the simulated CPU (via [`Ctx::call`]), so the window
//!   activity of the workload is what drives the schemes' behaviour.
//!
//! Thread bodies are async closures polled by a small executor on the
//! caller's OS thread. Blocking [`Ctx`] operations suspend the body and
//! return control to the scheduler, which picks the next thread from
//! its ready queue, so *exactly one* simulated thread executes at a
//! time: execution is fully deterministic, and a context switch costs
//! no OS handoff.
//!
//! A configured [`Simulation`] owns its state and is `Send`, so it can
//! be built on one OS thread and run on another. [`Simulation::start`]
//! shares that state between the [`StartedSim`] and every thread's
//! [`Ctx`] without a lock; neither is `Send`, so a started simulation
//! stays on the OS thread that steps it.
//!
//! ```rust
//! use regwin_rt::{Ctx, SchedulingPolicy, Simulation};
//! use regwin_traps::SchemeKind;
//!
//! # fn main() -> Result<(), regwin_rt::RtError> {
//! let mut sim = Simulation::new(8, SchemeKind::Sp)?;
//! let pipe = sim.add_stream("pipe", 4, 1);
//! sim.spawn_async("producer", async move |ctx: &mut Ctx| {
//!     for b in 0u8..16 {
//!         ctx.write_byte(pipe, b).await?;
//!     }
//!     ctx.close_writer(pipe)
//! });
//! sim.spawn_async("consumer", async move |ctx: &mut Ctx| {
//!     let mut sum = 0u64;
//!     while let Some(b) = ctx.read_byte(pipe).await? {
//!         sum += u64::from(b);
//!     }
//!     assert_eq!(sum, 120);
//!     Ok(())
//! });
//! let report = sim.run()?;
//! assert!(report.stats.context_switches > 0);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod ctx;
mod error;
mod fault;
pub mod report;
mod sched;
mod sim;
mod stream;
mod trace;
mod trace_io;

pub use ctx::Ctx;
pub use error::RtError;
pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultPlanError, WorkerFault, MAX_FAULT_PES};
pub use report::{BusSummary, RunReport, ThreadReport};
pub use sched::{fuzzed_policy, ReadyQueue, SchedulingPolicy, WakeInfo, AGING_LIMIT};
pub use sim::{with_deadline, SendEvent, SimOptions, Simulation, StartedSim, StepOutcome};
pub use stream::StreamId;
pub use trace::{Trace, TraceEvent};

pub use regwin_machine::ThreadId;
pub use regwin_machine::{FaultSchedule, TransferFault};
