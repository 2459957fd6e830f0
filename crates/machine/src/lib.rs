//! # regwin-machine
//!
//! A cycle-accounting functional simulator of a SPARC-like register-window
//! file, built as the hardware substrate for reproducing *"Multiple Threads
//! in Cyclic Register Windows"* (Hidaka, Koike, Tanaka — ISCA 1993).
//!
//! The simulator models exactly the machine state the paper's algorithms
//! manipulate:
//!
//! * a **cyclic buffer of overlapping register windows** (configurable
//!   4–32 windows, like the paper's register-window emulator), where the
//!   `out` registers of a window physically alias the `in` registers of the
//!   window *above* it (the callee direction),
//! * the **Current Window Pointer (CWP)**, decremented by `save` on
//!   procedure entry and incremented by `restore` on return,
//! * the **Window Invalid Mask (WIM)**, which marks windows the current
//!   thread may not enter without trapping. Who holds each window — free,
//!   a thread's live run or dead windows, its private reserved window, or
//!   the global reserved window — is kept once, as disjoint bitmasks; the
//!   WIM and every window's [`SlotUse`] are derived from them when read,
//! * **overflow / underflow traps**, raised when `save`/`restore` hits an
//!   invalid window, to be resolved by a window-management scheme
//!   (implemented in the `regwin-traps` crate),
//! * per-thread **memory save areas** (the register-save stacks that trap
//!   handlers spill windows into and restore windows from), and
//! * a **cycle counter** driven by one of two crate-private timing
//!   backends, chosen by [`TimingKind`]: the flat [`TimingKind::S20`] preset charges the [`CostModel`]
//!   calibrated against the paper's S-20 measurements (paper Table 2),
//!   while [`TimingKind::Pipeline`] re-prices window transfers through a
//!   scoreboard-plus-load/store-queue pipeline model.
//!
//! Terminology follows the paper: window *i − 1* is **above** window *i*
//! (the direction `save` moves), window *i + 1* is **below** it, a thread's
//! **stack-top** window holds its innermost live frame and its
//! **stack-bottom** window the outermost resident one, and "window" means
//! the 8 `in` + 8 `local` registers (the `out` registers are the `in`
//! registers of the window above).
//!
//! ## Example
//!
//! ```rust
//! use regwin_machine::{Machine, SlotUse};
//!
//! # fn main() -> Result<(), regwin_machine::MachineError> {
//! let mut machine = Machine::new(8)?;
//! let t = machine.add_thread();
//! let slot = machine.reserved().unwrap().below(machine.nwindows());
//! machine.start_initial_frame(t, slot)?;
//! machine.set_current(Some(t))?;
//!
//! // A procedure call: the window above the initial frame must first be
//! // granted by a management scheme; grant it by hand here.
//! let target = machine.cwp().above(machine.nwindows());
//! machine.force_reserved_walk()?; // classic single-window walk
//! machine.complete_save()?;
//! assert_eq!(machine.cwp(), target);
//! assert_eq!(machine.slot_use(target), SlotUse::Live(t));
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod audit;
mod backing;
mod cost;
mod error;
mod fault;
mod machine;
mod regfile;
mod slot;
mod stats;
mod thread;
mod timing;
mod trap;
mod window;

pub use audit::{frame_checksum, WindowAuditor, WindowTag};
pub use backing::BackingStore;
pub use cost::{CostModel, CycleCategory, CycleCounter, SchemeKind, SwitchCost};
pub use error::MachineError;
pub use fault::{corrupt_frame, FaultSchedule, TransferFault};
pub use machine::{ExecOutcome, Machine, MachineConfig, TransferReason};
pub use regfile::{
    Frame, RegisterFile, INS_PER_WINDOW, LOCALS_PER_WINDOW, OUTS_PER_WINDOW, REGS_PER_FRAME,
};
pub use slot::SlotUse;
pub use stats::{MachineStats, SwitchShape, ThreadStats};
pub use thread::{ThreadId, ThreadState};
pub use timing::TimingKind;
pub use trap::WindowTrap;
pub use window::{Wim, WindowIndex, MAX_WINDOWS, MIN_WINDOWS};
