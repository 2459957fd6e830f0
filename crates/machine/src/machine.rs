//! The register-window machine: mechanism primitives for window-management
//! schemes.
//!
//! The [`Machine`] owns the physical register file, the CWP, who holds
//! each window (as bitmasks), per-thread bookkeeping (resident run, dead
//! windows, memory save-area, PRW, TCB), the cycle counter and the event
//! statistics. The WIM and every window's [`SlotUse`] are derived from
//! the masks when read. It
//! provides *mechanism only*: `save`/`restore` execution that raises traps,
//! plus the spill/restore/grant/reservation primitives trap handlers are
//! built from. *Policy* — which window to spill, where to restore, what a
//! context switch does — lives in the `regwin-traps` schemes.

use crate::audit::{frame_checksum, WindowAuditor, WindowTag};
use crate::backing::BackingStore;
use crate::cost::{CostModel, CycleCategory, CycleCounter, SchemeKind};
use crate::error::MachineError;
use crate::fault::{corrupt_frame, FaultSchedule};
use crate::regfile::{RegisterFile, REGS_PER_FRAME};
use crate::slot::SlotUse;
use crate::stats::MachineStats;
use crate::thread::{ThreadId, ThreadState};
use crate::timing::{Charge, TimingKind, TimingModel};
use crate::trap::WindowTrap;
use crate::window::{low_bits, windows_in, Wim, WindowIndex, MAX_WINDOWS, MIN_WINDOWS};
use regwin_obs::{Metric, MetricSet, Probe, ProbeEvent};
use std::sync::Arc;

/// Bytes moved per window transfer: 16 registers of 8 bytes each.
const FRAME_BYTES: u64 = (REGS_PER_FRAME * 8) as u64;

/// Outcome of attempting a `save` or `restore` instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecOutcome {
    /// The instruction completed without trapping.
    Completed,
    /// The instruction raised a window trap; a management scheme must
    /// resolve it (and then, for overflow and conventional underflow,
    /// re-execute via [`Machine::complete_save`] /
    /// [`Machine::complete_restore`]).
    Trapped(WindowTrap),
}

/// Why a window transfer is happening — a trap handler or a context
/// switch. Selects which statistics the transfer is counted under (the
/// paper reports trap transfers and switch transfers separately).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferReason {
    /// Transfer performed inside a window trap handler.
    Trap,
    /// Transfer performed during a context switch.
    Switch,
}

/// The cycle category a per-window transfer charge belongs to: the
/// given trap category for trap transfers, [`CycleCategory::ContextSwitch`]
/// for switch-time transfers.
fn transfer_category(reason: TransferReason, trap: CycleCategory) -> CycleCategory {
    match reason {
        TransferReason::Trap => trap,
        TransferReason::Switch => CycleCategory::ContextSwitch,
    }
}

/// Unified machine configuration: window count, cost table and timing
/// backend in one value, threaded unchanged through every constructor
/// layer (`Machine` → `Cpu` → `Simulation` → spell/cluster/sweep).
///
/// Replaces the old `new`/`with_cost_model`/`with_scheme` constructor
/// sprawl: start from [`MachineConfig::new`] and override fields with
/// the builder methods.
///
/// ```rust
/// use regwin_machine::{MachineConfig, TimingKind};
///
/// let cfg = MachineConfig::new(8).with_timing(TimingKind::Pipeline);
/// assert_eq!(cfg.nwindows, 8);
/// assert_eq!(cfg.timing, TimingKind::Pipeline);
/// ```
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Number of physical register windows.
    pub nwindows: usize,
    /// Cycle cost table (software trap/switch costs for every backend;
    /// the complete accounting for [`TimingKind::S20`]).
    pub cost: CostModel,
    /// Which timing backend prices the machine's events.
    pub timing: TimingKind,
}

impl MachineConfig {
    /// The default configuration: `nwindows` windows, the calibrated
    /// [`CostModel::s20`] table, the flat [`TimingKind::S20`] backend.
    pub fn new(nwindows: usize) -> Self {
        MachineConfig { nwindows, cost: CostModel::s20(), timing: TimingKind::S20 }
    }

    /// Replaces the cost table.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Replaces the timing backend.
    pub fn with_timing(mut self, timing: TimingKind) -> Self {
        self.timing = timing;
        self
    }
}

/// The simulated register-window machine. See the crate docs for the model
/// and the paper mapping.
///
/// Who holds each physical window is kept once, as disjoint bitmasks
/// that together cover the file: the `free` mask here, each thread's
/// resident run (derived from its stack-top and resident count), its
/// dead mask and its PRW, and the global `reserved` window. The WIM,
/// [`Machine::slot_use`] and [`Machine::discardable_windows`] are
/// computed from them.
#[derive(Debug, Clone)]
pub struct Machine {
    nwindows: usize,
    regfile: RegisterFile,
    cwp: WindowIndex,
    /// Windows nobody holds; their contents are garbage.
    free: u64,
    threads: Vec<ThreadState>,
    current: Option<ThreadId>,
    reserved: Option<WindowIndex>,
    cost: CostModel,
    timing: Box<dyn TimingModel>,
    /// LSQ occupancy already published to the probe, so each publication
    /// is a delta of the backend's monotone cumulative counter.
    lsq_synced: u64,
    counter: CycleCounter,
    stats: MachineStats,
    faults: Option<FaultSchedule>,
    probe: Option<Arc<dyn Probe>>,
    /// Counter deltas accumulated since the last [`Machine::flush_probe`].
    /// Buffering turns one dynamic probe dispatch per event into one
    /// array add, flushed in canonical order at span boundaries.
    pending_metrics: MetricSet,
    auditor: Option<WindowAuditor>,
}

impl Machine {
    /// Creates a machine with `nwindows` physical windows, all free except
    /// window 0, which starts as the global reserved window (schemes that
    /// do not use a global reservation clear it).
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::BadWindowCount`] if `nwindows` is outside
    /// `MIN_WINDOWS..=MAX_WINDOWS`.
    pub fn new(nwindows: usize) -> Result<Self, MachineError> {
        Self::with_config(MachineConfig::new(nwindows))
    }

    /// Creates a machine from a [`MachineConfig`] (explicit cost table
    /// and timing backend).
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::BadWindowCount`] if `config.nwindows` is
    /// outside `MIN_WINDOWS..=MAX_WINDOWS`.
    pub fn with_config(config: MachineConfig) -> Result<Self, MachineError> {
        let MachineConfig { nwindows, cost, timing } = config;
        if !(MIN_WINDOWS..=MAX_WINDOWS).contains(&nwindows) {
            return Err(MachineError::BadWindowCount { requested: nwindows });
        }
        let timing = timing.build(&cost, nwindows);
        Ok(Machine {
            nwindows,
            regfile: RegisterFile::new(nwindows),
            cwp: WindowIndex::new(0),
            free: low_bits(nwindows) & !1,
            threads: Vec::new(),
            current: None,
            reserved: Some(WindowIndex::new(0)),
            cost,
            timing,
            lsq_synced: 0,
            counter: CycleCounter::new(),
            stats: MachineStats::new(),
            faults: None,
            probe: None,
            pending_metrics: MetricSet::new(),
            auditor: None,
        })
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Number of physical windows.
    pub fn nwindows(&self) -> usize {
        self.nwindows
    }

    /// The Current Window Pointer. Meaningful while a thread is current.
    pub fn cwp(&self) -> WindowIndex {
        self.cwp
    }

    /// The Window Invalid Mask for the current thread: every window
    /// except its resident run and its dead windows is invalid, and with
    /// no thread current every window is. Derived from the ownership
    /// masks on each call.
    pub fn wim(&self) -> Wim {
        let valid = self.current.map_or(0, |t| self.valid_mask(t));
        Wim::new(low_bits(self.nwindows) & !valid, self.nwindows)
    }

    /// The currently running thread.
    pub fn current_thread(&self) -> Option<ThreadId> {
        self.current
    }

    /// The global reserved window (NS/SNP schemes), if any.
    pub fn reserved(&self) -> Option<WindowIndex> {
        self.reserved
    }

    /// Usage of window slot `w`, derived from the ownership masks: the
    /// free mask and the reservation are tested first, then the threads
    /// are searched for the owner. For trap handlers, allocation and
    /// diagnostics; `save` and `restore` never call it.
    ///
    /// # Panics
    ///
    /// Panics if `w` is out of range; entry points taking externally
    /// supplied window indices validate via
    /// [`MachineError::BadWindowIndex`] before reaching here.
    #[inline]
    pub fn slot_use(&self, w: WindowIndex) -> SlotUse {
        assert!(w.index() < self.nwindows, "window {w} out of range");
        let bit = w.bit();
        if self.free & bit != 0 {
            return SlotUse::Free;
        }
        if self.reserved == Some(w) {
            return SlotUse::Reserved;
        }
        for ts in &self.threads {
            if ts.dead & bit != 0 {
                return SlotUse::Dead(ts.id());
            }
            if ts.prw() == Some(w) {
                return SlotUse::Prw(ts.id());
            }
            if ts.live_mask(self.nwindows) & bit != 0 {
                return SlotUse::Live(ts.id());
            }
        }
        unreachable!("the ownership masks cover every window")
    }

    /// How many windows are [discardable](SlotUse::is_discardable) —
    /// free, dead or the global reserved window: every window that holds
    /// no live frame and no PRW. Computed from the threads' resident
    /// counts and PRWs, one step per thread.
    pub fn discardable_windows(&self) -> usize {
        let held: usize =
            self.threads.iter().map(|ts| ts.resident() + usize::from(ts.prw().is_some())).sum();
        self.nwindows - held
    }

    /// Installs (or with `None` removes) a deterministic fault schedule.
    /// The schedule perturbs subsequent spill/fill transfers and trap
    /// deliveries at its chosen event indices; see [`FaultSchedule`].
    pub fn set_fault_schedule(&mut self, faults: Option<FaultSchedule>) {
        self.faults = faults;
    }

    /// Installs (or with `None` removes) an instrumentation probe.
    /// Counter deltas are *batched*: event sites accumulate into a local
    /// [`MetricSet`] and [`Machine::flush_probe`] delivers the totals in
    /// canonical order — callers flush at span boundaries, so no counter
    /// dispatch happens on the per-event hot path. With no probe
    /// installed the only cost per event site is one `Option` branch.
    /// Deltas still pending for a previously installed probe are flushed
    /// to it first.
    pub fn set_probe(&mut self, probe: Option<Arc<dyn Probe>>) {
        self.flush_probe();
        self.probe = probe;
    }

    /// Delivers every buffered counter delta to the installed probe (in
    /// [`Metric::ALL`] order, zero deltas skipped) and clears the buffer.
    /// Cheap when nothing is pending; a no-op without a probe.
    pub fn flush_probe(&mut self) {
        if self.pending_metrics.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut self.pending_metrics);
        if let Some(p) = &self.probe {
            for (metric, delta) in pending.iter_nonzero() {
                p.record(&ProbeEvent::Counter { metric, delta });
            }
        }
    }

    /// The installed instrumentation probe, if any.
    pub fn probe(&self) -> Option<&Arc<dyn Probe>> {
        self.probe.as_ref()
    }

    /// Enables per-window integrity auditing (see [`WindowAuditor`]).
    /// Every live frame gains a checksum tag that legitimate machine
    /// operations keep current; [`Machine::audit_thread`] then detects
    /// out-of-band corruption, repairs **clean** windows from the
    /// pristine copy recorded at fill time, and reports corrupted
    /// **dirty** windows as [`MachineError::UnrecoverableCorruption`].
    /// Auditing never touches statistics or the cycle counter, so an
    /// audited run that only repairs produces a byte-identical report.
    /// Threads already holding live frames are tagged dirty as-is.
    /// Frames already spilled need no baseline: a fill takes its
    /// reference checksum from the frame it pops.
    pub fn enable_auditor(&mut self) {
        let mut auditor = WindowAuditor::new(self.nwindows);
        let mut computed = 0u64;
        for ts in &self.threads {
            for w in windows_in(ts.live_mask(self.nwindows)) {
                auditor.mark_dirty(w, frame_checksum(&self.regfile.frame(w)));
                computed += 1;
            }
        }
        auditor.add_checksums(computed);
        self.auditor = Some(auditor);
    }

    /// The window auditor, if auditing is enabled.
    pub fn auditor(&self) -> Option<&WindowAuditor> {
        self.auditor.as_ref()
    }

    /// Validates an externally supplied window index against the cyclic
    /// buffer size, so malformed traces and configs surface as typed
    /// errors instead of indexing panics.
    fn check_window(&self, w: WindowIndex) -> Result<(), MachineError> {
        if w.index() >= self.nwindows {
            return Err(MachineError::BadWindowIndex {
                window: w.index(),
                nwindows: self.nwindows,
            });
        }
        Ok(())
    }

    /// The bookkeeping state of thread `t`.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::UnknownThread`] for an unregistered id.
    pub fn thread(&self, t: ThreadId) -> Result<&ThreadState, MachineError> {
        self.threads.get(t.index()).ok_or(MachineError::UnknownThread(t))
    }

    /// Number of registered threads.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// The cost model in use.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// The cycle counter.
    pub fn cycles(&self) -> &CycleCounter {
        &self.counter
    }

    /// The event statistics.
    pub fn stats(&self) -> &MachineStats {
        &self.stats
    }

    /// Physical windows currently holding live frames of `t`, from
    /// stack-top to stack-bottom.
    pub fn live_windows_of(&self, t: ThreadId) -> Result<Vec<WindowIndex>, MachineError> {
        let ts = self.thread(t)?;
        let mut out = Vec::with_capacity(ts.resident());
        if let Some(top) = ts.top() {
            let mut w = top;
            for _ in 0..ts.resident() {
                out.push(w);
                w = w.below(self.nwindows);
            }
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Thread registration and lifecycle
    // ------------------------------------------------------------------

    /// Registers a new thread and returns its id.
    pub fn add_thread(&mut self) -> ThreadId {
        let id = ThreadId::new(self.threads.len());
        self.threads.push(ThreadState::new(id));
        self.stats.ensure_thread(id);
        id
    }

    /// Gives `t` its initial (outermost) frame in `slot`, zero-filled.
    /// Used when a thread is first scheduled; costs nothing (the paper's
    /// threads are created once, up front).
    ///
    /// # Errors
    ///
    /// Fails if the slot holds live data or the thread already started.
    pub fn start_initial_frame(
        &mut self,
        t: ThreadId,
        slot: WindowIndex,
    ) -> Result<(), MachineError> {
        self.check_window(slot)?;
        if !self.slot_use(slot).is_discardable() {
            return Err(MachineError::BadSlotState { slot, expected: "free/dead/reserved-free" });
        }
        if self.slot_use(slot) == SlotUse::Reserved {
            return Err(MachineError::BadSlotState { slot, expected: "not the reserved window" });
        }
        let ts = self.thread_mut(t)?;
        if ts.started() {
            return Err(MachineError::InvariantViolated("thread already started"));
        }
        ts.set_top(Some(slot));
        ts.set_resident(1);
        ts.set_started();
        self.vacate(slot);
        self.regfile.clear_frame(slot);
        self.auditor_tag_dirty(slot);
        Ok(())
    }

    /// Releases every window and memory frame of a terminated thread.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::UnknownThread`] for an unregistered id.
    pub fn release_thread(&mut self, t: ThreadId) -> Result<(), MachineError> {
        let nw = self.nwindows;
        let ts = self.thread_mut(t)?;
        let held = ts.live_mask(nw) | ts.dead | ts.prw_mask();
        ts.set_top(None);
        ts.set_resident(0);
        ts.dead = 0;
        ts.set_prw(None);
        ts.backing_mut().clear();
        ts.set_terminated();
        self.free |= held;
        for w in windows_in(held) {
            self.auditor_untrack(w);
        }
        if self.current == Some(t) {
            self.current = None;
        }
        Ok(())
    }

    /// Makes `t` the current thread (or none), pointing the CWP at its
    /// stack-top window; the WIM follows, since it is derived from the
    /// current thread's masks. This is the *mechanism*
    /// half of a context switch; schemes do their window work first and
    /// charge costs via [`Machine::record_context_switch`].
    ///
    /// # Errors
    ///
    /// Fails if the thread has not started, has terminated, or has no
    /// resident windows.
    pub fn set_current(&mut self, t: Option<ThreadId>) -> Result<(), MachineError> {
        if let Some(t) = t {
            let ts = self.thread(t)?;
            if !ts.started() || ts.terminated() {
                return Err(MachineError::InvariantViolated(
                    "set_current on unstarted/terminated thread",
                ));
            }
            let top = ts.top().ok_or(MachineError::NoResidentWindows(t))?;
            self.cwp = top;
        }
        self.current = t;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Register access (current window)
    // ------------------------------------------------------------------

    /// Reads `in` register `reg` of the current window.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::NoCurrentThread`] with no thread current.
    pub fn read_in(&self, reg: usize) -> Result<u64, MachineError> {
        self.require_current()?;
        Ok(self.regfile.read_in(self.cwp, reg))
    }

    /// Writes `in` register `reg` of the current window.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::NoCurrentThread`] with no thread current.
    pub fn write_in(&mut self, reg: usize, value: u64) -> Result<(), MachineError> {
        self.require_current()?;
        self.regfile.write_in(self.cwp, reg, value);
        self.auditor_note_write(self.cwp);
        Ok(())
    }

    /// Reads `local` register `reg` of the current window.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::NoCurrentThread`] with no thread current.
    pub fn read_local(&self, reg: usize) -> Result<u64, MachineError> {
        self.require_current()?;
        Ok(self.regfile.read_local(self.cwp, reg))
    }

    /// Writes `local` register `reg` of the current window.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::NoCurrentThread`] with no thread current.
    pub fn write_local(&mut self, reg: usize, value: u64) -> Result<(), MachineError> {
        self.require_current()?;
        self.regfile.write_local(self.cwp, reg, value);
        self.auditor_note_write(self.cwp);
        Ok(())
    }

    /// Reads `out` register `reg` of the current window (physically the
    /// `in` register of the window above).
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::NoCurrentThread`] with no thread current.
    pub fn read_out(&self, reg: usize) -> Result<u64, MachineError> {
        self.require_current()?;
        Ok(self.regfile.read_out(self.cwp, reg))
    }

    /// Writes `out` register `reg` of the current window.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::NoCurrentThread`] with no thread current.
    pub fn write_out(&mut self, reg: usize, value: u64) -> Result<(), MachineError> {
        self.require_current()?;
        self.regfile.write_out(self.cwp, reg, value);
        self.auditor_note_write(self.cwp.above(self.nwindows));
        Ok(())
    }

    /// Reads global register `reg` (`%g0` always reads zero).
    pub fn read_global(&self, reg: usize) -> u64 {
        self.regfile.read_global(reg)
    }

    /// Writes global register `reg` (writes to `%g0` are discarded).
    pub fn write_global(&mut self, reg: usize, value: u64) {
        self.regfile.write_global(reg, value);
    }

    // ------------------------------------------------------------------
    // Instruction execution
    // ------------------------------------------------------------------

    /// Executes a `save` (procedure entry). Returns
    /// [`ExecOutcome::Trapped`] with an overflow trap unless the window
    /// above is one of the current thread's dead windows.
    ///
    /// # Errors
    ///
    /// Returns an error if no thread is current.
    pub fn try_save(&mut self) -> Result<ExecOutcome, MachineError> {
        let t = self.require_current()?;
        let target = self.cwp.above(self.nwindows);
        if !self.may_save(t, target) {
            if let Some(fs) = self.faults.as_mut() {
                fs.next_trap()?;
            }
            self.stats.overflow_traps += 1;
            self.bump(Metric::OverflowTraps, 1);
            return Ok(ExecOutcome::Trapped(WindowTrap::Overflow { target }));
        }
        self.do_save(t, target)?;
        Ok(ExecOutcome::Completed)
    }

    /// Executes a `restore` (procedure return). Returns
    /// [`ExecOutcome::Trapped`] with an underflow trap if the caller's
    /// window is not resident.
    ///
    /// # Errors
    ///
    /// Returns an error if no thread is current.
    pub fn try_restore(&mut self) -> Result<ExecOutcome, MachineError> {
        let t = self.require_current()?;
        let target = self.cwp.below(self.nwindows);
        if !self.may_restore(t) {
            if let Some(fs) = self.faults.as_mut() {
                fs.next_trap()?;
            }
            self.stats.underflow_traps += 1;
            self.bump(Metric::UnderflowTraps, 1);
            return Ok(ExecOutcome::Trapped(WindowTrap::Underflow { target }));
        }
        self.do_restore(t, target)?;
        Ok(ExecOutcome::Completed)
    }

    /// Re-executes the trapped `save` after a handler made the target
    /// window valid.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::StillInvalid`] if the handler did not make
    /// the target valid.
    pub fn complete_save(&mut self) -> Result<(), MachineError> {
        let t = self.require_current()?;
        let target = self.cwp.above(self.nwindows);
        if !self.may_save(t, target) {
            return Err(MachineError::StillInvalid { target });
        }
        self.do_save(t, target)
    }

    /// Re-executes the trapped `restore` after a conventional underflow
    /// handler restored the caller's window below the current one.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::StillInvalid`] if the target is still
    /// invalid.
    pub fn complete_restore(&mut self) -> Result<(), MachineError> {
        let t = self.require_current()?;
        let target = self.cwp.below(self.nwindows);
        if !self.may_restore(t) {
            return Err(MachineError::StillInvalid { target });
        }
        self.do_restore(t, target)
    }

    fn do_save(&mut self, t: ThreadId, target: WindowIndex) -> Result<(), MachineError> {
        let nw = self.nwindows;
        let ts = self.thread_mut(t)?;
        debug_assert!(ts.dead & target.bit() != 0, "save into non-granted slot");
        ts.dead &= !target.bit();
        ts.set_top(Some(target));
        ts.set_resident(ts.resident() + 1);
        debug_assert!(ts.resident() <= nw);
        self.cwp = target;
        self.stats.saves_executed += 1;
        self.stats.threads[t.index()].saves += 1;
        self.bump(Metric::SavesExecuted, 1);
        let charge = self.timing.window_instr(self.counter.total(), target);
        self.charge_timed(CycleCategory::WindowInstr, charge);
        self.auditor_tag_dirty(target);
        // Scheduled resident corruption strikes the newly current window
        // *after* the save (and after its tag was recorded): a bit-flip in
        // a live dirty frame, bypassing the auditor's bookkeeping so the
        // mismatch is only discovered at the next audit.
        let resident_xor = match self.faults.as_mut() {
            Some(fs) => fs.next_resident(),
            None => None,
        };
        if let Some(xor) = resident_xor {
            // Materialize the pre-corruption reference checksum eagerly:
            // under lazy auditing the window's bit is merely pending, and
            // the next audit would otherwise re-baseline the corrupted
            // bytes and accept them. The suspect mark is what makes the
            // next audit examine this window at all.
            let reference =
                self.auditor.as_ref().map(|_| frame_checksum(&self.regfile.frame(target)));
            if let (Some(sum), Some(a)) = (reference, self.auditor.as_mut()) {
                a.mark_dirty(target, sum);
                a.add_checksums(1);
                a.note_suspect(target);
            }
            let mut frame = self.regfile.frame(target);
            corrupt_frame(&mut frame, xor);
            self.regfile.set_frame(target, frame);
        }
        Ok(())
    }

    fn do_restore(&mut self, t: ThreadId, target: WindowIndex) -> Result<(), MachineError> {
        let nw = self.nwindows;
        let old_top = self.cwp;
        let ts = self.thread_mut(t)?;
        debug_assert!(ts.live_mask(nw) & target.bit() != 0, "restore into non-live slot");
        ts.dead |= old_top.bit();
        ts.set_top(Some(target));
        ts.set_resident(ts.resident() - 1);
        self.auditor_untrack(old_top);
        self.cwp = target;
        self.stats.restores_executed += 1;
        self.stats.threads[t.index()].restores += 1;
        self.bump(Metric::RestoresExecuted, 1);
        let charge = self.timing.window_instr(self.counter.total(), target);
        self.charge_timed(CycleCategory::WindowInstr, charge);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Handler primitives
    // ------------------------------------------------------------------

    /// Spills the stack-bottom window of `t` to its memory save-area and
    /// frees the slot. `reason` selects which statistics count it.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::NoResidentWindows`] if `t` has none.
    pub fn spill_bottom(
        &mut self,
        t: ThreadId,
        reason: TransferReason,
    ) -> Result<(), MachineError> {
        let nw = self.nwindows;
        let ts = self.thread(t)?;
        let bottom = ts.bottom(nw).ok_or(MachineError::NoResidentWindows(t))?;
        let resident = ts.resident();
        // Consult the fault schedule before mutating anything: a failed
        // spill leaves the machine state untouched.
        let spill_xor = match self.faults.as_mut() {
            Some(fs) => fs.next_spill()?,
            None => None,
        };
        let pristine = self.regfile.frame(bottom);
        let mut frame = pristine;
        if let Some(xor) = spill_xor {
            corrupt_frame(&mut frame, xor);
        }
        // With auditing on, a corrupted spill transfer is caught right
        // here — the stored bytes disagree with the pristine checksum —
        // and repaired while the pristine frame is still in hand. The
        // backing store therefore always holds pristine frames. The
        // transfer is the only thing that can perturb the bytes, so only
        // an audited spill whose fault fired computes a checksum.
        let spill_repaired = self.auditor.is_some()
            && spill_xor.is_some()
            && frame_checksum(&frame) != frame_checksum(&pristine);
        if spill_repaired {
            frame = pristine;
        }
        let ts = self.thread_mut(t)?;
        ts.backing_mut().push(frame);
        ts.set_resident(resident - 1);
        if resident == 1 {
            ts.set_top(None);
        }
        self.free |= bottom.bit();
        self.auditor_untrack(bottom);
        if spill_repaired {
            self.auditor.as_mut().expect("repairs imply an auditor").add_repairs(1);
            self.bump(Metric::WindowRepairs, 1);
        }
        if reason == TransferReason::Trap {
            self.stats.overflow_spills += 1;
            self.bump(Metric::OverflowSpills, 1);
        }
        self.bump(Metric::SpillBytes, FRAME_BYTES);
        // Per-transfer timing charge point (zero under the flat s20
        // backend, which prices transfers inside the trap/switch
        // aggregates; queue-modelled under the pipeline backend).
        let charge = self.timing.spill_transfer(self.counter.total(), bottom, reason);
        self.charge_timed(transfer_category(reason, CycleCategory::OverflowTrap), charge);
        Ok(())
    }

    /// Restores the innermost memory frame of `t` into `slot`.
    ///
    /// If `t` has no resident windows, the frame becomes its new stack-top
    /// (context-switch resume); otherwise `slot` must be directly below
    /// its stack-bottom (conventional underflow).
    ///
    /// # Errors
    ///
    /// Fails if the save-area is empty, the slot holds live data, or the
    /// slot is not adjacent below the resident run.
    pub fn restore_into(
        &mut self,
        t: ThreadId,
        slot: WindowIndex,
        reason: TransferReason,
    ) -> Result<(), MachineError> {
        self.check_window(slot)?;
        if !self.slot_use(slot).is_discardable() {
            return Err(MachineError::BadSlotState { slot, expected: "discardable for restore" });
        }
        if self.slot_use(slot) == SlotUse::Reserved {
            return Err(MachineError::BadSlotState { slot, expected: "not the reserved window" });
        }
        let nw = self.nwindows;
        let ts = self.thread(t)?;
        let resident = ts.resident();
        if resident > 0 {
            let bottom = ts.bottom(nw).expect("resident > 0 implies bottom");
            if bottom.below(nw) != slot {
                return Err(MachineError::BadSlotState {
                    slot,
                    expected: "adjacent below stack-bottom",
                });
            }
        }
        // Consult the fault schedule after validation, before the pop: a
        // failed fill leaves the backing store intact.
        let fill_xor = match self.faults.as_mut() {
            Some(fs) => fs.next_fill()?,
            None => None,
        };
        let ts = self.thread_mut(t)?;
        let pristine = ts.backing_mut().pop().ok_or(MachineError::BackingEmpty(t))?;
        let mut frame = pristine;
        if let Some(xor) = fill_xor {
            corrupt_frame(&mut frame, xor);
        }
        if resident == 0 {
            ts.set_top(Some(slot));
        }
        ts.set_resident(resident + 1);
        self.vacate(slot);
        self.regfile.set_frame(slot, frame);
        if let Some(a) = self.auditor.as_mut() {
            // An audited machine's store holds only pristine frames, so
            // the popped frame is the reference.
            a.mark_clean(slot, frame_checksum(&pristine), pristine);
            // A perturbed fill is the only way the live bytes can
            // disagree with the pristine reference just recorded: flag
            // the window so the next audit verifies (and repairs) it.
            if fill_xor.is_some() {
                a.note_suspect(slot);
            }
        }
        if reason == TransferReason::Trap {
            self.stats.underflow_restores += 1;
            self.bump(Metric::UnderflowRestores, 1);
        }
        self.bump(Metric::FillBytes, FRAME_BYTES);
        let charge = self.timing.fill_transfer(self.counter.total(), slot, reason);
        self.charge_timed(transfer_category(reason, CycleCategory::UnderflowTrap), charge);
        Ok(())
    }

    /// The proposed underflow algorithm (paper §3.2, Figure 8): restores
    /// the caller's window *into the slot the callee used*, after copying
    /// the callee's live `in` registers to the `out` position. Never
    /// spills, never moves the CWP or any reservation. The trapped
    /// `restore` is thereby complete — do **not** call
    /// [`Machine::complete_restore`] afterwards.
    ///
    /// With `full_copy` false, only the return-value and stack-pointer
    /// `in` registers are copied (the partial-copy variant of §3.2).
    ///
    /// # Errors
    ///
    /// Fails if the current thread's save-area is empty (return past the
    /// outermost frame) or more than one of its frames is resident (the
    /// trap could not have occurred).
    pub fn inplace_underflow(&mut self, full_copy: bool) -> Result<(), MachineError> {
        let t = self.require_current()?;
        let ts = self.thread(t)?;
        if ts.resident() != 1 {
            return Err(MachineError::InvariantViolated("in-place underflow with resident != 1"));
        }
        let slot = self.cwp;
        let fill_xor = match self.faults.as_mut() {
            Some(fs) => fs.next_fill()?,
            None => None,
        };
        let pristine =
            self.thread_mut(t)?.backing_mut().pop().ok_or(MachineError::BackingEmpty(t))?;
        let mut frame = pristine;
        if let Some(xor) = fill_xor {
            corrupt_frame(&mut frame, xor);
        }
        if full_copy {
            self.regfile.copy_ins_to_outs(slot);
        } else {
            self.regfile.copy_return_ins_to_outs(slot);
        }
        self.auditor_note_write(slot.above(self.nwindows));
        self.regfile.set_frame(slot, frame);
        if let Some(a) = self.auditor.as_mut() {
            a.mark_clean(slot, frame_checksum(&pristine), pristine);
            if fill_xor.is_some() {
                a.note_suspect(slot);
            }
        }
        // The callee's frame is gone and the caller's occupies its slot:
        // top, resident and every ownership mask are unchanged.
        self.stats.underflow_restores += 1;
        self.stats.restores_executed += 1;
        self.stats.threads[t.index()].restores += 1;
        self.bump(Metric::UnderflowRestores, 1);
        self.bump(Metric::RestoresExecuted, 1);
        self.bump(Metric::FillBytes, FRAME_BYTES);
        let charge = self.timing.fill_transfer(self.counter.total(), slot, TransferReason::Trap);
        self.charge_timed(CycleCategory::UnderflowTrap, charge);
        Ok(())
    }

    /// Marks `slot` usable by `t` without trapping (`Dead(t)`), e.g. after
    /// an overflow handler freed it.
    ///
    /// # Errors
    ///
    /// Fails if the slot holds a live frame or a PRW.
    pub fn grant_slot(&mut self, t: ThreadId, slot: WindowIndex) -> Result<(), MachineError> {
        self.thread(t)?;
        self.check_window(slot)?;
        match self.slot_use(slot) {
            SlotUse::Free | SlotUse::Dead(_) => {
                self.vacate(slot);
                self.threads[t.index()].dead |= slot.bit();
                Ok(())
            }
            _ => Err(MachineError::BadSlotState { slot, expected: "free or dead" }),
        }
    }

    /// Moves the global reserved window to `slot` (or removes it with
    /// `None`). The old reserved slot becomes free.
    ///
    /// # Errors
    ///
    /// Fails if the new slot holds a live frame or a PRW.
    pub fn set_reserved(&mut self, slot: Option<WindowIndex>) -> Result<(), MachineError> {
        if let Some(s) = slot {
            self.check_window(s)?;
            if !self.slot_use(s).is_discardable() {
                return Err(MachineError::BadSlotState {
                    slot: s,
                    expected: "discardable for reservation",
                });
            }
        }
        if let Some(old) = self.reserved.take() {
            self.free |= old.bit();
        }
        if let Some(s) = slot {
            self.vacate(s);
        }
        self.reserved = slot;
        Ok(())
    }

    /// Assigns `slot` as the private reserved window of `t`.
    ///
    /// # Errors
    ///
    /// Fails if the slot holds live data or `t` already has a PRW.
    pub fn assign_prw(&mut self, t: ThreadId, slot: WindowIndex) -> Result<(), MachineError> {
        self.check_window(slot)?;
        if !self.slot_use(slot).is_discardable() {
            return Err(MachineError::BadSlotState { slot, expected: "discardable for PRW" });
        }
        if self.slot_use(slot) == SlotUse::Reserved {
            return Err(MachineError::BadSlotState {
                slot,
                expected: "not the global reserved window",
            });
        }
        if self.thread(t)?.prw().is_some() {
            return Err(MachineError::InvariantViolated("thread already has a PRW"));
        }
        self.vacate(slot);
        self.thread_mut(t)?.set_prw(Some(slot));
        Ok(())
    }

    /// Takes the PRW away from `t`, saving the stack-top `out` registers
    /// it holds into `t`'s TCB first (they live in the PRW's `in`
    /// registers). The slot becomes free.
    ///
    /// # Errors
    ///
    /// Fails if `t` has no PRW.
    pub fn steal_prw(&mut self, t: ThreadId) -> Result<(), MachineError> {
        let prw = self
            .thread(t)?
            .prw()
            .ok_or(MachineError::BadSlotState { slot: self.cwp, expected: "thread owns a PRW" })?;
        let mut outs = [0u64; 8];
        for (reg, out) in outs.iter_mut().enumerate() {
            *out = self.regfile.read_in(prw, reg);
        }
        *self.thread_mut(t)?.tcb_outs_mut() = outs;
        self.release_prw(t)
    }

    /// Releases `t`'s PRW without saving anything (the outs are already
    /// safe, e.g. right before assigning a new PRW that will receive them).
    ///
    /// # Errors
    ///
    /// Fails if `t` has no PRW.
    pub fn release_prw(&mut self, t: ThreadId) -> Result<(), MachineError> {
        let prw = self
            .thread(t)?
            .prw()
            .ok_or(MachineError::BadSlotState { slot: self.cwp, expected: "thread owns a PRW" })?;
        self.thread_mut(t)?.set_prw(None);
        self.free |= prw.bit();
        Ok(())
    }

    /// Saves the stack-top `out` registers of `t` into its TCB (schemes
    /// without a PRW do this on every suspend).
    ///
    /// # Errors
    ///
    /// Fails if `t` has no resident windows.
    pub fn save_outs_to_tcb(&mut self, t: ThreadId) -> Result<(), MachineError> {
        let nw = self.nwindows;
        let ts = self.thread(t)?;
        let top = ts.top().ok_or(MachineError::NoResidentWindows(t))?;
        let above = top.above(nw);
        let mut outs = [0u64; 8];
        for (reg, out) in outs.iter_mut().enumerate() {
            *out = self.regfile.read_in(above, reg);
        }
        *self.thread_mut(t)?.tcb_outs_mut() = outs;
        Ok(())
    }

    /// Restores the stack-top `out` registers of `t` from its TCB into the
    /// window above its (possibly new) stack-top.
    ///
    /// # Errors
    ///
    /// Fails if `t` has no resident windows.
    pub fn restore_outs_from_tcb(&mut self, t: ThreadId) -> Result<(), MachineError> {
        let nw = self.nwindows;
        let ts = self.thread(t)?;
        let top = ts.top().ok_or(MachineError::NoResidentWindows(t))?;
        let outs = *ts.tcb_outs();
        let above = top.above(nw);
        for (reg, value) in outs.iter().enumerate() {
            self.regfile.write_in(above, reg, *value);
        }
        self.auditor_note_write(above);
        Ok(())
    }

    /// Spills every resident window of `t` (bottom first, so the memory
    /// save-area ends with the stack-top frame on top). Returns the number
    /// of windows flushed. Used by the NS scheme and by the flush-type
    /// context switch of paper §4.4.
    ///
    /// # Errors
    ///
    /// Propagates spill errors (none occur for a consistent thread).
    pub fn flush_thread(
        &mut self,
        t: ThreadId,
        reason: TransferReason,
    ) -> Result<usize, MachineError> {
        let count = self.thread(t)?.resident();
        for _ in 0..count {
            self.spill_bottom(t, reason)?;
        }
        if count > 0 {
            self.bump(Metric::WindowsFlushed, count as u64);
        }
        Ok(count)
    }

    /// Frees every dead slot of `t` (done when `t` is suspended: the paper
    /// releases the windows above the stack-top at switch time). Returns
    /// how many were freed.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::UnknownThread`] for an unregistered id.
    pub fn release_dead_slots(&mut self, t: ThreadId) -> Result<usize, MachineError> {
        let dead = std::mem::take(&mut self.thread_mut(t)?.dead);
        self.free |= dead;
        Ok(dead.count_ones() as usize)
    }

    /// Grants every free slot to `t` in one pass (the NS scheme does this
    /// after a switch-time flush: with all other threads' windows flushed
    /// to memory, the whole file minus the reserved window is valid
    /// garbage the incoming thread may overwrite trap-free, exactly as a
    /// single-bit WIM behaves on real hardware). Returns how many slots
    /// were granted.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::UnknownThread`] for an unregistered id.
    pub fn grant_all_free(&mut self, t: ThreadId) -> Result<usize, MachineError> {
        let free = self.free;
        self.thread_mut(t)?.dead |= free;
        self.free = 0;
        Ok(free.count_ones() as usize)
    }

    /// The classic single-window reservation walk used by overflow
    /// handlers with a global reserved window (NS/SNP): spill or discard
    /// whatever is directly above the reserved window, move the
    /// reservation up one, and grant the old reserved slot to the current
    /// thread. Returns the number of windows spilled (0 or 1).
    ///
    /// # Errors
    ///
    /// Fails if there is no reserved window or the victim is a PRW (which
    /// never occurs under NS/SNP).
    pub fn force_reserved_walk(&mut self) -> Result<usize, MachineError> {
        let t = self.require_current()?;
        let reserved =
            self.reserved.ok_or(MachineError::InvariantViolated("walk without reserved window"))?;
        let victim = reserved.above(self.nwindows);
        let mut spills = 0;
        match self.slot_use(victim) {
            SlotUse::Live(owner) => {
                let bottom = self.thread(owner)?.bottom(self.nwindows);
                if bottom != Some(victim) {
                    return Err(MachineError::InvariantViolated(
                        "walk victim is a live non-bottom window",
                    ));
                }
                self.spill_bottom(owner, TransferReason::Trap)?;
                spills = 1;
            }
            SlotUse::Free | SlotUse::Dead(_) => {}
            SlotUse::Prw(_) => {
                return Err(MachineError::BadSlotState {
                    slot: victim,
                    expected: "no PRW under NS/SNP",
                })
            }
            SlotUse::Reserved => {
                return Err(MachineError::InvariantViolated("two reserved windows"));
            }
        }
        self.set_reserved(Some(victim))?;
        self.grant_slot(t, reserved)?;
        Ok(spills)
    }

    /// The SP-scheme overflow walk: spill/steal whatever is directly above
    /// the current thread's PRW, move the PRW up one, and grant the old
    /// PRW slot to the current thread (its `in` registers already hold the
    /// caller's `out` registers, which is exactly what the new frame needs).
    /// Returns `(windows_spilled, prws_stolen)`.
    ///
    /// # Errors
    ///
    /// Fails if the current thread has no PRW.
    pub fn force_prw_walk(&mut self) -> Result<(usize, usize), MachineError> {
        let t = self.require_current()?;
        let prw =
            self.thread(t)?.prw().ok_or(MachineError::InvariantViolated("SP walk without PRW"))?;
        let victim = prw.above(self.nwindows);
        let mut spills = 0;
        let mut steals = 0;
        match self.slot_use(victim) {
            SlotUse::Live(owner) => {
                let bottom = self.thread(owner)?.bottom(self.nwindows);
                if bottom != Some(victim) {
                    return Err(MachineError::InvariantViolated(
                        "walk victim is a live non-bottom window",
                    ));
                }
                self.spill_bottom(owner, TransferReason::Trap)?;
                spills = 1;
            }
            SlotUse::Prw(owner) => {
                self.steal_prw(owner)?;
                steals = 1;
            }
            SlotUse::Free | SlotUse::Dead(_) => {}
            SlotUse::Reserved => {
                return Err(MachineError::BadSlotState {
                    slot: victim,
                    expected: "no global reservation under SP",
                })
            }
        }
        // Move the PRW up: old slot becomes the current thread's to save
        // into; the victim slot becomes the new PRW.
        self.release_prw(t)?;
        self.assign_prw(t, victim)?;
        self.grant_slot(t, prw)?;
        Ok((spills, steals))
    }

    // ------------------------------------------------------------------
    // Accounting
    // ------------------------------------------------------------------

    /// Charges `cycles` to `category` on the cycle counter.
    pub fn charge(&mut self, category: CycleCategory, cycles: u64) {
        self.charge_cycles(category, cycles);
    }

    /// Charges application compute cycles (the workload's own work).
    pub fn compute(&mut self, cycles: u64) {
        let charge = self.timing.app(self.counter.total(), cycles);
        self.charge_timed(CycleCategory::App, charge);
    }

    /// Charges an overflow trap whose handler spilled `spills` windows
    /// (scheme charge point — the per-spill transfers were already
    /// charged by [`Machine::spill_bottom`] under backends that price
    /// them individually).
    pub fn charge_overflow_trap(&mut self, spills: usize) {
        let charge = self.timing.overflow_trap(self.counter.total(), spills);
        self.charge_timed(CycleCategory::OverflowTrap, charge);
    }

    /// Charges a conventional underflow trap (scheme charge point).
    pub fn charge_underflow_conventional(&mut self) {
        let charge = self.timing.underflow_conventional(self.counter.total());
        self.charge_timed(CycleCategory::UnderflowTrap, charge);
    }

    /// Charges an in-place underflow trap with a full or partial `in`
    /// copy (scheme charge point).
    pub fn charge_underflow_inplace(&mut self, full_copy: bool) {
        let charge = self.timing.underflow_inplace(self.counter.total(), full_copy);
        self.charge_timed(CycleCategory::UnderflowTrap, charge);
    }

    /// Charges `windows` extra ahead-of-demand refills performed by a
    /// batched underflow handler (scheme charge point).
    pub fn charge_refill_extra(&mut self, windows: usize) {
        let charge = self.timing.refill_extra(self.counter.total(), windows);
        self.charge_timed(CycleCategory::UnderflowTrap, charge);
    }

    /// Charges `count` stack-top `out`-register transfers under
    /// `category` (scheme charge point; SP charges these to overflow
    /// traps when a PRW is stolen and to context switches otherwise).
    pub fn charge_outs_transfer(&mut self, category: CycleCategory, count: usize) {
        let charge = self.timing.outs_transfer(self.counter.total(), count);
        self.charge_timed(category, charge);
    }

    /// Records a context switch away from `from` that transferred the
    /// given number of windows, charging the backend's switch cost (the
    /// full calibrated Table-2 shape cost under `s20`; the software base
    /// under `pipeline`, whose transfers paid at their spill/fill sites).
    pub fn record_context_switch(
        &mut self,
        from: Option<ThreadId>,
        scheme: SchemeKind,
        saves: u32,
        restores: u32,
    ) {
        let charge = self.timing.context_switch(
            self.counter.total(),
            scheme,
            saves as usize,
            restores as usize,
        );
        self.charge_timed(CycleCategory::ContextSwitch, charge);
        self.stats.record_switch(from, saves, restores);
        self.bump(Metric::ContextSwitches, 1);
        self.bump(Metric::SwitchSaves, u64::from(saves));
        self.bump(Metric::SwitchRestores, u64::from(restores));
    }

    /// Advances the machine's local clock to the externally supplied
    /// `tick`, charging the gap (if any) as [`CycleCategory::BusStall`]
    /// idle time. The entry point an external discrete-event scheduler
    /// uses to clock the machine: a PE whose threads are all blocked on
    /// a cross-PE stream sits idle until the bus delivery tick, and
    /// those idle cycles are real simulated time on this PE's timeline.
    /// Returns the cycles charged (0 when the clock is already at or
    /// past `tick`).
    pub fn step_to_tick(&mut self, tick: u64) -> u64 {
        let now = self.counter.total();
        let gap = tick.saturating_sub(now);
        if gap > 0 {
            self.charge_cycles(CycleCategory::BusStall, gap);
        }
        gap
    }

    // ------------------------------------------------------------------
    // Invariant checking (used heavily by tests; cheap enough for debug)
    // ------------------------------------------------------------------

    /// Verifies all machine invariants, returning a description of the
    /// first violation found. Intended for tests and debugging.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::InvariantViolated`] describing the problem.
    pub fn check_invariants(&self) -> Result<(), MachineError> {
        for ts in &self.threads {
            if ts.resident() > self.nwindows || ts.top().is_some() != (ts.resident() > 0) {
                return Err(MachineError::InvariantViolated("resident run inconsistent with top"));
            }
        }
        // Every window has exactly one holder: the free mask, the
        // reservation, and each thread's resident run, dead windows and
        // PRW are pairwise disjoint and cover the file.
        let nw = self.nwindows;
        let threads = self.threads.iter().flat_map(|ts| [ts.live_mask(nw), ts.dead, ts.prw_mask()]);
        let mut held = 0u64;
        for mask in threads.chain([self.free, self.reserved.map_or(0, WindowIndex::bit)]) {
            if held & mask != 0 {
                return Err(MachineError::InvariantViolated("a window has two holders"));
            }
            held |= mask;
        }
        if held != low_bits(nw) {
            return Err(MachineError::InvariantViolated("holders do not cover the window file"));
        }
        // CWP must point at the current thread's stack-top.
        if let Some(t) = self.current {
            if self.threads[t.index()].top() != Some(self.cwp) {
                return Err(MachineError::InvariantViolated(
                    "CWP not at current thread's stack-top",
                ));
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Window-state auditing
    // ------------------------------------------------------------------

    /// Runs one audit pass over thread `t`: verifies the integrity
    /// checksum of every *suspect* live window of `t` — a window is
    /// suspect exactly when a corruption-capable transfer touched it
    /// since its reference checksum was recorded, so a window with a
    /// clear bit provably still matches its reference and is skipped.
    /// On a fault-free run every audit point reduces to one bitmask
    /// test. When suspects exist, the structural machine invariants
    /// ([`Machine::check_invariants`]) are verified first. Clean
    /// windows that fail their check are repaired from the pristine
    /// frame recorded at fill time; returns how many were repaired. A
    /// no-op (returning 0) when auditing is not enabled.
    ///
    /// Repairs are counted on the auditor and reported to the probe as
    /// [`Metric::WindowRepairs`], but deliberately charge no cycles and
    /// touch no statistics: a run whose corruption was fully repaired
    /// reports exactly the same numbers as a fault-free run.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::UnrecoverableCorruption`] when a dirty
    /// window of `t` fails its check (no pristine copy exists), and
    /// propagates structural invariant violations.
    pub fn audit_thread(&mut self, t: ThreadId) -> Result<u64, MachineError> {
        match self.auditor.as_ref() {
            None => return Ok(0),
            Some(a) if !a.any_suspect() => return Ok(0),
            Some(_) => {}
        }
        self.check_invariants()?;
        let windows = self.live_windows_of(t)?;
        let mut repaired = 0u64;
        let mut computed = 0u64;
        for w in windows {
            if !self.auditor.as_mut().expect("checked above").take_suspect(w) {
                continue;
            }
            // A pending legitimate write over a suspect window means the
            // thread wrote it after the perturbation: the frame as it
            // stands is the legitimate state, so re-establish the
            // reference from it — exactly what the pre-suspect lazy
            // audit did — and move on.
            if self.auditor.as_mut().expect("checked above").take_pending(w) {
                let sum = frame_checksum(&self.regfile.frame(w));
                computed += 1;
                self.auditor.as_mut().expect("checked above").mark_dirty(w, sum);
                continue;
            }
            let actual = frame_checksum(&self.regfile.frame(w));
            computed += 1;
            match self.auditor.as_ref().expect("checked above").tag(w) {
                WindowTag::Untracked => {}
                WindowTag::Dirty { sum } => {
                    if actual != sum {
                        return Err(MachineError::UnrecoverableCorruption { window: w, owner: t });
                    }
                }
                WindowTag::Clean { sum, pristine } => {
                    if actual != sum {
                        computed += 1;
                        if frame_checksum(&pristine) != sum {
                            // The retained copy itself is damaged: there
                            // is nothing trustworthy to repair from.
                            return Err(MachineError::UnrecoverableCorruption {
                                window: w,
                                owner: t,
                            });
                        }
                        self.regfile.set_frame(w, pristine);
                        repaired += 1;
                    }
                }
            }
        }
        let auditor = self.auditor.as_mut().expect("checked above");
        auditor.add_checksums(computed);
        if repaired > 0 {
            auditor.add_repairs(repaired);
        }
        if repaired > 0 {
            self.bump(Metric::WindowRepairs, repaired);
        }
        Ok(repaired)
    }

    /// [`Machine::audit_thread`] for the current thread; a no-op when no
    /// thread is current or auditing is not enabled.
    ///
    /// # Errors
    ///
    /// Same as [`Machine::audit_thread`].
    pub fn audit_current(&mut self) -> Result<u64, MachineError> {
        match self.current {
            Some(t) => self.audit_thread(t),
            None => Ok(0),
        }
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn require_current(&self) -> Result<ThreadId, MachineError> {
        self.current.ok_or(MachineError::NoCurrentThread)
    }

    /// Buffers a counter increment for the installed probe, if any; the
    /// delta reaches the probe at the next [`Machine::flush_probe`].
    fn bump(&mut self, metric: Metric, delta: u64) {
        if self.probe.is_some() {
            self.pending_metrics.add(metric, delta);
        }
    }

    /// Charges the cycle counter and mirrors the charge to the probe
    /// under the category's `Cycles*` metric — the single funnel for all
    /// cycle attribution.
    fn charge_cycles(&mut self, category: CycleCategory, cycles: u64) {
        self.counter.charge(category, cycles);
        if cycles != 0 {
            self.bump(category.metric(), cycles);
        }
    }

    /// Charges a timing-backend [`Charge`]: base cycles to the event's
    /// category, stall cycles to [`CycleCategory::HazardStall`], and
    /// publishes any new LSQ residency as a metric delta. All-zero
    /// charges (the s20 backend's transfer charge points) are free and
    /// leave the probe stream untouched.
    fn charge_timed(&mut self, category: CycleCategory, charge: Charge) {
        self.charge_cycles(category, charge.base);
        self.charge_cycles(CycleCategory::HazardStall, charge.hazard);
        let ticks = self.timing.lsq_occupancy_ticks();
        let delta = ticks - self.lsq_synced;
        if delta > 0 {
            self.lsq_synced = ticks;
            self.bump(Metric::LsqOccupancyTicks, delta);
        }
    }

    fn thread_mut(&mut self, t: ThreadId) -> Result<&mut ThreadState, MachineError> {
        self.threads.get_mut(t.index()).ok_or(MachineError::UnknownThread(t))
    }

    /// Tags `w` as a dirty live frame whose reference checksum is
    /// pending: it will be established from the frame bytes at the next
    /// audit point. The placeholder sum is never consulted — the pending
    /// bit forces a recompute first. No-op without an auditor.
    fn auditor_tag_dirty(&mut self, w: WindowIndex) {
        if let Some(a) = self.auditor.as_mut() {
            a.mark_dirty(w, 0);
            a.note_pending(w);
        }
    }

    /// Notes a legitimate register write to `w`, if it holds a tracked
    /// live frame (writes always dirty a window: its pristine fill copy,
    /// if any, no longer describes it). The entire per-write cost is one
    /// bit OR — no checksum is computed until the next audit point.
    fn auditor_note_write(&mut self, w: WindowIndex) {
        if let Some(a) = self.auditor.as_mut() {
            if a.is_tracked(w) {
                a.note_pending(w);
            }
        }
    }

    /// Stops tracking `w` (no-op without an auditor).
    fn auditor_untrack(&mut self, w: WindowIndex) {
        if let Some(a) = self.auditor.as_mut() {
            a.untrack(w);
        }
    }

    /// The windows valid for thread `t`, the clear bits of its WIM: its
    /// resident run and its dead windows.
    fn valid_mask(&self, t: ThreadId) -> u64 {
        let ts = &self.threads[t.index()];
        ts.live_mask(self.nwindows) | ts.dead
    }

    /// Whether a `save` by the current thread `t` may enter `target`
    /// without trapping: only into one of `t`'s dead windows. A thread
    /// holding every window traps rather than save over its own
    /// stack-bottom.
    fn may_save(&self, t: ThreadId, target: WindowIndex) -> bool {
        self.threads[t.index()].dead & target.bit() != 0
    }

    /// Whether a `restore` by the current thread `t` may return without
    /// trapping: only when the caller's window is resident, which needs
    /// at least two resident windows. A window granted directly below a
    /// lone stack-top frame holds no frame of `t`'s, so it traps too.
    fn may_restore(&self, t: ThreadId) -> bool {
        self.threads[t.index()].resident() >= 2
    }

    /// Takes discardable window `w` from whoever holds it: the free mask
    /// or a thread's dead windows. The caller has checked that `w` is
    /// free or dead, and gives it its new holder.
    fn vacate(&mut self, w: WindowIndex) {
        let bit = w.bit();
        if self.free & bit != 0 {
            self.free &= !bit;
        } else if let Some(ts) = self.threads.iter_mut().find(|ts| ts.dead & bit != 0) {
            ts.dead &= !bit;
        }
    }

    /// Direct access to the backing store of `t` (read-only), for tests
    /// and diagnostics.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::UnknownThread`] for an unregistered id.
    pub fn backing_of(&self, t: ThreadId) -> Result<&BackingStore, MachineError> {
        Ok(self.thread(t)?.backing())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a machine with one started thread whose initial frame sits
    /// just below the reserved window, like a scheme would.
    fn machine_with_thread(nwindows: usize) -> (Machine, ThreadId) {
        let mut m = Machine::new(nwindows).unwrap();
        let t = m.add_thread();
        let slot = m.reserved().unwrap().below(nwindows);
        m.start_initial_frame(t, slot).unwrap();
        m.set_current(Some(t)).unwrap();
        m.check_invariants().unwrap();
        (m, t)
    }

    /// Performs one `save`, resolving any overflow with the classic walk.
    fn save(m: &mut Machine) {
        match m.try_save().unwrap() {
            ExecOutcome::Completed => {}
            ExecOutcome::Trapped(trap) => {
                assert!(matches!(trap, WindowTrap::Overflow { .. }));
                m.force_reserved_walk().unwrap();
                m.complete_save().unwrap();
            }
        }
        m.check_invariants().unwrap();
    }

    /// Performs one `restore`, resolving any underflow conventionally.
    fn restore_conventional(m: &mut Machine, t: ThreadId) {
        match m.try_restore().unwrap() {
            ExecOutcome::Completed => {}
            ExecOutcome::Trapped(trap) => {
                assert!(matches!(trap, WindowTrap::Underflow { .. }));
                let target = trap.target();
                // Conventional: restore into the reserved slot and move
                // the reservation one below (paper Figure 4).
                assert_eq!(Some(target), m.reserved());
                let new_reserved = target.below(m.nwindows());
                assert!(m.slot_use(new_reserved).is_discardable());
                m.set_reserved(None).unwrap();
                m.restore_into(t, target, TransferReason::Trap).unwrap();
                m.set_reserved(Some(new_reserved)).unwrap();
                m.complete_restore().unwrap();
            }
        }
        m.check_invariants().unwrap();
    }

    #[test]
    fn new_rejects_bad_window_counts() {
        assert!(Machine::new(1).is_err());
        assert!(Machine::new(0).is_err());
        assert!(Machine::new(65).is_err());
        assert!(Machine::new(2).is_ok());
        assert!(Machine::new(32).is_ok());
    }

    #[test]
    fn initial_state_has_one_reserved_window() {
        let m = Machine::new(8).unwrap();
        assert_eq!(m.reserved(), Some(WindowIndex::new(0)));
        assert_eq!(m.slot_use(WindowIndex::new(0)), SlotUse::Reserved);
        assert_eq!(m.wim().bits().count_ones(), 8); // no current thread: all invalid
    }

    #[test]
    fn save_moves_cwp_above() {
        let (mut m, t) = machine_with_thread(8);
        let before = m.cwp();
        save(&mut m);
        assert_eq!(m.cwp(), before.above(8)); // save entered the old reserved slot
        assert_eq!(m.thread(t).unwrap().resident(), 2);
    }

    #[test]
    fn restore_returns_to_caller_window() {
        let (mut m, t) = machine_with_thread(8);
        let initial = m.cwp();
        save(&mut m);
        match m.try_restore().unwrap() {
            ExecOutcome::Completed => {}
            other => panic!("expected trap-free restore, got {other:?}"),
        }
        assert_eq!(m.cwp(), initial);
        assert_eq!(m.thread(t).unwrap().resident(), 1);
        m.check_invariants().unwrap();
    }

    #[test]
    fn deep_recursion_wraps_cyclically_and_spills_own_bottom() {
        let (mut m, t) = machine_with_thread(4);
        // Call depth 10 on a 4-window machine: must spill own windows.
        for depth in 2..=10 {
            save(&mut m);
            assert_eq!(m.thread(t).unwrap().depth(), depth);
        }
        assert!(m.backing_of(t).unwrap().len() >= 7);
        // Return all the way back.
        for depth in (1..=9).rev() {
            restore_conventional(&mut m, t);
            assert_eq!(m.thread(t).unwrap().depth(), depth);
        }
        assert!(m.backing_of(t).unwrap().is_empty());
    }

    #[test]
    fn register_values_survive_spill_and_conventional_refill() {
        let (mut m, t) = machine_with_thread(4);
        // Write a distinct marker in each frame's locals while calling.
        m.write_local(0, 100).unwrap();
        for depth in 2..=8u64 {
            save(&mut m);
            m.write_local(0, 100 * depth).unwrap();
        }
        for depth in (1..=7u64).rev() {
            restore_conventional(&mut m, t);
            assert_eq!(m.read_local(0).unwrap(), 100 * depth, "frame at depth {depth}");
        }
    }

    #[test]
    fn outs_pass_arguments_to_callee_ins() {
        let (mut m, _t) = machine_with_thread(8);
        m.write_out(0, 777).unwrap();
        save(&mut m);
        assert_eq!(m.read_in(0).unwrap(), 777);
    }

    #[test]
    fn ins_return_values_to_caller_outs() {
        let (mut m, _t) = machine_with_thread(8);
        save(&mut m);
        m.write_in(0, 888).unwrap();
        assert!(matches!(m.try_restore().unwrap(), ExecOutcome::Completed));
        assert_eq!(m.read_out(0).unwrap(), 888);
    }

    #[test]
    fn inplace_underflow_preserves_caller_frame_and_return_values() {
        let (mut m, _t) = machine_with_thread(4);
        m.write_local(0, 11).unwrap();
        // Go deep enough that the initial frames spill.
        for i in 2..=6u64 {
            save(&mut m);
            m.write_local(0, 11 * i).unwrap();
        }
        // Return with the proposed algorithm until underflow occurs.
        let mut depth = 6u64;
        while depth > 1 {
            match m.try_restore().unwrap() {
                ExecOutcome::Completed => {}
                ExecOutcome::Trapped(trap) => {
                    assert!(matches!(trap, WindowTrap::Underflow { .. }));
                    m.write_in(0, 4242).unwrap(); // "return value"
                    m.inplace_underflow(true).unwrap();
                    // Caller must see the return value in its outs.
                    assert_eq!(m.read_out(0).unwrap(), 4242);
                }
            }
            depth -= 1;
            assert_eq!(m.read_local(0).unwrap(), 11 * depth, "caller locals at depth {depth}");
            m.check_invariants().unwrap();
        }
    }

    #[test]
    fn inplace_underflow_does_not_move_cwp_or_reservation() {
        let (mut m, _t) = machine_with_thread(4);
        for _ in 2..=6 {
            save(&mut m);
        }
        // Unwind to the trap point.
        while matches!(m.try_restore().unwrap(), ExecOutcome::Completed) {}
        let cwp = m.cwp();
        let reserved = m.reserved();
        m.inplace_underflow(true).unwrap();
        assert_eq!(m.cwp(), cwp);
        assert_eq!(m.reserved(), reserved);
        m.check_invariants().unwrap();
    }

    #[test]
    fn restore_past_outermost_frame_is_an_error() {
        let (mut m, _t) = machine_with_thread(8);
        match m.try_restore().unwrap() {
            ExecOutcome::Trapped(trap) => {
                assert!(matches!(trap, WindowTrap::Underflow { .. }));
                assert_eq!(
                    m.inplace_underflow(true),
                    Err(MachineError::BackingEmpty(ThreadId::new(0)))
                );
            }
            other => panic!("expected underflow, got {other:?}"),
        }
    }

    #[test]
    fn two_threads_keep_register_values_apart() {
        let mut m = Machine::new(8).unwrap();
        let a = m.add_thread();
        let b = m.add_thread();
        let r = m.reserved().unwrap();
        m.start_initial_frame(a, r.below(8)).unwrap();
        m.start_initial_frame(b, r.below(8).below(8)).unwrap();
        m.set_current(Some(a)).unwrap();
        m.write_local(0, 1).unwrap();
        m.set_current(Some(b)).unwrap();
        m.write_local(0, 2).unwrap();
        m.set_current(Some(a)).unwrap();
        assert_eq!(m.read_local(0).unwrap(), 1);
        m.check_invariants().unwrap();
    }

    #[test]
    fn wim_blocks_other_threads_windows() {
        let mut m = Machine::new(4).unwrap();
        let a = m.add_thread();
        let b = m.add_thread();
        let r = m.reserved().unwrap();
        m.start_initial_frame(a, r.below(4)).unwrap();
        // B sits directly below A: A's restore target is B's window.
        m.start_initial_frame(b, r.below(4).below(4)).unwrap();
        m.set_current(Some(a)).unwrap();
        match m.try_restore().unwrap() {
            ExecOutcome::Trapped(trap) => assert!(matches!(trap, WindowTrap::Underflow { .. })),
            other => panic!("expected underflow into B's window, got {other:?}"),
        }
    }

    #[test]
    fn spill_bottom_then_restore_into_roundtrips_frame() {
        let (mut m, t) = machine_with_thread(8);
        save(&mut m);
        m.write_local(3, 999).unwrap();
        // Spill both frames (bottom first), then restore the top one back.
        let bottom = m.thread(t).unwrap().bottom(8).unwrap();
        m.spill_bottom(t, TransferReason::Switch).unwrap();
        let top_slot = m.thread(t).unwrap().top().unwrap();
        m.spill_bottom(t, TransferReason::Switch).unwrap();
        assert_eq!(m.thread(t).unwrap().resident(), 0);
        m.restore_into(t, top_slot, TransferReason::Switch).unwrap();
        m.set_current(Some(t)).unwrap();
        assert_eq!(m.read_local(3).unwrap(), 999);
        assert_eq!(m.thread(t).unwrap().top(), Some(top_slot));
        let _ = bottom;
        m.check_invariants().unwrap();
    }

    #[test]
    fn flush_thread_spills_everything_in_order() {
        let (mut m, t) = machine_with_thread(8);
        m.write_local(0, 1).unwrap();
        save(&mut m);
        m.write_local(0, 2).unwrap();
        save(&mut m);
        m.write_local(0, 3).unwrap();
        let flushed = m.flush_thread(t, TransferReason::Switch).unwrap();
        assert_eq!(flushed, 3);
        // Memory save-area must end with the innermost frame on top.
        assert_eq!(m.backing_of(t).unwrap().peek().unwrap().locals[0], 3);
        assert_eq!(m.thread(t).unwrap().resident(), 0);
    }

    #[test]
    fn prw_walk_moves_prw_up_and_grants_old_slot() {
        let mut m = Machine::new(8).unwrap();
        m.set_reserved(None).unwrap(); // SP has no global reservation
        let t = m.add_thread();
        m.start_initial_frame(t, WindowIndex::new(4)).unwrap();
        m.assign_prw(t, WindowIndex::new(3)).unwrap();
        m.set_current(Some(t)).unwrap();
        match m.try_save().unwrap() {
            ExecOutcome::Trapped(trap) => {
                assert!(matches!(trap, WindowTrap::Overflow { .. }));
                let (spills, steals) = m.force_prw_walk().unwrap();
                assert_eq!((spills, steals), (0, 0)); // slot above was free
                m.complete_save().unwrap();
            }
            other => panic!("expected overflow at PRW, got {other:?}"),
        }
        assert_eq!(m.thread(t).unwrap().prw(), Some(WindowIndex::new(2)));
        assert_eq!(m.cwp(), WindowIndex::new(3));
        m.check_invariants().unwrap();
    }

    #[test]
    fn steal_prw_saves_outs_to_tcb() {
        let mut m = Machine::new(8).unwrap();
        m.set_reserved(None).unwrap();
        let t = m.add_thread();
        m.start_initial_frame(t, WindowIndex::new(4)).unwrap();
        m.assign_prw(t, WindowIndex::new(3)).unwrap();
        m.set_current(Some(t)).unwrap();
        m.write_out(2, 555).unwrap(); // lives in the PRW's ins
        m.set_current(None).unwrap();
        m.steal_prw(t).unwrap();
        assert_eq!(m.thread(t).unwrap().tcb_outs()[2], 555);
        assert_eq!(m.thread(t).unwrap().prw(), None);
        assert_eq!(m.slot_use(WindowIndex::new(3)), SlotUse::Free);
    }

    #[test]
    fn tcb_outs_roundtrip_via_save_and_restore() {
        let (mut m, t) = machine_with_thread(8);
        m.write_out(5, 321).unwrap();
        m.save_outs_to_tcb(t).unwrap();
        // Clobber the physical location, then restore from the TCB.
        let above = m.thread(t).unwrap().top().unwrap().above(8);
        assert_eq!(m.regfile.frame(above).ins[5], 321);
        m.restore_outs_from_tcb(t).unwrap();
        assert_eq!(m.read_out(5).unwrap(), 321);
    }

    #[test]
    fn release_thread_frees_all_its_slots() {
        let (mut m, t) = machine_with_thread(8);
        save(&mut m);
        save(&mut m);
        m.release_thread(t).unwrap();
        let live =
            (0..8).filter(|i| matches!(m.slot_use(WindowIndex::new(*i)), SlotUse::Live(_))).count();
        assert_eq!(live, 0);
        assert!(m.current_thread().is_none());
        assert!(m.thread(t).unwrap().terminated());
    }

    #[test]
    fn release_dead_slots_only_affects_that_thread() {
        let (mut m, t) = machine_with_thread(8);
        save(&mut m);
        assert!(matches!(m.try_restore().unwrap(), ExecOutcome::Completed));
        // One dead slot above the top now.
        assert_eq!(m.release_dead_slots(t).unwrap(), 1);
        m.check_invariants().unwrap();
    }

    #[test]
    fn record_context_switch_charges_scheme_cost() {
        let (mut m, t) = machine_with_thread(8);
        m.record_context_switch(Some(t), SchemeKind::Sp, 0, 0);
        assert_eq!(
            m.cycles().category(CycleCategory::ContextSwitch),
            m.cost().switch_sp.cycles(0, 0)
        );
        assert_eq!(m.stats().context_switches, 1);
    }

    #[test]
    fn stats_count_saves_restores_and_traps() {
        let (mut m, t) = machine_with_thread(4);
        for _ in 0..6 {
            save(&mut m);
        }
        assert_eq!(m.stats().saves_executed, 6);
        assert!(m.stats().overflow_traps >= 1);
        assert!(m.stats().overflow_spills >= 1);
        for _ in 0..6 {
            restore_conventional(&mut m, t);
        }
        assert_eq!(m.stats().restores_executed, 6);
        assert!(m.stats().underflow_traps >= 1);
        assert!(m.stats().trap_probability() > 0.0);
    }

    #[test]
    fn grant_slot_rejects_live_slots() {
        let (mut m, t) = machine_with_thread(8);
        let top = m.thread(t).unwrap().top().unwrap();
        assert!(m.grant_slot(t, top).is_err());
    }

    #[test]
    fn set_reserved_rejects_live_slots() {
        let (mut m, t) = machine_with_thread(8);
        let top = m.thread(t).unwrap().top().unwrap();
        assert!(m.set_reserved(Some(top)).is_err());
        let _ = t;
    }

    #[test]
    fn check_invariants_detects_overlapping_and_missing_holders() {
        let (mut m, _t) = machine_with_thread(8);
        // The stack-top window marked free as well: two holders.
        m.free |= m.cwp().bit();
        assert!(m.check_invariants().is_err());
        // A free window dropped from every mask: no holder.
        let (mut m, _t) = machine_with_thread(8);
        m.free &= m.free - 1;
        assert!(m.check_invariants().is_err());
    }

    #[test]
    fn discardable_count_matches_slot_uses() {
        let (mut m, t) = machine_with_thread(8);
        let scan = |m: &Machine| {
            (0..8).filter(|&w| m.slot_use(WindowIndex::new(w)).is_discardable()).count()
        };
        assert_eq!(m.discardable_windows(), scan(&m));
        for _ in 0..3 {
            save(&mut m);
        }
        m.check_invariants().unwrap();
        assert_eq!(m.discardable_windows(), scan(&m));
        m.release_thread(t).unwrap();
        assert_eq!(m.discardable_windows(), 8);
    }

    #[test]
    fn out_of_range_windows_are_typed_errors_not_panics() {
        let mut m = Machine::new(4).unwrap();
        let t = m.add_thread();
        let bad = WindowIndex::new(99);
        let expect = Err(MachineError::BadWindowIndex { window: 99, nwindows: 4 });
        assert_eq!(m.start_initial_frame(t, bad), expect);
        assert_eq!(m.restore_into(t, bad, TransferReason::Switch), expect);
        assert_eq!(m.grant_slot(t, bad), expect);
        assert_eq!(m.set_reserved(Some(bad)), expect);
        assert_eq!(m.assign_prw(t, bad), expect);
    }

    #[test]
    fn injected_spill_failure_surfaces_as_typed_error() {
        use crate::fault::{FaultSchedule, TransferFault};
        let (mut m, t) = machine_with_thread(4);
        m.set_fault_schedule(Some(FaultSchedule::new().on_spill(0, TransferFault::Fail)));
        save(&mut m);
        save(&mut m);
        // The machine is full; the next save's overflow walk must spill —
        // and that spill is scheduled to fail.
        match m.try_save().unwrap() {
            ExecOutcome::Trapped(_) => {
                assert_eq!(
                    m.force_reserved_walk(),
                    Err(MachineError::FaultInjected { site: "spill", index: 0 })
                );
            }
            other => panic!("expected overflow, got {other:?}"),
        }
        let _ = t;
    }

    #[test]
    fn injected_trap_drop_surfaces_as_typed_error() {
        use crate::fault::FaultSchedule;
        let (mut m, _t) = machine_with_thread(4);
        save(&mut m);
        save(&mut m);
        // The next save traps; its delivery is scheduled to drop.
        m.set_fault_schedule(Some(FaultSchedule::new().on_trap_drop(0)));
        assert_eq!(m.try_save(), Err(MachineError::FaultInjected { site: "trap", index: 0 }));
    }

    #[test]
    fn corrupting_spill_then_fill_with_same_mask_roundtrips() {
        use crate::fault::{FaultSchedule, TransferFault};
        let (mut m, t) = machine_with_thread(8);
        m.write_local(0, 0xabcd).unwrap();
        save(&mut m);
        // Corrupt the frame on the way out AND on the way back in with
        // the same mask: XOR twice is the identity, so the refilled
        // values must be intact (corrupt_frame is self-inverse).
        m.set_fault_schedule(Some(
            FaultSchedule::new()
                .on_spill(0, TransferFault::Corrupt { xor: 0x5555 })
                .on_fill(0, TransferFault::Corrupt { xor: 0x5555 }),
        ));
        let bottom = m.thread(t).unwrap().bottom(8).unwrap();
        m.spill_bottom(t, TransferReason::Switch).unwrap();
        m.restore_into(t, bottom, TransferReason::Switch).unwrap();
        // The outer frame (the corrupted+restored one) holds 0xabcd.
        assert_eq!(m.regfile.frame(bottom).locals[0], 0xabcd);
        m.check_invariants().unwrap();
    }

    #[test]
    fn probe_counters_agree_with_machine_stats() {
        use regwin_obs::MetricProbe;
        let (mut m, t) = machine_with_thread(4);
        let probe = Arc::new(MetricProbe::new());
        m.set_probe(Some(probe.clone()));
        for _ in 0..6 {
            save(&mut m);
        }
        for _ in 0..5 {
            restore_conventional(&mut m, t);
        }
        m.record_context_switch(Some(t), SchemeKind::Snp, 1, 1);
        m.flush_probe();
        let snap = probe.snapshot();
        let stats = m.stats();
        // Direct counters must agree exactly — but note the probe was
        // installed after machine_with_thread, so compare event deltas
        // generated since (which is all of them: the helper performs no
        // saves/restores).
        assert_eq!(snap.get(Metric::SavesExecuted), stats.saves_executed);
        assert_eq!(snap.get(Metric::RestoresExecuted), stats.restores_executed);
        assert_eq!(snap.get(Metric::OverflowTraps), stats.overflow_traps);
        assert_eq!(snap.get(Metric::UnderflowTraps), stats.underflow_traps);
        assert_eq!(snap.get(Metric::OverflowSpills), stats.overflow_spills);
        assert_eq!(snap.get(Metric::UnderflowRestores), stats.underflow_restores);
        assert_eq!(snap.get(Metric::ContextSwitches), stats.context_switches);
        assert_eq!(snap.get(Metric::SwitchSaves), stats.switch_saves);
        assert_eq!(snap.get(Metric::SwitchRestores), stats.switch_restores);
        // Cycle attribution must agree with the counter per category.
        for cat in CycleCategory::ALL {
            assert_eq!(snap.get(cat.metric()), m.cycles().category(cat), "{cat:?}");
        }
        // And with the stats/counter as_metrics views.
        let view = stats.as_metrics();
        for (metric, total) in view.iter_nonzero() {
            assert_eq!(snap.get(metric), total, "{metric}");
        }
        for (metric, total) in m.cycles().as_metrics().iter_nonzero() {
            assert_eq!(snap.get(metric), total, "{metric}");
        }
        // Byte transfers: every spill/fill in this test came from a trap
        // handler and moves one 128-byte frame.
        assert_eq!(snap.get(Metric::SpillBytes), stats.overflow_spills * FRAME_BYTES);
        assert_eq!(snap.get(Metric::FillBytes), stats.underflow_restores * FRAME_BYTES);
    }

    #[test]
    fn cloned_machine_shares_the_probe() {
        use regwin_obs::MetricProbe;
        let (mut m, _t) = machine_with_thread(8);
        let probe = Arc::new(MetricProbe::new());
        m.set_probe(Some(probe.clone()));
        let mut clone = m.clone();
        save(&mut clone);
        clone.flush_probe();
        assert_eq!(probe.snapshot().get(Metric::SavesExecuted), 1);
        assert!(m.probe().is_some());
    }

    #[test]
    fn corrupting_spill_alone_perturbs_the_refilled_frame() {
        use crate::fault::{FaultSchedule, TransferFault};
        let (mut m, t) = machine_with_thread(8);
        m.write_local(0, 0xabcd).unwrap();
        save(&mut m);
        m.set_fault_schedule(Some(
            FaultSchedule::new().on_spill(0, TransferFault::Corrupt { xor: 0xff }),
        ));
        let bottom = m.thread(t).unwrap().bottom(8).unwrap();
        m.spill_bottom(t, TransferReason::Switch).unwrap();
        m.restore_into(t, bottom, TransferReason::Switch).unwrap();
        assert_eq!(m.regfile.frame(bottom).locals[0], 0xabcd ^ 0xff);
        // Structural invariants hold even with corrupted data — the
        // fault perturbs values, never bookkeeping.
        m.check_invariants().unwrap();
    }

    #[test]
    fn auditor_repairs_corrupted_spill_at_spill_time() {
        use crate::fault::{FaultSchedule, TransferFault};
        let (mut m, t) = machine_with_thread(8);
        m.enable_auditor();
        m.write_local(0, 0xabcd).unwrap();
        save(&mut m);
        m.set_fault_schedule(Some(
            FaultSchedule::new().on_spill(0, TransferFault::Corrupt { xor: 0xff }),
        ));
        let bottom = m.thread(t).unwrap().bottom(8).unwrap();
        let pristine = m.regfile.frame(bottom);
        m.spill_bottom(t, TransferReason::Switch).unwrap();
        // The corrupted transfer was detected against the pristine
        // checksum and repaired before the pristine copy was lost.
        assert_eq!(m.backing_of(t).unwrap().peek(), Some(&pristine));
        assert_eq!(m.auditor().unwrap().repairs(), 1);
        m.restore_into(t, bottom, TransferReason::Switch).unwrap();
        assert_eq!(m.regfile.frame(bottom).locals[0], 0xabcd);
        m.check_invariants().unwrap();
    }

    #[test]
    fn auditor_repairs_corrupted_fill_on_audit() {
        use crate::fault::{FaultSchedule, TransferFault};
        let (mut m, t) = machine_with_thread(8);
        m.enable_auditor();
        m.write_local(0, 0xabcd).unwrap();
        save(&mut m);
        m.set_fault_schedule(Some(
            FaultSchedule::new().on_fill(0, TransferFault::Corrupt { xor: 0xff }),
        ));
        let bottom = m.thread(t).unwrap().bottom(8).unwrap();
        m.spill_bottom(t, TransferReason::Switch).unwrap();
        m.restore_into(t, bottom, TransferReason::Switch).unwrap();
        // Corrupted in transfer: the live frame is wrong until audited.
        assert_eq!(m.regfile.frame(bottom).locals[0], 0xabcd ^ 0xff);
        assert_eq!(m.audit_thread(t).unwrap(), 1);
        assert_eq!(m.regfile.frame(bottom).locals[0], 0xabcd);
        assert_eq!(m.auditor().unwrap().repairs(), 1);
        // A second pass finds nothing left to repair.
        assert_eq!(m.audit_thread(t).unwrap(), 0);
    }

    #[test]
    fn auditor_reports_dirty_window_corruption_as_unrecoverable() {
        use crate::fault::FaultSchedule;
        let (mut m, t) = machine_with_thread(8);
        m.enable_auditor();
        m.set_fault_schedule(Some(FaultSchedule::new().on_resident_corrupt(0, 0xff)));
        save(&mut m); // save 0: the new current window is hit in place
        let window = m.cwp();
        assert_eq!(
            m.audit_current(),
            Err(MachineError::UnrecoverableCorruption { window, owner: t })
        );
        assert_eq!(m.auditor().unwrap().repairs(), 0);
    }

    #[test]
    fn probe_counters_are_buffered_until_flush() {
        use regwin_obs::MetricProbe;
        let (mut m, _t) = machine_with_thread(8);
        let probe = Arc::new(MetricProbe::new());
        m.set_probe(Some(probe.clone()));
        save(&mut m);
        // Nothing reaches the probe until the flush delivers the batch.
        assert_eq!(probe.snapshot().get(Metric::SavesExecuted), 0);
        m.flush_probe();
        assert_eq!(probe.snapshot().get(Metric::SavesExecuted), 1);
        // Replacing the probe flushes what the old one is still owed.
        save(&mut m);
        m.set_probe(None);
        assert_eq!(probe.snapshot().get(Metric::SavesExecuted), 2);
    }

    #[test]
    fn no_checksums_are_computed_between_audit_points() {
        use crate::fault::{FaultSchedule, TransferFault};
        let (mut m, t) = machine_with_thread(8);
        m.enable_auditor();
        let base = m.auditor().unwrap().checksums();
        // A burst of register writes, saves and restores between two
        // audit points computes no checksum at all: each write costs one
        // pending-bit OR, each save a placeholder tag.
        for _ in 0..100 {
            m.write_local(0, 7).unwrap();
            m.write_in(1, 9).unwrap();
            m.write_out(2, 11).unwrap();
        }
        save(&mut m);
        m.write_local(3, 13).unwrap();
        restore_conventional(&mut m, t);
        assert_eq!(m.auditor().unwrap().checksums(), base);
        // Fault-free audit points are just as free: no window is
        // suspect, so the pass is a single bitmask test.
        assert_eq!(m.audit_thread(t).unwrap(), 0);
        assert_eq!(m.auditor().unwrap().checksums(), base);
        // Only a corruption-capable transfer makes an audit pay. A
        // corrupted fill marks its window suspect; the fill itself
        // still computes nothing.
        m.set_fault_schedule(Some(
            FaultSchedule::new().on_fill(0, TransferFault::Corrupt { xor: 0xff }),
        ));
        let bottom = m.thread(t).unwrap().bottom(8).unwrap();
        m.spill_bottom(t, TransferReason::Switch).unwrap();
        m.restore_into(t, bottom, TransferReason::Switch).unwrap();
        assert_eq!(m.auditor().unwrap().checksums(), base);
        assert!(m.auditor().unwrap().is_suspect(bottom));
        // The audit verifies exactly the one suspect window (and
        // repairs it), then the steady state is free again.
        assert_eq!(m.audit_thread(t).unwrap(), 1);
        let after = m.auditor().unwrap().checksums();
        assert!(after > base);
        assert_eq!(m.audit_thread(t).unwrap(), 0);
        assert_eq!(m.auditor().unwrap().checksums(), after);
    }

    /// Drives two threads through an NS-style run on 8 windows: each
    /// turn the current thread calls 12 deep (overflowing through the
    /// reservation walk), returns 9 (underflowing in place), and is then
    /// flushed to memory while the other thread's top frame is filled
    /// back in. Every fill is audited before the thread touches it. At
    /// the start of turn `audit_from` (if any) the auditor is enabled —
    /// by then both threads have frames spilled — and `faults` is
    /// installed.
    fn ns_run(audit_from: Option<usize>, faults: Option<FaultSchedule>) -> Machine {
        let n = 8;
        let mut m = Machine::new(n).unwrap();
        let threads = [m.add_thread(), m.add_thread()];
        let r = m.reserved().unwrap();
        m.start_initial_frame(threads[0], r.below(n)).unwrap();
        m.start_initial_frame(threads[1], r.below(n).below(n)).unwrap();
        m.flush_thread(threads[1], TransferReason::Switch).unwrap();
        m.set_current(Some(threads[0])).unwrap();
        for turn in 0..20 {
            if audit_from == Some(turn) {
                m.enable_auditor();
                m.set_fault_schedule(faults.clone());
            }
            let (t, next) = (threads[turn % 2], threads[(turn + 1) % 2]);
            for depth in 0..12u64 {
                save(&mut m);
                m.write_local(0, turn as u64 * 100 + depth).unwrap();
            }
            for _ in 0..9 {
                if let ExecOutcome::Trapped(_) = m.try_restore().unwrap() {
                    m.inplace_underflow(true).unwrap();
                }
                m.audit_current().unwrap();
                m.check_invariants().unwrap();
            }
            m.flush_thread(t, TransferReason::Switch).unwrap();
            m.release_dead_slots(t).unwrap();
            let slot = m.reserved().unwrap().below(n);
            m.restore_into(next, slot, TransferReason::Switch).unwrap();
            m.set_current(Some(next)).unwrap();
            m.audit_current().unwrap();
            m.check_invariants().unwrap();
        }
        m
    }

    #[test]
    fn an_unaudited_fault_free_run_computes_no_checksum() {
        use crate::audit::tests::checksums_computed;
        let before = checksums_computed();
        let m = ns_run(None, None);
        assert!(m.stats().overflow_spills > 50 && m.stats().underflow_restores > 50);
        assert_eq!(checksums_computed(), before, "unaudited run hashed a frame");
        // The same run audited from the start pays for its fills' references.
        let before = checksums_computed();
        ns_run(Some(0), None);
        assert!(checksums_computed() > before);
    }

    #[test]
    fn auditing_enabled_mid_run_still_repairs_corrupted_fills() {
        use crate::fault::TransferFault;
        let corrupt = TransferFault::Corrupt { xor: 0xdead_beef };
        let faults = (0..4).fold(FaultSchedule::new(), |f, at| f.on_fill(at, corrupt));
        let clean = ns_run(None, None);
        let audited = ns_run(Some(5), Some(faults));
        assert_eq!(audited.auditor().unwrap().repairs(), 4);
        assert_eq!(audited.stats(), clean.stats());
        assert_eq!(audited.cycles(), clean.cycles());
        for t in 0..2 {
            let t = ThreadId::new(t);
            assert_eq!(audited.backing_of(t).unwrap(), clean.backing_of(t).unwrap());
            let live = audited.live_windows_of(t).unwrap();
            assert_eq!(live, clean.live_windows_of(t).unwrap());
            for w in live {
                assert_eq!(audited.regfile.frame(w), clean.regfile.frame(w), "window {w} of {t:?}");
            }
        }
    }

    #[test]
    fn audit_is_a_noop_without_auditor() {
        use crate::fault::FaultSchedule;
        let (mut m, _t) = machine_with_thread(8);
        m.set_fault_schedule(Some(FaultSchedule::new().on_resident_corrupt(0, 0xff)));
        save(&mut m);
        assert_eq!(m.audit_current(), Ok(0));
        assert!(m.auditor().is_none());
    }
}
