//! The CPU: a machine plus a window-management scheme, with traps
//! resolved transparently.

use crate::error::SchemeError;
use crate::restore_emul::RestoreInstr;
use crate::scheme::{Scheme, UnderflowResolution};
use regwin_machine::{ExecOutcome, FaultSchedule, Machine, MachineConfig, MachineStats, ThreadId};
use regwin_obs::{Probe, ProbeEvent, SpanKind};
use std::sync::Arc;

/// A simulated CPU: composes a [`Machine`] with a [`Scheme`] so that
/// callers see trap-free `save`/`restore`/`switch_to` operations, the way
/// application code sees a real SPARC whose kernel installed the paper's
/// trap handlers.
///
/// ```rust
/// use regwin_traps::{Cpu, SnpScheme};
///
/// # fn main() -> Result<(), regwin_traps::SchemeError> {
/// let mut cpu = Cpu::new(8, Box::new(SnpScheme::new()))?;
/// let t = cpu.add_thread();
/// cpu.switch_to(t)?;
/// cpu.save()?;
/// cpu.write_local(0, 42)?;
/// cpu.restore()?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Cpu {
    machine: Machine,
    scheme: Box<dyn Scheme>,
}

impl Cpu {
    /// Creates a CPU with `nwindows` windows, the default machine
    /// configuration (S-20 cost model, flat `s20` timing backend) and
    /// the given scheme.
    ///
    /// # Errors
    ///
    /// Fails if the window count is out of range or below the scheme's
    /// minimum.
    pub fn new(nwindows: usize, scheme: Box<dyn Scheme>) -> Result<Self, SchemeError> {
        Self::with_config(MachineConfig::new(nwindows), scheme)
    }

    /// Creates a CPU from an explicit [`MachineConfig`] (cost model and
    /// timing backend).
    ///
    /// # Errors
    ///
    /// Fails if the window count is out of range or below the scheme's
    /// minimum.
    pub fn with_config(
        config: MachineConfig,
        mut scheme: Box<dyn Scheme>,
    ) -> Result<Self, SchemeError> {
        if config.nwindows < scheme.min_windows() {
            return Err(SchemeError::TooFewWindows {
                have: config.nwindows,
                need: scheme.min_windows(),
            });
        }
        let mut machine = Machine::with_config(config)?;
        scheme.init(&mut machine)?;
        Ok(Cpu { machine, scheme })
    }

    /// Registers a new thread.
    pub fn add_thread(&mut self) -> ThreadId {
        self.machine.add_thread()
    }

    /// The underlying machine (read-only).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Installs (or with `None` removes) a deterministic fault schedule
    /// on the underlying machine; see
    /// [`regwin_machine::FaultSchedule`].
    pub fn set_fault_schedule(&mut self, faults: Option<FaultSchedule>) {
        self.machine.set_fault_schedule(faults);
    }

    /// Installs (or with `None` removes) an instrumentation probe on the
    /// underlying machine. Besides the machine's own counters, the CPU
    /// reports a `Trap` span around every overflow/underflow handler
    /// invocation and a `Switch` span around every context switch, each
    /// carrying the simulated cycles the scheme spent inside. Machine
    /// counter deltas are batched and reach the probe at span boundaries
    /// (or an explicit [`Cpu::flush_probe`]), not one dispatch per event.
    pub fn set_probe(&mut self, probe: Option<Arc<dyn Probe>>) {
        self.machine.set_probe(probe);
    }

    /// Delivers the machine's buffered counter deltas to the installed
    /// probe; see [`regwin_machine::Machine::flush_probe`]. Spans flush
    /// automatically on both sides — call this only at a boundary of
    /// your own, e.g. before reading a metric snapshot mid-run.
    pub fn flush_probe(&mut self) {
        self.machine.flush_probe();
    }

    /// Opens a span on the installed probe and returns the state needed
    /// to close it: the probe handle and the cycle total at entry.
    /// Buffered counter deltas are flushed first, so events charged
    /// before the span stay outside it. Without a probe nothing is
    /// buffered, so this is one `Option` check.
    fn span_open(&mut self, kind: SpanKind, name: &'static str) -> Option<(Arc<dyn Probe>, u64)> {
        let probe = self.machine.probe()?.clone();
        self.machine.flush_probe();
        probe.record(&ProbeEvent::SpanStart { kind, name });
        Some((probe, self.machine.cycles().total()))
    }

    /// Closes a span opened with [`Cpu::span_open`], attributing the
    /// cycles charged in between. Counter deltas buffered inside the
    /// span are flushed before the `SpanEnd`, so they land inside it.
    fn span_close(
        &mut self,
        open: Option<(Arc<dyn Probe>, u64)>,
        kind: SpanKind,
        name: &'static str,
    ) {
        if let Some((probe, before)) = open {
            self.machine.flush_probe();
            let cycles = self.machine.cycles().total().saturating_sub(before);
            probe.record(&ProbeEvent::SpanEnd { kind, name, cycles });
        }
    }

    /// The currently running thread.
    pub fn current_thread(&self) -> Option<ThreadId> {
        self.machine.current_thread()
    }

    /// Enables window-state integrity auditing on the underlying machine
    /// (see [`regwin_machine::WindowAuditor`]). From now on the CPU
    /// audits the affected thread's live windows at every trap boundary
    /// (after overflow/underflow resolution) and on both sides of every
    /// context switch, repairing clean windows from the backing stack
    /// and surfacing dirty-window corruption as a typed error.
    pub fn enable_window_audit(&mut self) {
        self.machine.enable_auditor();
    }

    /// Total windows repaired by the auditor so far (0 when auditing is
    /// not enabled).
    pub fn window_repairs(&self) -> u64 {
        self.machine.auditor().map_or(0, |a| a.repairs())
    }

    /// Runs one on-demand audit pass over thread `t`; see
    /// [`regwin_machine::Machine::audit_thread`]. A no-op without
    /// auditing enabled.
    ///
    /// # Errors
    ///
    /// Propagates [`regwin_machine::MachineError::UnrecoverableCorruption`]
    /// for corrupted dirty windows.
    pub fn audit_thread(&mut self, t: ThreadId) -> Result<u64, SchemeError> {
        let span = self.audit_span_open();
        let repaired = self.machine.audit_thread(t)?;
        self.span_close(span, SpanKind::Audit, "audit");
        Ok(repaired)
    }

    /// Audits the current thread at a trap or switch boundary; a no-op
    /// when auditing is off or no thread is current.
    fn audit_current(&mut self) -> Result<(), SchemeError> {
        let span = self.audit_span_open();
        self.machine.audit_current()?;
        self.span_close(span, SpanKind::Audit, "audit");
        Ok(())
    }

    /// Opens an `Audit` span only when there is something to observe:
    /// auditing enabled and a probe installed.
    fn audit_span_open(&mut self) -> Option<(Arc<dyn Probe>, u64)> {
        if self.machine.auditor().is_some() {
            self.span_open(SpanKind::Audit, "audit")
        } else {
            None
        }
    }

    /// Releases every window and memory frame of thread `t` without it
    /// being current — the quarantine primitive: when a thread's window
    /// state is unrecoverably corrupt, the runtime evicts it from the
    /// register file wholesale (its windows become free for the healthy
    /// threads; nothing is flushed, the data is untrustworthy anyway).
    ///
    /// # Errors
    ///
    /// Fails for an unknown thread id.
    pub fn release_thread(&mut self, t: ThreadId) -> Result<(), SchemeError> {
        Ok(self.machine.release_thread(t)?)
    }

    /// Executes a `save` (procedure entry), resolving any overflow trap
    /// through the scheme.
    ///
    /// # Errors
    ///
    /// Fails if no thread is current or the scheme hits a broken
    /// invariant.
    pub fn save(&mut self) -> Result<(), SchemeError> {
        match self.machine.try_save()? {
            ExecOutcome::Completed => Ok(()),
            ExecOutcome::Trapped(trap) => {
                let span = self.span_open(SpanKind::Trap, "overflow");
                self.scheme.on_overflow(&mut self.machine, trap)?;
                self.machine.complete_save()?;
                self.span_close(span, SpanKind::Trap, "overflow");
                self.audit_current()?;
                Ok(())
            }
        }
    }

    /// Executes a plain `restore` (procedure return), resolving any
    /// underflow trap through the scheme.
    ///
    /// # Errors
    ///
    /// Fails on a return past the thread's outermost frame.
    pub fn restore(&mut self) -> Result<(), SchemeError> {
        self.restore_with(&RestoreInstr::trivial())
    }

    /// Executes a `restore` carrying add semantics (the peephole-optimised
    /// form of paper §4.3): when the restore completes without trapping
    /// the add is applied directly; when it traps, the scheme's handler
    /// emulates it.
    ///
    /// # Errors
    ///
    /// Fails on a return past the thread's outermost frame.
    pub fn restore_with(&mut self, instr: &RestoreInstr) -> Result<(), SchemeError> {
        // Sources are read in the callee's window, which the restore (or
        // the in-place handler) replaces — read them up front.
        let result =
            if instr.is_trivial() { None } else { Some(instr.read_sources(&self.machine)?) };
        match self.machine.try_restore()? {
            ExecOutcome::Completed => {
                if let Some(v) = result {
                    instr.write_destination(&mut self.machine, v)?;
                }
                Ok(())
            }
            ExecOutcome::Trapped(trap) => {
                let span = self.span_open(SpanKind::Trap, "underflow");
                match self.scheme.on_underflow(&mut self.machine, trap, instr)? {
                    UnderflowResolution::AlreadyComplete => {
                        self.span_close(span, SpanKind::Trap, "underflow");
                        self.audit_current()?;
                        Ok(())
                    }
                    UnderflowResolution::CompleteRestore => {
                        self.machine.complete_restore()?;
                        if let Some(v) = result {
                            instr.write_destination(&mut self.machine, v)?;
                        }
                        self.span_close(span, SpanKind::Trap, "underflow");
                        self.audit_current()?;
                        Ok(())
                    }
                }
            }
        }
    }

    /// Switches to thread `to` (no-op if already current), applying the
    /// scheme's context-switch policy and cost.
    ///
    /// # Errors
    ///
    /// Fails if no window can be allocated for `to`.
    pub fn switch_to(&mut self, to: ThreadId) -> Result<(), SchemeError> {
        let from = self.machine.current_thread();
        if from == Some(to) {
            return Ok(());
        }
        // Audit the outgoing thread before its windows are disturbed and
        // the incoming one once it is resumed, so corruption is pinned to
        // the thread that owned the CPU when it happened.
        if let Some(f) = from {
            let span = self.audit_span_open();
            self.machine.audit_thread(f)?;
            self.span_close(span, SpanKind::Audit, "audit");
        }
        let span = self.span_open(SpanKind::Switch, "switch");
        self.scheme.context_switch(&mut self.machine, from, to)?;
        self.span_close(span, SpanKind::Switch, "switch");
        self.audit_current()?;
        Ok(())
    }

    /// Terminates the current thread, releasing all its windows and
    /// memory frames. The CPU is left with no current thread; switch to
    /// another thread to continue.
    ///
    /// # Errors
    ///
    /// Fails if no thread is current.
    pub fn terminate_current(&mut self) -> Result<ThreadId, SchemeError> {
        let t = self.machine.current_thread().ok_or(SchemeError::NoCurrentThread)?;
        self.machine.release_thread(t)?;
        Ok(t)
    }

    /// Charges application compute cycles.
    pub fn compute(&mut self, cycles: u64) {
        self.machine.compute(cycles);
    }

    /// Advances the machine's clock to an externally supplied `tick`,
    /// charging the gap as bus-stall idle time; see
    /// [`regwin_machine::Machine::step_to_tick`]. Returns the cycles
    /// charged.
    pub fn step_to_tick(&mut self, tick: u64) -> u64 {
        self.machine.step_to_tick(tick)
    }

    /// Reads `local` register `reg` of the current window.
    ///
    /// # Errors
    ///
    /// Fails if no thread is current.
    pub fn read_local(&self, reg: usize) -> Result<u64, SchemeError> {
        Ok(self.machine.read_local(reg)?)
    }

    /// Writes `local` register `reg` of the current window.
    ///
    /// # Errors
    ///
    /// Fails if no thread is current.
    pub fn write_local(&mut self, reg: usize, value: u64) -> Result<(), SchemeError> {
        Ok(self.machine.write_local(reg, value)?)
    }

    /// Reads `in` register `reg` of the current window.
    ///
    /// # Errors
    ///
    /// Fails if no thread is current.
    pub fn read_in(&self, reg: usize) -> Result<u64, SchemeError> {
        Ok(self.machine.read_in(reg)?)
    }

    /// Writes `in` register `reg` of the current window.
    ///
    /// # Errors
    ///
    /// Fails if no thread is current.
    pub fn write_in(&mut self, reg: usize, value: u64) -> Result<(), SchemeError> {
        Ok(self.machine.write_in(reg, value)?)
    }

    /// Reads `out` register `reg` of the current window.
    ///
    /// # Errors
    ///
    /// Fails if no thread is current.
    pub fn read_out(&self, reg: usize) -> Result<u64, SchemeError> {
        Ok(self.machine.read_out(reg)?)
    }

    /// Writes `out` register `reg` of the current window.
    ///
    /// # Errors
    ///
    /// Fails if no thread is current.
    pub fn write_out(&mut self, reg: usize, value: u64) -> Result<(), SchemeError> {
        Ok(self.machine.write_out(reg, value)?)
    }

    /// Reads global register `reg` (`%g0` always reads zero).
    pub fn read_global(&self, reg: usize) -> u64 {
        self.machine.read_global(reg)
    }

    /// Writes global register `reg` (writes to `%g0` are discarded).
    pub fn write_global(&mut self, reg: usize, value: u64) {
        self.machine.write_global(reg, value);
    }

    /// The machine's event statistics.
    pub fn stats(&self) -> &MachineStats {
        self.machine.stats()
    }

    /// Total simulated cycles so far.
    pub fn total_cycles(&self) -> u64 {
        self.machine.cycles().total()
    }

    /// Verifies all machine invariants (tests/diagnostics).
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), SchemeError> {
        Ok(self.machine.check_invariants()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::restore_emul::{Operand, Reg};
    use crate::schemes::{NsScheme, SnpScheme, SpScheme};

    fn all_cpus(n: usize) -> Vec<Cpu> {
        vec![
            Cpu::new(n, Box::new(NsScheme::new())).unwrap(),
            Cpu::new(n, Box::new(SnpScheme::new())).unwrap(),
            Cpu::new(n, Box::new(SpScheme::new())).unwrap(),
        ]
    }

    #[test]
    fn switch_to_current_thread_is_a_noop() {
        for mut cpu in all_cpus(8) {
            let t = cpu.add_thread();
            cpu.switch_to(t).unwrap();
            let switches = cpu.stats().context_switches;
            cpu.switch_to(t).unwrap();
            assert_eq!(cpu.stats().context_switches, switches);
        }
    }

    #[test]
    fn restore_with_add_semantics_works_trap_free_and_trapped() {
        for mut cpu in all_cpus(4) {
            let t = cpu.add_thread();
            cpu.switch_to(t).unwrap();
            // Trap-free: save then restore with an add.
            cpu.save().unwrap();
            cpu.write_local(0, 20).unwrap();
            let instr = RestoreInstr::new(Reg::L(0), Operand::Imm(2), Reg::O(0));
            cpu.restore_with(&instr).unwrap();
            assert_eq!(cpu.read_out(0).unwrap(), 22);
            // Trapped: recurse past the file, unwind with adds.
            for _ in 0..6 {
                cpu.save().unwrap();
            }
            let traps_before = cpu.stats().underflow_traps;
            for _ in 0..6 {
                cpu.write_local(0, 30).unwrap();
                let instr = RestoreInstr::new(Reg::L(0), Operand::Imm(5), Reg::O(3));
                cpu.restore_with(&instr).unwrap();
                assert_eq!(cpu.read_out(3).unwrap(), 35, "{:?}", cpu.scheme.kind());
            }
            assert!(cpu.stats().underflow_traps > traps_before);
            cpu.check_invariants().unwrap();
        }
    }

    #[test]
    fn terminate_releases_windows_for_subsequent_threads() {
        for mut cpu in all_cpus(8) {
            let a = cpu.add_thread();
            let b = cpu.add_thread();
            cpu.switch_to(a).unwrap();
            cpu.save().unwrap();
            let done = cpu.terminate_current().unwrap();
            assert_eq!(done, a);
            assert!(cpu.current_thread().is_none());
            cpu.switch_to(b).unwrap();
            cpu.save().unwrap();
            cpu.restore().unwrap();
            cpu.check_invariants().unwrap();
        }
    }

    #[test]
    fn total_cycles_accumulate() {
        for mut cpu in all_cpus(8) {
            let t = cpu.add_thread();
            cpu.switch_to(t).unwrap();
            let c0 = cpu.total_cycles();
            cpu.compute(1000);
            cpu.save().unwrap();
            cpu.restore().unwrap();
            assert!(cpu.total_cycles() >= c0 + 1002);
        }
    }

    #[test]
    fn trap_spans_carry_the_cycles_the_counter_attributes() {
        use regwin_machine::CycleCategory;
        use regwin_obs::{OwnedProbeEvent, RecordingProbe};
        for mut cpu in all_cpus(4) {
            let probe = Arc::new(RecordingProbe::new());
            cpu.set_probe(Some(probe.clone()));
            let t = cpu.add_thread();
            cpu.switch_to(t).unwrap();
            for _ in 0..6 {
                cpu.save().unwrap();
            }
            for _ in 0..6 {
                cpu.restore().unwrap();
            }
            // Every taken trap produced one span; the summed span cycles
            // equal the trap-category cycle attribution (overflow and
            // underflow handlers charge only their own categories).
            let span_cycles: u64 = probe
                .events()
                .iter()
                .map(|e| match e {
                    OwnedProbeEvent::SpanEnd { kind: SpanKind::Trap, cycles, .. } => *cycles,
                    _ => 0,
                })
                .sum();
            // The spans also cover the WindowInstr cycles of the
            // re-executed save/restore inside the handler, so the summed
            // span cycles bound the trap-category attribution from above.
            let trap_cycles = cpu.machine().cycles().category(CycleCategory::OverflowTrap)
                + cpu.machine().cycles().category(CycleCategory::UnderflowTrap);
            let traps = cpu.stats().overflow_traps + cpu.stats().underflow_traps;
            assert_eq!(probe.span_count(SpanKind::Trap) as u64, traps, "{:?}", cpu.scheme.kind());
            assert!(span_cycles >= trap_cycles, "{:?}", cpu.scheme.kind());
            assert!(trap_cycles > 0, "{:?}", cpu.scheme.kind());
            cpu.check_invariants().unwrap();
        }
    }

    #[test]
    fn switch_spans_cover_every_context_switch() {
        use regwin_obs::RecordingProbe;
        for mut cpu in all_cpus(8) {
            let probe = Arc::new(RecordingProbe::new());
            cpu.set_probe(Some(probe.clone()));
            let a = cpu.add_thread();
            let b = cpu.add_thread();
            cpu.switch_to(a).unwrap();
            cpu.switch_to(b).unwrap();
            cpu.switch_to(b).unwrap(); // no-op: not a switch, no span
            cpu.switch_to(a).unwrap();
            assert_eq!(
                probe.span_count(SpanKind::Switch) as u64,
                cpu.stats().context_switches,
                "{:?}",
                cpu.scheme.kind()
            );
        }
    }

    /// Cross-scheme differential test: the same call/return/switch trace
    /// must produce identical register observations under all three
    /// schemes (the schemes differ in cost, never in semantics).
    #[test]
    fn schemes_agree_on_register_semantics() {
        let trace: Vec<(usize, &str)> = vec![
            (0, "call"),
            (0, "call"),
            (1, "sched"),
            (1, "call"),
            (0, "sched"),
            (0, "ret"),
            (2, "sched"),
            (2, "call"),
            (2, "call"),
            (1, "sched"),
            (1, "ret"),
            (0, "sched"),
            (0, "ret"),
            (2, "sched"),
            (2, "ret"),
            (2, "ret"),
            (1, "sched"),
            (0, "sched"),
            (0, "call"),
        ];
        let mut observations: Vec<Vec<u64>> = Vec::new();
        for mut cpu in all_cpus(5) {
            let threads: Vec<_> = (0..3).map(|_| cpu.add_thread()).collect();
            let mut obs = Vec::new();
            let mut counter = 0u64;
            cpu.switch_to(threads[0]).unwrap();
            for (tid, op) in &trace {
                let t = threads[*tid];
                match *op {
                    "sched" => cpu.switch_to(t).unwrap(),
                    "call" => {
                        cpu.switch_to(t).unwrap();
                        counter += 1;
                        cpu.write_out(0, counter).unwrap();
                        cpu.save().unwrap();
                        obs.push(cpu.read_in(0).unwrap()); // argument arrived
                        cpu.write_local(0, counter).unwrap();
                    }
                    "ret" => {
                        cpu.switch_to(t).unwrap();
                        counter += 1;
                        cpu.write_in(0, counter).unwrap();
                        cpu.restore().unwrap();
                        obs.push(cpu.read_out(0).unwrap()); // return value
                        obs.push(cpu.read_local(0).unwrap()); // caller's local
                    }
                    _ => unreachable!(),
                }
                cpu.check_invariants().unwrap();
            }
            observations.push(obs);
        }
        assert_eq!(observations[0], observations[1], "NS vs SNP");
        assert_eq!(observations[0], observations[2], "NS vs SP");
    }

    #[test]
    fn audited_cpu_repairs_masked_fill_corruption_transparently() {
        use regwin_machine::TransferFault;
        for mut cpu in all_cpus(4) {
            cpu.enable_window_audit();
            // Corrupt the first three fill transfers; the audit pass at
            // each underflow-trap boundary must repair them before the
            // application reads the restored registers.
            let mut faults = FaultSchedule::new();
            for i in 0..3 {
                faults = faults.on_fill(i, TransferFault::Corrupt { xor: 0xdead });
            }
            cpu.set_fault_schedule(Some(faults));
            let t = cpu.add_thread();
            cpu.switch_to(t).unwrap();
            cpu.write_local(0, 100).unwrap();
            for depth in 2..=8u64 {
                cpu.save().unwrap();
                cpu.write_local(0, 100 * depth).unwrap();
            }
            for depth in (1..=7u64).rev() {
                cpu.restore().unwrap();
                assert_eq!(
                    cpu.read_local(0).unwrap(),
                    100 * depth,
                    "{:?} depth {depth}",
                    cpu.scheme.kind()
                );
            }
            assert!(cpu.window_repairs() > 0, "{:?}", cpu.scheme.kind());
            cpu.check_invariants().unwrap();
        }
    }
}
