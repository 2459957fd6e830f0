//! Window-event traces: record once, replay anywhere.
//!
//! This is the paper's **register-window emulator** methodology (§6.1)
//! turned into a first-class tool: under FIFO scheduling the sequence of
//! `save`s, `restore`s, compute bursts and context switches produced by a
//! workload is *independent of the window-management scheme and the
//! number of physical windows* (paper §5.2) — only the *cost* of each
//! event differs. So the sequence can be captured once and replayed
//! against every (scheme × window count) combination, reproducing the
//! exact cycle counts of a direct run at a fraction of the cost.
//!
//! The replay equivalence is asserted by tests in `tests/replay.rs` and
//! by `regwin-core`'s sweep tests: for every scheme and window count,
//! `replay(record(run)) == run`, cycle for cycle.

use crate::error::RtError;
use crate::report::{RunReport, ThreadReport};
use crate::sim::DEADLINE;
use regwin_machine::{FaultSchedule, MachineConfig, ThreadId};
use regwin_traps::{Cpu, Scheme};
use std::time::Instant;

/// Events replayed between two checks of the [`crate::with_deadline`]
/// deadline, so a replay without one pays a branch per chunk, not per
/// event.
const DEADLINE_CHUNK: usize = 4096;

/// One recorded event. Saves and restores apply to the thread that is
/// current at that point in the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A `save` instruction (procedure entry).
    Save,
    /// A `restore` instruction (procedure return).
    Restore,
    /// An application compute burst (consecutive bursts are merged).
    Compute(u64),
    /// Dispatch of the given thread (the scheduler's switch decision).
    SwitchTo(ThreadId),
    /// Termination of the current thread.
    Terminate,
}

/// A recorded run: the event sequence plus the per-thread metadata needed
/// to rebuild a full [`RunReport`] on replay.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
    names: Vec<String>,
    blocked_on_read: Vec<u64>,
    blocked_on_write: Vec<u64>,
    avg_parallel_slackness: f64,
}

impl Trace {
    pub(crate) fn new() -> Self {
        Trace::default()
    }

    pub(crate) fn set_threads(
        &mut self,
        names: Vec<String>,
        blocked_on_read: Vec<u64>,
        blocked_on_write: Vec<u64>,
        avg_parallel_slackness: f64,
    ) {
        self.names = names;
        self.blocked_on_read = blocked_on_read;
        self.blocked_on_write = blocked_on_write;
        self.avg_parallel_slackness = avg_parallel_slackness;
    }

    /// Mean parallel slackness observed during the recording run.
    pub fn avg_parallel_slackness(&self) -> f64 {
        self.avg_parallel_slackness
    }

    /// Appends an event without compute-merging (deserialisation keeps
    /// the stream exactly as written).
    pub(crate) fn push_raw(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    pub(crate) fn push(&mut self, event: TraceEvent) {
        // Merge adjacent compute bursts to keep traces compact.
        if let (TraceEvent::Compute(more), Some(TraceEvent::Compute(acc))) =
            (event, self.events.last_mut())
        {
            *acc += more;
            return;
        }
        self.events.push(event);
    }

    /// The recorded events.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The recorded thread names, in spawn order.
    pub fn thread_names(&self) -> &[String] {
        &self.names
    }

    /// Times thread `i` blocked on an empty input stream while recording.
    pub(crate) fn blocked_on_read_of(&self, i: usize) -> u64 {
        self.blocked_on_read.get(i).copied().unwrap_or(0)
    }

    /// Times thread `i` blocked on a full output stream while recording.
    pub(crate) fn blocked_on_write_of(&self, i: usize) -> u64 {
        self.blocked_on_write.get(i).copied().unwrap_or(0)
    }

    /// Replays the trace on a fresh CPU with the given machine
    /// configuration (window count, cost model, timing backend) and
    /// scheme, reproducing the cycle counts and statistics the same
    /// workload would produce in a direct run.
    ///
    /// # Errors
    ///
    /// Propagates scheme/machine errors (none occur for a trace recorded
    /// from a successful run, on any valid configuration).
    pub fn replay(
        &self,
        config: MachineConfig,
        scheme: Box<dyn Scheme>,
    ) -> Result<RunReport, RtError> {
        self.replay_with_options(config, scheme, None, false)
    }

    /// Like [`Trace::replay`], with an optional machine-level fault
    /// schedule installed on the fresh CPU before replay begins — the
    /// sweep engine's path for fault-injection runs over cached traces
    /// — and window integrity auditing optionally enabled on it. (Stream
    /// faults cannot apply here: a trace contains no stream operations,
    /// only their cycle costs.) Auditing never touches the cycle counter
    /// or statistics, so an audited replay's report is byte-identical to
    /// an unaudited one; a masked corruption from the fault schedule is
    /// repaired silently, while unrecoverable corruption surfaces as an
    /// error (replay has no scheduler to quarantine the owning thread).
    ///
    /// # Errors
    ///
    /// Propagates scheme/machine errors, including typed
    /// [`regwin_machine::MachineError::FaultInjected`] errors from
    /// unmasked faults, [`RtError::CorruptTrace`] for a trace whose
    /// events reference unknown threads,
    /// [`regwin_machine::MachineError::UnrecoverableCorruption`] when the
    /// auditor detects a dirty-frame mismatch, and
    /// [`RtError::DeadlineExceeded`] when the [`crate::with_deadline`]
    /// deadline passes first.
    pub fn replay_with_options(
        &self,
        config: MachineConfig,
        scheme: Box<dyn Scheme>,
        faults: Option<FaultSchedule>,
        audit: bool,
    ) -> Result<RunReport, RtError> {
        let kind = scheme.kind();
        let nwindows = config.nwindows;
        let mut cpu = Cpu::with_config(config, scheme)?;
        if audit {
            cpu.enable_window_audit();
        }
        if let Some(schedule) = faults {
            cpu.set_fault_schedule(Some(schedule));
        }
        let threads: Vec<ThreadId> = (0..self.names.len()).map(|_| cpu.add_thread()).collect();
        let deadline = DEADLINE.get();
        for chunk in self.events.chunks(DEADLINE_CHUNK) {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(RtError::DeadlineExceeded);
            }
            for event in chunk {
                match *event {
                    TraceEvent::Save => cpu.save()?,
                    TraceEvent::Restore => cpu.restore()?,
                    TraceEvent::Compute(c) => cpu.compute(c),
                    TraceEvent::SwitchTo(t) => {
                        let thread = threads.get(t.index()).copied().ok_or_else(|| {
                            RtError::CorruptTrace {
                                detail: format!(
                                    "switch to unknown thread {} (trace has {} threads)",
                                    t.index(),
                                    threads.len()
                                ),
                            }
                        })?;
                        cpu.switch_to(thread)?;
                    }
                    TraceEvent::Terminate => {
                        cpu.terminate_current()?;
                    }
                }
            }
        }
        let machine = cpu.machine();
        let threads = self
            .names
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let ts = machine.stats().threads.get(i).copied().unwrap_or_default();
                ThreadReport {
                    name: name.clone(),
                    context_switches: ts.switches_out,
                    saves: ts.saves,
                    restores: ts.restores,
                    blocked_on_read: self.blocked_on_read.get(i).copied().unwrap_or(0),
                    blocked_on_write: self.blocked_on_write.get(i).copied().unwrap_or(0),
                    quarantined: false,
                }
            })
            .collect();
        Ok(RunReport {
            scheme: kind,
            policy: crate::sched::SchedulingPolicy::Fifo,
            nwindows,
            cycles: machine.cycles().clone(),
            stats: machine.stats().clone(),
            threads,
            avg_parallel_slackness: self.avg_parallel_slackness,
            bus: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_events_merge() {
        let mut t = Trace::new();
        t.push(TraceEvent::Compute(3));
        t.push(TraceEvent::Compute(4));
        t.push(TraceEvent::Save);
        t.push(TraceEvent::Compute(5));
        assert_eq!(t.events(), &[TraceEvent::Compute(7), TraceEvent::Save, TraceEvent::Compute(5)]);
    }

    #[test]
    fn empty_trace_reports_len_zero() {
        let t = Trace::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }
}
