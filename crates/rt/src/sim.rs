//! The simulation driver: deterministic non-preemptive execution of
//! thread bodies over the simulated CPU.
//!
//! Every simulated thread body is a future, and [`StartedSim::step`]
//! runs them all on the calling OS thread. It pops the next thread from
//! the [`ReadyQueue`], switches the simulated CPU to it, and polls its
//! future until the body blocks in a [`Ctx`] stream operation
//! (`Pending`) or returns (`Ready`). Wakes go through the ready queue
//! rather than a [`Waker`], so execution order depends only on the
//! workload and the scheduling policy, and a switch costs no kernel
//! handoff.
//!
//! A [`Simulation`] owns its [`SimState`] by value, so it can be built
//! on one OS thread and run on another. [`Simulation::start`] moves the
//! state into one `Rc<RefCell<_>>` shared by the [`StartedSim`] and
//! every thread's [`Ctx`]. Neither is `Send`, so the compiler confines
//! a started simulation to the OS thread that steps it, and no lock is
//! needed: each borrow ends before the task that took it yields.

use crate::ctx::Ctx;
use crate::error::RtError;
use crate::fault::FaultPlan;
use crate::report::{RunReport, ThreadReport};
use crate::sched::{ReadyQueue, SchedPolicy, SchedulingPolicy, WakeInfo};
use crate::stream::{RemoteEnd, Stream, StreamId};
use crate::trace::{Trace, TraceEvent};
use regwin_machine::{MachineConfig, ThreadId, WindowIndex};
use regwin_obs::{Metric, Probe, ProbeEvent, SpanKind};
use regwin_traps::{build_scheme, Cpu, Scheme, SchemeKind};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::rc::Rc;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

/// A running thread body: the future [`StartedSim::step`] polls.
type Task = Pin<Box<dyn Future<Output = Result<(), RtError>>>>;

/// A spawned thread body that has not started yet: it builds the
/// thread's [`Task`] from its [`Ctx`] at [`Simulation::start`]. Only
/// this builder has to be `Send`, so a [`Simulation`] can move between
/// OS threads while the tasks themselves never do.
type ThreadBody = Box<dyn FnOnce(Ctx) -> Task + Send>;

/// What a blocked thread is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Wait {
    ReadEmpty(StreamId),
    WriteFull(StreamId),
    /// Another writer holds the stream's record lock (see
    /// [`Ctx::write_record`](crate::Ctx::write_record)).
    WriteLocked(StreamId),
}

/// The threads blocked on one stream, one set per wait kind. Each set
/// is ordered by [`ThreadId`], so a wake picks the lowest id first.
#[derive(Debug, Default)]
struct Waiters {
    read_empty: BTreeSet<ThreadId>,
    write_full: BTreeSet<ThreadId>,
    write_locked: BTreeSet<ThreadId>,
}

pub(crate) struct SimState {
    pub(crate) cpu: Cpu,
    pub(crate) streams: Vec<Stream>,
    pub(crate) ready: ReadyQueue,
    /// Every blocked thread and what it waits for, in id order (the
    /// deadlock report and the bus-progress check read it).
    pub(crate) waiting: BTreeMap<ThreadId, Wait>,
    /// The same blocked threads, indexed by stream and wait kind, so a
    /// wake never scans `waiting`.
    waiters: Vec<Waiters>,
    pub(crate) finished: Vec<bool>,
    /// Threads abandoned after unrecoverable window corruption (their
    /// machine state was evicted; the rest of the run continues).
    pub(crate) quarantined: Vec<bool>,
    pub(crate) error: Option<RtError>,
    pub(crate) names: Vec<String>,
    pub(crate) blocked_on_read: Vec<u64>,
    pub(crate) blocked_on_write: Vec<u64>,
    /// Per-stream record locks: while a writer holds one, other writers
    /// of the same stream block instead of interleaving bytes into its
    /// record (the rt analogue of POSIX `PIPE_BUF` atomicity).
    pub(crate) record_locks: BTreeMap<StreamId, ThreadId>,
    pub(crate) trace: Option<Trace>,
    /// Sum of ready-queue lengths observed at each dispatch, and the
    /// number of dispatches — the paper's *parallel slackness* (§5).
    pub(crate) slack_sum: u64,
    pub(crate) dispatches: u64,
    /// Event indices at which the N-th successful stream byte read /
    /// write fails with a typed error (installed by
    /// [`Simulation::with_fault_plan`]).
    pub(crate) stream_read_fails: BTreeSet<u64>,
    pub(crate) stream_write_fails: BTreeSet<u64>,
    /// Successful stream byte reads / writes seen so far.
    pub(crate) stream_reads_seen: u64,
    pub(crate) stream_writes_seen: u64,
}

impl SimState {
    pub(crate) fn record(&mut self, event: TraceEvent) {
        if let Some(trace) = &mut self.trace {
            trace.push(event);
        }
    }

    /// Reports a counter increment to the probe installed on the CPU, if
    /// any (runtime-level events ride the same probe as machine events).
    pub(crate) fn bump(&self, metric: Metric, delta: u64) {
        if let Some(p) = self.cpu.machine().probe() {
            p.record(&ProbeEvent::Counter { metric, delta });
        }
    }
}

impl SimState {
    /// The window-residency snapshot the scheduling policy sees when
    /// `t` wakes. Policies that ignore residency (per
    /// [`ReadyQueue::uses_residency`]) get a default snapshot so the
    /// FIFO hot path never scans the register file.
    pub(crate) fn wake_snapshot(&self, t: ThreadId) -> WakeInfo {
        if !self.ready.uses_residency() {
            return WakeInfo::default();
        }
        let machine = self.cpu.machine();
        let nwindows = machine.nwindows();
        let free_windows = (0..nwindows)
            .filter(|&w| machine.slot_use(WindowIndex::new(w)).is_discardable())
            .count();
        WakeInfo {
            resident: machine.thread(t).map(|ts| ts.resident()).unwrap_or(0),
            free_windows,
            nwindows,
        }
    }

    fn waiter_set(&mut self, w: Wait) -> &mut BTreeSet<ThreadId> {
        match w {
            Wait::ReadEmpty(s) => &mut self.waiters[s.0].read_empty,
            Wait::WriteFull(s) => &mut self.waiters[s.0].write_full,
            Wait::WriteLocked(s) => &mut self.waiters[s.0].write_locked,
        }
    }

    /// Registers the running thread `t` as blocked on `w` and counts the
    /// wait; it runs again once a wake puts it back on the ready queue.
    pub(crate) fn park(&mut self, t: ThreadId, w: Wait) {
        self.waiting.insert(t, w);
        self.waiter_set(w).insert(t);
        if let Wait::ReadEmpty(_) = w {
            self.blocked_on_read[t.index()] += 1;
            self.bump(Metric::StreamWaitsRead, 1);
        } else {
            self.blocked_on_write[t.index()] += 1;
            self.bump(Metric::StreamWaitsWrite, 1);
        }
    }

    /// Moves the blocked thread `t`, already taken out of its waiter
    /// set, to the ready queue.
    fn unpark(&mut self, t: ThreadId) {
        self.waiting.remove(&t);
        let wake = self.wake_snapshot(t);
        self.ready.enqueue_woken(t, wake);
    }

    /// Wakes the lowest-id thread blocked on `w`, if any.
    fn wake_first(&mut self, w: Wait) {
        if let Some(t) = self.waiter_set(w).pop_first() {
            self.unpark(t);
        }
    }

    /// Wakes the lowest-id thread blocked reading `s` (one byte arrived).
    pub(crate) fn wake_one_reader(&mut self, s: StreamId) {
        self.wake_first(Wait::ReadEmpty(s));
    }

    /// Wakes every thread blocked reading `s`, lowest id first (the
    /// stream closed; they must observe EOF).
    pub(crate) fn wake_all_readers(&mut self, s: StreamId) {
        for t in std::mem::take(&mut self.waiters[s.0].read_empty) {
            self.unpark(t);
        }
    }

    /// Wakes the lowest-id thread blocked writing `s` (one byte of space
    /// appeared).
    pub(crate) fn wake_one_writer(&mut self, s: StreamId) {
        self.wake_first(Wait::WriteFull(s));
    }

    /// Wakes the lowest-id thread waiting for the record lock on `s`
    /// (the previous holder released it).
    pub(crate) fn wake_one_lock_waiter(&mut self, s: StreamId) {
        self.wake_first(Wait::WriteLocked(s));
    }

    /// Abandons `t` after unrecoverable window corruption: evicts its
    /// windows from the machine wholesale (nothing is flushed — the data
    /// is untrustworthy), releases any stream record lock it holds, and
    /// marks it finished so the rest of the run can complete without it.
    /// Idempotent. Threads blocked on a stream only `t` feeds will
    /// surface as an ordinary typed [`RtError::Deadlock`].
    pub(crate) fn quarantine_thread(&mut self, t: ThreadId) {
        if self.quarantined.get(t.index()).copied().unwrap_or(true) {
            return;
        }
        self.quarantined[t.index()] = true;
        self.finished[t.index()] = true;
        if let Some(w) = self.waiting.remove(&t) {
            self.waiter_set(w).remove(&t);
        }
        let held: Vec<StreamId> =
            self.record_locks.iter().filter(|(_, h)| **h == t).map(|(s, _)| *s).collect();
        for s in held {
            self.record_locks.remove(&s);
            self.wake_one_lock_waiter(s);
        }
        let _ = self.cpu.release_thread(t);
        self.bump(Metric::ThreadsQuarantined, 1);
    }
}

/// The run options every harness threads through [`Simulation`]
/// construction: scheduling, auditing, tracing, fault injection. One
/// [`Simulation::assemble`] call applies them all, so the spell
/// pipeline, the workload generator and the cluster PEs build their
/// simulations through a single shared path instead of each repeating
/// the same builder chain.
#[derive(Debug, Default)]
pub struct SimOptions {
    /// Shipped scheduling policy id (ignored when `sched` is set).
    pub policy: SchedulingPolicy,
    /// A caller-supplied ready-queue implementation — the plug-in point
    /// custom and [fuzzed](crate::Fuzzed) policies use.
    pub sched: Option<Box<dyn SchedPolicy>>,
    /// Enable checksummed window auditing (detect–repair–quarantine).
    pub audit: bool,
    /// Record an event trace for later replay.
    pub traced: bool,
    /// Machine/stream fault plan to install (PE-0 events).
    pub fault: Option<FaultPlan>,
}

/// A configured simulation: a CPU (windows + scheme), a set of streams,
/// and a set of threads to run to completion. See the crate docs for an
/// example.
pub struct Simulation {
    state: SimState,
    bodies: Vec<ThreadBody>,
    scheme: SchemeKind,
    nwindows: usize,
}

impl Simulation {
    /// Creates a simulation on `nwindows` windows managed by the given
    /// scheme (with its paper-default options), FIFO scheduling and the
    /// default machine configuration (S-20 cost model, `s20` timing).
    ///
    /// # Errors
    ///
    /// Fails if the window count is below the scheme's minimum.
    pub fn new(nwindows: usize, scheme: SchemeKind) -> Result<Self, RtError> {
        Self::with_config(MachineConfig::new(nwindows), build_scheme(scheme))
    }

    /// Creates a simulation from an explicit [`MachineConfig`] (cost
    /// model and timing backend) and scheme object (for non-default
    /// scheme options and ablations).
    ///
    /// # Errors
    ///
    /// Fails if the window count is below the scheme's minimum.
    pub fn with_config(config: MachineConfig, scheme: Box<dyn Scheme>) -> Result<Self, RtError> {
        let kind = scheme.kind();
        let nwindows = config.nwindows;
        let cpu = Cpu::with_config(config, scheme)?;
        let state = SimState {
            cpu,
            streams: Vec::new(),
            ready: ReadyQueue::new(SchedulingPolicy::Fifo),
            waiting: BTreeMap::new(),
            waiters: Vec::new(),
            finished: Vec::new(),
            quarantined: Vec::new(),
            error: None,
            names: Vec::new(),
            blocked_on_read: Vec::new(),
            blocked_on_write: Vec::new(),
            record_locks: BTreeMap::new(),
            trace: None,
            slack_sum: 0,
            dispatches: 0,
            stream_read_fails: BTreeSet::new(),
            stream_write_fails: BTreeSet::new(),
            stream_reads_seen: 0,
            stream_writes_seen: 0,
        };
        Ok(Simulation { state, bodies: Vec::new(), scheme: kind, nwindows })
    }

    /// Creates a simulation from a machine configuration, a scheme and
    /// a full [`SimOptions`] bundle — the one-call assembly path shared
    /// by the spell pipeline and the workload generator.
    ///
    /// # Errors
    ///
    /// Fails if the window count is below the scheme's minimum.
    pub fn assemble(
        config: MachineConfig,
        scheme: Box<dyn Scheme>,
        opts: SimOptions,
    ) -> Result<Self, RtError> {
        let mut sim = Simulation::with_config(config, scheme)?;
        sim = match opts.sched {
            Some(imp) => sim.with_sched_policy(imp),
            None => sim.with_policy(opts.policy),
        };
        if opts.audit {
            sim = sim.with_window_audit();
        }
        if opts.traced {
            sim = sim.with_trace_recording();
        }
        if let Some(plan) = &opts.fault {
            sim = sim.with_fault_plan(plan);
        }
        Ok(sim)
    }

    /// Sets the scheduling policy (default: FIFO).
    #[must_use]
    pub fn with_policy(mut self, policy: SchedulingPolicy) -> Self {
        self.state.ready = ReadyQueue::new(policy);
        self
    }

    /// Installs a caller-supplied [`SchedPolicy`] object — the plug-in
    /// point for scheduling experiments not shipped in this crate. Must
    /// be called before any [`Simulation::spawn`] (spawned threads are
    /// already queued and would be lost with the old queue).
    #[must_use]
    pub fn with_sched_policy(mut self, imp: Box<dyn SchedPolicy>) -> Self {
        debug_assert!(self.state.ready.is_empty(), "install the policy before spawning threads");
        self.state.ready = ReadyQueue::with_impl(imp);
        self
    }

    /// Enables window-event trace recording (see [`crate::Trace`]). The
    /// recorded trace is returned by [`Simulation::run_with_trace`].
    #[must_use]
    pub fn with_trace_recording(mut self) -> Self {
        self.state.trace = Some(Trace::new());
        self
    }

    /// Installs an instrumentation probe on the simulated CPU. The
    /// machine's counters, the CPU's trap and switch spans, the
    /// scheduler's dispatch events and ready-queue gauge, and the stream
    /// wait/byte counters are all reported through it, and the whole run
    /// is wrapped in a `Simulation` span named after the scheme.
    #[must_use]
    pub fn with_probe(mut self, probe: Arc<dyn Probe>) -> Self {
        self.state.cpu.set_probe(Some(probe));
        self
    }

    /// Enables the window integrity auditor: per-frame checksums are
    /// verified at trap boundaries and context switches, *clean*
    /// (unmodified since fill) windows that fail the check are repaired
    /// transparently from the backing stack, and a thread whose *dirty*
    /// window fails is quarantined — abandoned with the `quarantined`
    /// mark in its [`ThreadReport`] — while the rest of the simulation
    /// keeps running.
    #[must_use]
    pub fn with_window_audit(mut self) -> Self {
        self.state.cpu.enable_window_audit();
        self
    }

    /// Installs a deterministic [`FaultPlan`]: its machine-level faults
    /// become a fresh fault schedule on the CPU, and its stream faults
    /// fail the chosen byte transfers with typed errors. Worker faults
    /// in the plan are ignored here (they only apply to sweep jobs).
    #[must_use]
    pub fn with_fault_plan(mut self, plan: &FaultPlan) -> Self {
        let schedule = plan.machine_schedule();
        self.state.cpu.set_fault_schedule(if schedule.is_empty() { None } else { Some(schedule) });
        self.state.stream_read_fails = plan.stream_read_fails();
        self.state.stream_write_fails = plan.stream_write_fails();
        self
    }

    /// Adds a bounded FIFO stream with the given capacity in bytes and
    /// number of writer ends.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero; config-driven callers should use
    /// [`Simulation::try_add_stream`] instead.
    pub fn add_stream(
        &mut self,
        name: impl Into<String>,
        capacity: usize,
        writers: usize,
    ) -> StreamId {
        let id = StreamId(self.state.streams.len());
        self.state.streams.push(Stream::new(name, capacity, writers));
        self.state.waiters.push(Waiters::default());
        id
    }

    /// Adds a bounded FIFO stream, validating the configuration instead
    /// of panicking — for streams whose parameters come from external
    /// configs.
    ///
    /// # Errors
    ///
    /// Returns [`RtError::BadConfig`] when `capacity` is zero.
    pub fn try_add_stream(
        &mut self,
        name: impl Into<String>,
        capacity: usize,
        writers: usize,
    ) -> Result<StreamId, RtError> {
        let name = name.into();
        if capacity == 0 {
            return Err(RtError::BadConfig {
                detail: format!("stream '{name}' has zero capacity"),
            });
        }
        Ok(self.add_stream(name, capacity, writers))
    }

    /// Marks `stream` as the *outbound* end of a cross-PE link: local
    /// threads write to it, the cluster bus drains it. Its capacity
    /// counts bytes still in flight on the bus, so writers see
    /// end-to-end backpressure. Only meaningful under an external
    /// driver ([`Simulation::start`]); the plain [`Simulation::run`]
    /// path never drains it.
    pub fn mark_stream_outbound(&mut self, stream: StreamId) {
        self.state.streams[stream.0].set_remote(RemoteEnd::Outbound);
    }

    /// Marks `stream` as the *inbound* end of a cross-PE link: the
    /// cluster bus delivers into it, local threads read from it. Create
    /// it with one writer (the bus); it closes when the sending PE's
    /// close message is delivered.
    pub fn mark_stream_inbound(&mut self, stream: StreamId) {
        self.state.streams[stream.0].set_remote(RemoteEnd::Inbound);
    }

    /// Spawns a simulated thread whose body is an async closure: it can
    /// block in the `async` [`Ctx`] stream operations and make nested
    /// [`Ctx::call`]s. Threads are dispatched in spawn order.
    ///
    /// The body must await only [`Ctx`] operations: the scheduler
    /// treats every suspension as a stream wait, and a body that
    /// suspends on anything else fails the run with
    /// [`RtError::Internal`].
    pub fn spawn_async<F>(&mut self, name: impl Into<String>, body: F) -> ThreadId
    where
        F: AsyncFnOnce(&mut Ctx) -> Result<(), RtError> + Send + 'static,
    {
        let st = &mut self.state;
        let t = st.cpu.add_thread();
        st.names.push(name.into());
        st.finished.push(false);
        st.quarantined.push(false);
        st.blocked_on_read.push(0);
        st.blocked_on_write.push(0);
        st.ready.enqueue_new(t);
        self.bodies.push(Box::new(move |mut ctx: Ctx| -> Task {
            Box::pin(async move { body(&mut ctx).await })
        }));
        t
    }

    /// Spawns a simulated thread whose body never blocks: it can only
    /// use the synchronous [`Ctx`] operations (compute, closing a
    /// writer). A thin adapter onto [`Simulation::spawn_async`].
    pub fn spawn(
        &mut self,
        name: impl Into<String>,
        body: impl FnOnce(&mut Ctx) -> Result<(), RtError> + Send + 'static,
    ) -> ThreadId {
        self.spawn_async(name, async move |ctx: &mut Ctx| body(ctx))
    }

    /// Runs every thread to completion and returns the report.
    ///
    /// # Errors
    ///
    /// Returns the first thread error, a panic report, or a deadlock
    /// description if all unfinished threads end up blocked.
    pub fn run(self) -> Result<RunReport, RtError> {
        self.run_with_trace().map(|(report, _)| report)
    }

    /// Like [`Simulation::run`], but also returns the recorded event
    /// trace if [`Simulation::with_trace_recording`] was enabled.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulation::run`].
    pub fn run_with_trace(self) -> Result<(RunReport, Option<Trace>), RtError> {
        let mut started = self.start();
        // Without remote streams a step can only end at Done or an
        // error, so one step drives the whole run; the legacy path is
        // exactly start → step → finish.
        let stepped = started.step();
        debug_assert!(
            !matches!(stepped, Ok(StepOutcome::Blocked)),
            "a simulation without remote streams cannot block on the bus"
        );
        started.finish()
    }

    /// Creates every thread's task (none runs yet) and hands back a
    /// [`StartedSim`] that an external discrete-event driver (the
    /// `regwin-cluster` scheduler) clocks explicitly via
    /// [`StartedSim::step`]. The plain [`Simulation::run`] path is
    /// implemented on top of this and runs exactly one step.
    pub fn start(self) -> StartedSim {
        let probe = self.state.cpu.machine().probe().cloned();
        if let Some(p) = &probe {
            p.record(&ProbeEvent::SpanStart {
                kind: SpanKind::Simulation,
                name: self.scheme.name(),
            });
        }
        let state = Rc::new(RefCell::new(self.state));
        let tasks = self
            .bodies
            .into_iter()
            .enumerate()
            .map(|(i, body)| Some(body(Ctx::new(Rc::clone(&state), ThreadId::new(i)))))
            .collect();
        StartedSim {
            state,
            tasks,
            scheme: self.scheme,
            nwindows: self.nwindows,
            probe,
            loop_result: Ok(()),
        }
    }
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("scheme", &self.scheme)
            .field("nwindows", &self.nwindows)
            .field("threads", &self.bodies.len())
            .finish()
    }
}

/// How a [`StartedSim::step`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// Every thread finished; call [`StartedSim::finish`].
    Done,
    /// No thread is runnable, but at least one is blocked on a cross-PE
    /// stream the bus can still make progress on — the PE is waiting
    /// for a bus grant or delivery.
    Blocked,
}

/// One byte (or close) drained from an outbound cross-PE stream: the
/// bus request the sending PE raises at local time `tick`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendEvent {
    /// The outbound stream the event came from (sender-local id).
    pub stream: StreamId,
    /// The payload byte, or `None` for the writer-close message.
    pub payload: Option<u8>,
    /// The sender's local cycle count when the send completed.
    pub tick: u64,
}

/// A running simulation under external control: every thread's task
/// exists, and the embedded scheduler only advances when
/// [`StartedSim::step`] is called. Between steps, an external driver
/// drains outbound bytes, grants bus requests and delivers inbound
/// bytes — the PE-side half of the cluster's discrete-event protocol.
///
/// Dropping a `StartedSim` without calling [`StartedSim::finish`] just
/// drops the unfinished tasks: a suspended thread never resumes, so
/// nothing of it runs again, not even the `restore` of an open
/// [`Ctx::call`].
pub struct StartedSim {
    state: Rc<RefCell<SimState>>,
    /// One task per thread, `None` once it has finished or panicked.
    tasks: Vec<Option<Task>>,
    scheme: SchemeKind,
    nwindows: usize,
    probe: Option<Arc<dyn Probe>>,
    /// The scheduler loop's terminal result, reproduced by
    /// [`StartedSim::finish`] in exactly the position the legacy
    /// single-call path reported it.
    loop_result: Result<(), RtError>,
}

impl StartedSim {
    /// Runs the embedded scheduler until every thread finished
    /// ([`StepOutcome::Done`]), no thread can run without bus progress
    /// ([`StepOutcome::Blocked`]), or the run fails. Deterministic: the
    /// threads run one at a time on the calling OS thread, each until it
    /// blocks or returns, so the outcome depends only on workload state
    /// at entry.
    ///
    /// # Errors
    ///
    /// Returns the first thread error or a deadlock description exactly
    /// as [`Simulation::run`] would. Once a step has failed, every later
    /// step returns the same error.
    pub fn step(&mut self) -> Result<StepOutcome, RtError> {
        self.loop_result.clone()?;
        let result = self.schedule();
        if let Err(e) = &result {
            self.loop_result = Err(e.clone());
        }
        result
    }

    fn schedule(&mut self) -> Result<StepOutcome, RtError> {
        let nthreads = self.tasks.len();
        loop {
            let mut st = self.state.borrow_mut();
            if let Some(e) = &st.error {
                return Err(e.clone());
            }
            if st.finished.iter().filter(|f| **f).count() == nthreads {
                return Ok(StepOutcome::Done);
            }
            let Some(next) = st.ready.pop() else {
                // A thread blocked on a cross-PE stream is waiting on the
                // bus, not on a local peer: an inbound read can be
                // satisfied by a future delivery, and an outbound write
                // frees up when a pending byte is granted. Only when no
                // such external progress is possible is this a real
                // deadlock.
                let bus_can_progress = st.waiting.values().any(|w| match w {
                    Wait::ReadEmpty(s) => {
                        st.streams[s.0].remote() == Some(RemoteEnd::Inbound)
                            && !st.streams[s.0].is_closed()
                    }
                    Wait::WriteFull(s) => {
                        st.streams[s.0].remote() == Some(RemoteEnd::Outbound)
                            && st.streams[s.0].pending_send() > 0
                    }
                    Wait::WriteLocked(_) => false,
                });
                if bus_can_progress {
                    return Ok(StepOutcome::Blocked);
                }
                return Err(RtError::Deadlock { detail: blocked_detail(&st) });
            };
            if st.quarantined[next.index()] {
                continue;
            }
            // The switch-boundary audit may quarantine either side: the
            // outgoing thread (retry the dispatch once without it) or
            // `next` itself (skip it and pick another thread).
            let mut dispatched = false;
            for _ in 0..2 {
                match st.cpu.switch_to(next) {
                    Ok(()) => {
                        dispatched = true;
                        break;
                    }
                    Err(e) => {
                        let e = RtError::from(e);
                        let owner = e.unrecoverable_owner().ok_or_else(|| e.clone())?;
                        st.quarantine_thread(owner);
                        if owner == next {
                            break;
                        }
                    }
                }
            }
            if !dispatched {
                continue;
            }
            // The queue length *after* popping is the number of other
            // runnable threads: the parallel slackness.
            st.slack_sum += st.ready.len() as u64;
            st.dispatches += 1;
            st.bump(Metric::Dispatches, 1);
            if let Some(p) = st.cpu.machine().probe() {
                p.record(&ProbeEvent::Gauge {
                    name: "ready_queue_depth",
                    value: st.ready.len() as u64,
                });
            }
            st.record(TraceEvent::SwitchTo(next));
            drop(st);
            self.run_until_blocked(next);
        }
    }

    /// Polls `t`'s task until the thread blocks (`Pending`) or its body
    /// returns or panics (`Ready`), and settles the outcome in the
    /// state. Wakes go through the ready queue, so the waker is a no-op.
    fn run_until_blocked(&mut self, t: ThreadId) {
        let task = self.tasks[t.index()].as_mut().expect("a dispatched thread has a live task");
        let mut cx = Context::from_waker(Waker::noop());
        let polled = catch_unwind(AssertUnwindSafe(|| task.as_mut().poll(&mut cx)));
        let mut st = self.state.borrow_mut();
        let result = match polled {
            Ok(Poll::Pending) => {
                if !st.waiting.contains_key(&t) && st.error.is_none() {
                    st.error = Some(RtError::Internal {
                        detail: format!(
                            "thread {} suspended outside a Ctx stream operation",
                            st.names[t.index()]
                        ),
                    });
                }
                return;
            }
            Ok(Poll::Ready(result)) => result,
            Err(_) => Err(RtError::ThreadPanicked { name: st.names[t.index()].clone() }),
        };
        self.tasks[t.index()] = None;
        st.finished[t.index()] = true;
        match result {
            Ok(()) => {
                // Release the thread's windows on the simulated CPU.
                if st.cpu.current_thread() == Some(t) {
                    st.record(TraceEvent::Terminate);
                    if let Err(e) = st.cpu.terminate_current() {
                        if st.error.is_none() {
                            st.error = Some(e.into());
                        }
                    }
                }
            }
            Err(e) if e.unrecoverable_owner() == Some(t) => st.quarantine_thread(t),
            Err(e) => {
                if st.error.is_none() {
                    st.error = Some(e);
                }
            }
        }
    }

    /// Closes the probe span and builds the report — byte-for-byte the
    /// tail of the legacy [`Simulation::run_with_trace`] path.
    ///
    /// # Errors
    ///
    /// Reports the first thread error, then any scheduler-loop error
    /// from a prior [`StartedSim::step`], in that precedence order.
    pub fn finish(self) -> Result<(RunReport, Option<Trace>), RtError> {
        let mut st = self.state.borrow_mut();
        // Deliver whatever counter deltas the machine still holds before
        // the Simulation span closes, so every event lands inside it.
        st.cpu.flush_probe();
        if let Some(p) = &self.probe {
            p.record(&ProbeEvent::SpanEnd {
                kind: SpanKind::Simulation,
                name: self.scheme.name(),
                cycles: st.cpu.machine().cycles().total(),
            });
        }
        if let Some(e) = &st.error {
            return Err(e.clone());
        }
        self.loop_result.clone()?;
        let slackness =
            if st.dispatches == 0 { 0.0 } else { st.slack_sum as f64 / st.dispatches as f64 };
        let trace = st.trace.take().map(|mut t| {
            t.set_threads(
                st.names.clone(),
                st.blocked_on_read.clone(),
                st.blocked_on_write.clone(),
                slackness,
            );
            t
        });
        let machine = st.cpu.machine();
        let threads = st
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
                    blocked_on_read: st.blocked_on_read[i],
                    blocked_on_write: st.blocked_on_write[i],
                    quarantined: st.quarantined[i],
                }
            })
            .collect();
        let report = RunReport {
            scheme: self.scheme,
            policy: st.ready.policy(),
            nwindows: self.nwindows,
            cycles: machine.cycles().clone(),
            stats: machine.stats().clone(),
            threads,
            avg_parallel_slackness: slackness,
            bus: None,
        };
        Ok((report, trace))
    }

    /// Drains every outbound cross-PE stream: buffered bytes become
    /// [`SendEvent`]s (bus requests timestamped with their local send
    /// tick), and a closed-and-drained stream emits its close message
    /// exactly once, after all its bytes. Drained bytes stay in flight —
    /// they occupy sender capacity until [`StartedSim::grant_send`].
    pub fn drain_outbound(&mut self) -> Vec<SendEvent> {
        let mut st = self.state.borrow_mut();
        let mut out = Vec::new();
        for i in 0..st.streams.len() {
            if st.streams[i].remote() != Some(RemoteEnd::Outbound) {
                continue;
            }
            while let Some((byte, tick)) = st.streams[i].take_send() {
                out.push(SendEvent { stream: StreamId(i), payload: Some(byte), tick });
            }
            if st.streams[i].is_closed()
                && st.streams[i].is_empty()
                && !st.streams[i].close_forwarded()
            {
                let tick = st.streams[i].close_tick().unwrap_or(0);
                st.streams[i].mark_close_forwarded();
                out.push(SendEvent { stream: StreamId(i), payload: None, tick });
            }
        }
        out
    }

    /// The bus granted one in-flight byte of the outbound `stream`:
    /// frees a unit of sender capacity and wakes one blocked writer.
    pub fn grant_send(&mut self, stream: StreamId) {
        let mut st = self.state.borrow_mut();
        st.streams[stream.0].grant_send();
        st.bump(Metric::BusGrants, 1);
        st.wake_one_writer(stream);
    }

    /// Delivers a bus message into the inbound `stream` at bus time
    /// `tick`: a payload byte is appended (the receive side is
    /// elastic), `None` closes the stream's bus writer. If the PE is
    /// quiesced (no runnable thread), its clock first advances to
    /// `tick`, charging the gap as bus-stall idle time — the receiving
    /// PE really did sit idle until the delivery arrived.
    pub fn deliver(&mut self, stream: StreamId, payload: Option<u8>, tick: u64) {
        let mut st = self.state.borrow_mut();
        if st.ready.is_empty() {
            st.cpu.step_to_tick(tick);
        }
        match payload {
            Some(byte) => {
                st.streams[stream.0].push_unbounded(byte);
                st.bump(Metric::CrossPeMessages, 1);
                st.wake_one_reader(stream);
            }
            None => {
                if st.streams[stream.0].close_writer() == 0 {
                    st.wake_all_readers(stream);
                }
            }
        }
    }

    /// A human-readable description of what every blocked thread is
    /// waiting for — the per-PE fragment of a cluster-level deadlock
    /// report.
    pub fn blocked_detail(&self) -> String {
        blocked_detail(&self.state.borrow())
    }
}

impl std::fmt::Debug for StartedSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StartedSim")
            .field("scheme", &self.scheme)
            .field("nwindows", &self.nwindows)
            .field("threads", &self.tasks.len())
            .finish()
    }
}

/// Formats what every blocked thread is waiting for (deadlock reports
/// and cluster diagnostics).
fn blocked_detail(st: &SimState) -> String {
    let detail: Vec<String> = st
        .waiting
        .iter()
        .map(|(t, w)| {
            let name = &st.names[t.index()];
            match w {
                Wait::ReadEmpty(s) => {
                    format!("{name} reading empty {}", st.streams[s.0].name())
                }
                Wait::WriteFull(s) => {
                    format!("{name} writing full {}", st.streams[s.0].name())
                }
                Wait::WriteLocked(s) => {
                    format!("{name} awaiting writer lock on {}", st.streams[s.0].name())
                }
            }
        })
        .collect();
    detail.join("; ")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A configured simulation can still move to another OS thread
    /// (sweep workers build and run it there); only the started tasks
    /// are confined to the thread that steps them.
    #[test]
    fn simulation_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Simulation>();
    }

    /// A failed step is sticky: stepping again reproduces the same
    /// error, and `finish` reports it.
    #[test]
    fn a_failed_step_is_sticky() {
        let mut sim = Simulation::new(8, SchemeKind::Sp).unwrap();
        let pipe = sim.add_stream("pipe", 1, 1);
        sim.spawn_async("blocked", async move |ctx: &mut Ctx| {
            // Blocks forever: nothing ever writes the stream.
            ctx.read_byte(pipe).await?;
            Ok(())
        });
        let mut started = sim.start();
        let err = started.step().unwrap_err();
        assert_eq!(err.to_string(), "deadlock: blocked reading empty pipe");
        assert_eq!(started.step().unwrap_err(), err);
        assert_eq!(started.finish().unwrap_err(), err);
    }

    /// Dropping a `StartedSim` after a `Blocked` step, with a thread
    /// suspended inside `Ctx::call`, drops the task without resuming
    /// it: no hang, no panic, and no balancing `restore` from a
    /// destructor.
    #[test]
    fn dropping_a_blocked_sim_runs_no_restore() {
        let mut sim = Simulation::new(8, SchemeKind::Sp).unwrap().with_trace_recording();
        let inbound = sim.add_stream("inbound", 4, 1);
        sim.mark_stream_inbound(inbound);
        sim.spawn_async("reader", async move |ctx: &mut Ctx| {
            ctx.call(async |c: &mut Ctx| {
                c.read_byte(inbound).await?;
                Ok(())
            })
            .await
        });
        let mut started = sim.start();
        assert_eq!(started.step(), Ok(StepOutcome::Blocked));
        let state = Rc::clone(&started.state);
        let counts = |st: &SimState| {
            let stats = st.cpu.machine().stats();
            let events = st.trace.as_ref().map_or(0, |t| t.events().len());
            (stats.saves_executed, stats.restores_executed, events)
        };
        let before = counts(&state.borrow());
        assert_eq!((before.0, before.1), (1, 0), "suspended inside the call");
        drop(started);
        assert_eq!(counts(&state.borrow()), before);
        assert_eq!(Rc::strong_count(&state), 1, "the task and its Ctx were dropped");
    }

    /// A body that suspends on anything but a `Ctx` stream wait fails
    /// the run with a typed error instead of silently never resuming.
    #[test]
    fn suspending_outside_a_ctx_wait_is_an_internal_error() {
        let mut sim = Simulation::new(8, SchemeKind::Sp).unwrap();
        sim.spawn_async("stray", async |_: &mut Ctx| {
            std::future::pending::<()>().await;
            Ok(())
        });
        let err = sim.run().unwrap_err();
        assert!(matches!(err, RtError::Internal { .. }), "got {err:?}");
    }
}
