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
//! The wait bookkeeping costs O(1) per park, wake and dispatch: what
//! each thread waits for is a slot in a per-thread vector, each
//! stream keeps its blocked threads as bitmaps (a wake pops the lowest
//! [`ThreadId`]) and its record-lock holder, and a running count of
//! finished threads ends the loop. Application compute reaches the CPU
//! in the bursts a [`Trace`] records: [`SimState::charge_app`] adds to
//! a pending count that [`SimState::flush_app`] hands over before each
//! `save` or `restore`, before an outbound stream reads the clock, and
//! at the end of every poll.
//!
//! A [`Simulation`] owns its [`SimState`] by value, so it can be built
//! on one OS thread and run on another. [`Simulation::start`] moves the
//! state into one `Rc<RefCell<_>>` shared by the [`StartedSim`] and
//! every thread's [`Ctx`]. Neither is `Send`, so the compiler confines
//! a started simulation to the OS thread that steps it, and no lock is
//! needed: each borrow ends before the task that took it yields.

use crate::ctx::Ctx;
use crate::error::RtError;
use crate::fault::{FaultKind, FaultPlan, StreamFaults};
use crate::report::{RunReport, ThreadReport};
use crate::sched::{ReadyQueue, SchedulingPolicy, WakeInfo};
use crate::stream::{RemoteEnd, Stream, StreamId, WaiterSet};
use crate::trace::{Trace, TraceEvent};
use regwin_machine::{MachineConfig, ThreadId};
use regwin_obs::{Metric, Probe, ProbeEvent, SpanKind};
use regwin_traps::{build_scheme, Cpu, Scheme, SchemeKind};
use std::cell::{Cell, RefCell};
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::rc::Rc;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};
use std::time::Instant;

/// Dispatches between two deadline checks. The count lives in
/// [`SimState`], so it carries across [`StartedSim::step`] calls and a
/// cluster PE that dispatches a few threads per step is still checked.
const DEADLINE_STRIDE: u64 = 256;

thread_local! {
    /// The calling OS thread's deadline set by [`with_deadline`], if any.
    pub(crate) static DEADLINE: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// Runs `f` with `deadline` as the calling OS thread's deadline. A
/// simulation started or a trace replayed inside `f` on this thread
/// returns [`RtError::DeadlineExceeded`] at its first clock check past
/// `deadline`. The previous deadline comes back when `f` returns or
/// unwinds.
///
/// The checks are cooperative: a thread body that loops forever without
/// ever blocking in a [`Ctx`] stream operation is not stopped.
pub fn with_deadline<R>(deadline: Instant, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Instant>);
    impl Drop for Restore {
        fn drop(&mut self) {
            DEADLINE.set(self.0);
        }
    }
    let _restore = Restore(DEADLINE.replace(Some(deadline)));
    f()
}

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

pub(crate) struct SimState {
    pub(crate) cpu: Cpu,
    pub(crate) streams: Vec<Stream>,
    pub(crate) ready: ReadyQueue,
    /// What each thread is blocked on, indexed by thread (`None` while
    /// it runs or is ready). The same threads sit in their stream's
    /// [`WaiterSet`] for the wait kind, so a wake never scans this.
    pub(crate) waiting: Vec<Option<Wait>>,
    pub(crate) finished: Vec<bool>,
    /// How many entries of `finished` are set, so a dispatch never
    /// counts them.
    finished_count: usize,
    /// Threads abandoned after unrecoverable window corruption (their
    /// machine state was evicted; the rest of the run continues).
    pub(crate) quarantined: Vec<bool>,
    pub(crate) error: Option<RtError>,
    pub(crate) names: Vec<String>,
    pub(crate) blocked_on_read: Vec<u64>,
    pub(crate) blocked_on_write: Vec<u64>,
    pub(crate) trace: Option<Trace>,
    /// Application cycles charged by the running thread but not yet
    /// handed to the CPU. [`SimState::flush_app`] charges them as one
    /// burst at the points where a trace's merged `Compute` event ends,
    /// so a direct run charges compute exactly as its replay does.
    pending_app: u64,
    /// Sum of ready-queue lengths observed at each dispatch, and the
    /// number of dispatches — the paper's *parallel slackness* (§5).
    pub(crate) slack_sum: u64,
    pub(crate) dispatches: u64,
    /// The stream byte reads / writes that fail with a typed error
    /// (installed by [`Simulation::with_fault_plan`]).
    pub(crate) stream_read_fails: StreamFaults,
    pub(crate) stream_write_fails: StreamFaults,
}

impl SimState {
    pub(crate) fn record(&mut self, event: TraceEvent) {
        if let Some(trace) = &mut self.trace {
            trace.push(event);
        }
    }

    /// Charges `cycles` of application compute to the running thread:
    /// recorded in the trace now, handed to the CPU at the next
    /// [`SimState::flush_app`]. Exact because every timing backend
    /// charges compute additively (see `TimingModel::app`).
    pub(crate) fn charge_app(&mut self, cycles: u64) {
        self.record(TraceEvent::Compute(cycles));
        self.pending_app += cycles;
    }

    /// Hands the pending application cycles to the CPU as one burst.
    /// Called before every `save` and `restore`, before an outbound
    /// send or close reads the clock, and at the end of every poll.
    pub(crate) fn flush_app(&mut self) {
        if self.pending_app > 0 {
            self.cpu.compute(std::mem::take(&mut self.pending_app));
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
    /// FIFO hot path never queries the machine. The free-window figure
    /// is the machine's discardable count, computed in one step per
    /// thread without a scan of the windows.
    pub(crate) fn wake_snapshot(&self, t: ThreadId) -> WakeInfo {
        if !self.ready.uses_residency() {
            return WakeInfo::default();
        }
        let machine = self.cpu.machine();
        WakeInfo {
            resident: machine.thread(t).map(|ts| ts.resident()).unwrap_or(0),
            free_windows: machine.discardable_windows(),
        }
    }

    fn waiter_set(&mut self, w: Wait) -> &mut WaiterSet {
        match w {
            Wait::ReadEmpty(s) => &mut self.streams[s.0].read_waiters,
            Wait::WriteFull(s) => &mut self.streams[s.0].write_waiters,
            Wait::WriteLocked(s) => &mut self.streams[s.0].lock_waiters,
        }
    }

    /// Marks `t` finished (idempotent), keeping the running count.
    fn mark_finished(&mut self, t: ThreadId) {
        if !std::mem::replace(&mut self.finished[t.index()], true) {
            self.finished_count += 1;
        }
    }

    /// Registers the running thread `t` as blocked on `w` and counts the
    /// wait; it runs again once a wake puts it back on the ready queue.
    pub(crate) fn park(&mut self, t: ThreadId, w: Wait) {
        self.waiting[t.index()] = Some(w);
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
        self.waiting[t.index()] = None;
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
        while let Some(t) = self.streams[s.0].read_waiters.pop_first() {
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
        self.mark_finished(t);
        if let Some(w) = self.waiting[t.index()].take() {
            self.waiter_set(w).remove(t);
        }
        for i in 0..self.streams.len() {
            if self.streams[i].lock_holder == Some(t) {
                self.streams[i].lock_holder = None;
                self.wake_one_lock_waiter(StreamId(i));
            }
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
    /// A prepared ready queue, such as a
    /// [`fuzzed_policy`](crate::fuzzed_policy) one.
    pub sched: Option<ReadyQueue>,
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
            waiting: Vec::new(),
            finished: Vec::new(),
            finished_count: 0,
            quarantined: Vec::new(),
            error: None,
            names: Vec::new(),
            blocked_on_read: Vec::new(),
            blocked_on_write: Vec::new(),
            trace: None,
            pending_app: 0,
            slack_sum: 0,
            dispatches: 0,
            stream_read_fails: StreamFaults::default(),
            stream_write_fails: StreamFaults::default(),
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
        sim.state.ready = opts.sched.unwrap_or_else(|| ReadyQueue::new(opts.policy));
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
        self.state.stream_read_fails = plan.stream_faults(FaultKind::StreamReadFail);
        self.state.stream_write_fails = plan.stream_faults(FaultKind::StreamWriteFail);
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
        st.waiting.push(None);
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
    /// Returns the first thread error, a panic report, a deadlock
    /// description if all unfinished threads end up blocked, or
    /// [`RtError::DeadlineExceeded`] once a [`with_deadline`] deadline
    /// passes.
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
            deadline: DEADLINE.get(),
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
    /// The [`with_deadline`] deadline in force at [`Simulation::start`].
    deadline: Option<Instant>,
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
            if st.finished_count == nthreads {
                return Ok(StepOutcome::Done);
            }
            let Some(next) = st.ready.pop() else {
                // A thread blocked on a cross-PE stream is waiting on the
                // bus, not on a local peer: an inbound read can be
                // satisfied by a future delivery, and an outbound write
                // frees up when a pending byte is granted. Only when no
                // such external progress is possible is this a real
                // deadlock.
                let bus_can_progress = st.waiting.iter().flatten().any(|w| match w {
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
            if let Some(deadline) = self.deadline {
                if st.dispatches.is_multiple_of(DEADLINE_STRIDE) && Instant::now() >= deadline {
                    return Err(RtError::DeadlineExceeded);
                }
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
        st.flush_app();
        let result = match polled {
            Ok(Poll::Pending) => {
                if st.waiting[t.index()].is_none() && st.error.is_none() {
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
        st.mark_finished(t);
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
        .enumerate()
        .filter_map(|(t, w)| w.map(|w| (t, w)))
        .map(|(t, w)| {
            let name = &st.names[t];
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

    /// `with_deadline` restores the previous deadline when its closure
    /// returns and when it unwinds, so a panicking sweep job leaves no
    /// deadline behind on its worker thread.
    #[test]
    fn with_deadline_restores_the_previous_deadline() {
        let outer = Instant::now() + std::time::Duration::from_secs(60);
        with_deadline(outer, || {
            with_deadline(Instant::now(), || assert_ne!(DEADLINE.get(), Some(outer)));
            assert_eq!(DEADLINE.get(), Some(outer));
            let unwound = catch_unwind(|| with_deadline(Instant::now(), || panic!("job panicked")));
            assert!(unwound.is_err());
            assert_eq!(DEADLINE.get(), Some(outer));
        });
        assert_eq!(DEADLINE.get(), None);
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
