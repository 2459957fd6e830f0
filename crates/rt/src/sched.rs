//! Pluggable scheduling policies for the non-preemptive runtime.
//!
//! The paper evaluates FIFO against the §4.6 working-set refinement, but
//! which thread runs next is exactly the knob that decides how window
//! contention plays out when the register file is oversubscribed. This
//! module makes that knob a first-class axis: the scheduler consults a
//! [`SchedPolicy`] object through [`ReadyQueue`], and ships four
//! implementations selectable by the [`SchedulingPolicy`] id that flows
//! through reports, job keys and artifacts.

use regwin_machine::ThreadId;
use std::collections::VecDeque;
use std::fmt;

/// How many dispatches a deprioritised thread may be overtaken before
/// the [`SchedulingPolicy::Aging`] hybrid force-promotes it. The bound
/// is part of the policy's semantics (it shapes simulated schedules and
/// cached results), so it is a fixed constant, not a tunable.
pub const AGING_LIMIT: u64 = 8;

/// Snapshot of the window-residency situation at the instant a thread
/// is woken, taken by the scheduler and handed to the policy. Policies
/// never touch the machine directly: everything they may react to is
/// captured here, which keeps them trivially deterministic and testable
/// without a CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WakeInfo {
    /// Windows of the woken thread still resident in the register file.
    pub resident: usize,
    /// Physical windows currently free or discardable — what a dispatch
    /// could consume without evicting another thread's live state.
    pub free_windows: usize,
    /// Total physical windows in the register file.
    pub nwindows: usize,
}

impl WakeInfo {
    /// Whether the woken thread still has windows resident — the §4.6
    /// working-set signal.
    pub fn has_windows(&self) -> bool {
        self.resident > 0
    }
}

/// The identifier of a shipped scheduling policy.
///
/// Scheduling is non-preemptive under every policy; they differ only in
/// where a thread is placed when it becomes ready. The id is what
/// reports, job keys and serialized artifacts carry — the behaviour
/// lives in the [`SchedPolicy`] object the id builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedulingPolicy {
    /// Plain first-in-first-out, the paper's base scheduler.
    #[default]
    Fifo,
    /// The working-set policy of §4.6: prioritise threads whose windows
    /// are still resident, reducing effective concurrency so the total
    /// window activity fits the physical file. Resident threads stay
    /// FIFO among themselves (two-segment queue).
    WorkingSet,
    /// Window-based greedy contention management: like
    /// [`SchedulingPolicy::WorkingSet`], but a woken thread whose
    /// dispatch would have to evict windows belonging to another ready
    /// resident thread (no free window left) is deprioritised behind
    /// every non-conflicting thread, the way a greedy contention
    /// manager stalls the transaction that would abort another.
    WindowGreedy,
    /// The working-set preference bounded by aging: a thread overtaken
    /// by [`AGING_LIMIT`] dispatches is force-promoted ahead of the
    /// residency preference, so no ready thread starves behind a
    /// perpetually-resident working set.
    Aging,
}

impl SchedulingPolicy {
    /// Every shipped policy, in canonical order.
    pub const ALL: [SchedulingPolicy; 4] = [
        SchedulingPolicy::Fifo,
        SchedulingPolicy::WorkingSet,
        SchedulingPolicy::WindowGreedy,
        SchedulingPolicy::Aging,
    ];

    /// Short display name (also the serialized form in reports, job
    /// keys and artifacts).
    pub fn name(self) -> &'static str {
        match self {
            SchedulingPolicy::Fifo => "FIFO",
            SchedulingPolicy::WorkingSet => "WorkingSet",
            SchedulingPolicy::WindowGreedy => "WindowGreedy",
            SchedulingPolicy::Aging => "Aging",
        }
    }

    /// Builds the policy's ready-queue implementation.
    pub fn build(self) -> Box<dyn SchedPolicy> {
        match self {
            SchedulingPolicy::Fifo => Box::new(FifoPolicy::default()),
            SchedulingPolicy::WorkingSet => Box::new(WorkingSetPolicy::default()),
            SchedulingPolicy::WindowGreedy => Box::new(WindowGreedyPolicy::default()),
            SchedulingPolicy::Aging => Box::new(AgingPolicy::default()),
        }
    }

    /// Parses a display name (case-insensitive), for CLI flags.
    pub fn parse(name: &str) -> Option<SchedulingPolicy> {
        SchedulingPolicy::ALL.into_iter().find(|p| p.name().eq_ignore_ascii_case(name))
    }
}

impl fmt::Display for SchedulingPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A scheduling policy: decides where ready threads wait and which runs
/// next. The scheduler owns exactly one and calls it with the state
/// snapshots it needs, so implementations are plain sequential data
/// structures — no locking, no machine access.
///
/// Implementations must be deterministic: the pop sequence may depend
/// only on the sequence of `enqueue_new` / `enqueue_woken` / `pop`
/// calls and the [`WakeInfo`] snapshots, never on time, randomness or
/// addresses. Every simulated schedule (and therefore every cached
/// sweep artifact) inherits its reproducibility from this contract.
pub trait SchedPolicy: Send + fmt::Debug {
    /// The id this policy runs under in reports and job keys. Shipped
    /// policies return their own variant; an experimental out-of-tree
    /// policy must return the shipped variant it refines (and must not
    /// be used with the sweep result cache, which trusts the id).
    fn kind(&self) -> SchedulingPolicy;

    /// Admits a newly created thread (spawn order is dispatch order for
    /// fresh threads under every shipped policy).
    fn enqueue_new(&mut self, t: ThreadId);

    /// Admits a thread that just became ready again, with the
    /// window-residency snapshot taken at the wake instant.
    fn enqueue_woken(&mut self, t: ThreadId, wake: WakeInfo);

    /// Takes the next thread to run.
    fn pop(&mut self) -> Option<ThreadId>;

    /// Number of queued threads.
    fn len(&self) -> usize;

    /// Whether no thread is queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the scheduler should bother computing the window fields
    /// of [`WakeInfo`] (two machine queries) before calling
    /// [`SchedPolicy::enqueue_woken`]. Policies that ignore residency
    /// return `false` and receive a default snapshot.
    fn uses_residency(&self) -> bool {
        true
    }
}

/// The ready queue: the [`SchedulingPolicy`] id paired with the
/// [`SchedPolicy`] object doing the work.
#[derive(Debug)]
pub struct ReadyQueue {
    policy: SchedulingPolicy,
    imp: Box<dyn SchedPolicy>,
}

impl Default for ReadyQueue {
    fn default() -> Self {
        ReadyQueue::new(SchedulingPolicy::default())
    }
}

impl ReadyQueue {
    /// An empty queue running the given shipped policy.
    pub fn new(policy: SchedulingPolicy) -> Self {
        ReadyQueue { policy, imp: policy.build() }
    }

    /// An empty queue running a caller-supplied policy object (the
    /// plug-in point for policies not shipped in this crate). The
    /// reporting id is taken from [`SchedPolicy::kind`].
    pub fn with_impl(imp: Box<dyn SchedPolicy>) -> Self {
        ReadyQueue { policy: imp.kind(), imp }
    }

    /// The policy id in use.
    pub fn policy(&self) -> SchedulingPolicy {
        self.policy
    }

    /// Whether [`ReadyQueue::enqueue_woken`] wants a real [`WakeInfo`]
    /// snapshot (see [`SchedPolicy::uses_residency`]).
    pub fn uses_residency(&self) -> bool {
        self.imp.uses_residency()
    }

    /// Enqueues a newly created thread.
    pub fn enqueue_new(&mut self, t: ThreadId) {
        self.imp.enqueue_new(t);
    }

    /// Enqueues a thread that was just awoken, with the residency
    /// snapshot taken at the wake instant.
    pub fn enqueue_woken(&mut self, t: ThreadId, wake: WakeInfo) {
        self.imp.enqueue_woken(t, wake);
    }

    /// Takes the next thread to run.
    pub fn pop(&mut self) -> Option<ThreadId> {
        self.imp.pop()
    }

    /// Number of ready threads — the paper's *parallel slackness* at this
    /// instant ("the number of threads available for execution at a given
    /// time, excepting currently executed threads", §5).
    pub fn len(&self) -> usize {
        self.imp.len()
    }

    /// Whether no thread is ready.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Plain FIFO: wake order is dispatch order.
#[derive(Debug, Default)]
pub struct FifoPolicy {
    queue: VecDeque<ThreadId>,
}

impl SchedPolicy for FifoPolicy {
    fn kind(&self) -> SchedulingPolicy {
        SchedulingPolicy::Fifo
    }

    fn enqueue_new(&mut self, t: ThreadId) {
        self.queue.push_back(t);
    }

    fn enqueue_woken(&mut self, t: ThreadId, _wake: WakeInfo) {
        self.queue.push_back(t);
    }

    fn pop(&mut self) -> Option<ThreadId> {
        self.queue.pop_front()
    }

    fn len(&self) -> usize {
        self.queue.len()
    }

    fn uses_residency(&self) -> bool {
        false
    }
}

/// The §4.6 working-set policy as a two-segment queue: threads woken
/// with windows still resident dispatch before everything else but stay
/// FIFO *among themselves*; threads without resident windows (and fresh
/// threads) queue FIFO behind them.
///
/// The paper's one-liner — "it is enqueued in front of the ready queue"
/// — taken literally as `push_front` made consecutive resident wakes
/// dispatch LIFO (the last-woken jumped the first-woken), an accidental
/// inversion the two segments remove: preference is between classes,
/// order within a class is arrival order.
#[derive(Debug, Default)]
pub struct WorkingSetPolicy {
    /// Woken-with-resident-windows segment, FIFO.
    resident: VecDeque<ThreadId>,
    /// Everything else, FIFO.
    back: VecDeque<ThreadId>,
}

impl SchedPolicy for WorkingSetPolicy {
    fn kind(&self) -> SchedulingPolicy {
        SchedulingPolicy::WorkingSet
    }

    fn enqueue_new(&mut self, t: ThreadId) {
        self.back.push_back(t);
    }

    fn enqueue_woken(&mut self, t: ThreadId, wake: WakeInfo) {
        if wake.has_windows() {
            self.resident.push_back(t);
        } else {
            self.back.push_back(t);
        }
    }

    fn pop(&mut self) -> Option<ThreadId> {
        self.resident.pop_front().or_else(|| self.back.pop_front())
    }

    fn len(&self) -> usize {
        self.resident.len() + self.back.len()
    }
}

/// Window-based greedy contention management, after Sharma et al.:
/// resident-window overlap is treated like a transactional conflict.
/// Three FIFO segments — resident threads first (they own windows;
/// running them exploits and then frees those windows soonest), then
/// non-conflicting threads, then *conflicting* threads: woken threads
/// with no resident windows at a moment when the register file has no
/// discardable window left while some ready thread still holds a
/// working set. Dispatching such a thread would necessarily evict a
/// ready peer's windows, so the greedy manager makes it lose the
/// conflict and run last.
#[derive(Debug, Default)]
pub struct WindowGreedyPolicy {
    /// Woken-with-resident-windows segment, FIFO.
    resident: VecDeque<ThreadId>,
    /// Non-conflicting threads, FIFO.
    back: VecDeque<ThreadId>,
    /// Conflict losers, FIFO, dispatched only when nothing else is ready.
    penalty: VecDeque<ThreadId>,
}

impl SchedPolicy for WindowGreedyPolicy {
    fn kind(&self) -> SchedulingPolicy {
        SchedulingPolicy::WindowGreedy
    }

    fn enqueue_new(&mut self, t: ThreadId) {
        self.back.push_back(t);
    }

    fn enqueue_woken(&mut self, t: ThreadId, wake: WakeInfo) {
        if wake.has_windows() {
            self.resident.push_back(t);
        } else if wake.free_windows == 0 && !self.resident.is_empty() {
            // No discardable window anywhere and a ready thread still
            // holds a working set: running `t` first would evict it.
            self.penalty.push_back(t);
        } else {
            self.back.push_back(t);
        }
    }

    fn pop(&mut self) -> Option<ThreadId> {
        self.resident
            .pop_front()
            .or_else(|| self.back.pop_front())
            .or_else(|| self.penalty.pop_front())
    }

    fn len(&self) -> usize {
        self.resident.len() + self.back.len() + self.penalty.len()
    }
}

/// The priority/aging hybrid: working-set preference with a starvation
/// bound. Entries carry the dispatch tick at which they were enqueued;
/// once the back-segment front has been overtaken for [`AGING_LIMIT`]
/// pops it is force-promoted ahead of the residency preference.
///
/// The bound this buys: a thread enqueued behind `k` earlier
/// back-segment entries is dispatched within `AGING_LIMIT + k + 1`
/// pops of its enqueue, no matter how many resident threads keep
/// arriving (each pop retires one thread, and after `AGING_LIMIT`
/// pops every aged entry ahead of it drains first).
#[derive(Debug, Default)]
pub struct AgingPolicy {
    /// Woken-with-resident-windows segment, FIFO.
    resident: VecDeque<ThreadId>,
    /// Everything else with its enqueue tick, FIFO (ticks ascending).
    back: VecDeque<(ThreadId, u64)>,
    /// Dispatches so far — the policy's clock.
    tick: u64,
}

impl SchedPolicy for AgingPolicy {
    fn kind(&self) -> SchedulingPolicy {
        SchedulingPolicy::Aging
    }

    fn enqueue_new(&mut self, t: ThreadId) {
        self.back.push_back((t, self.tick));
    }

    fn enqueue_woken(&mut self, t: ThreadId, wake: WakeInfo) {
        if wake.has_windows() {
            self.resident.push_back(t);
        } else {
            self.back.push_back((t, self.tick));
        }
    }

    fn pop(&mut self) -> Option<ThreadId> {
        self.tick += 1;
        // Ticks are assigned monotonically, so the back front is the
        // oldest non-resident entry; promote it once it has aged out.
        if let Some(&(t, enqueued)) = self.back.front() {
            if self.tick.saturating_sub(enqueued) > AGING_LIMIT {
                self.back.pop_front();
                return Some(t);
            }
        }
        self.resident.pop_front().or_else(|| self.back.pop_front().map(|(t, _)| t))
    }

    fn len(&self) -> usize {
        self.resident.len() + self.back.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: usize) -> ThreadId {
        ThreadId::new(i)
    }

    /// A wake snapshot with `resident` windows still in the file and
    /// `free` discardable slots.
    fn wake(resident: usize, free: usize) -> WakeInfo {
        WakeInfo { resident, free_windows: free, nwindows: 8 }
    }

    #[test]
    fn fifo_enqueues_woken_at_back() {
        let mut q = ReadyQueue::new(SchedulingPolicy::Fifo);
        assert!(!q.uses_residency());
        q.enqueue_new(t(0));
        q.enqueue_woken(t(1), wake(3, 0));
        q.enqueue_woken(t(2), wake(0, 0));
        assert_eq!(q.pop(), Some(t(0)));
        assert_eq!(q.pop(), Some(t(1)));
        assert_eq!(q.pop(), Some(t(2)));
    }

    #[test]
    fn working_set_prioritises_resident_threads() {
        let mut q = ReadyQueue::new(SchedulingPolicy::WorkingSet);
        assert!(q.uses_residency());
        q.enqueue_new(t(0));
        q.enqueue_woken(t(1), wake(0, 2)); // no windows: back
        q.enqueue_woken(t(2), wake(1, 2)); // windows resident: ahead
        assert_eq!(q.pop(), Some(t(2)));
        assert_eq!(q.pop(), Some(t(0)));
        assert_eq!(q.pop(), Some(t(1)));
    }

    /// The wake-order regression: consecutive resident wakes must
    /// dispatch in wake order, not LIFO as the old `push_front` did.
    #[test]
    fn working_set_keeps_resident_threads_fifo_among_themselves() {
        let mut q = ReadyQueue::new(SchedulingPolicy::WorkingSet);
        q.enqueue_new(t(0));
        q.enqueue_woken(t(1), wake(2, 1));
        q.enqueue_woken(t(2), wake(1, 1));
        q.enqueue_woken(t(3), wake(0, 1));
        q.enqueue_woken(t(4), wake(3, 1));
        // Resident wakes in wake order (1, 2, 4), then the fresh thread,
        // then the windowless wake.
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![t(1), t(2), t(4), t(0), t(3)]);
    }

    #[test]
    fn window_greedy_penalises_conflicting_wakes() {
        let mut q = ReadyQueue::new(SchedulingPolicy::WindowGreedy);
        q.enqueue_woken(t(0), wake(2, 0)); // resident
        q.enqueue_woken(t(1), wake(0, 0)); // would evict t0's windows
        q.enqueue_woken(t(2), wake(0, 1)); // a free window exists: no conflict
        q.enqueue_woken(t(3), wake(1, 0)); // resident, after t0
        assert_eq!(q.pop(), Some(t(0)));
        assert_eq!(q.pop(), Some(t(3)));
        assert_eq!(q.pop(), Some(t(2)));
        assert_eq!(q.pop(), Some(t(1)));
    }

    #[test]
    fn window_greedy_without_resident_peers_is_working_set() {
        let mut q = ReadyQueue::new(SchedulingPolicy::WindowGreedy);
        // File full but nobody ready holds windows: no conflict to lose.
        q.enqueue_woken(t(0), wake(0, 0));
        q.enqueue_woken(t(1), wake(0, 0));
        assert_eq!(q.pop(), Some(t(0)));
        assert_eq!(q.pop(), Some(t(1)));
    }

    /// The aging hybrid's starvation bound: a windowless thread facing
    /// an endless stream of resident wakes is dispatched within
    /// [`AGING_LIMIT`] + 1 pops (it queued alone in the back segment).
    #[test]
    fn aging_bounds_starvation_under_bursty_resident_wakes() {
        let mut q = ReadyQueue::new(SchedulingPolicy::Aging);
        q.enqueue_woken(t(9), wake(0, 0));
        // `waited` counts the pops t9 lost before its dispatch.
        for waited in 0u64..100 {
            // A fresh resident wake lands before every dispatch — the
            // bursty pattern that starves t9 forever under WorkingSet.
            q.enqueue_woken(t((waited % 8) as usize), wake(1, 0));
            let popped = q.pop().unwrap();
            if popped == t(9) {
                assert!(waited <= AGING_LIMIT, "aged out after {waited} pops");
                return;
            }
        }
        panic!("t9 starved for 100 dispatches");
    }

    /// Contrast case: under plain WorkingSet the same bursty pattern
    /// starves the windowless thread indefinitely.
    #[test]
    fn working_set_starves_under_the_same_burst() {
        let mut q = ReadyQueue::new(SchedulingPolicy::WorkingSet);
        q.enqueue_woken(t(9), wake(0, 0));
        for i in 0..100 {
            q.enqueue_woken(t(i % 8), wake(1, 0));
            assert_ne!(q.pop(), Some(t(9)));
        }
    }

    #[test]
    fn aging_is_working_set_when_nothing_ages() {
        let mut q = ReadyQueue::new(SchedulingPolicy::Aging);
        q.enqueue_new(t(0));
        q.enqueue_woken(t(1), wake(0, 2));
        q.enqueue_woken(t(2), wake(1, 2));
        assert_eq!(q.pop(), Some(t(2)));
        assert_eq!(q.pop(), Some(t(0)));
        assert_eq!(q.pop(), Some(t(1)));
    }

    #[test]
    fn len_tracks_parallel_slackness() {
        for policy in SchedulingPolicy::ALL {
            let mut q = ReadyQueue::new(policy);
            assert!(q.is_empty());
            q.enqueue_new(t(0));
            q.enqueue_new(t(1));
            assert_eq!(q.len(), 2, "{policy}");
            q.pop();
            assert_eq!(q.len(), 1, "{policy}");
        }
    }

    #[test]
    fn policy_names_round_trip() {
        for policy in SchedulingPolicy::ALL {
            assert_eq!(SchedulingPolicy::parse(policy.name()), Some(policy));
            assert_eq!(SchedulingPolicy::parse(&policy.name().to_lowercase()), Some(policy));
        }
        assert_eq!(SchedulingPolicy::Fifo.to_string(), "FIFO");
        assert_eq!(SchedulingPolicy::WorkingSet.to_string(), "WorkingSet");
        assert_eq!(SchedulingPolicy::WindowGreedy.to_string(), "WindowGreedy");
        assert_eq!(SchedulingPolicy::Aging.to_string(), "Aging");
        assert_eq!(SchedulingPolicy::parse("nope"), None);
    }

    #[test]
    fn custom_policy_plugs_in_through_with_impl() {
        /// LIFO — deliberately not shipped; stands in for an
        /// out-of-tree experiment refining FIFO.
        #[derive(Debug, Default)]
        struct Lifo(Vec<ThreadId>);
        impl SchedPolicy for Lifo {
            fn kind(&self) -> SchedulingPolicy {
                SchedulingPolicy::Fifo
            }
            fn enqueue_new(&mut self, t: ThreadId) {
                self.0.push(t);
            }
            fn enqueue_woken(&mut self, t: ThreadId, _wake: WakeInfo) {
                self.0.push(t);
            }
            fn pop(&mut self) -> Option<ThreadId> {
                self.0.pop()
            }
            fn len(&self) -> usize {
                self.0.len()
            }
            fn uses_residency(&self) -> bool {
                false
            }
        }
        let mut q = ReadyQueue::with_impl(Box::new(Lifo::default()));
        assert_eq!(q.policy(), SchedulingPolicy::Fifo);
        q.enqueue_new(t(0));
        q.enqueue_new(t(1));
        assert_eq!(q.pop(), Some(t(1)));
        assert_eq!(q.pop(), Some(t(0)));
    }
}
