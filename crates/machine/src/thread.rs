//! Thread identity and per-thread window bookkeeping.

use crate::backing::BackingStore;
use crate::regfile::OUTS_PER_WINDOW;
use crate::window::{run_mask, WindowIndex};
use std::fmt;

/// Identifier of a simulated thread, assigned by [`crate::Machine::add_thread`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(usize);

impl ThreadId {
    /// Creates a thread id from a raw index. Normally obtained from
    /// [`crate::Machine::add_thread`] instead.
    pub const fn new(index: usize) -> Self {
        ThreadId(index)
    }

    /// The raw index.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Per-thread window-management state: where the thread's resident frames
/// are, what is spilled to memory, and the thread-control-block fields the
/// schemes save registers into across context switches.
#[derive(Debug, Clone)]
pub struct ThreadState {
    id: ThreadId,
    /// Physical window of the innermost resident live frame, if any.
    top: Option<WindowIndex>,
    /// Number of resident live frames (contiguous from `top` downward).
    resident: usize,
    /// The mask of windows holding dead frames of this thread: above its
    /// stack-top, enterable by a `save` without trapping, released when
    /// it is suspended. Written by `Machine` only.
    pub(crate) dead: u64,
    /// Spilled frames, innermost last.
    backing: BackingStore,
    /// The thread's private reserved window (SP scheme only).
    prw: Option<WindowIndex>,
    /// `out` registers of the stack-top window, saved here across context
    /// switches by schemes that cannot keep them in the register file.
    tcb_outs: [u64; OUTS_PER_WINDOW],
    /// Whether the thread has been started (given its initial frame).
    started: bool,
    /// Whether the thread has terminated and released its windows.
    terminated: bool,
}

impl ThreadState {
    pub(crate) fn new(id: ThreadId) -> Self {
        ThreadState {
            id,
            top: None,
            resident: 0,
            dead: 0,
            backing: BackingStore::new(),
            prw: None,
            tcb_outs: [0; OUTS_PER_WINDOW],
            started: false,
            terminated: false,
        }
    }

    /// The thread's id.
    pub fn id(&self) -> ThreadId {
        self.id
    }

    /// Physical window of the stack-top (innermost resident) frame.
    pub fn top(&self) -> Option<WindowIndex> {
        self.top
    }

    /// Physical window of the stack-bottom (outermost resident) frame.
    pub fn bottom(&self, nwindows: usize) -> Option<WindowIndex> {
        self.top.map(|t| t.below_by(self.resident - 1, nwindows))
    }

    /// Number of resident live frames.
    pub fn resident(&self) -> usize {
        self.resident
    }

    /// The mask of the resident run: `resident` windows from the
    /// stack-top downward.
    pub(crate) fn live_mask(&self, nwindows: usize) -> u64 {
        self.top.map_or(0, |top| run_mask(top, self.resident, nwindows))
    }

    /// The mask of the thread's PRW, if it holds one.
    pub(crate) fn prw_mask(&self) -> u64 {
        self.prw.map_or(0, WindowIndex::bit)
    }

    /// Total live frames: resident plus spilled.
    pub fn depth(&self) -> usize {
        self.resident + self.backing.len()
    }

    /// The thread's memory save-area.
    pub fn backing(&self) -> &BackingStore {
        &self.backing
    }

    /// The thread's private reserved window, if the scheme in use keeps
    /// one (SP).
    pub fn prw(&self) -> Option<WindowIndex> {
        self.prw
    }

    /// The TCB copy of the stack-top window's `out` registers.
    pub fn tcb_outs(&self) -> &[u64; OUTS_PER_WINDOW] {
        &self.tcb_outs
    }

    /// Whether the thread has received its initial frame.
    pub fn started(&self) -> bool {
        self.started
    }

    /// Whether the thread has terminated.
    pub fn terminated(&self) -> bool {
        self.terminated
    }

    // Crate-internal mutators, used by `Machine` only, so that all state
    // transitions flow through the machine's invariant-checked primitives.

    pub(crate) fn set_top(&mut self, top: Option<WindowIndex>) {
        self.top = top;
    }

    pub(crate) fn set_resident(&mut self, resident: usize) {
        self.resident = resident;
    }

    pub(crate) fn backing_mut(&mut self) -> &mut BackingStore {
        &mut self.backing
    }

    pub(crate) fn set_prw(&mut self, prw: Option<WindowIndex>) {
        self.prw = prw;
    }

    pub(crate) fn tcb_outs_mut(&mut self) -> &mut [u64; OUTS_PER_WINDOW] {
        &mut self.tcb_outs
    }

    pub(crate) fn set_started(&mut self) {
        self.started = true;
    }

    pub(crate) fn set_terminated(&mut self) {
        self.terminated = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bottom_is_resident_minus_one_below_top() {
        let mut ts = ThreadState::new(ThreadId::new(0));
        ts.set_top(Some(WindowIndex::new(2)));
        ts.set_resident(3);
        assert_eq!(ts.bottom(8), Some(WindowIndex::new(4)));
    }

    #[test]
    fn bottom_wraps_cyclically() {
        let mut ts = ThreadState::new(ThreadId::new(0));
        ts.set_top(Some(WindowIndex::new(6)));
        ts.set_resident(4);
        assert_eq!(ts.bottom(8), Some(WindowIndex::new(1)));
    }

    #[test]
    fn depth_counts_resident_plus_spilled() {
        let mut ts = ThreadState::new(ThreadId::new(1));
        ts.set_top(Some(WindowIndex::new(0)));
        ts.set_resident(2);
        ts.backing_mut().push(crate::Frame::zeroed());
        assert_eq!(ts.depth(), 3);
    }

    #[test]
    fn display_thread_id() {
        assert_eq!(ThreadId::new(5).to_string(), "T5");
    }
}
