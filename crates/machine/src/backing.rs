//! Per-thread memory save-areas.

use crate::regfile::Frame;
use std::fmt;

/// A thread's register-save stack in memory: the frames of its call stack
/// that are *not* resident in the register file.
///
/// The stack discipline mirrors the hardware behaviour: overflow handlers
/// spill a thread's **stack-bottom** resident window, which is always the
/// innermost of the frames that will end up in memory — so a simple LIFO
/// models the `%sp`-addressed save areas exactly. Underflow handlers (and
/// context-switch restores) pop the most recently spilled frame, which is
/// always the one the thread needs next.
///
/// ```rust
/// use regwin_machine::{BackingStore, Frame};
///
/// let mut store = BackingStore::new();
/// let mut f = Frame::zeroed();
/// f.locals[0] = 7;
/// store.push(f);
/// assert_eq!(store.len(), 1);
/// assert_eq!(store.pop().unwrap().locals[0], 7);
/// ```
///
/// The store is a plain LIFO of frames: it keeps no integrity data. On an
/// audited machine the [`crate::WindowAuditor`] owns the checksums — a
/// corrupted spill is caught and repaired before the frame is pushed, so
/// the store only ever holds pristine frames, and a fill takes its
/// reference checksum from the frame it pops.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BackingStore {
    frames: Vec<Frame>,
    max_depth: usize,
}

impl BackingStore {
    /// An empty save-area.
    pub fn new() -> Self {
        BackingStore::default()
    }

    /// Number of frames currently in memory.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether no frames are in memory.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Spills a frame to memory (the frame becomes the next restore
    /// candidate).
    pub fn push(&mut self, frame: Frame) {
        self.frames.push(frame);
        self.max_depth = self.max_depth.max(self.frames.len());
    }

    /// Restores the most recently spilled frame, or `None` if the thread
    /// has no frames in memory.
    pub fn pop(&mut self) -> Option<Frame> {
        self.frames.pop()
    }

    /// Peeks at the frame a restore would return, without removing it.
    pub fn peek(&self) -> Option<&Frame> {
        self.frames.last()
    }

    /// Discards all frames (thread termination).
    pub fn clear(&mut self) {
        self.frames.clear();
    }

    /// High-water mark of frames simultaneously in memory — a measure of
    /// how much of the thread's window activity did not fit the file.
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }
}

impl fmt::Display for BackingStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} spilled frame(s)", self.frames.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(tag: u64) -> Frame {
        let mut f = Frame::zeroed();
        f.locals[0] = tag;
        f
    }

    #[test]
    fn lifo_order() {
        let mut b = BackingStore::new();
        b.push(frame(1));
        b.push(frame(2));
        b.push(frame(3));
        assert_eq!(b.pop().unwrap().locals[0], 3);
        assert_eq!(b.pop().unwrap().locals[0], 2);
        assert_eq!(b.pop().unwrap().locals[0], 1);
        assert!(b.pop().is_none());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut b = BackingStore::new();
        b.push(frame(9));
        assert_eq!(b.peek().unwrap().locals[0], 9);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn max_depth_tracks_high_water() {
        let mut b = BackingStore::new();
        b.push(frame(1));
        b.push(frame(2));
        b.pop();
        b.push(frame(3));
        assert_eq!(b.max_depth(), 2);
        b.push(frame(4));
        b.push(frame(5));
        assert_eq!(b.max_depth(), 4);
    }

    #[test]
    fn clear_empties_but_keeps_high_water() {
        let mut b = BackingStore::new();
        b.push(frame(1));
        b.push(frame(2));
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.max_depth(), 2);
    }
}
