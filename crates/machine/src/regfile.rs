//! The physical register file: overlapping windows.
//!
//! Each window presents 24 registers to its procedure: 8 `in`, 8 `local`,
//! 8 `out`. Physically the file stores only `in` + `local` per window —
//! a window's `out` registers **alias the `in` registers of the window
//! above** (the callee direction), which is how SPARC's overlap passes
//! arguments and return values without copying.

use crate::window::WindowIndex;
use std::fmt;

/// Number of `in` registers per window.
pub const INS_PER_WINDOW: usize = 8;
/// Number of `local` registers per window.
pub const LOCALS_PER_WINDOW: usize = 8;
/// Number of `out` registers per window (aliases of the window above's ins).
pub const OUTS_PER_WINDOW: usize = 8;
/// Registers physically stored per window (`in` + `local`) — exactly what a
/// window trap transfers to or from memory.
pub const REGS_PER_FRAME: usize = INS_PER_WINDOW + LOCALS_PER_WINDOW;

/// The physically-stored portion of one window: 8 `in` + 8 `local`
/// registers. This is also the unit spilled to and restored from memory by
/// the window trap handlers ("the term window means only in and local
/// registers", paper §2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Frame {
    /// The `in` registers (`%i0`–`%i7`).
    pub ins: [u64; INS_PER_WINDOW],
    /// The `local` registers (`%l0`–`%l7`).
    pub locals: [u64; LOCALS_PER_WINDOW],
}

impl Frame {
    /// A zero-filled frame, as a fresh thread's initial window.
    pub const fn zeroed() -> Self {
        Frame { ins: [0; INS_PER_WINDOW], locals: [0; LOCALS_PER_WINDOW] }
    }
}

impl Default for Frame {
    fn default() -> Self {
        Frame::zeroed()
    }
}

impl fmt::Display for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ins={:x?} locals={:x?}", self.ins, self.locals)
    }
}

/// The cyclic physical register file: `nwindows` frames plus 8 global
/// registers. Windows overlap: `outs(w) = ins(w.above())`.
///
/// ```rust
/// use regwin_machine::{RegisterFile, WindowIndex};
///
/// let mut rf = RegisterFile::new(8);
/// let w = WindowIndex::new(3);
/// // Writing window 3's outs is visible as window 2's ins (the callee):
/// rf.write_out(w, 0, 0xdead);
/// assert_eq!(rf.read_in(w.above(8), 0), 0xdead);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegisterFile {
    frames: Vec<Frame>,
    globals: [u64; 8],
    nwindows: usize,
}

impl RegisterFile {
    /// Creates a zeroed register file with `nwindows` windows.
    ///
    /// # Panics
    ///
    /// Panics if `nwindows` is zero.
    pub fn new(nwindows: usize) -> Self {
        assert!(nwindows > 0, "register file needs at least one window");
        RegisterFile { frames: vec![Frame::zeroed(); nwindows], globals: [0; 8], nwindows }
    }

    /// Number of physical windows.
    pub fn nwindows(&self) -> usize {
        self.nwindows
    }

    /// Reads `in` register `reg` of window `w`.
    ///
    /// # Panics
    ///
    /// Panics if `reg >= 8` or `w` is out of range.
    pub fn read_in(&self, w: WindowIndex, reg: usize) -> u64 {
        self.frames[w.index()].ins[reg]
    }

    /// Writes `in` register `reg` of window `w`.
    ///
    /// # Panics
    ///
    /// Panics if `reg >= 8` or `w` is out of range.
    pub fn write_in(&mut self, w: WindowIndex, reg: usize, value: u64) {
        debug_assert!(reg < INS_PER_WINDOW, "in register {reg} out of range");
        debug_assert!(w.index() < self.nwindows, "window {w} out of range");
        self.frames[w.index()].ins[reg] = value;
    }

    /// Reads `local` register `reg` of window `w`.
    ///
    /// # Panics
    ///
    /// Panics if `reg >= 8` or `w` is out of range.
    pub fn read_local(&self, w: WindowIndex, reg: usize) -> u64 {
        self.frames[w.index()].locals[reg]
    }

    /// Writes `local` register `reg` of window `w`.
    ///
    /// # Panics
    ///
    /// Panics if `reg >= 8` or `w` is out of range.
    pub fn write_local(&mut self, w: WindowIndex, reg: usize, value: u64) {
        debug_assert!(reg < LOCALS_PER_WINDOW, "local register {reg} out of range");
        debug_assert!(w.index() < self.nwindows, "window {w} out of range");
        self.frames[w.index()].locals[reg] = value;
    }

    /// Reads `out` register `reg` of window `w` — physically the `in`
    /// register of the window above.
    ///
    /// # Panics
    ///
    /// Panics if `reg >= 8` or `w` is out of range.
    pub fn read_out(&self, w: WindowIndex, reg: usize) -> u64 {
        self.read_in(w.above(self.nwindows), reg)
    }

    /// Writes `out` register `reg` of window `w` — physically the `in`
    /// register of the window above.
    ///
    /// # Panics
    ///
    /// Panics if `reg >= 8` or `w` is out of range.
    pub fn write_out(&mut self, w: WindowIndex, reg: usize, value: u64) {
        debug_assert!(reg < OUTS_PER_WINDOW, "out register {reg} out of range");
        debug_assert!(w.index() < self.nwindows, "window {w} out of range");
        self.write_in(w.above(self.nwindows), reg, value);
    }

    /// Reads global register `reg`.
    pub fn read_global(&self, reg: usize) -> u64 {
        self.globals[reg]
    }

    /// Writes global register `reg`. Writes to `%g0` are discarded, as on
    /// SPARC (it always reads zero).
    pub fn write_global(&mut self, reg: usize, value: u64) {
        if reg != 0 {
            self.globals[reg] = value;
        }
    }

    /// Copies the whole stored frame (ins + locals) of window `w` out of
    /// the file — the spill primitive used by overflow handlers.
    pub fn frame(&self, w: WindowIndex) -> Frame {
        self.frames[w.index()]
    }

    /// Overwrites the stored frame of window `w` — the restore primitive
    /// used by underflow handlers and context switches.
    pub fn set_frame(&mut self, w: WindowIndex, frame: Frame) {
        self.frames[w.index()] = frame;
    }

    /// Copies the `in` registers of window `w` into its `out` registers —
    /// the extra step of the proposed underflow algorithm (paper §3.2,
    /// Figure 8): before the caller's window is restored *in place*, the
    /// callee's live `in` registers (return values, stack pointer) must
    /// move to where the caller will see them as `out` registers.
    pub(crate) fn copy_ins_to_outs(&mut self, w: WindowIndex) {
        let ins = self.frames[w.index()].ins;
        let above = w.above(self.nwindows);
        self.frames[above.index()].ins = ins;
    }

    /// Copies only the conventional return-value registers (`%i0`, `%i1`)
    /// and the stack/frame pointer (`%i6`, `%i7`) from `w`'s ins to its
    /// outs — the "partial copy" variant of paper §3.2, which notes that
    /// "the registers to be copied are usually only the values returned
    /// from the procedure, and the stack pointer".
    pub(crate) fn copy_return_ins_to_outs(&mut self, w: WindowIndex) {
        let above = w.above(self.nwindows);
        for reg in [0usize, 1, 6, 7] {
            let v = self.frames[w.index()].ins[reg];
            self.frames[above.index()].ins[reg] = v;
        }
    }

    /// Zeroes the stored frame of `w` (used when granting a window to a
    /// fresh thread so no stale data leaks between threads).
    pub(crate) fn clear_frame(&mut self, w: WindowIndex) {
        self.frames[w.index()] = Frame::zeroed();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outs_alias_ins_of_window_above() {
        let n = 8;
        let mut rf = RegisterFile::new(n);
        let w = WindowIndex::new(5);
        rf.write_out(w, 3, 42);
        assert_eq!(rf.read_in(w.above(n), 3), 42);
        rf.write_in(w.above(n), 3, 43);
        assert_eq!(rf.read_out(w, 3), 43);
    }

    #[test]
    fn locals_are_private() {
        let n = 4;
        let mut rf = RegisterFile::new(n);
        for i in 0..n {
            rf.write_local(WindowIndex::new(i), 0, i as u64 + 100);
        }
        for i in 0..n {
            assert_eq!(rf.read_local(WindowIndex::new(i), 0), i as u64 + 100);
        }
    }

    #[test]
    fn overlap_is_cyclic_at_the_seam() {
        let n = 4;
        let mut rf = RegisterFile::new(n);
        // Window 0's outs are window 3's ins (0.above(4) == 3).
        rf.write_out(WindowIndex::new(0), 7, 7);
        assert_eq!(rf.read_in(WindowIndex::new(3), 7), 7);
    }

    #[test]
    fn frame_roundtrip() {
        let mut rf = RegisterFile::new(8);
        let w = WindowIndex::new(2);
        let mut f = Frame::zeroed();
        f.ins[0] = 1;
        f.locals[7] = 2;
        rf.set_frame(w, f);
        assert_eq!(rf.frame(w), f);
    }

    #[test]
    fn copy_ins_to_outs_moves_all_eight() {
        let n = 8;
        let mut rf = RegisterFile::new(n);
        let w = WindowIndex::new(4);
        for r in 0..8 {
            rf.write_in(w, r, 100 + r as u64);
        }
        rf.copy_ins_to_outs(w);
        for r in 0..8 {
            assert_eq!(rf.read_out(w, r), 100 + r as u64);
        }
    }

    #[test]
    fn copy_return_ins_to_outs_moves_only_ret_and_sp() {
        let n = 8;
        let mut rf = RegisterFile::new(n);
        let w = WindowIndex::new(4);
        for r in 0..8 {
            rf.write_in(w, r, 200 + r as u64);
        }
        rf.copy_return_ins_to_outs(w);
        for r in [0usize, 1, 6, 7] {
            assert_eq!(rf.read_out(w, r), 200 + r as u64);
        }
        for r in [2usize, 3, 4, 5] {
            assert_eq!(rf.read_out(w, r), 0);
        }
    }

    #[test]
    fn g0_is_hardwired_zero() {
        let mut rf = RegisterFile::new(2);
        rf.write_global(0, 99);
        assert_eq!(rf.read_global(0), 0);
        rf.write_global(1, 99);
        assert_eq!(rf.read_global(1), 99);
    }

    #[test]
    fn clear_frame_zeroes() {
        let mut rf = RegisterFile::new(4);
        let w = WindowIndex::new(1);
        rf.write_local(w, 3, 5);
        rf.clear_frame(w);
        assert_eq!(rf.frame(w), Frame::zeroed());
    }
}
