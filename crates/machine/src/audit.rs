//! Window-state integrity auditing and repair.
//!
//! The paper's schemes leave register windows *in situ* across context
//! switches (§3.2 restores in place, SP/SNP suspend without flushing),
//! which makes resident window state the longest-lived — and therefore
//! most corruption-exposed — piece of simulated machine state. The
//! [`WindowAuditor`] tracks, per physical window, an FNV-1a checksum of
//! the frame bytes that *should* be there, so the machine can verify a
//! thread's live windows on demand and at trap boundaries:
//!
//! * a **clean** window (unmodified since it was filled from the
//!   backing stack) that fails its check is *repaired* by re-writing
//!   the pristine frame recorded at fill time — the same bytes the
//!   backing stack held, which were themselves spilled intact: an
//!   audited spill whose transfer was perturbed is checked against the
//!   still-resident frame and repaired before it is pushed;
//! * a **dirty** window (written since it became current) has no
//!   pristine copy anywhere, so a mismatch surfaces as the typed
//!   [`crate::MachineError::UnrecoverableCorruption`] error and the
//!   runtime quarantines just the owning thread.
//!
//! The auditor is strictly opt-in ([`crate::Machine::enable_auditor`]);
//! without it the machine behaves exactly as before, byte for byte.
//! Checksums exist only on an audited machine: the backing stack is a
//! plain frame LIFO, and an unaudited machine computes no checksum at
//! all, with or without faults.

use crate::regfile::Frame;
use crate::window::WindowIndex;

/// 64-bit FNV-1a over the 16 stored registers of a frame, one 64-bit
/// word per step (ins then locals) — the integrity checksum used by the
/// window auditor. Each step is a bijection of the running hash, so a
/// change to any single register always changes the checksum.
pub fn frame_checksum(frame: &Frame) -> u64 {
    count_checksum();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &r in frame.ins.iter().chain(frame.locals.iter()) {
        hash ^= r;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Test builds count every [`frame_checksum`] call (see
/// `tests::checksums_computed`); other builds count nothing.
#[cfg(not(test))]
fn count_checksum() {}

/// What the auditor knows about one physical window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowTag {
    /// Not a tracked live frame (free, dead, reserved, or PRW slot).
    Untracked,
    /// A live frame that has been written since it became current — no
    /// pristine copy exists, so a checksum mismatch is unrecoverable.
    Dirty {
        /// Checksum of the frame as last legitimately written.
        sum: u64,
    },
    /// A live frame exactly as filled from the backing stack, with the
    /// pristine copy retained so a mismatch can be repaired in place.
    Clean {
        /// Checksum of the pristine frame.
        sum: u64,
        /// The frame as popped from the backing stack, before any
        /// transfer perturbation.
        pristine: Frame,
    },
}

/// Per-window integrity bookkeeping for one [`crate::Machine`]. The
/// machine drives the tag lifecycle (fill → `Clean`, any legitimate
/// write → `Dirty`, slot release → `Untracked`) and runs the actual
/// verification passes; the auditor owns the tags, the pending-write
/// bitmask and the repair counter.
///
/// Checksums are computed *lazily*: a legitimate register write only
/// sets the window's bit in `pending` (one OR on the hot path), and the
/// next audit point re-establishes that window's reference checksum
/// from the frame as it stands. Any tag transition (fill, fresh dirty
/// tag, untrack) clears the bit, so a stale pending mark can never
/// shadow a `Clean` tag's pristine copy or an eagerly recorded
/// reference.
///
/// Verification is equally lazy. Every path that can perturb a live
/// frame behind the tags' back (a corrupted fill transfer, a scheduled
/// resident bit-flip) also sets the window's bit in `suspect` — and
/// always *after* recording a trustworthy reference for it. An audit
/// pass therefore only needs to examine suspect windows: a window
/// whose bit is clear provably matches its reference (or has a stale
/// reference that nothing will ever consult), so a fault-free audit
/// point is a single bitmask test that computes no checksum at all.
#[derive(Debug, Clone)]
pub struct WindowAuditor {
    tags: Vec<WindowTag>,
    /// Bit `w` set ⇢ window `w` was legitimately written since its
    /// reference checksum was last established. One `u64` suffices:
    /// [`crate::Machine::new`] rejects window counts above 64.
    pending: u64,
    /// Bit `w` set ⇢ window `w` may have been perturbed behind the
    /// tags' back since its reference was recorded, and must be
    /// verified (and repaired, if possible) at the next audit point.
    suspect: u64,
    repairs: u64,
    checksums: u64,
}

impl WindowAuditor {
    /// An auditor for `nwindows` physical windows, all untracked.
    pub fn new(nwindows: usize) -> Self {
        WindowAuditor {
            tags: vec![WindowTag::Untracked; nwindows],
            pending: 0,
            suspect: 0,
            repairs: 0,
            checksums: 0,
        }
    }

    /// The tag currently recorded for window `w`.
    pub fn tag(&self, w: WindowIndex) -> WindowTag {
        self.tags[w.index()]
    }

    /// Whether window `w` holds a tracked live frame.
    pub(crate) fn is_tracked(&self, w: WindowIndex) -> bool {
        self.tags[w.index()] != WindowTag::Untracked
    }

    /// Notes a legitimate write to window `w` — the entire per-write
    /// cost of auditing.
    pub(crate) fn note_pending(&mut self, w: WindowIndex) {
        self.pending |= 1u64 << w.index();
    }

    /// Takes (tests and clears) window `w`'s pending-write bit.
    pub(crate) fn take_pending(&mut self, w: WindowIndex) -> bool {
        let bit = 1u64 << w.index();
        let was = self.pending & bit != 0;
        self.pending &= !bit;
        was
    }

    /// Flags window `w` as possibly perturbed behind the tags' back —
    /// called by the fault-injection sites, always after a trustworthy
    /// reference for `w` has been recorded.
    pub(crate) fn note_suspect(&mut self, w: WindowIndex) {
        self.suspect |= 1u64 << w.index();
    }

    /// Whether window `w` must be verified at the next audit point.
    #[cfg(test)]
    pub(crate) fn is_suspect(&self, w: WindowIndex) -> bool {
        self.suspect & (1u64 << w.index()) != 0
    }

    /// Whether any window at all awaits verification — the audit-point
    /// fast path: when this is false the whole pass is skipped.
    pub(crate) fn any_suspect(&self) -> bool {
        self.suspect != 0
    }

    /// Takes (tests and clears) window `w`'s suspect bit.
    pub(crate) fn take_suspect(&mut self, w: WindowIndex) -> bool {
        let bit = 1u64 << w.index();
        let was = self.suspect & bit != 0;
        self.suspect &= !bit;
        was
    }

    /// Tags `w` as a dirty live frame with checksum `sum`. The fresh
    /// reference supersedes any pending or suspect mark.
    pub(crate) fn mark_dirty(&mut self, w: WindowIndex, sum: u64) {
        self.tags[w.index()] = WindowTag::Dirty { sum };
        let bit = 1u64 << w.index();
        self.pending &= !bit;
        self.suspect &= !bit;
    }

    /// Tags `w` as a clean live frame filled with `pristine`. The fresh
    /// reference supersedes any pending or suspect mark.
    pub(crate) fn mark_clean(&mut self, w: WindowIndex, sum: u64, pristine: Frame) {
        self.tags[w.index()] = WindowTag::Clean { sum, pristine };
        let bit = 1u64 << w.index();
        self.pending &= !bit;
        self.suspect &= !bit;
    }

    /// Stops tracking `w` (the slot no longer holds a live frame).
    pub(crate) fn untrack(&mut self, w: WindowIndex) {
        self.tags[w.index()] = WindowTag::Untracked;
        let bit = 1u64 << w.index();
        self.pending &= !bit;
        self.suspect &= !bit;
    }

    /// Counts `n` repairs performed by a verification pass.
    pub(crate) fn add_repairs(&mut self, n: u64) {
        self.repairs = self.repairs.saturating_add(n);
    }

    /// Counts `n` audit-purpose frame checksums computed by the machine
    /// on this auditor's behalf.
    pub(crate) fn add_checksums(&mut self, n: u64) {
        self.checksums = self.checksums.saturating_add(n);
    }

    /// Total windows (resident frames and backing-stack tops) repaired
    /// so far.
    pub fn repairs(&self) -> u64 {
        self.repairs
    }

    /// Total frame checksums computed to verify frames so far: the
    /// enable-time baseline, audit points, and the fault sites that
    /// record an eager reference. Lazy auditing concentrates these at
    /// the corruption-capable transfers themselves: between two audits
    /// the count stays flat no matter how many registers are written,
    /// and on a fault-free run it never grows past the baseline. The
    /// reference sum a fill records for its `Clean` tag belongs to the
    /// transfer and is not counted here.
    pub fn checksums(&self) -> u64 {
        self.checksums
    }
}

#[cfg(test)]
use tests::count_checksum;

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        static COMPUTED: Cell<u64> = const { Cell::new(0) };
    }

    pub(super) fn count_checksum() {
        COMPUTED.with(|n| n.set(n.get() + 1));
    }

    /// Frame checksums computed on this thread so far, audited or not
    /// (per thread, so parallel tests do not disturb each other).
    pub(crate) fn checksums_computed() -> u64 {
        COMPUTED.with(Cell::get)
    }

    #[test]
    fn frame_checksum_matches_fnv_reference_on_zeroes() {
        // Sixteen zero words: the FNV-1a offset basis times the FNV
        // prime to the 16th power (mod 2^64). A one-bit flip changes it.
        let zero = Frame::zeroed();
        let base = frame_checksum(&zero);
        assert_eq!(base, 0x8820_1fb9_60ff_6465);
        let mut flipped = zero;
        flipped.ins[0] = 1;
        assert_ne!(base, frame_checksum(&flipped));
        // Deterministic.
        assert_eq!(base, frame_checksum(&Frame::zeroed()));
    }

    #[test]
    fn checksum_covers_every_register() {
        let base = frame_checksum(&Frame::zeroed());
        for i in 0..8 {
            let mut f = Frame::zeroed();
            f.ins[i] = 0xff;
            assert_ne!(frame_checksum(&f), base, "ins[{i}] not covered");
            let mut f = Frame::zeroed();
            f.locals[i] = 0xff;
            assert_ne!(frame_checksum(&f), base, "locals[{i}] not covered");
        }
    }

    #[test]
    fn tag_lifecycle_roundtrips() {
        let mut a = WindowAuditor::new(4);
        let w = WindowIndex::new(2);
        assert!(!a.is_tracked(w));
        a.mark_dirty(w, 7);
        assert_eq!(a.tag(w), WindowTag::Dirty { sum: 7 });
        let pristine = Frame::zeroed();
        a.mark_clean(w, frame_checksum(&pristine), pristine);
        assert!(matches!(a.tag(w), WindowTag::Clean { .. }));
        a.untrack(w);
        assert!(!a.is_tracked(w));
        assert_eq!(a.repairs(), 0);
        a.add_repairs(2);
        assert_eq!(a.repairs(), 2);
    }

    /// Whether window `w` has a legitimate write pending.
    fn is_pending(a: &WindowAuditor, w: WindowIndex) -> bool {
        a.pending & (1u64 << w.index()) != 0
    }

    #[test]
    fn pending_bits_are_per_window_and_cleared_by_tag_transitions() {
        let mut a = WindowAuditor::new(64);
        let w2 = WindowIndex::new(2);
        let w63 = WindowIndex::new(63);
        assert!(!is_pending(&a, w2));
        a.note_pending(w2);
        a.note_pending(w63);
        assert!(is_pending(&a, w2) && is_pending(&a, w63));
        // take is test-and-clear, per window.
        assert!(a.take_pending(w2));
        assert!(!is_pending(&a, w2) && is_pending(&a, w63));
        assert!(!a.take_pending(w2));
        // Every tag transition clears the bit: a stale pending mark must
        // never survive into a fresh Clean/Dirty reference (it would make
        // the next audit re-baseline a corrupted frame).
        a.note_pending(w2);
        a.mark_clean(w2, 0, Frame::zeroed());
        assert!(!is_pending(&a, w2));
        a.note_pending(w2);
        a.mark_dirty(w2, 1);
        assert!(!is_pending(&a, w2));
        a.note_pending(w2);
        a.untrack(w2);
        assert!(!is_pending(&a, w2));
        // w63 was untouched throughout.
        assert!(a.take_pending(w63));
    }

    #[test]
    fn suspect_bits_gate_verification_and_clear_on_transitions() {
        let mut a = WindowAuditor::new(64);
        let w = WindowIndex::new(3);
        let w63 = WindowIndex::new(63);
        assert!(!a.any_suspect());
        a.note_suspect(w);
        a.note_suspect(w63);
        assert!(a.any_suspect() && a.is_suspect(w) && a.is_suspect(w63));
        // take is test-and-clear, per window.
        assert!(a.take_suspect(w));
        assert!(!a.take_suspect(w) && a.is_suspect(w63));
        assert!(a.take_suspect(w63));
        assert!(!a.any_suspect());
        // A fresh reference supersedes suspicion: the injection sites
        // always record the trustworthy reference first, then flag.
        a.note_suspect(w);
        a.mark_dirty(w, 1);
        assert!(!a.is_suspect(w));
        a.note_suspect(w);
        a.mark_clean(w, 0, Frame::zeroed());
        assert!(!a.is_suspect(w));
        a.note_suspect(w);
        a.untrack(w);
        assert!(!a.is_suspect(w) && !a.any_suspect());
    }

    #[test]
    fn checksum_counter_accumulates() {
        let mut a = WindowAuditor::new(4);
        assert_eq!(a.checksums(), 0);
        a.add_checksums(3);
        a.add_checksums(2);
        assert_eq!(a.checksums(), 5);
    }
}
