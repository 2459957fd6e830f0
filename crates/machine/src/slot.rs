//! What a window is used for, as read from the machine.

use crate::thread::ThreadId;
use std::fmt;

/// What a physical window slot is currently used for.
///
/// A derived view: [`crate::Machine::slot_use`] computes it from the
/// machine's ownership masks, which are the only record of who holds a
/// window. The WIM is derived from the same masks and agrees with it: for
/// a current thread *T*, a slot is valid (WIM bit clear) exactly when it
/// is [`SlotUse::Live`]`(T)` or [`SlotUse::Dead`]`(T)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SlotUse {
    /// Nobody uses the slot; its contents are garbage.
    Free,
    /// Holds a live frame of the given thread (part of the contiguous
    /// resident run from the thread's stack-top to its stack-bottom).
    Live(ThreadId),
    /// A dead frame of the given thread, above its stack-top: the frame
    /// returned, but the thread may re-enter the slot with a `save`
    /// without trapping. Dead slots are released when the thread is
    /// suspended.
    Dead(ThreadId),
    /// The single global reserved window (NS and SNP schemes): the limit
    /// of stack growth; entering it traps.
    Reserved,
    /// The private reserved window of the given thread (SP scheme). Its
    /// `in` registers hold the `out` registers of that thread's stack-top
    /// window, so stealing it requires saving those to the thread's TCB.
    Prw(ThreadId),
}

impl SlotUse {
    /// Whether the slot is valid (no trap) for thread `t` to enter.
    pub fn valid_for(self, t: ThreadId) -> bool {
        matches!(self, SlotUse::Live(o) | SlotUse::Dead(o) if o == t)
    }

    /// Whether the slot holds no data that would need saving (free, a dead
    /// frame, or the global reserved marker).
    pub fn is_discardable(self) -> bool {
        matches!(self, SlotUse::Free | SlotUse::Dead(_) | SlotUse::Reserved)
    }
}

impl fmt::Display for SlotUse {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SlotUse::Free => write!(f, "free"),
            SlotUse::Live(t) => write!(f, "live({t})"),
            SlotUse::Dead(t) => write!(f, "dead({t})"),
            SlotUse::Reserved => write!(f, "reserved"),
            SlotUse::Prw(t) => write!(f, "prw({t})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validity_is_per_thread() {
        let a = ThreadId::new(0);
        let b = ThreadId::new(1);
        assert!(SlotUse::Live(a).valid_for(a));
        assert!(SlotUse::Dead(a).valid_for(a));
        assert!(!SlotUse::Live(a).valid_for(b));
        assert!(!SlotUse::Reserved.valid_for(a));
        assert!(!SlotUse::Prw(a).valid_for(a));
        assert!(!SlotUse::Free.valid_for(a));
    }

    #[test]
    fn discardable_slots() {
        let a = ThreadId::new(0);
        assert!(SlotUse::Free.is_discardable());
        assert!(SlotUse::Dead(a).is_discardable());
        assert!(SlotUse::Reserved.is_discardable());
        assert!(!SlotUse::Live(a).is_discardable());
        assert!(!SlotUse::Prw(a).is_discardable());
    }
}
