//! Property tests of the machine substrate: window-index algebra,
//! register-file overlap, backing-store discipline, single-thread
//! save/restore round trips against a software model, and random
//! multi-thread operation sequences. After every machine step the views
//! derived from the ownership masks (the WIM, each window's `SlotUse`
//! and the discardable count) must agree with each other.

use proptest::prelude::*;
use regwin_machine::{
    BackingStore, ExecOutcome, Frame, Machine, RegisterFile, SlotUse, ThreadId, TransferReason,
    WindowIndex,
};

/// Checks the machine's invariants and that its derived views agree: a
/// WIM bit is set exactly where the window is not valid for the current
/// thread, and the discardable count is the number of discardable
/// windows.
fn assert_derived_views(m: &Machine) {
    m.check_invariants().unwrap();
    let wim = m.wim();
    let mut discardable = 0;
    for i in 0..m.nwindows() {
        let w = WindowIndex::new(i);
        let slot = m.slot_use(w);
        let valid = m.current_thread().is_some_and(|t| slot.valid_for(t));
        prop_assert_eq!(wim.is_set(w), !valid, "WIM bit of {} ({})", w, slot);
        discardable += usize::from(slot.is_discardable());
    }
    prop_assert_eq!(m.discardable_windows(), discardable);
}

/// The first free window, if any.
fn find_free(m: &Machine) -> Option<WindowIndex> {
    (0..m.nwindows()).map(WindowIndex::new).find(|&w| m.slot_use(w) == SlotUse::Free)
}

/// One random step over the machine's primitives. Steps that keep the
/// CWP at the current thread's stack-top are allowed to fail; a failed
/// primitive must leave the machine consistent too.
fn random_step(m: &mut Machine, op: u8, a: usize, b: usize) {
    let n = m.nwindows();
    let t = ThreadId::new(a % m.thread_count());
    let w = WindowIndex::new(b % n);
    let current = m.current_thread();
    match op % 10 {
        // A call: resolve an overflow with the walk that owns the target.
        0 | 1 => {
            let Some(cur) = current else { return };
            if let ExecOutcome::Trapped(trap) = m.try_save().unwrap() {
                let resolved = if m.reserved() == Some(trap.target()) {
                    m.force_reserved_walk().is_ok()
                } else if m.thread(cur).unwrap().prw() == Some(trap.target()) {
                    m.force_prw_walk().is_ok()
                } else {
                    m.grant_slot(cur, trap.target()).is_ok()
                };
                if resolved {
                    m.complete_save().unwrap();
                }
            }
        }
        // A return: refill conventionally or in place.
        2 | 3 => {
            let Some(cur) = current else { return };
            if let ExecOutcome::Trapped(trap) = m.try_restore().unwrap() {
                if m.backing_of(cur).unwrap().is_empty() {
                    return;
                }
                if op.is_multiple_of(2) {
                    m.inplace_underflow(b.is_multiple_of(2)).unwrap();
                } else if m.restore_into(cur, trap.target(), TransferReason::Trap).is_ok() {
                    m.complete_restore().unwrap();
                }
            }
        }
        // A context switch to `t`, releasing the outgoing dead windows.
        4 => {
            if let Some(f) = current {
                m.release_dead_slots(f).unwrap();
                if b.is_multiple_of(3) {
                    m.flush_thread(f, TransferReason::Switch).unwrap();
                }
                m.set_current(None).unwrap();
            }
            let ts = m.thread(t).unwrap();
            if ts.terminated() {
                return;
            }
            if ts.resident() == 0 {
                let Some(slot) = find_free(m) else { return };
                if !ts.started() {
                    m.start_initial_frame(t, slot).unwrap();
                } else if !ts.backing().is_empty() {
                    m.restore_into(t, slot, TransferReason::Switch).unwrap();
                }
            }
            let top = m.thread(t).unwrap().top();
            m.set_current(top.map(|_| t)).unwrap();
        }
        5 => {
            let _ = m.grant_all_free(t);
        }
        6 => {
            let _ = m.grant_slot(t, w);
        }
        7 => {
            let _ = m.set_reserved((!b.is_multiple_of(4)).then_some(w));
        }
        8 => {
            let _ = match b % 3 {
                0 => m.assign_prw(t, w),
                1 => m.steal_prw(t),
                _ => m.release_prw(t),
            };
        }
        _ => {
            if current == Some(t) {
                return;
            }
            let _ = if b.is_multiple_of(4) {
                m.release_thread(t)
            } else {
                m.spill_bottom(t, TransferReason::Switch)
            };
        }
    }
}

proptest! {
    #[test]
    fn window_index_above_below_are_inverse(n in 2usize..=64, i in 0usize..64) {
        let w = WindowIndex::new(i % n);
        prop_assert_eq!(w.above(n).below(n), w);
        prop_assert_eq!(w.below(n).above(n), w);
    }

    #[test]
    fn window_index_k_steps_compose(n in 2usize..=64, i in 0usize..64, k in 0usize..200) {
        let w = WindowIndex::new(i % n);
        let mut manual = w;
        for _ in 0..k {
            manual = manual.below(n);
        }
        prop_assert_eq!(w.below_by(k, n), manual);
        let mut manual_up = w;
        for _ in 0..k {
            manual_up = manual_up.above(n);
        }
        prop_assert_eq!(w.above_by(k, n), manual_up);
    }

    #[test]
    fn distance_below_matches_walking(n in 2usize..=64, i in 0usize..64, j in 0usize..64) {
        let a = WindowIndex::new(i % n);
        let b = WindowIndex::new(j % n);
        let d = a.distance_below_to(b, n);
        prop_assert!(d < n);
        prop_assert_eq!(a.below_by(d, n), b);
    }

    /// The register-file overlap: writing out registers of window w is
    /// exactly writing in registers of w.above(), for every window and
    /// register, and locals never alias anything.
    #[test]
    fn overlap_aliasing_is_exact(
        n in 2usize..=32,
        wi in 0usize..32,
        reg in 0usize..8,
        value in any::<u64>(),
    ) {
        let w = WindowIndex::new(wi % n);
        let mut rf = RegisterFile::new(n);
        rf.write_out(w, reg, value);
        prop_assert_eq!(rf.read_in(w.above(n), reg), value);
        prop_assert_eq!(rf.read_out(w, reg), value);
        // Locals of every window are untouched.
        for k in 0..n {
            for r in 0..8 {
                prop_assert_eq!(rf.read_local(WindowIndex::new(k), r), 0);
            }
        }
    }

    /// Distinct (window, reg) in-register writes never interfere.
    #[test]
    fn ins_and_locals_are_independent_cells(
        n in 2usize..=16,
        writes in prop::collection::vec((0usize..16, 0usize..8, any::<bool>(), any::<u64>()), 1..40),
    ) {
        let mut rf = RegisterFile::new(n);
        let mut model = std::collections::HashMap::new();
        for (wi, reg, is_local, value) in writes {
            let w = WindowIndex::new(wi % n);
            if is_local {
                rf.write_local(w, reg, value);
            } else {
                rf.write_in(w, reg, value);
            }
            model.insert((w.index(), reg, is_local), value);
        }
        for ((wi, reg, is_local), value) in model {
            let got = if is_local {
                rf.read_local(WindowIndex::new(wi), reg)
            } else {
                rf.read_in(WindowIndex::new(wi), reg)
            };
            prop_assert_eq!(got, value);
        }
    }

    /// Random sequences of calls, returns, switches, grants,
    /// reservation and PRW moves, spills and releases over several
    /// threads keep every window with exactly one holder and the derived
    /// views in agreement, after every step.
    #[test]
    fn random_operations_keep_derived_views_consistent(
        n in 3usize..=64,
        threads in 1usize..=5,
        ops in prop::collection::vec((any::<u8>(), any::<usize>(), any::<usize>()), 1..200),
    ) {
        let mut m = Machine::new(n).unwrap();
        for _ in 0..threads {
            m.add_thread();
        }
        assert_derived_views(&m);
        for (op, a, b) in ops {
            random_step(&mut m, op, a, b);
            assert_derived_views(&m);
        }
    }

    /// The backing store is exactly a Vec-stack.
    #[test]
    fn backing_store_is_a_stack(ops in prop::collection::vec(any::<Option<u64>>(), 0..60)) {
        let mut store = BackingStore::new();
        let mut model: Vec<u64> = Vec::new();
        for op in ops {
            match op {
                Some(tag) => {
                    let mut f = Frame::zeroed();
                    f.locals[0] = tag;
                    store.push(f);
                    model.push(tag);
                }
                None => {
                    let got = store.pop().map(|f| f.locals[0]);
                    prop_assert_eq!(got, model.pop());
                }
            }
            prop_assert_eq!(store.len(), model.len());
            prop_assert_eq!(store.peek().map(|f| f.locals[0]), model.last().copied());
        }
    }

    /// Single-thread save/restore with classic handling preserves every
    /// frame's locals against a software stack, for any window count and
    /// any balanced call pattern.
    #[test]
    fn single_thread_frames_survive_any_call_pattern(
        n in 3usize..=12,
        pattern in prop::collection::vec(any::<bool>(), 1..150),
    ) {
        let mut m = Machine::new(n).unwrap();
        let t = m.add_thread();
        m.start_initial_frame(t, m.reserved().unwrap().above(n)).unwrap();
        m.set_current(Some(t)).unwrap();
        m.grant_all_free(t).unwrap();
        let mut model: Vec<u64> = vec![100];
        m.write_local(0, 100).unwrap();
        let mut next = 101u64;
        for deeper in pattern {
            if deeper {
                match m.try_save().unwrap() {
                    ExecOutcome::Completed => {}
                    ExecOutcome::Trapped(_) => {
                        m.force_reserved_walk().unwrap();
                        m.complete_save().unwrap();
                    }
                }
                m.write_local(0, next).unwrap();
                model.push(next);
                next += 1;
            } else if model.len() > 1 {
                match m.try_restore().unwrap() {
                    ExecOutcome::Completed => {}
                    ExecOutcome::Trapped(_) => {
                        // Conventional refill: restore below, walk the
                        // reservation down.
                        let target = m.reserved().unwrap();
                        let new_reserved = target.below(n);
                        prop_assert!(m.slot_use(new_reserved).is_discardable());
                        m.set_reserved(Some(new_reserved)).unwrap();
                        m.restore_into(t, target, regwin_machine::TransferReason::Trap)
                            .unwrap();
                        m.complete_restore().unwrap();
                    }
                }
                model.pop();
            } else {
                continue;
            }
            prop_assert_eq!(m.read_local(0).unwrap(), *model.last().unwrap());
            assert_derived_views(&m);
        }
    }

    /// Depth bookkeeping: resident + spilled always equals the model depth.
    #[test]
    fn depth_equals_resident_plus_spilled(
        n in 3usize..=8,
        calls in 1usize..40,
    ) {
        let mut m = Machine::new(n).unwrap();
        let t = m.add_thread();
        m.start_initial_frame(t, m.reserved().unwrap().above(n)).unwrap();
        m.set_current(Some(t)).unwrap();
        m.grant_all_free(t).unwrap();
        for depth in 1..=calls {
            match m.try_save().unwrap() {
                ExecOutcome::Completed => {}
                ExecOutcome::Trapped(_) => {
                    m.force_reserved_walk().unwrap();
                    m.complete_save().unwrap();
                }
            }
            let ts = m.thread(t).unwrap();
            prop_assert_eq!(ts.depth(), depth + 1);
            prop_assert_eq!(ts.resident() + m.backing_of(t).unwrap().len(), depth + 1);
            prop_assert!(ts.resident() < n, "at most n-1 resident with one reserved");
            assert_derived_views(&m);
        }
    }
}
