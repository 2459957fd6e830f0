//! Property-based differential testing of the window-management schemes.
//!
//! A shadow oracle models each thread's call stack as a plain `Vec` of
//! marker values. Random traces of calls, returns and context switches
//! are executed on the simulated CPU under every scheme and window count,
//! and every observable register value (argument `in`s, return-value
//! `out`s, caller `local`s) must match the oracle exactly. This is the
//! paper's central correctness claim — that window sharing with in-place
//! underflow is *semantically invisible* to the running threads — turned
//! into an executable property.

use proptest::prelude::*;
use regwin_traps::{build_scheme, Cpu, SchemeKind};

#[derive(Debug, Clone)]
enum Op {
    /// Switch to thread i (mod nthreads) and call a procedure.
    Call(usize),
    /// Switch to thread i and return from a procedure (skipped at depth 1).
    Return(usize),
    /// Switch to thread i and just look around.
    Inspect(usize),
}

fn op_strategy(nthreads: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..nthreads).prop_map(Op::Call),
        (0..nthreads).prop_map(Op::Return),
        (0..nthreads).prop_map(Op::Inspect),
    ]
}

/// One thread's shadow state: the marker stored in each live frame's
/// `local0`, plus the `out0` argument passed at each call.
#[derive(Debug, Default, Clone)]
struct ShadowThread {
    locals: Vec<u64>,
}

fn run_trace(kind: SchemeKind, nwindows: usize, nthreads: usize, ops: &[Op]) {
    let mut cpu = match Cpu::new(nwindows, build_scheme(kind)) {
        Ok(cpu) => cpu,
        Err(_) => return, // scheme needs more windows; property vacuous
    };
    let threads: Vec<_> = (0..nthreads).map(|_| cpu.add_thread()).collect();
    let mut shadow: Vec<ShadowThread> = vec![ShadowThread::default(); nthreads];
    let mut counter = 1000u64;

    // Start every thread with a marked initial frame.
    for (i, &t) in threads.iter().enumerate() {
        cpu.switch_to(t).unwrap();
        counter += 1;
        cpu.write_local(0, counter).unwrap();
        shadow[i].locals.push(counter);
    }

    for op in ops {
        match *op {
            Op::Call(i) => {
                cpu.switch_to(threads[i]).unwrap();
                counter += 1;
                let arg = counter;
                cpu.write_out(0, arg).unwrap();
                cpu.save().unwrap();
                // The argument must have crossed the window overlap.
                assert_eq!(cpu.read_in(0).unwrap(), arg, "{kind} arg passing");
                counter += 1;
                cpu.write_local(0, counter).unwrap();
                shadow[i].locals.push(counter);
            }
            Op::Return(i) => {
                if shadow[i].locals.len() <= 1 {
                    continue; // never return past the outermost frame
                }
                cpu.switch_to(threads[i]).unwrap();
                counter += 1;
                let ret = counter;
                cpu.write_in(0, ret).unwrap();
                cpu.restore().unwrap();
                shadow[i].locals.pop();
                assert_eq!(cpu.read_out(0).unwrap(), ret, "{kind} return value");
                assert_eq!(
                    cpu.read_local(0).unwrap(),
                    *shadow[i].locals.last().unwrap(),
                    "{kind} caller locals after return"
                );
            }
            Op::Inspect(i) => {
                cpu.switch_to(threads[i]).unwrap();
                assert_eq!(
                    cpu.read_local(0).unwrap(),
                    *shadow[i].locals.last().unwrap(),
                    "{kind} locals after resume"
                );
            }
        }
        cpu.check_invariants().unwrap();
    }

    // Unwind every thread completely; every frame must reappear.
    for (i, &t) in threads.iter().enumerate() {
        cpu.switch_to(t).unwrap();
        while shadow[i].locals.len() > 1 {
            cpu.restore().unwrap();
            shadow[i].locals.pop();
            assert_eq!(
                cpu.read_local(0).unwrap(),
                *shadow[i].locals.last().unwrap(),
                "{kind} final unwind"
            );
        }
    }
}

// Window counts reach 32, the paper sweep's maximum, so the machine's
// per-slot WIM upkeep is checked by `check_invariants` after every op
// at every size the sweeps run.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ns_matches_oracle(
        nwindows in 3usize..=32,
        ops in prop::collection::vec(op_strategy(4), 1..120),
    ) {
        run_trace(SchemeKind::Ns, nwindows, 4, &ops);
    }

    #[test]
    fn snp_matches_oracle(
        nwindows in 2usize..=32,
        ops in prop::collection::vec(op_strategy(4), 1..120),
    ) {
        run_trace(SchemeKind::Snp, nwindows, 4, &ops);
    }

    #[test]
    fn sp_matches_oracle(
        nwindows in 2usize..=32,
        ops in prop::collection::vec(op_strategy(4), 1..120),
    ) {
        run_trace(SchemeKind::Sp, nwindows, 4, &ops);
    }

    /// All three schemes must count the same saves/restores for the same
    /// trace (only traps, transfers and cycles may differ).
    #[test]
    fn schemes_agree_on_instruction_counts(
        nwindows in 3usize..=32,
        ops in prop::collection::vec(op_strategy(3), 1..80),
    ) {
        let mut counts = Vec::new();
        for kind in SchemeKind::ALL {
            let mut cpu = Cpu::new(nwindows, build_scheme(kind)).unwrap();
            let threads: Vec<_> = (0..3).map(|_| cpu.add_thread()).collect();
            let mut depth = [1usize; 3];
            for &t in &threads {
                cpu.switch_to(t).unwrap();
            }
            for op in &ops {
                match *op {
                    Op::Call(i) => {
                        cpu.switch_to(threads[i]).unwrap();
                        cpu.save().unwrap();
                        depth[i] += 1;
                    }
                    Op::Return(i) => {
                        if depth[i] > 1 {
                            cpu.switch_to(threads[i]).unwrap();
                            cpu.restore().unwrap();
                            depth[i] -= 1;
                        }
                    }
                    Op::Inspect(i) => cpu.switch_to(threads[i]).unwrap(),
                }
            }
            let s = cpu.stats();
            counts.push((s.saves_executed, s.restores_executed));
        }
        prop_assert_eq!(counts[0], counts[1]);
        prop_assert_eq!(counts[0], counts[2]);
    }
}
