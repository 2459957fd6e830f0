//! The fault-injection differential oracle: a *masked* fault (spill or
//! fill corruption) must reproduce the byte-identical [`RunReport`] of a
//! fault-free run, while an *unmasked* fault (transfer failure, trap
//! drop, stream failure) must surface as a typed error. A fault may
//! never silently change a reported number.

use regwin_machine::MachineError;
use regwin_rt::{Ctx, FaultKind, FaultPlan, RtError, RunReport, Simulation, StreamId};
use regwin_traps::{SchemeError, SchemeKind};

/// A deep-calling producer/consumer workload on 4 windows: depth-8 call
/// chains force overflow spills and underflow fills, and the stream
/// traffic exercises the runtime's stream-fault hooks.
fn run_with(plan: Option<&FaultPlan>) -> Result<RunReport, RtError> {
    let mut sim = Simulation::new(4, SchemeKind::Sp)?;
    if let Some(plan) = plan {
        sim = sim.with_fault_plan(plan);
    }
    let pipe = sim.add_stream("pipe", 4, 1);
    sim.spawn_async("producer", async move |ctx| {
        for b in 0u8..32 {
            deep(ctx, 8, pipe, b).await?;
        }
        ctx.close_writer(pipe)
    });
    sim.spawn_async("consumer", async move |ctx| {
        let mut sum = 0u64;
        while let Some(b) = ctx.read_byte(pipe).await? {
            sum += u64::from(b);
        }
        assert_eq!(sum, (0..32u64).sum::<u64>());
        Ok(())
    });
    sim.run()
}

async fn deep(ctx: &mut Ctx, depth: usize, pipe: StreamId, b: u8) -> Result<(), RtError> {
    if depth == 0 {
        return ctx.write_byte(pipe, b).await;
    }
    ctx.call(async |ctx| Box::pin(deep(ctx, depth - 1, pipe, b)).await).await
}

#[test]
fn baseline_workload_actually_spills_and_fills() {
    let report = run_with(None).unwrap();
    assert!(report.stats.overflow_spills > 0, "workload must spill: {:?}", report.stats);
    assert!(report.stats.underflow_restores > 0, "workload must fill: {:?}", report.stats);
}

#[test]
fn masked_corruption_reproduces_the_exact_report() {
    let baseline = run_with(None).unwrap();
    for at in [0, 1, 2, 5, 9] {
        for kind in [FaultKind::SpillCorrupt, FaultKind::FillCorrupt] {
            let plan = FaultPlan::new().with_event(kind, at).with_seed(0xDEAD_BEEF);
            let faulted = run_with(Some(&plan))
                .unwrap_or_else(|e| panic!("masked fault {kind}@{at} must not fail the run: {e}"));
            assert_eq!(faulted, baseline, "masked {kind}@{at} changed a reported number");
        }
    }
}

#[test]
fn masked_corruption_is_mask_value_independent() {
    let baseline = run_with(None).unwrap();
    for seed in [1, 42, u64::MAX] {
        let plan = FaultPlan::new().with_event(FaultKind::SpillCorrupt, 0).with_seed(seed);
        assert_eq!(run_with(Some(&plan)).unwrap(), baseline, "seed {seed}");
    }
}

#[test]
fn unmasked_spill_failure_is_a_typed_error() {
    let plan = FaultPlan::new().with_event(FaultKind::SpillFail, 0);
    let err = run_with(Some(&plan)).unwrap_err();
    assert_eq!(
        err,
        RtError::Scheme(SchemeError::Machine(MachineError::FaultInjected {
            site: "spill",
            index: 0
        }))
    );
}

#[test]
fn unmasked_fill_failure_is_a_typed_error() {
    let plan = FaultPlan::new().with_event(FaultKind::FillFail, 0);
    let err = run_with(Some(&plan)).unwrap_err();
    assert_eq!(
        err,
        RtError::Scheme(SchemeError::Machine(MachineError::FaultInjected {
            site: "fill",
            index: 0
        }))
    );
}

#[test]
fn unmasked_trap_drop_is_a_typed_error() {
    let plan = FaultPlan::new().with_event(FaultKind::TrapDrop, 0);
    let err = run_with(Some(&plan)).unwrap_err();
    assert_eq!(
        err,
        RtError::Scheme(SchemeError::Machine(MachineError::FaultInjected {
            site: "trap",
            index: 0
        }))
    );
}

#[test]
fn unmasked_stream_write_failure_is_a_typed_error() {
    let plan = FaultPlan::new().with_event(FaultKind::StreamWriteFail, 3);
    let err = run_with(Some(&plan)).unwrap_err();
    assert_eq!(err, RtError::FaultInjected { site: "stream-write", index: 3 });
}

#[test]
fn unmasked_stream_read_failure_is_a_typed_error() {
    let plan = FaultPlan::new().with_event(FaultKind::StreamReadFail, 0);
    let err = run_with(Some(&plan)).unwrap_err();
    assert_eq!(err, RtError::FaultInjected { site: "stream-read", index: 0 });
}

#[test]
fn out_of_reach_fault_indices_never_fire() {
    // Indices far past the run's event counts: the plan is installed but
    // nothing triggers, and the report is unchanged.
    let baseline = run_with(None).unwrap();
    let plan = FaultPlan::new()
        .with_event(FaultKind::SpillFail, 1 << 40)
        .with_event(FaultKind::StreamReadFail, 1 << 40);
    assert_eq!(run_with(Some(&plan)).unwrap(), baseline);
}
