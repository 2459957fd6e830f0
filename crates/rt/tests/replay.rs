//! Trace record/replay equivalence: replaying a recorded trace under any
//! scheme and window count must reproduce a direct run *exactly* — every
//! cycle, every trap, every switch shape.

use regwin_machine::MachineConfig;
use regwin_rt::{with_deadline, RtError, RunReport, SchedulingPolicy, Simulation, Trace};
use regwin_traps::{build_scheme, SchemeKind};
use std::time::{Duration, Instant};

/// A three-stage pipeline with helper-call structure, recorded.
fn recorded_pipeline(scheme: SchemeKind, nwindows: usize, capacity: usize) -> (RunReport, Trace) {
    let mut sim = Simulation::new(nwindows, scheme)
        .unwrap()
        .with_policy(SchedulingPolicy::Fifo)
        .with_trace_recording();
    let s1 = sim.add_stream("s1", capacity, 1);
    let s2 = sim.add_stream("s2", capacity, 1);
    sim.spawn_async("producer", async move |ctx| {
        for i in 0..200u32 {
            let b = ctx
                .call(async |ctx| {
                    ctx.compute(3);
                    if i % 7 == 0 {
                        // Occasional deeper excursion.
                        ctx.call(async |ctx| {
                            ctx.compute(2);
                            Ok(())
                        })
                        .await?;
                    }
                    Ok((i % 251) as u8)
                })
                .await?;
            ctx.write_byte(s1, b).await?;
        }
        ctx.close_writer(s1)
    });
    sim.spawn_async("transform", async move |ctx| {
        while let Some(b) = ctx.read_byte(s1).await? {
            let v = ctx
                .call(async |ctx| {
                    ctx.compute(2);
                    Ok(b.wrapping_mul(3))
                })
                .await?;
            ctx.write_byte(s2, v).await?;
        }
        ctx.close_writer(s2)
    });
    sim.spawn_async("sink", async move |ctx| {
        while ctx.read_byte(s2).await?.is_some() {
            ctx.compute(1);
        }
        Ok(())
    });
    let (report, trace) = sim.run_with_trace().unwrap();
    (report, trace.expect("recording enabled"))
}

fn assert_reports_identical(direct: &RunReport, replayed: &RunReport, what: &str) {
    assert_eq!(direct.total_cycles(), replayed.total_cycles(), "{what}: total cycles");
    assert_eq!(direct.cycles, replayed.cycles, "{what}: cycle categories");
    assert_eq!(direct.stats.saves_executed, replayed.stats.saves_executed, "{what}: saves");
    assert_eq!(direct.stats.restores_executed, replayed.stats.restores_executed, "{what}");
    assert_eq!(direct.stats.overflow_traps, replayed.stats.overflow_traps, "{what}: ovf");
    assert_eq!(direct.stats.underflow_traps, replayed.stats.underflow_traps, "{what}: unf");
    assert_eq!(direct.stats.context_switches, replayed.stats.context_switches, "{what}");
    assert_eq!(direct.stats.switch_shapes, replayed.stats.switch_shapes, "{what}: shapes");
    assert_eq!(
        direct.threads.iter().map(|t| t.context_switches).collect::<Vec<_>>(),
        replayed.threads.iter().map(|t| t.context_switches).collect::<Vec<_>>(),
        "{what}: per-thread switches"
    );
}

#[test]
fn replay_reproduces_the_recording_run_exactly() {
    for scheme in SchemeKind::ALL {
        for nwindows in [4, 6, 8, 16] {
            let (direct, trace) = recorded_pipeline(scheme, nwindows, 2);
            let replay = || trace.replay(MachineConfig::new(nwindows), build_scheme(scheme));
            let replayed = replay().unwrap();
            assert_reports_identical(&direct, &replayed, &format!("{scheme}@{nwindows}"));
            // A deadline that never passes changes nothing; one already
            // past stops the replay at its first check.
            let far = Instant::now() + Duration::from_secs(3600);
            assert_eq!(with_deadline(far, replay).unwrap(), replayed);
            assert_eq!(with_deadline(Instant::now(), replay), Err(RtError::DeadlineExceeded));
        }
    }
}

#[test]
fn one_trace_replays_across_all_schemes_and_window_counts() {
    // The paper's §5.2 independence claim, as an exact property: record
    // under one configuration, replay under every other — each replay
    // must equal that configuration's own direct run.
    let (_, trace) = recorded_pipeline(SchemeKind::Sp, 8, 2);
    for scheme in SchemeKind::ALL {
        for nwindows in [4, 5, 6, 8, 12, 24] {
            if nwindows < 4 && scheme == SchemeKind::Ns {
                continue;
            }
            let (direct, _) = recorded_pipeline(scheme, nwindows, 2);
            let replayed =
                trace.replay(MachineConfig::new(nwindows), build_scheme(scheme)).unwrap();
            assert_reports_identical(&direct, &replayed, &format!("cross {scheme}@{nwindows}"));
        }
    }
}

#[test]
fn trace_is_buffer_dependent_but_scheme_independent() {
    let (_, t_sp) = recorded_pipeline(SchemeKind::Sp, 8, 2);
    let (_, t_ns) = recorded_pipeline(SchemeKind::Ns, 16, 2);
    assert_eq!(t_sp.events(), t_ns.events(), "same buffers => same trace");
    let (_, t_big) = recorded_pipeline(SchemeKind::Sp, 8, 16);
    assert_ne!(t_sp.events(), t_big.events(), "different buffers => different trace");
}

#[test]
fn recording_does_not_change_the_run() {
    let (with_trace, _) = recorded_pipeline(SchemeKind::Snp, 8, 2);
    // Same pipeline without recording.
    let mut sim = Simulation::new(8, SchemeKind::Snp).unwrap();
    let s1 = sim.add_stream("s1", 2, 1);
    let s2 = sim.add_stream("s2", 2, 1);
    sim.spawn_async("producer", async move |ctx| {
        for i in 0..200u32 {
            let b = ctx
                .call(async |ctx| {
                    ctx.compute(3);
                    if i % 7 == 0 {
                        ctx.call(async |ctx| {
                            ctx.compute(2);
                            Ok(())
                        })
                        .await?;
                    }
                    Ok((i % 251) as u8)
                })
                .await?;
            ctx.write_byte(s1, b).await?;
        }
        ctx.close_writer(s1)
    });
    sim.spawn_async("transform", async move |ctx| {
        while let Some(b) = ctx.read_byte(s1).await? {
            let v = ctx
                .call(async |ctx| {
                    ctx.compute(2);
                    Ok(b.wrapping_mul(3))
                })
                .await?;
            ctx.write_byte(s2, v).await?;
        }
        ctx.close_writer(s2)
    });
    sim.spawn_async("sink", async move |ctx| {
        while ctx.read_byte(s2).await?.is_some() {
            ctx.compute(1);
        }
        Ok(())
    });
    let plain = sim.run().unwrap();
    assert_eq!(plain.total_cycles(), with_trace.total_cycles());
    assert_eq!(plain.stats.context_switches, with_trace.stats.context_switches);
}

#[test]
fn replay_on_too_few_windows_errors_cleanly() {
    let (_, trace) = recorded_pipeline(SchemeKind::Sp, 8, 2);
    let result = trace.replay(MachineConfig::new(2), build_scheme(SchemeKind::Ns));
    assert!(matches!(result, Err(RtError::Scheme(_))));
}
