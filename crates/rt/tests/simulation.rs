//! Integration tests for the runtime: pipelines over simulated windows.

use regwin_rt::{
    with_deadline, Ctx, RtError, RunReport, SchedulingPolicy, Simulation, StartedSim, StepOutcome,
    StreamId, TraceEvent,
};
use regwin_traps::SchemeKind;
use std::time::{Duration, Instant};

/// Builds a three-stage pipeline (producer → doubler → consumer) with the
/// given buffer capacity, returning the run report and the consumer sum.
fn pipeline(
    scheme: SchemeKind,
    nwindows: usize,
    capacity: usize,
    policy: SchedulingPolicy,
    items: u32,
) -> (RunReport, u64) {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    let sum = Arc::new(AtomicU64::new(0));
    let mut sim = Simulation::new(nwindows, scheme).unwrap().with_policy(policy);
    let s1 = sim.add_stream("s1", capacity, 1);
    let s2 = sim.add_stream("s2", capacity, 1);

    sim.spawn_async("producer", async move |ctx| {
        for i in 0..items {
            // A small helper-call tree per item, to generate window
            // activity the way real code does.
            let byte = ctx
                .call(async |ctx| {
                    ctx.compute(5);
                    Ok((i % 251) as u8)
                })
                .await?;
            ctx.write_byte(s1, byte).await?;
        }
        ctx.close_writer(s1)
    });
    sim.spawn_async("doubler", async move |ctx| {
        while let Some(b) = ctx.read_byte(s1).await? {
            let doubled = ctx
                .call(async |ctx| {
                    ctx.compute(3);
                    Ok(b.wrapping_mul(2))
                })
                .await?;
            ctx.write_byte(s2, doubled).await?;
        }
        ctx.close_writer(s2)
    });
    let sum2 = Arc::clone(&sum);
    sim.spawn_async("consumer", async move |ctx| {
        while let Some(b) = ctx.read_byte(s2).await? {
            ctx.compute(2);
            sum2.fetch_add(u64::from(b), Ordering::Relaxed);
        }
        Ok(())
    });
    let report = sim.run().unwrap();
    let total = sum.load(Ordering::Relaxed);
    (report, total)
}

fn expected_sum(items: u32) -> u64 {
    (0..items).map(|i| u64::from((i % 251) as u8).wrapping_mul(2) & 0xff).sum()
}

#[test]
fn pipeline_computes_correctly_under_all_schemes() {
    for scheme in SchemeKind::ALL {
        let (report, sum) = pipeline(scheme, 8, 4, SchedulingPolicy::Fifo, 100);
        assert_eq!(sum, expected_sum(100), "{scheme}");
        assert!(report.stats.context_switches > 0, "{scheme}");
        assert!(report.total_cycles() > 0, "{scheme}");
    }
}

#[test]
fn results_identical_across_schemes_and_policies() {
    // The scheme affects cycles, never results.
    let mut sums = Vec::new();
    for scheme in SchemeKind::ALL {
        for policy in SchedulingPolicy::ALL {
            let (_, sum) = pipeline(scheme, 6, 2, policy, 64);
            sums.push(sum);
        }
    }
    assert!(sums.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn runs_are_deterministic() {
    let (a, _) = pipeline(SchemeKind::Sp, 8, 3, SchedulingPolicy::Fifo, 200);
    let (b, _) = pipeline(SchemeKind::Sp, 8, 3, SchedulingPolicy::Fifo, 200);
    assert_eq!(a.total_cycles(), b.total_cycles());
    assert_eq!(a.stats.context_switches, b.stats.context_switches);
    assert_eq!(a.stats.saves_executed, b.stats.saves_executed);
    assert_eq!(a.stats.switch_shapes, b.stats.switch_shapes);
}

#[test]
fn smaller_buffers_mean_finer_granularity() {
    // The paper's granularity knob: halving the buffer size must increase
    // the number of context switches.
    let (coarse, _) = pipeline(SchemeKind::Sp, 8, 16, SchedulingPolicy::Fifo, 256);
    let (fine, _) = pipeline(SchemeKind::Sp, 8, 1, SchedulingPolicy::Fifo, 256);
    assert!(
        fine.stats.context_switches > 2 * coarse.stats.context_switches,
        "fine {} vs coarse {}",
        fine.stats.context_switches,
        coarse.stats.context_switches
    );
}

#[test]
fn one_byte_buffers_switch_on_every_byte() {
    let items = 64;
    let (report, _) = pipeline(SchemeKind::Sp, 8, 1, SchedulingPolicy::Fifo, items);
    // The producer must block on (almost) every byte it writes.
    let producer = &report.threads[0];
    assert!(
        producer.blocked_on_write >= u64::from(items) - 1,
        "producer blocked {} times for {} items",
        producer.blocked_on_write,
        items
    );
}

#[test]
fn per_thread_reports_cover_all_threads() {
    let (report, _) = pipeline(SchemeKind::Snp, 8, 2, SchedulingPolicy::Fifo, 50);
    assert_eq!(report.threads.len(), 3);
    assert_eq!(report.threads[0].name, "producer");
    assert_eq!(report.threads[2].name, "consumer");
    // Producer and doubler perform one call per item.
    assert!(report.threads[0].saves >= 50);
    assert!(report.threads[1].saves >= 50);
    // Context switches per thread must sum to the machine's total.
    let per_thread: u64 = report.threads.iter().map(|t| t.context_switches).sum();
    assert_eq!(per_thread, report.stats.context_switches - countable_first_dispatches(&report));
}

/// Switches recorded with `from == None` (first dispatches after spawn or
/// termination) are not attributed to any thread.
fn countable_first_dispatches(report: &RunReport) -> u64 {
    report.stats.context_switches - report.threads.iter().map(|t| t.context_switches).sum::<u64>()
}

#[test]
fn deadlock_is_detected_and_described() {
    let mut sim = Simulation::new(8, SchemeKind::Sp).unwrap();
    let s = sim.add_stream("starved", 4, 1);
    sim.spawn_async("reader", async move |ctx| {
        // The writer never writes: this blocks forever.
        let _ = ctx.read_byte(s).await?;
        Ok(())
    });
    sim.spawn_async("idler", async move |ctx| {
        // Blocks on its own read of the same stream.
        let _ = ctx.read_byte(s).await?;
        Ok(())
    });
    match sim.run() {
        Err(RtError::Deadlock { detail }) => {
            assert!(detail.contains("starved"), "detail: {detail}");
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn thread_panic_is_reported_with_name() {
    let mut sim = Simulation::new(8, SchemeKind::Ns).unwrap();
    sim.spawn("kaboom", |_ctx| panic!("intentional test panic"));
    match sim.run() {
        Err(RtError::ThreadPanicked { name }) => assert_eq!(name, "kaboom"),
        other => panic!("expected panic report, got {other:?}"),
    }
}

#[test]
fn write_after_close_is_an_error() {
    let mut sim = Simulation::new(8, SchemeKind::Sp).unwrap();
    let s = sim.add_stream("s", 4, 1);
    sim.spawn_async("bad-writer", async move |ctx| {
        ctx.close_writer(s)?;
        ctx.write_byte(s, 1).await
    });
    sim.spawn_async("reader", async move |ctx| {
        while ctx.read_byte(s).await?.is_some() {}
        Ok(())
    });
    assert!(matches!(sim.run(), Err(RtError::WriteAfterClose(_))));
}

#[test]
fn two_writers_one_stream() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    let got = Arc::new(AtomicU64::new(0));
    let mut sim = Simulation::new(8, SchemeKind::Sp).unwrap();
    let s = sim.add_stream("merged", 2, 2);
    for w in 0..2 {
        sim.spawn_async(format!("writer{w}"), async move |ctx| {
            for _ in 0..30 {
                ctx.write_byte(s, 1).await?;
            }
            ctx.close_writer(s)
        });
    }
    let got2 = Arc::clone(&got);
    sim.spawn_async("reader", async move |ctx| {
        while let Some(b) = ctx.read_byte(s).await? {
            got2.fetch_add(u64::from(b), Ordering::Relaxed);
        }
        Ok(())
    });
    sim.run().unwrap();
    assert_eq!(got.load(Ordering::Relaxed), 60);
}

#[test]
fn deep_recursion_inside_a_thread() {
    // Recursion deeper than the window file, interleaved with another
    // thread, exercising trap handling under runtime control.
    async fn recurse(ctx: &mut regwin_rt::Ctx, depth: u32) -> Result<u64, RtError> {
        if depth == 0 {
            return Ok(0);
        }
        ctx.call(async |ctx| {
            ctx.compute(1);
            let below = Box::pin(recurse(ctx, depth - 1)).await?;
            Ok(below + 1)
        })
        .await
    }
    for scheme in SchemeKind::ALL {
        let mut sim = Simulation::new(5, scheme).unwrap();
        let s = sim.add_stream("tick", 1, 1);
        sim.spawn_async("recurser", async move |ctx| {
            for _ in 0..4 {
                let depth = recurse(ctx, 12).await?;
                assert_eq!(depth, 12);
                ctx.write_byte(s, 1).await?;
            }
            ctx.close_writer(s)
        });
        sim.spawn_async("ticker", async move |ctx| {
            while ctx.read_byte(s).await?.is_some() {}
            Ok(())
        });
        let report = sim.run().unwrap();
        assert!(report.stats.overflow_traps > 0, "{scheme} must overflow at depth 12 on 5 windows");
    }
}

#[test]
fn working_set_policy_reduces_switch_cost_under_pressure() {
    // Many threads on few windows: the working-set policy should produce
    // no *more* window traffic than FIFO (usually strictly less).
    fn run(policy: SchedulingPolicy) -> RunReport {
        let mut sim = Simulation::new(6, SchemeKind::Sp).unwrap().with_policy(policy);
        let mut prev = None;
        let n = 5;
        let mut streams = Vec::new();
        for i in 0..n {
            streams.push(sim.add_stream(format!("s{i}"), 1, 1));
        }
        for (i, &out) in streams.iter().enumerate() {
            let inp = prev;
            sim.spawn_async(format!("stage{i}"), async move |ctx| match inp {
                None => {
                    for b in 0..120u32 {
                        ctx.call(async |ctx| {
                            ctx.compute(2);
                            Ok(())
                        })
                        .await?;
                        ctx.write_byte(out, (b % 256) as u8).await?;
                    }
                    ctx.close_writer(out)
                }
                Some(inp) => {
                    while let Some(b) = ctx.read_byte(inp).await? {
                        ctx.call(async |ctx| {
                            ctx.compute(2);
                            Ok(())
                        })
                        .await?;
                        ctx.write_byte(out, b).await?;
                    }
                    ctx.close_writer(out)
                }
            });
            prev = Some(out);
        }
        let last = prev.unwrap();
        sim.spawn_async("sink", async move |ctx| {
            while ctx.read_byte(last).await?.is_some() {}
            Ok(())
        });
        sim.run().unwrap()
    }
    let fifo = run(SchedulingPolicy::Fifo);
    let ws = run(SchedulingPolicy::WorkingSet);
    let fifo_traffic = fifo.stats.switch_saves + fifo.stats.overflow_spills;
    let ws_traffic = ws.stats.switch_saves + ws.stats.overflow_spills;
    assert!(
        ws_traffic <= fifo_traffic,
        "working set {ws_traffic} must not exceed FIFO {fifo_traffic}"
    );
}

/// The calling OS thread's voluntary context switches so far, from
/// `/proc/thread-self/status`; `None` where that file does not exist.
fn voluntary_ctxt_switches() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/thread-self/status").ok()?;
    status.lines().find_map(|l| l.strip_prefix("voluntary_ctxt_switches:")?.trim().parse().ok())
}

#[test]
fn simulated_switches_cost_no_os_context_switches() {
    let Some(before) = voluntary_ctxt_switches() else {
        return;
    };
    let mut sim = Simulation::new(8, SchemeKind::Sp).unwrap();
    let ping = sim.add_stream("ping", 1, 1);
    let pong = sim.add_stream("pong", 1, 1);
    sim.spawn_async("pinger", async move |ctx| {
        for i in 0..6000u32 {
            ctx.write_byte(ping, i as u8).await?;
            ctx.read_byte(pong).await?;
        }
        ctx.close_writer(ping)
    });
    sim.spawn_async("ponger", async move |ctx| {
        while let Some(b) = ctx.read_byte(ping).await? {
            ctx.write_byte(pong, b).await?;
        }
        ctx.close_writer(pong)
    });
    let report = sim.run().unwrap();
    let os_switches = voluntary_ctxt_switches().unwrap() - before;
    assert!(report.stats.context_switches >= 10_000, "{} switches", report.stats.context_switches);
    assert!(os_switches < 50, "{os_switches} OS context switches for a single-threaded run");
}

/// A PE-shaped simulation: `forwarder` passes every byte the bus
/// delivers on an inbound stream through a call and a local pipe to
/// `summer`, which checks the bytes' sum.
fn inbound_pe(scheme: SchemeKind, feed: &[u8]) -> (StartedSim, StreamId) {
    let expected: u64 = feed.iter().map(|&b| u64::from(b)).sum();
    let mut sim = Simulation::new(6, scheme).unwrap().with_trace_recording();
    let inbound = sim.add_stream("inbound", 4, 1);
    sim.mark_stream_inbound(inbound);
    let local = sim.add_stream("local", 2, 1);
    sim.spawn_async("forwarder", async move |ctx: &mut Ctx| {
        while let Some(b) = ctx.read_byte(inbound).await? {
            ctx.call(async |c: &mut Ctx| {
                c.compute(u64::from(b));
                c.write_byte(local, b).await
            })
            .await?;
        }
        ctx.close_writer(local)
    });
    sim.spawn_async("summer", async move |ctx: &mut Ctx| {
        let mut sum = 0u64;
        while let Some(b) = ctx.read_byte(local).await? {
            sum += u64::from(b);
            ctx.compute(sum % 7);
        }
        assert_eq!(sum, expected);
        Ok(())
    });
    (sim.start(), inbound)
}

/// Steps the sims in turn on the calling OS thread until all are done.
/// Whenever one blocks on the bus it is delivered its next message —
/// a byte of its feed, then the close — 50 cycles after the previous.
fn drive_in_turn(mut pes: Vec<(StartedSim, StreamId, &[u8])>) -> Vec<(RunReport, Vec<TraceEvent>)> {
    let mut sent = vec![0usize; pes.len()];
    let mut done = vec![false; pes.len()];
    while done.contains(&false) {
        for (i, (sim, inbound, feed)) in pes.iter_mut().enumerate() {
            if done[i] {
                continue;
            }
            match sim.step().unwrap() {
                StepOutcome::Done => done[i] = true,
                StepOutcome::Blocked => {
                    sim.deliver(*inbound, feed.get(sent[i]).copied(), 50 * sent[i] as u64);
                    sent[i] += 1;
                }
            }
        }
    }
    pes.into_iter()
        .map(|(sim, ..)| {
            let (report, trace) = sim.finish().unwrap();
            (report, trace.unwrap().events().to_vec())
        })
        .collect()
}

/// Two started simulations stepped alternately on one OS thread (as the
/// cluster steps its PEs) each produce exactly their solo run: every
/// sim's state, streams and clock are its own.
#[test]
fn alternately_stepped_sims_match_their_solo_runs() {
    let pes: [(SchemeKind, &[u8]); 2] =
        [(SchemeKind::Sp, b"multiple threads"), (SchemeKind::Ns, b"cyclic windows!")];
    let solo: Vec<_> = pes
        .iter()
        .map(|&(scheme, feed)| {
            let (sim, inbound) = inbound_pe(scheme, feed);
            drive_in_turn(vec![(sim, inbound, feed)]).remove(0)
        })
        .collect();
    let together = drive_in_turn(
        pes.iter()
            .map(|&(scheme, feed)| {
                let (sim, inbound) = inbound_pe(scheme, feed);
                (sim, inbound, feed)
            })
            .collect(),
    );
    assert!(solo.iter().all(|(report, _)| report.stats.context_switches > 16));
    assert_eq!(together, solo);
    // A deadline that never passes changes nothing.
    let far = Instant::now() + Duration::from_secs(3600);
    let (sim, inbound) = with_deadline(far, || inbound_pe(pes[0].0, pes[0].1));
    assert_eq!(drive_in_turn(vec![(sim, inbound, pes[0].1)]).remove(0), solo[0]);
}

/// A deadline bounds a stepped PE however its dispatches split across
/// steps: one already past stops the first step, and one that passes
/// mid-run stops a PE fed a byte per step, a few dispatches each.
#[test]
fn a_deadline_stops_a_stepped_sim() {
    let (mut sim, _) = with_deadline(Instant::now(), || inbound_pe(SchemeKind::Sp, b""));
    assert_eq!(sim.step(), Err(RtError::DeadlineExceeded));
    assert_eq!(sim.finish().unwrap_err(), RtError::DeadlineExceeded);

    let soon = Instant::now() + Duration::from_millis(100);
    let (mut sim, inbound) = with_deadline(soon, || inbound_pe(SchemeKind::Sp, b""));
    let mut steps = 0u64;
    let err = loop {
        match sim.step() {
            Ok(StepOutcome::Blocked) => sim.deliver(inbound, Some(1), 50 * steps),
            Ok(StepOutcome::Done) => panic!("the feed never closes"),
            Err(e) => break e,
        }
        steps += 1;
        assert!(soon.elapsed() < Duration::from_secs(30), "no deadline check in {steps} steps");
    };
    assert_eq!(err, RtError::DeadlineExceeded);
    assert!(steps > 1, "the deadline passed after {steps} steps");
}
