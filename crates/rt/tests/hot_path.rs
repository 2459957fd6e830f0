//! The runtime's per-switch bookkeeping: a steady-state switch
//! allocates nothing, neither in a direct run nor in a trace replay,
//! wakes pick the lowest thread id however many
//! threads wait, and coalesced compute still reaches the clock before
//! an outbound byte is timestamped. (That a probed run's `CyclesApp`
//! total equals its report's App cycles is pinned by
//! `metric_probe_agrees_with_run_report` in `probe.rs`.)

use regwin_machine::MachineConfig;
use regwin_rt::{Ctx, RtError, Simulation, StepOutcome, StreamId, Trace};
use regwin_traps::{build_scheme, SchemeKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, Mutex};

/// Counts allocations made on the calling thread only, so tests running
/// in parallel on other threads do not disturb each other's counts.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a const-initialised thread-local that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Builds a two-thread ping-pong over a 1-byte stream that carries
/// `bytes` bytes; with `calls`, the reader makes one procedure call per
/// byte.
fn ping_pong(bytes: u32, calls: bool) -> Simulation {
    let mut sim = Simulation::new(8, SchemeKind::Sp).unwrap();
    let pipe = sim.add_stream("pipe", 1, 1);
    sim.spawn_async("ping", async move |ctx: &mut Ctx| {
        for i in 0..bytes {
            ctx.write_byte(pipe, i as u8).await?;
        }
        ctx.close_writer(pipe)
    });
    sim.spawn_async("pong", async move |ctx: &mut Ctx| {
        while ctx.read_byte(pipe).await?.is_some() {
            if calls {
                ctx.call(async |ctx| {
                    ctx.compute(3);
                    Ok(())
                })
                .await?;
            } else {
                ctx.compute(3);
            }
        }
        Ok(())
    });
    sim
}

/// Runs the ping-pong directly; returns the allocations the whole run
/// made on this thread and its simulated context switches.
fn ping_pong_allocations(bytes: u32) -> (u64, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let report = ping_pong(bytes, false).run().unwrap();
    (ALLOCATIONS.with(Cell::get) - before, report.stats.context_switches)
}

/// Records the ping-pong with calls, then replays the trace under `scheme`;
/// returns the allocations the replay alone made on this thread and the
/// trace's event count.
fn replay_allocations(bytes: u32, scheme: SchemeKind) -> (u64, usize) {
    let (_, trace) = ping_pong(bytes, true).with_trace_recording().run_with_trace().unwrap();
    let trace: Trace = trace.expect("recording enabled");
    let before = ALLOCATIONS.with(Cell::get);
    trace.replay(MachineConfig::new(8), build_scheme(scheme)).unwrap();
    (ALLOCATIONS.with(Cell::get) - before, trace.len())
}

#[test]
fn steady_state_switches_allocate_nothing() {
    let (small, small_switches) = ping_pong_allocations(500);
    let (large, large_switches) = ping_pong_allocations(50_000);
    assert!(small_switches >= 1_000, "{small_switches} switches");
    assert!(large_switches >= 100_000, "{large_switches} switches");
    assert_eq!(small, large, "allocations grew with the number of switches");
}

#[test]
fn trace_replay_allocates_nothing_per_event() {
    for scheme in [SchemeKind::Ns, SchemeKind::Snp, SchemeKind::Sp] {
        let (small, small_events) = replay_allocations(150, scheme);
        let (large, large_events) = replay_allocations(15_000, scheme);
        assert!((900..1_200).contains(&small_events), "{small_events} events");
        assert!((90_000..120_000).contains(&large_events), "{large_events} events");
        assert_eq!(small, large, "{scheme:?}: replay allocations grew with the trace");
    }
}

/// Spawns `n` readers `r0..` that each park on `data` in descending id
/// order (a kicker wakes them through private streams from the highest
/// id down), so the bitmap, not the park order, decides who wakes
/// first. With `feed`, a feeder then writes `n` bytes to `data`.
/// Returns the simulation result and, per reader, the byte it got.
fn readers_parked_in_reverse(
    n: usize,
    feed: bool,
) -> (Result<regwin_rt::RunReport, RtError>, Vec<Option<u8>>) {
    let got = Arc::new(Mutex::new(vec![None; n]));
    let mut sim = Simulation::new(8, SchemeKind::Sp).unwrap();
    let data = sim.add_stream("data", n, 1);
    let go = sim.add_stream("go", 1, 1);
    let kicks: Vec<StreamId> = (0..n).map(|i| sim.add_stream(format!("kick{i}"), 1, 1)).collect();
    for (i, &kick) in kicks.iter().enumerate() {
        let got = Arc::clone(&got);
        sim.spawn_async(format!("r{i}"), async move |ctx: &mut Ctx| {
            ctx.read_byte(kick).await?;
            let byte = ctx.read_byte(data).await?;
            got.lock().unwrap()[i] = byte;
            Ok(())
        });
    }
    sim.spawn_async("feeder", async move |ctx: &mut Ctx| {
        ctx.read_byte(go).await?;
        if feed {
            for b in 0..n {
                ctx.write_byte(data, b as u8).await?;
            }
            ctx.close_writer(data)?;
        }
        Ok(())
    });
    sim.spawn_async("kicker", async move |ctx: &mut Ctx| {
        for &kick in kicks.iter().rev() {
            ctx.write_byte(kick, 1).await?;
        }
        ctx.write_byte(go, 1).await
    });
    let result = sim.run();
    let got = got.lock().unwrap().clone();
    (result, got)
}

#[test]
fn wakes_take_the_lowest_thread_id_across_bitmap_words() {
    let n = 130;
    let (result, got) = readers_parked_in_reverse(n, true);
    result.unwrap();
    let expected: Vec<Option<u8>> = (0..n).map(|b| Some(b as u8)).collect();
    assert_eq!(got, expected);
}

#[test]
fn deadlock_report_lists_waiters_in_id_order() {
    let n = 130;
    let (result, _) = readers_parked_in_reverse(n, false);
    let detail: Vec<String> = (0..n).map(|i| format!("r{i} reading empty data")).collect();
    assert_eq!(result.unwrap_err().to_string(), format!("deadlock: {}", detail.join("; ")));
}

/// One thread computes `before` cycles, writes one byte to an outbound
/// stream, computes `between` cycles and closes it; returns the send
/// and close ticks the bus would see.
fn outbound_ticks(before: u64, between: u64) -> (u64, u64) {
    let mut sim = Simulation::new(8, SchemeKind::Sp).unwrap();
    let out = sim.add_stream("out", 4, 1);
    sim.mark_stream_outbound(out);
    sim.spawn_async("sender", async move |ctx: &mut Ctx| {
        ctx.compute(before);
        ctx.write_byte(out, 7).await?;
        ctx.compute(between);
        ctx.close_writer(out)
    });
    let mut started = sim.start();
    assert_eq!(started.step(), Ok(StepOutcome::Done));
    let events = started.drain_outbound();
    assert_eq!(events.len(), 2, "{events:?}");
    assert_eq!((events[0].payload, events[1].payload), (Some(7), None));
    (events[0].tick, events[1].tick)
}

#[test]
fn send_ticks_count_the_compute_charged_just_before() {
    let (send, close) = outbound_ticks(0, 0);
    assert_eq!(outbound_ticks(1_000, 0), (send + 1_000, close + 1_000));
    assert_eq!(outbound_ticks(0, 250), (send, close + 250));
    assert_eq!(close, send, "nothing is charged between the send and the close");
}
