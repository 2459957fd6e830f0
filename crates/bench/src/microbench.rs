//! Machine-level micro-benchmarks: the wall-clock and simulated-cycle
//! cost of the simulator's primitive operations.
//!
//! Where `BENCH_sweep.json` times whole sweep jobs, this module times
//! the hot-path primitives they are made of — trap-free `save` and
//! `restore`, overflow and underflow trap handling and context switches
//! (each under both the flat `s20` and the pipelined timing backend),
//! window-audit passes, scheduler ready-queue enqueue/dispatch, the
//! sweep engine's wait-free ops-counter publication and the fuzz farm's
//! synthetic-scenario synthesis — each with auditing off and on. Two
//! numbers come out per (op, audit) cell:
//!
//! * **cycles per op** — simulated cycles charged by the cost model,
//!   fully deterministic (identical across runs and machines);
//! * **ns per op** — host wall time, the median over several rounds.
//!
//! The pairing makes the auditor's contract measurable: audited and
//! unaudited cells must report *identical* cycles per op (auditing
//! never touches the cycle counter), while the ns column shows the real
//! overhead the lazy dirty-bitmask design keeps small.
//!
//! [`run_microbench`] returns the raw measurements;
//! [`microbench_to_json`] renders the deterministic-order
//! `BENCH_machine.json` document written by the `repro-microbench`
//! binary.

use regwin_cluster::{BusConfig, ClusterBuilder};
use regwin_gen::{Workload, WorkloadSpec};
use regwin_machine::{MachineConfig, ThreadId, TimingKind};
use regwin_obs::{AtomicMetricSet, Metric};
use regwin_rt::{ReadyQueue, SchedulingPolicy, Simulation, WakeInfo};
use regwin_sweep::json::{obj, Value};
use regwin_traps::{build_scheme, Cpu, SchemeKind};
use std::time::Instant;

/// Nesting depth used by the trap-free save/restore cells: deep enough
/// to be representative, shallow enough to never trap on 64 windows.
const DEPTH: u64 = 40;

/// The fixed set of operations measured, in report order. The
/// `*_pipeline` cells repeat the trap and switch measurements under the
/// pipelined timing backend (scoreboard hazards plus a finite
/// load/store queue) instead of the flat S-20 accounting, so the two
/// charge regimes sit side by side in the report. `enqueue` and
/// `dispatch` time the scheduler ready-queue primitives (working-set
/// policy, the residency-segmented one); `publish` times the sweep
/// engine's wait-free per-worker ops-counter publication — one relaxed
/// atomic add per event, the operation that replaced a mutex-guarded
/// aggregate on the job hot path; `gen_scenario` times one full
/// synthetic-workload synthesis — the per-job generator work of the
/// `repro-fuzz` farm.
pub const OPS: [&str; 14] = [
    "save",
    "restore",
    "overflow",
    "overflow_pipeline",
    "underflow",
    "underflow_pipeline",
    "switch",
    "switch_pipeline",
    "switch_cross_pe",
    "audit",
    "enqueue",
    "dispatch",
    "publish",
    "gen_scenario",
];

/// One measured cell: an operation under one audit setting.
#[derive(Debug, Clone, PartialEq)]
pub struct OpMeasurement {
    /// Operation name (one of [`OPS`]).
    pub op: &'static str,
    /// Whether window auditing was enabled.
    pub audit: bool,
    /// Operations performed per timed round.
    pub ops: u64,
    /// Simulated cycles charged per operation (deterministic).
    pub cycles_per_op: f64,
    /// Median host nanoseconds per operation across rounds.
    pub ns_per_op: f64,
}

/// Parameters of one micro-benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct MicrobenchConfig {
    /// Timed rounds per cell (the ns column is their median).
    pub rounds: usize,
    /// Operations per round.
    pub iters: u64,
}

impl MicrobenchConfig {
    /// The full configuration used for committed baselines.
    pub fn full() -> Self {
        MicrobenchConfig { rounds: 7, iters: 2000 }
    }

    /// A reduced configuration for CI smoke runs (`--quick`).
    pub fn quick() -> Self {
        MicrobenchConfig { rounds: 3, iters: 300 }
    }
}

fn fresh_cpu(nwindows: usize, audit: bool, timing: TimingKind) -> (Cpu, ThreadId) {
    let config = MachineConfig::new(nwindows).with_timing(timing);
    let mut cpu =
        Cpu::with_config(config, build_scheme(SchemeKind::Sp)).expect("valid microbench windows");
    if audit {
        cpu.enable_window_audit();
    }
    let t = cpu.add_thread();
    cpu.switch_to(t).expect("initial dispatch");
    (cpu, t)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

/// Measures trap-free `save` and `restore`: one warm 64-window CPU,
/// cycling between depth 0 and [`DEPTH`] so no round ever traps.
fn bench_save_restore(cfg: MicrobenchConfig, audit: bool) -> [OpMeasurement; 2] {
    let (mut cpu, _t) = fresh_cpu(64, audit, TimingKind::S20);
    // Warm up: establish the resident run so later rounds are trap-free.
    for _ in 0..DEPTH {
        cpu.save().expect("warmup save");
    }
    for _ in 0..DEPTH {
        cpu.restore().expect("warmup restore");
    }
    let reps = (cfg.iters / DEPTH).max(1);
    let ops = reps * DEPTH;
    let mut save_ns = Vec::with_capacity(cfg.rounds);
    let mut restore_ns = Vec::with_capacity(cfg.rounds);
    let mut save_cycles = 0u64;
    let mut restore_cycles = 0u64;
    for _ in 0..cfg.rounds {
        let mut s_ns = 0f64;
        let mut r_ns = 0f64;
        let mut s_cycles = 0u64;
        let mut r_cycles = 0u64;
        for _ in 0..reps {
            let c0 = cpu.total_cycles();
            let t0 = Instant::now();
            for _ in 0..DEPTH {
                cpu.save().expect("timed save");
            }
            s_ns += t0.elapsed().as_nanos() as f64;
            let c1 = cpu.total_cycles();
            s_cycles += c1 - c0;
            let t1 = Instant::now();
            for _ in 0..DEPTH {
                cpu.restore().expect("timed restore");
            }
            r_ns += t1.elapsed().as_nanos() as f64;
            r_cycles += cpu.total_cycles() - c1;
        }
        save_ns.push(s_ns / ops as f64);
        restore_ns.push(r_ns / ops as f64);
        save_cycles = s_cycles;
        restore_cycles = r_cycles;
    }
    [
        OpMeasurement {
            op: "save",
            audit,
            ops,
            cycles_per_op: save_cycles as f64 / ops as f64,
            ns_per_op: median(save_ns),
        },
        OpMeasurement {
            op: "restore",
            audit,
            ops,
            cycles_per_op: restore_cycles as f64 / ops as f64,
            ns_per_op: median(restore_ns),
        },
    ]
}

/// Measures overflow-trapping saves and underflow-trapping restores on
/// a saturated 4-window CPU (every timed op takes a trap). Run once per
/// timing backend: under `s20` a trap pays the flat Table-2 aggregate,
/// under `pipeline` the software handler cost plus load/store-queue
/// issue and backpressure at the transfer site.
fn bench_traps(
    cfg: MicrobenchConfig,
    audit: bool,
    timing: TimingKind,
    names: [&'static str; 2],
) -> [OpMeasurement; 2] {
    let (mut cpu, t) = fresh_cpu(4, audit, timing);
    // Saturate the file so every subsequent save overflows.
    for _ in 0..8 {
        cpu.save().expect("warmup save");
    }
    let ops = cfg.iters;
    let mut over_ns = Vec::with_capacity(cfg.rounds);
    let mut under_ns = Vec::with_capacity(cfg.rounds);
    let mut over_cycles = 0u64;
    let mut under_cycles = 0u64;
    for _ in 0..cfg.rounds {
        let c0 = cpu.total_cycles();
        let t0 = Instant::now();
        for _ in 0..ops {
            cpu.save().expect("overflow save");
        }
        over_ns.push(t0.elapsed().as_nanos() as f64 / ops as f64);
        over_cycles = cpu.total_cycles() - c0;
        // Unwind to a single resident frame so every timed restore
        // underflows into the backing store.
        while cpu.machine().live_windows_of(t).expect("live windows").len() > 1 {
            cpu.restore().expect("unwind restore");
        }
        let c1 = cpu.total_cycles();
        let t1 = Instant::now();
        for _ in 0..ops {
            cpu.restore().expect("underflow restore");
        }
        under_ns.push(t1.elapsed().as_nanos() as f64 / ops as f64);
        under_cycles = cpu.total_cycles() - c1;
        // Re-deepen for the next round.
        let deficit = ops + 8;
        for _ in 0..deficit {
            cpu.save().expect("re-deepen save");
        }
    }
    [
        OpMeasurement {
            op: names[0],
            audit,
            ops,
            cycles_per_op: over_cycles as f64 / ops as f64,
            ns_per_op: median(over_ns),
        },
        OpMeasurement {
            op: names[1],
            audit,
            ops,
            cycles_per_op: under_cycles as f64 / ops as f64,
            ns_per_op: median(under_ns),
        },
    ]
}

/// Measures context switches: two threads ping-ponging on 8 windows.
/// Run once per timing backend — the flat Table-2 shape cost versus the
/// pipeline's software base plus queued switch-time transfers.
fn bench_switch(
    cfg: MicrobenchConfig,
    audit: bool,
    timing: TimingKind,
    name: &'static str,
) -> OpMeasurement {
    let (mut cpu, a) = fresh_cpu(8, audit, timing);
    let b = cpu.add_thread();
    cpu.switch_to(b).expect("warmup switch");
    cpu.switch_to(a).expect("warmup switch");
    let ops = cfg.iters & !1; // even: end each round where it began
    let mut ns = Vec::with_capacity(cfg.rounds);
    let mut cycles = 0u64;
    for _ in 0..cfg.rounds {
        let c0 = cpu.total_cycles();
        let t0 = Instant::now();
        for _ in 0..ops / 2 {
            cpu.switch_to(b).expect("switch");
            cpu.switch_to(a).expect("switch");
        }
        ns.push(t0.elapsed().as_nanos() as f64 / ops as f64);
        cycles = cpu.total_cycles() - c0;
    }
    OpMeasurement {
        op: name,
        audit,
        ops,
        cycles_per_op: cycles as f64 / ops as f64,
        ns_per_op: median(ns),
    }
}

/// Measures explicit audit passes over a thread holding [`DEPTH`]
/// resident windows, one register write between passes (so each audited
/// pass re-establishes one reference checksum and verifies the rest).
/// Near-free with auditing off — the pass is a no-op then.
fn bench_audit(cfg: MicrobenchConfig, audit: bool) -> OpMeasurement {
    let (mut cpu, t) = fresh_cpu(64, audit, TimingKind::S20);
    for _ in 0..DEPTH {
        cpu.save().expect("warmup save");
    }
    cpu.audit_thread(t).expect("warmup audit");
    let ops = cfg.iters;
    let mut ns = Vec::with_capacity(cfg.rounds);
    let mut cycles = 0u64;
    for _ in 0..cfg.rounds {
        let c0 = cpu.total_cycles();
        let t0 = Instant::now();
        for i in 0..ops {
            cpu.write_local(0, i).expect("dirtying write");
            cpu.audit_thread(t).expect("audit pass");
        }
        ns.push(t0.elapsed().as_nanos() as f64 / ops as f64);
        cycles = cpu.total_cycles() - c0;
    }
    OpMeasurement {
        op: "audit",
        audit,
        ops,
        cycles_per_op: cycles as f64 / ops as f64,
        ns_per_op: median(ns),
    }
}

/// Measures cross-PE byte transport: a minimal 2-PE cluster whose
/// sender thread streams `iters` bytes over the default shared bus to a
/// reader on the other PE. The cycle column is the cluster makespan
/// divided by the byte count — the amortised per-byte cost of the full
/// send/arbitrate/deliver/receive path, deterministic like every other
/// cycle number here. The cluster is rebuilt every round, so ns per op
/// includes construction; that is the real cost a sweep job pays.
fn bench_switch_cross_pe(cfg: MicrobenchConfig, audit: bool) -> OpMeasurement {
    let ops = cfg.iters;
    let mut ns = Vec::with_capacity(cfg.rounds);
    let mut makespan = 0u64;
    for _ in 0..cfg.rounds {
        let t0 = Instant::now();
        let mut tx = Simulation::new(8, SchemeKind::Sp).expect("tx PE");
        let mut rx = Simulation::new(8, SchemeKind::Sp).expect("rx PE");
        if audit {
            tx = tx.with_window_audit();
            rx = rx.with_window_audit();
        }
        let up = tx.add_stream("S1:uplink", 8, 1);
        tx.mark_stream_outbound(up);
        tx.spawn_async("T1:send", async move |ctx| {
            let mut left = ops;
            while left > 0 {
                let chunk = left.min(4);
                ctx.call(async |ctx| {
                    ctx.compute(2);
                    for i in 0..chunk {
                        ctx.write_byte(up, (i & 0xff) as u8).await?;
                    }
                    Ok(())
                })
                .await?;
                left -= chunk;
            }
            ctx.close_writer(up)
        });
        let down = rx.add_stream("S1:inbound", 8, 1);
        rx.mark_stream_inbound(down);
        rx.spawn_async("T1:recv", async move |ctx| loop {
            let eof = ctx
                .call(async |ctx| {
                    ctx.compute(2);
                    for _ in 0..4 {
                        if ctx.read_byte(down).await?.is_none() {
                            return Ok(true);
                        }
                    }
                    Ok(false)
                })
                .await?;
            if eof {
                return Ok(());
            }
        });
        let mut builder = ClusterBuilder::new(BusConfig::default());
        builder.add_pe(tx.start());
        builder.add_pe(rx.start());
        builder.route(0, up, 1, down);
        let report = builder.run().expect("cross-PE microbench cluster");
        ns.push(t0.elapsed().as_nanos() as f64 / ops as f64);
        makespan = report.summary.makespan_cycles;
        debug_assert_eq!(report.summary.messages, ops);
    }
    OpMeasurement {
        op: "switch_cross_pe",
        audit,
        ops,
        cycles_per_op: makespan as f64 / ops as f64,
        ns_per_op: median(ns),
    }
}

/// Measures the scheduler ready-queue primitives under the working-set
/// policy (the residency-segmented queue): `enqueue` is one
/// `enqueue_woken` with a wake snapshot alternating between resident
/// and evicted threads, `dispatch` is one `pop`. Host-side runtime
/// operations: no simulated cycles are charged, so the cycle column is
/// zero by construction. Window auditing cannot affect a ready queue;
/// both audit cells measure the identical operation.
fn bench_sched(cfg: MicrobenchConfig, audit: bool) -> [OpMeasurement; 2] {
    const QUEUE: u64 = 64;
    let mut queue = ReadyQueue::new(SchedulingPolicy::WorkingSet);
    let reps = (cfg.iters / QUEUE).max(1);
    let ops = reps * QUEUE;
    let mut enq_ns = Vec::with_capacity(cfg.rounds);
    let mut pop_ns = Vec::with_capacity(cfg.rounds);
    for _ in 0..cfg.rounds {
        let mut e_ns = 0f64;
        let mut p_ns = 0f64;
        for _ in 0..reps {
            let t0 = Instant::now();
            for i in 0..QUEUE {
                // Every other wake still has resident windows, so both
                // queue segments see traffic.
                let wake = WakeInfo { resident: (i % 2) as usize, free_windows: 4, nwindows: 8 };
                queue.enqueue_woken(ThreadId::new(i as usize), wake);
            }
            e_ns += t0.elapsed().as_nanos() as f64;
            let t1 = Instant::now();
            while queue.pop().is_some() {}
            p_ns += t1.elapsed().as_nanos() as f64;
        }
        enq_ns.push(e_ns / ops as f64);
        pop_ns.push(p_ns / ops as f64);
    }
    [
        OpMeasurement { op: "enqueue", audit, ops, cycles_per_op: 0.0, ns_per_op: median(enq_ns) },
        OpMeasurement { op: "dispatch", audit, ops, cycles_per_op: 0.0, ns_per_op: median(pop_ns) },
    ]
}

/// Measures one wait-free ops-counter publication: a relaxed atomic add
/// into an [`AtomicMetricSet`] row, exactly what the sweep engine's job
/// hot path performs per operational event instead of locking a shared
/// aggregate. Host-side: no simulated cycles; auditing is irrelevant to
/// an atomic add, so both audit cells measure the identical operation.
fn bench_publish(cfg: MicrobenchConfig, audit: bool) -> OpMeasurement {
    let row = AtomicMetricSet::new();
    let ops = cfg.iters;
    let mut ns = Vec::with_capacity(cfg.rounds);
    for _ in 0..cfg.rounds {
        let t0 = Instant::now();
        for _ in 0..ops {
            row.add(Metric::CacheHits, 1);
        }
        ns.push(t0.elapsed().as_nanos() as f64 / ops as f64);
    }
    // Read the row back so the timed adds cannot be optimized away.
    assert_eq!(row.get(Metric::CacheHits), ops * cfg.rounds as u64);
    OpMeasurement { op: "publish", audit, ops, cycles_per_op: 0.0, ns_per_op: median(ns) }
}

/// Measures one full scenario synthesis — `WorkloadSpec::from_seed`
/// plus `Workload::synthesize` over a rotating seed — the per-job
/// generator work the `repro-fuzz` farm performs before any simulation
/// starts. Host-side: no simulated cycles are charged, and auditing
/// cannot affect synthesis, so both audit cells measure the identical
/// operation.
fn bench_gen_scenario(cfg: MicrobenchConfig, audit: bool) -> OpMeasurement {
    let ops = cfg.iters;
    let mut ns = Vec::with_capacity(cfg.rounds);
    let mut threads = 0usize;
    for _ in 0..cfg.rounds {
        let t0 = Instant::now();
        for i in 0..ops {
            let wl = Workload::synthesize(&WorkloadSpec::from_seed(i));
            threads += wl.threads.len();
        }
        ns.push(t0.elapsed().as_nanos() as f64 / ops as f64);
    }
    // Read the tally back so synthesis cannot be optimized away.
    assert!(threads as u64 >= ops * cfg.rounds as u64);
    OpMeasurement { op: "gen_scenario", audit, ops, cycles_per_op: 0.0, ns_per_op: median(ns) }
}

/// Runs every cell of the micro-benchmark matrix: each operation in
/// [`OPS`], unaudited then audited, in deterministic order.
pub fn run_microbench(cfg: MicrobenchConfig) -> Vec<OpMeasurement> {
    let mut out = Vec::with_capacity(OPS.len() * 2);
    for &audit in &[false, true] {
        out.extend(bench_save_restore(cfg, audit));
        out.extend(bench_traps(cfg, audit, TimingKind::S20, ["overflow", "underflow"]));
        out.extend(bench_traps(
            cfg,
            audit,
            TimingKind::Pipeline,
            ["overflow_pipeline", "underflow_pipeline"],
        ));
        out.push(bench_switch(cfg, audit, TimingKind::S20, "switch"));
        out.push(bench_switch(cfg, audit, TimingKind::Pipeline, "switch_pipeline"));
        out.push(bench_switch_cross_pe(cfg, audit));
        out.push(bench_audit(cfg, audit));
        out.extend(bench_sched(cfg, audit));
        out.push(bench_publish(cfg, audit));
        out.push(bench_gen_scenario(cfg, audit));
    }
    // Report in op-major order (both audit settings of an op adjacent).
    out.sort_by_key(|m| (OPS.iter().position(|&o| o == m.op).expect("known op"), m.audit));
    out
}

/// Renders the `BENCH_machine.json` document: schema header, run
/// parameters and one record per measured cell, in deterministic order.
pub fn microbench_to_json(cfg: MicrobenchConfig, quick: bool, ms: &[OpMeasurement]) -> Value {
    let cells = ms
        .iter()
        .map(|m| {
            obj(vec![
                ("op", Value::Str(m.op.to_string())),
                ("audit", Value::Bool(m.audit)),
                ("ops", Value::Int(m.ops)),
                ("cycles_per_op", Value::Float(m.cycles_per_op)),
                ("ns_per_op", Value::Float(m.ns_per_op)),
            ])
        })
        .collect();
    obj(vec![
        ("schema", Value::Int(1)),
        ("kind", Value::Str("machine_microbench".to_string())),
        ("quick", Value::Bool(quick)),
        ("rounds", Value::Int(cfg.rounds as u64)),
        ("iters", Value::Int(cfg.iters)),
        ("ops", Value::Arr(cells)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycles_map(ms: &[OpMeasurement]) -> Vec<(&'static str, bool, f64)> {
        ms.iter().map(|m| (m.op, m.audit, m.cycles_per_op)).collect()
    }

    #[test]
    fn microbench_covers_every_op_in_both_audit_settings() {
        let ms = run_microbench(MicrobenchConfig::quick());
        assert_eq!(ms.len(), OPS.len() * 2);
        for &op in &OPS {
            for &audit in &[false, true] {
                assert!(
                    ms.iter().any(|m| m.op == op && m.audit == audit),
                    "missing cell {op}/audit={audit}"
                );
            }
        }
    }

    #[test]
    fn cycles_per_op_are_deterministic_across_runs() {
        let a = run_microbench(MicrobenchConfig::quick());
        let b = run_microbench(MicrobenchConfig::quick());
        assert_eq!(cycles_map(&a), cycles_map(&b));
    }

    #[test]
    fn auditing_never_changes_cycles_and_bounds_wall_overhead() {
        let ms = run_microbench(MicrobenchConfig::quick());
        for &op in &OPS {
            let unaudited = ms.iter().find(|m| m.op == op && !m.audit).expect("cell");
            let audited = ms.iter().find(|m| m.op == op && m.audit).expect("cell");
            // The auditor's core contract: simulated cycles identical.
            assert_eq!(
                audited.cycles_per_op, unaudited.cycles_per_op,
                "{op}: auditing changed the cycle report"
            );
            // Wall overhead stays bounded. The bound is deliberately
            // loose (shared CI machines, debug builds) — it exists to
            // catch a return to eager per-write checksumming, which is
            // orders of magnitude, not a factor. The "audit" cell is
            // exempt: its unaudited variant is a no-op by design, so
            // there is no baseline to be a multiple of.
            if op != "audit" {
                assert!(
                    audited.ns_per_op <= unaudited.ns_per_op * 25.0 + 20_000.0,
                    "{op}: audited {} ns vs unaudited {} ns",
                    audited.ns_per_op,
                    unaudited.ns_per_op
                );
            }
        }
    }

    #[test]
    fn trap_cells_actually_trap_and_trapfree_cells_do_not() {
        let ms = run_microbench(MicrobenchConfig::quick());
        let save = ms.iter().find(|m| m.op == "save" && !m.audit).expect("cell");
        let overflow = ms.iter().find(|m| m.op == "overflow" && !m.audit).expect("cell");
        // A trapping save costs strictly more simulated cycles than a
        // trap-free one (handler + spill on top of the instruction).
        assert!(overflow.cycles_per_op > save.cycles_per_op);
        // The same holds under the pipeline backend: software handler
        // plus LSQ issue/backpressure still dwarfs a bare window instr.
        let over_pipe = ms.iter().find(|m| m.op == "overflow_pipeline" && !m.audit).expect("cell");
        assert!(over_pipe.cycles_per_op > save.cycles_per_op);
        // And the two backends genuinely price the trap differently.
        assert_ne!(over_pipe.cycles_per_op, overflow.cycles_per_op);
        // Audit passes charge no simulated cycles at all.
        let audit = ms.iter().find(|m| m.op == "audit" && m.audit).expect("cell");
        assert_eq!(audit.cycles_per_op, 0.0);
    }

    #[test]
    fn json_document_round_trips_with_expected_shape() {
        let cfg = MicrobenchConfig::quick();
        let ms = run_microbench(cfg);
        let doc = microbench_to_json(cfg, true, &ms);
        let parsed = regwin_sweep::json::parse(&doc.to_json()).expect("self-parse");
        assert_eq!(parsed.get("schema").and_then(Value::as_u64), Some(1));
        assert_eq!(parsed.get("kind").and_then(Value::as_str), Some("machine_microbench"));
        let cells = parsed.get("ops").and_then(Value::as_arr).expect("ops array");
        assert_eq!(cells.len(), OPS.len() * 2);
        for cell in cells {
            assert!(cell.get("cycles_per_op").and_then(Value::as_f64).is_some());
            assert!(cell.get("ns_per_op").and_then(Value::as_f64).is_some());
        }
    }
}
