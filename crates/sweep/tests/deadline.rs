//! Job timeouts are cooperative deadlines: a timed-out attempt stops
//! inside its own simulation on the worker thread that ran it, so the
//! job is quarantined and nothing is left running. A test binary of its
//! own, so no other test's threads move the process's thread count.

use regwin_core::{Behavior, Concurrency, Granularity, MatrixSpec};
use regwin_core::{CorpusSpec, SchedulingPolicy, SchemeKind};
use regwin_machine::TimingKind;
use regwin_rt::{Ctx, RtError, RunReport, Simulation};
use regwin_sweep::{Job, JobKey, SweepConfig, SweepEngine};
use std::time::{Duration, Instant};

/// The process's OS thread count, from `/proc/self/status`.
fn os_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("/proc/self/status has a Threads: line")
}

/// Two threads echo one byte through 1-byte streams forever: every
/// operation blocks, so the run never ends but dispatches all the time.
fn endless_echo() -> Result<RunReport, RtError> {
    let mut sim = Simulation::new(8, SchemeKind::Sp)?;
    let there = sim.add_stream("there", 1, 1);
    let back = sim.add_stream("back", 1, 1);
    sim.spawn_async("ping", async move |ctx: &mut Ctx| {
        let mut byte = 0u8;
        loop {
            ctx.write_byte(there, byte).await?;
            byte = ctx.read_byte(back).await?.unwrap_or(byte);
        }
    });
    sim.spawn_async("pong", async move |ctx: &mut Ctx| {
        while let Some(byte) = ctx.read_byte(there).await? {
            ctx.write_byte(back, byte).await?;
        }
        Ok(())
    });
    sim.run()
}

#[test]
fn timeout_bounds_a_job_that_never_finishes() {
    let spec = MatrixSpec {
        corpus: CorpusSpec::small(),
        behaviors: vec![Behavior::new(Concurrency::High, Granularity::Medium)],
        schemes: vec![SchemeKind::Sp],
        windows: vec![8],
        policy: SchedulingPolicy::Fifo,
        timing: TimingKind::S20,
    };
    let engine = SweepEngine::with_config(
        SweepConfig::builder()
            .job_timeout(Duration::from_millis(100))
            .retries(1)
            .retry_backoff(Duration::from_millis(1))
            .build()
            .unwrap(),
    );
    let key = JobKey::for_cell(&spec, spec.behaviors[0], SchemeKind::Sp, 8);
    let jobs = vec![Job::new(key, endless_echo)];

    let threads_before = os_threads();
    let t0 = Instant::now();
    let reports = engine.run_jobs(&jobs);
    assert!(reports[0].is_none());
    assert!(t0.elapsed() < Duration::from_secs(10), "took {:?}", t0.elapsed());
    assert_eq!(os_threads(), threads_before, "a timed-out attempt left a thread running");

    let quarantine = engine.quarantine();
    assert_eq!(quarantine.len(), 1);
    assert_eq!(quarantine[0].reason, "timeout");
    assert_eq!(quarantine[0].attempts, 2);
    assert_eq!(quarantine[0].detail, "exceeded 100ms wall-clock limit");
}
