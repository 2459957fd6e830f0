//! Full-scale (paper-sized) shape checks. Ignored by default because a
//! complete run takes minutes; execute with:
//!
//! ```sh
//! cargo test --release --test full_scale -- --ignored
//! ```
//!
//! The same checks run automatically (against fresh data) at the end of
//! `repro-all`; see EXPERIMENTS.md for recorded results.

use regwin::core::figures::Sweep;
use regwin::core::{CorpusSpec, MatrixSpec, SchedulingPolicy};
use regwin::sweep::SweepEngine;

/// Runs the paper-corpus high-concurrency sweep on the sweep engine (no
/// cache, one worker per CPU), checking first that no cell was
/// quarantined away.
fn high(windows: &[usize], policy: SchedulingPolicy) -> Sweep {
    let spec = Sweep::high_spec(CorpusSpec::paper(), windows, policy);
    let engine = SweepEngine::quiet();
    let records = engine.run_matrix(&spec).unwrap();
    assert!(engine.quarantine().is_empty(), "quarantined: {:?}", engine.quarantine());
    assert_eq!(records.len(), spec.len(), "every cell has a record");
    Sweep::from_records(records)
}

#[test]
#[ignore = "paper-scale run (~minutes); run with --ignored --release"]
fn full_scale_figure_11_12_13_shapes() {
    let windows = MatrixSpec::paper_window_sweep();
    let sweep = high(&windows, SchedulingPolicy::Fifo);

    let time = sweep.execution_time_series();
    let get = |series: &[regwin::core::Series], label: &str, w: usize| {
        series.iter().find(|s| s.label == label).unwrap().at(w).unwrap()
    };
    for g in ["coarse", "medium", "fine"] {
        assert!(get(&time, &format!("SP {g}"), 32) < get(&time, &format!("SNP {g}"), 32));
        assert!(get(&time, &format!("SNP {g}"), 32) < get(&time, &format!("NS {g}"), 32));
    }
    assert!(get(&time, "NS fine", 4) < get(&time, "SP fine", 4));

    let switch = sweep.avg_switch_series();
    assert!(get(&switch, "SP fine", 32) < 100.0, "SP at its best case");
    assert!(get(&switch, "SNP fine", 32) < 120.0, "SNP at its best case");
    assert!(get(&switch, "NS fine", 32) > 145.0, "NS cannot beat its floor");

    let traps = sweep.trap_probability_series();
    assert!(get(&traps, "SP fine", 32) < 0.005);
    assert!(get(&traps, "NS fine", 32) > 0.2);
}

#[test]
#[ignore = "paper-scale run (~minutes); run with --ignored --release"]
fn full_scale_working_set_rescues_seven_windows() {
    let fifo = high(&[7], SchedulingPolicy::Fifo);
    let ws = high(&[7], SchedulingPolicy::WorkingSet);
    let value = |sweep: &Sweep| {
        sweep.execution_time_series().iter().find(|s| s.label == "SP fine").unwrap().at(7).unwrap()
    };
    assert!(
        value(&ws) < value(&fifo) * 0.8,
        "working set must improve SP at 7 windows by well over 20%"
    );
}
