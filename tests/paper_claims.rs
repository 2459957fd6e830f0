//! The paper's headline quantitative claims, asserted on a scaled-down
//! corpus (the full-scale versions are checked by `repro-all`'s shape
//! report; see EXPERIMENTS.md).

use regwin::core::figures::{table2_from_records, table2_observed_spec, Sweep, Table2Result};
use regwin::core::tradeoff::{analyze, AccessTimeModel, TradeoffResult};
use regwin::core::{CorpusSpec, MatrixSpec, RunRecord, SchedulingPolicy};
use regwin::sweep::SweepEngine;

fn corpus() -> CorpusSpec {
    CorpusSpec::scaled(5)
}

fn windows() -> Vec<usize> {
    MatrixSpec::quick_window_sweep()
}

/// Executes `spec` on the sweep engine (no cache, one worker per CPU).
/// The engine drops a quarantined cell from its records, so every claim
/// first checks that no cell is missing.
fn execute(spec: &MatrixSpec) -> Vec<RunRecord> {
    let engine = SweepEngine::quiet();
    let records = engine.run_matrix(spec).unwrap();
    assert!(engine.quarantine().is_empty(), "quarantined: {:?}", engine.quarantine());
    assert_eq!(records.len(), spec.len(), "every cell has a record");
    records
}

fn high(windows: &[usize], policy: SchedulingPolicy) -> Sweep {
    Sweep::from_records(execute(&Sweep::high_spec(corpus(), windows, policy)))
}

fn table2() -> Table2Result {
    table2_from_records(&execute(&table2_observed_spec(CorpusSpec::small())))
}

#[test]
fn table2_costs_match_the_papers_measured_ranges() {
    let result = table2();
    assert!(result.all_in_range, "\n{}", result.table);
}

#[test]
fn observed_switch_shapes_match_table2_rows() {
    // Each scheme must only ever perform the transfer shapes the paper
    // tabulates (plus fresh-thread dispatches with zero restores).
    let result = table2();
    let rows = &result.observed;
    assert!(!rows.is_empty());
    let csv = rows.to_csv();
    for line in csv.lines().skip(1) {
        // The shape cell "(s,r)" itself contains a comma.
        let mut fields = line.split(',');
        let scheme = fields.next().unwrap();
        let shape = format!("{},{}", fields.next().unwrap(), fields.next().unwrap());
        let shape = shape.as_str();
        if scheme == "SP" {
            // SP never moves more than 2 windows out, 1 in.
            assert!(
                ["(0,0)", "(0,1)", "(1,0)", "(1,1)", "(2,0)", "(2,1)"].contains(&shape),
                "unexpected SP shape {shape}"
            );
        }
        if scheme == "SNP" {
            assert!(
                ["(0,0)", "(0,1)", "(1,0)", "(1,1)", "(2,0)", "(2,1)"].contains(&shape),
                "unexpected SNP shape {shape}"
            );
        }
    }
}

#[test]
fn high_concurrency_sweep_reproduces_figure_11_shape() {
    let sweep = high(&windows(), SchedulingPolicy::Fifo);
    let series = sweep.execution_time_series();
    let get =
        |label: &str, w: usize| series.iter().find(|s| s.label == label).unwrap().at(w).unwrap();
    // With sufficient windows the best scheme is SP (paper §6.3).
    assert!(get("SP fine", 32) < get("SNP fine", 32));
    assert!(get("SNP fine", 32) < get("NS fine", 32));
    // With few windows the NS scheme is best (paper §6.3).
    assert!(get("NS fine", 4) < get("SP fine", 4));
    // As granularity becomes fine, the advantage of sharing increases.
    let advantage = |g: &str| get(&format!("NS {g}"), 32) / get(&format!("SP {g}"), 32);
    assert!(advantage("fine") > advantage("coarse"));
}

#[test]
fn figure_12_switch_costs_approach_best_case_with_many_windows() {
    let sweep = high(&windows(), SchedulingPolicy::Fifo);
    let series = sweep.avg_switch_series();
    let get =
        |label: &str, w: usize| series.iter().find(|s| s.label == label).unwrap().at(w).unwrap();
    // SP's best case is 93–98 cycles, SNP's 113–118 (Table 2); with many
    // windows "most context switches are done without any window
    // transfer" (§6.3).
    assert!(get("SP fine", 32) < 100.0);
    assert!(get("SNP fine", 32) < 120.0);
    // NS can never get below its (1,1) floor of ~145 cycles.
    assert!(get("NS fine", 32) > 145.0);
}

#[test]
fn figure_13_trap_probability_collapses_for_sharing_schemes() {
    let sweep = high(&windows(), SchedulingPolicy::Fifo);
    let series = sweep.trap_probability_series();
    let get =
        |label: &str, w: usize| series.iter().find(|s| s.label == label).unwrap().at(w).unwrap();
    assert!(get("SP fine", 32) < 0.02);
    assert!(get("SNP fine", 32) < 0.02);
    // NS keeps paying its flush-and-refill traps no matter how many
    // windows exist.
    assert!(get("NS fine", 32) > 0.1);
}

#[test]
fn figure_14_low_concurrency_needs_more_windows_to_saturate() {
    // §6.4: total window activity is larger at low concurrency (coarse
    // granularity), so saturation needs ~20 windows.
    let spec = Sweep::low_spec(corpus(), &[4, 8, 12, 16, 20, 32], SchedulingPolicy::Fifo);
    let sweep = Sweep::from_records(execute(&spec));
    let series = sweep.execution_time_series();
    let sp = series.iter().find(|s| s.label == "SP coarse").unwrap();
    let at8 = sp.at(8).unwrap();
    let at20 = sp.at(20).unwrap();
    assert!(
        at20 < at8 * 0.95,
        "SP coarse should still be improving past 8 windows: {at8} -> {at20}"
    );
}

#[test]
fn figure_15_working_set_rescues_sharing_at_few_windows() {
    let fifo = high(&[7, 8], SchedulingPolicy::Fifo);
    let ws = high(&[7, 8], SchedulingPolicy::WorkingSet);
    let get = |sweep: &Sweep, label: &str, w: usize| {
        sweep.execution_time_series().iter().find(|s| s.label == label).unwrap().at(w).unwrap()
    };
    // "the sharing schemes work well with even seven or eight windows"
    for w in [7usize, 8] {
        let improvement = get(&fifo, "SP fine", w) / get(&ws, "SP fine", w);
        assert!(improvement > 1.0, "working set must improve SP at {w} windows");
    }
}

#[test]
fn heavy_access_penalty_moves_the_optimum_left() {
    let windows = vec![4usize, 8, 12, 16, 24, 32];
    let sweep = high(&windows, SchedulingPolicy::Fifo);
    let cheap = analyze(&sweep, AccessTimeModel { base_windows: 7, per_doubling: 0.01 });
    let pricey = analyze(&sweep, AccessTimeModel { base_windows: 7, per_doubling: 0.60 });
    let optimum =
        |r: &TradeoffResult, label: &str| r.optima.iter().find(|(l, _)| l == label).unwrap().1;
    // With near-free access scaling the optimum is a big file; with a
    // punitive one it shrinks.
    let sp_cheap = optimum(&cheap, "SP fine");
    let sp_pricey = optimum(&pricey, "SP fine");
    assert!(sp_pricey <= sp_cheap, "pricey {sp_pricey} vs cheap {sp_cheap}");
    // NS gains nothing from more windows, so its optimum under any
    // penalty is the smallest count.
    assert_eq!(optimum(&pricey, "NS fine"), 4);
}
