//! Every table and figure in the paper's evaluation: the matrix each
//! one needs (`*_spec`) and its assembly from executed records
//! (`*_from_records`). Execute a spec with `regwin_sweep::SweepEngine`
//! or, serially, with [`run_matrix`](crate::run_matrix).

use crate::behavior::{Behavior, Concurrency, Granularity};
use crate::matrix::{MatrixSpec, RunRecord};
use crate::report::{series_table, Series, TextTable};
use regwin_machine::{CostModel, SchemeKind, SwitchShape, TimingKind};
use regwin_rt::{RtError, SchedulingPolicy};
use regwin_spell::CorpusSpec;

/// A reproduced figure: its series plus a rendered text table.
#[derive(Debug, Clone)]
pub struct FigureResult {
    /// The exhibit name, e.g. `"Figure 11"`.
    pub title: String,
    /// One series per (scheme, granularity) line of the original plot.
    pub series: Vec<Series>,
    /// The series rendered as a window-count × series table.
    pub table: TextTable,
}

impl FigureResult {
    /// Finds a series by its label.
    pub fn series_by_label(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }
}

/// A completed sweep over (behaviour × scheme × window count), from which
/// Figures 11–15 are all derived. The paper derives Figures 12 and 13
/// from the same runs as Figure 11; so does this.
#[derive(Debug, Clone)]
pub struct Sweep {
    records: Vec<RunRecord>,
}

impl Sweep {
    /// The matrix behind the high-concurrency sweep (Figures 11–13 with
    /// [`SchedulingPolicy::Fifo`], Figure 15 with
    /// [`SchedulingPolicy::WorkingSet`]). Execute it with the sweep
    /// engine or [`run_matrix`](crate::run_matrix), then assemble with
    /// [`Sweep::from_records`].
    pub fn high_spec(
        corpus: CorpusSpec,
        windows: &[usize],
        policy: SchedulingPolicy,
    ) -> MatrixSpec {
        MatrixSpec {
            corpus,
            behaviors: Behavior::high_concurrency().to_vec(),
            schemes: SchemeKind::ALL.to_vec(),
            windows: windows.to_vec(),
            policy,
            timing: TimingKind::S20,
        }
    }

    /// The matrix behind the low-concurrency sweep (Figure 14).
    pub fn low_spec(corpus: CorpusSpec, windows: &[usize], policy: SchedulingPolicy) -> MatrixSpec {
        MatrixSpec {
            behaviors: Behavior::low_concurrency().to_vec(),
            ..Self::high_spec(corpus, windows, policy)
        }
    }

    /// Wraps already-executed records (from the sweep engine or
    /// [`run_matrix`](crate::run_matrix)) as a sweep.
    pub fn from_records(records: Vec<RunRecord>) -> Self {
        Sweep { records }
    }

    /// The raw run records.
    pub fn records(&self) -> &[RunRecord] {
        &self.records
    }

    fn series_of(&self, value: impl Fn(&RunRecord) -> f64) -> Vec<Series> {
        let mut series: Vec<Series> = Vec::new();
        for r in &self.records {
            let label = format!("{} {}", r.scheme, r.behavior.granularity);
            let s = match series.iter_mut().find(|s| s.label == label) {
                Some(s) => s,
                None => {
                    series.push(Series::new(label));
                    series.last_mut().expect("just pushed")
                }
            };
            s.push(r.nwindows, value(r));
        }
        series
    }

    /// Execution time in simulated cycles (Figures 11, 14, 15).
    pub fn execution_time_series(&self) -> Vec<Series> {
        self.series_of(|r| r.report.total_cycles() as f64)
    }

    /// Average context-switch cycles (Figure 12).
    pub fn avg_switch_series(&self) -> Vec<Series> {
        self.series_of(|r| r.report.avg_switch_cycles())
    }

    /// Window-trap probability (Figure 13).
    pub fn trap_probability_series(&self) -> Vec<Series> {
        self.series_of(|r| r.report.trap_probability())
    }
}

// --------------------------------------------------------------------
// Table 1
// --------------------------------------------------------------------

/// The reproduced Table 1 data.
#[derive(Debug, Clone)]
pub struct Table1Result {
    /// Rendered table: one row per thread plus a total row; one column
    /// per behaviour plus the dynamic save count.
    pub table: TextTable,
    /// Context switches per thread (outer: thread, inner: behaviour in
    /// [`Behavior::ALL`] order).
    pub switch_counts: Vec<Vec<u64>>,
    /// Dynamic `save` counts per thread (behaviour-independent).
    pub save_counts: Vec<u64>,
    /// Thread names.
    pub thread_names: Vec<String>,
}

impl Table1Result {
    /// Total context switches per behaviour.
    pub fn totals(&self) -> Vec<u64> {
        let nbehaviors = Behavior::ALL.len();
        (0..nbehaviors).map(|b| self.switch_counts.iter().map(|row| row[b]).sum()).collect()
    }
}

/// The matrix behind Table 1: one run per behaviour. The switch counts
/// are scheme-independent (§5.2), so a single scheme suffices.
pub fn table1_spec(corpus: CorpusSpec) -> MatrixSpec {
    MatrixSpec {
        corpus,
        behaviors: Behavior::ALL.to_vec(),
        schemes: vec![SchemeKind::Sp],
        windows: vec![8],
        policy: SchedulingPolicy::Fifo,
        timing: TimingKind::S20,
    }
}

/// Assembles Table 1 from already-executed [`table1_spec`] records.
/// Records are matched to behaviours by identity, not position, so the
/// input order does not matter.
///
/// # Errors
///
/// Returns [`RtError::MissingRecord`] if any behaviour of
/// [`Behavior::ALL`] has no record — e.g. because the sweep engine
/// quarantined that cell — rather than silently shifting the remaining
/// counts into the wrong columns.
pub fn table1_from_records(records: &[RunRecord]) -> Result<Table1Result, RtError> {
    let by_behavior: Vec<&RunRecord> = Behavior::ALL
        .iter()
        .map(|&b| {
            records.iter().find(|r| r.behavior == b).ok_or_else(|| RtError::MissingRecord {
                detail: format!("table 1: no record for behaviour '{b}' (cell quarantined?)"),
            })
        })
        .collect::<Result<_, _>>()?;
    let first = by_behavior[0];
    let nthreads = first.report.threads.len();
    let thread_names: Vec<String> = first.report.threads.iter().map(|t| t.name.clone()).collect();
    let mut switch_counts = vec![vec![0u64; Behavior::ALL.len()]; nthreads];
    let mut save_counts = vec![0u64; nthreads];
    for (b, record) in by_behavior.iter().enumerate() {
        for (t, tr) in record.report.threads.iter().enumerate() {
            switch_counts[t][b] = tr.context_switches;
            save_counts[t] = tr.saves; // identical across behaviours
        }
    }

    let mut headers = vec!["thread"];
    let behavior_names: Vec<String> = Behavior::ALL.iter().map(|b| b.to_string()).collect();
    headers.extend(behavior_names.iter().map(String::as_str));
    headers.push("saves");
    let mut table = TextTable::new(
        "Table 1: context switches per thread (FIFO) and dynamic save counts",
        &headers,
    );
    for t in 0..nthreads {
        let mut row = vec![thread_names[t].clone()];
        row.extend(switch_counts[t].iter().map(u64::to_string));
        row.push(save_counts[t].to_string());
        table.row(row);
    }
    let result = Table1Result { table, switch_counts, save_counts, thread_names };
    let mut total_row = vec!["Total".to_string()];
    total_row.extend(result.totals().iter().map(u64::to_string));
    total_row.push(result.save_counts.iter().sum::<u64>().to_string());
    let mut table = result.table.clone();
    table.row(total_row);
    Ok(Table1Result { table, ..result })
}

// --------------------------------------------------------------------
// Table 2
// --------------------------------------------------------------------

/// The paper's measured context-switch cycle ranges (Table 2).
pub const PAPER_TABLE2: &[(SchemeKind, usize, usize, u64, u64)] = &[
    (SchemeKind::Ns, 1, 1, 145, 149),
    (SchemeKind::Ns, 2, 1, 181, 185),
    (SchemeKind::Ns, 3, 1, 217, 221),
    (SchemeKind::Ns, 4, 1, 253, 257),
    (SchemeKind::Ns, 5, 1, 289, 293),
    (SchemeKind::Ns, 6, 1, 325, 329),
    (SchemeKind::Snp, 0, 0, 113, 118),
    (SchemeKind::Snp, 0, 1, 142, 147),
    (SchemeKind::Snp, 1, 0, 162, 171),
    (SchemeKind::Snp, 1, 1, 187, 196),
    (SchemeKind::Sp, 0, 0, 93, 98),
    (SchemeKind::Sp, 0, 1, 136, 141),
    (SchemeKind::Sp, 1, 1, 180, 197),
    (SchemeKind::Sp, 2, 1, 220, 237),
];

/// The reproduced Table 2 data.
#[derive(Debug, Clone)]
pub struct Table2Result {
    /// Model-derived cost per (scheme, saves, restores) beside the
    /// paper's measured range.
    pub table: TextTable,
    /// Whether every modelled cost lies inside the paper's range.
    pub all_in_range: bool,
    /// Observed switch-shape histogram per scheme from an actual run.
    pub observed: TextTable,
}

/// The matrix behind Table 2's observed-shapes section: one M=N=4-byte
/// (high/medium) run per scheme on 8 windows.
pub fn table2_observed_spec(corpus: CorpusSpec) -> MatrixSpec {
    MatrixSpec {
        corpus,
        behaviors: vec![Behavior::new(Concurrency::High, Granularity::Medium)],
        schemes: SchemeKind::ALL.to_vec(),
        windows: vec![8],
        policy: SchedulingPolicy::Fifo,
        timing: TimingKind::S20,
    }
}

/// Assembles Table 2 from already-executed [`table2_observed_spec`]
/// records. The model-vs-paper section needs no simulation at all; the
/// records feed only the observed-shapes histogram.
pub fn table2_from_records(records: &[RunRecord]) -> Table2Result {
    let model = CostModel::s20();
    let mut table = TextTable::new(
        "Table 2: cycles per context switch (model vs paper measurement)",
        &["scheme", "saves", "restores", "model", "paper", "in range"],
    );
    let mut all_in_range = true;
    for &(scheme, saves, restores, lo, hi) in PAPER_TABLE2 {
        let cycles = model.switch_cost(scheme).cycles(saves, restores);
        let ok = (lo..=hi).contains(&cycles);
        all_in_range &= ok;
        table.row(vec![
            scheme.to_string(),
            saves.to_string(),
            restores.to_string(),
            cycles.to_string(),
            format!("{lo}-{hi}"),
            if ok { "yes" } else { "NO" }.to_string(),
        ]);
    }

    // Observed shapes: one record per scheme on 8 windows.
    let mut observed = TextTable::new(
        "Observed context-switch transfer shapes (spell checker, 8 windows)",
        &["scheme", "(saves,restores)", "count", "share"],
    );
    for record in records {
        let total: u64 = record.report.stats.switch_shapes.values().sum();
        let mut shapes: Vec<(&SwitchShape, &u64)> =
            record.report.stats.switch_shapes.iter().collect();
        shapes.sort_by_key(|(s, _)| (s.saves, s.restores));
        for (shape, count) in shapes {
            observed.row(vec![
                record.scheme.to_string(),
                format!("({},{})", shape.saves, shape.restores),
                count.to_string(),
                format!("{:.1}%", 100.0 * *count as f64 / total as f64),
            ]);
        }
    }
    Table2Result { table, all_in_range, observed }
}

// --------------------------------------------------------------------
// Figures 11–15
// --------------------------------------------------------------------

/// Which sweep-derived figure of the paper an exhibit reproduces. All
/// five share the same structure — a [`MatrixSpec`] sweep plus one
/// metric — and differ only in the data below, so callers can be fully
/// generic over the figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FigureId {
    /// Execution time, high concurrency, FIFO.
    Fig11,
    /// Average context-switch time, high concurrency, FIFO.
    Fig12,
    /// Window-trap probability, high concurrency, FIFO.
    Fig13,
    /// Execution time, low concurrency, FIFO.
    Fig14,
    /// Execution time, high concurrency, working-set scheduling (§4.6).
    Fig15,
}

impl FigureId {
    /// All five figures, in paper order.
    pub const ALL: [FigureId; 5] =
        [FigureId::Fig11, FigureId::Fig12, FigureId::Fig13, FigureId::Fig14, FigureId::Fig15];

    /// The short name used for CSV files, e.g. `"fig11"`.
    pub fn csv_name(self) -> &'static str {
        match self {
            FigureId::Fig11 => "fig11",
            FigureId::Fig12 => "fig12",
            FigureId::Fig13 => "fig13",
            FigureId::Fig14 => "fig14",
            FigureId::Fig15 => "fig15",
        }
    }

    /// The exhibit title.
    pub fn title(self) -> &'static str {
        match self {
            FigureId::Fig11 => "Figure 11: execution time at high concurrency (FIFO)",
            FigureId::Fig12 => "Figure 12: average context-switch cycles at high concurrency",
            FigureId::Fig13 => "Figure 13: probability of window traps at high concurrency",
            FigureId::Fig14 => "Figure 14: execution time at low concurrency (FIFO)",
            FigureId::Fig15 => {
                "Figure 15: execution time at high concurrency (working-set scheduling)"
            }
        }
    }

    /// The metric's display name.
    pub fn value_name(self) -> &'static str {
        match self {
            FigureId::Fig11 | FigureId::Fig14 | FigureId::Fig15 => "cycles",
            FigureId::Fig12 => "cycles/switch",
            FigureId::Fig13 => "traps per save/restore",
        }
    }

    /// The matrix this figure needs. Figures 11–13 share one spec, so
    /// they share one sweep (and, through the sweep engine, one set of
    /// cached runs).
    pub fn spec(self, corpus: CorpusSpec, windows: &[usize]) -> MatrixSpec {
        match self {
            FigureId::Fig11 | FigureId::Fig12 | FigureId::Fig13 => {
                Sweep::high_spec(corpus, windows, SchedulingPolicy::Fifo)
            }
            FigureId::Fig14 => Sweep::low_spec(corpus, windows, SchedulingPolicy::Fifo),
            FigureId::Fig15 => Sweep::high_spec(corpus, windows, SchedulingPolicy::WorkingSet),
        }
    }

    /// Assembles the figure from an executed sweep of [`FigureId::spec`].
    pub fn from_sweep(self, sweep: &Sweep) -> FigureResult {
        let series = match self {
            FigureId::Fig11 | FigureId::Fig14 | FigureId::Fig15 => sweep.execution_time_series(),
            FigureId::Fig12 => sweep.avg_switch_series(),
            FigureId::Fig13 => sweep.trap_probability_series(),
        };
        figure(self.title(), self.value_name(), series)
    }
}

/// Assembles a [`FigureResult`] from ready-made series — the last step
/// of [`FigureId::from_sweep`], usable directly for any series.
pub fn figure(title: &str, value_name: &str, series: Vec<Series>) -> FigureResult {
    let table = series_table(title, value_name, &series);
    FigureResult { title: title.to_string(), series, table }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::run_matrix;

    fn run_figure(fig: FigureId, windows: &[usize]) -> FigureResult {
        let records = run_matrix(&fig.spec(CorpusSpec::small(), windows)).unwrap();
        fig.from_sweep(&Sweep::from_records(records))
    }

    #[test]
    fn table2_model_is_fully_in_range() {
        let records = run_matrix(&table2_observed_spec(CorpusSpec::small())).unwrap();
        let r = table2_from_records(&records);
        assert!(r.all_in_range, "\n{}", r.table);
        assert!(!r.observed.is_empty());
    }

    #[test]
    fn table1_counts_are_plausible() {
        let records = run_matrix(&table1_spec(CorpusSpec::small())).unwrap();
        let r = table1_from_records(&records).unwrap();
        assert_eq!(r.thread_names.len(), 7);
        // Finer granularity ⇒ more switches, per concurrency level.
        let totals = r.totals();
        assert!(totals[2] > totals[1], "high fine {} > high medium {}", totals[2], totals[1]);
        assert!(totals[1] > totals[0], "high medium > high coarse");
        assert!(totals[5] > totals[4], "low fine > low medium");
        // High concurrency switches more than low at equal granularity.
        assert!(totals[0] > totals[3]);
        // Save counts are nonzero for every thread.
        assert!(r.save_counts.iter().all(|&s| s > 0));
    }

    #[test]
    fn table1_assembly_is_order_independent_and_rejects_gaps() {
        let records = run_matrix(&table1_spec(CorpusSpec::small())).unwrap();
        let direct = table1_from_records(&records).unwrap();

        // Identity-keyed assembly: shuffling the records changes nothing.
        let mut reversed = records.clone();
        reversed.reverse();
        let from_reversed = table1_from_records(&reversed).unwrap();
        assert_eq!(direct.switch_counts, from_reversed.switch_counts);
        assert_eq!(direct.save_counts, from_reversed.save_counts);

        // A gap (e.g. a quarantined sweep cell) is a typed error naming
        // the missing behaviour, never a silently shifted table.
        let mut gapped = records.clone();
        let dropped = gapped.remove(2);
        let err = table1_from_records(&gapped).unwrap_err();
        assert!(matches!(err, RtError::MissingRecord { .. }), "{err}");
        assert!(err.to_string().contains(&dropped.behavior.to_string()), "{err}");
        assert!(table1_from_records(&[]).is_err());
    }

    #[test]
    fn fig11_small_sweep_has_nine_series() {
        let r = run_figure(FigureId::Fig11, &[4, 8, 16]);
        assert_eq!(r.series.len(), 9, "3 schemes × 3 granularities");
        for s in &r.series {
            assert_eq!(s.points.len(), 3);
        }
        assert!(r.series_by_label("SP fine").is_some());
    }

    #[test]
    fn fig13_probabilities_are_probabilities() {
        let r = run_figure(FigureId::Fig13, &[4, 16]);
        for s in &r.series {
            for (_, p) in &s.points {
                assert!((0.0..=1.0).contains(p), "{} has p={p}", s.label);
            }
        }
    }
}
