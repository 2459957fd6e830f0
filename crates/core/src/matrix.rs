//! Run matrices: the spell checker across (behaviour × scheme × window
//! count × policy) combinations, plus the serial direct-run reference
//! that executes one.

use crate::behavior::Behavior;
use regwin_machine::{SchemeKind, TimingKind};
use regwin_rt::{RtError, RunReport, SchedulingPolicy};
use regwin_spell::{Corpus, CorpusSpec, SpellConfig, SpellPipeline};

/// One cell of a run matrix.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// The behaviour (buffer configuration) of the run.
    pub behavior: Behavior,
    /// The window-management scheme.
    pub scheme: SchemeKind,
    /// Physical window count.
    pub nwindows: usize,
    /// Scheduling policy.
    pub policy: SchedulingPolicy,
    /// The run's full report.
    pub report: RunReport,
}

/// What to run: the cross product of behaviours, schemes and window
/// counts over one corpus under one scheduling policy.
#[derive(Debug, Clone)]
pub struct MatrixSpec {
    /// Corpus dimensions (one corpus is generated and shared).
    pub corpus: CorpusSpec,
    /// Behaviours to run.
    pub behaviors: Vec<Behavior>,
    /// Schemes to run.
    pub schemes: Vec<SchemeKind>,
    /// Window counts to sweep.
    pub windows: Vec<usize>,
    /// Scheduling policy.
    pub policy: SchedulingPolicy,
    /// Timing backend every cell charges cycles under.
    pub timing: TimingKind,
}

impl MatrixSpec {
    /// The window sweep the paper's figures use (4 to 32).
    pub fn paper_window_sweep() -> Vec<usize> {
        vec![4, 5, 6, 7, 8, 10, 12, 16, 20, 24, 28, 32]
    }

    /// A reduced sweep for quick runs and tests.
    pub fn quick_window_sweep() -> Vec<usize> {
        vec![4, 6, 8, 12, 16, 24, 32]
    }

    /// Replaces the timing backend.
    #[must_use]
    pub fn with_timing(mut self, timing: TimingKind) -> Self {
        self.timing = timing;
        self
    }

    /// Number of runs this spec describes.
    pub fn len(&self) -> usize {
        self.behaviors.len() * self.schemes.len() * self.windows.len()
    }

    /// Whether the spec describes no runs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Executes every run in `spec` serially, one direct simulation per
/// cell, and returns the records in behaviour-major order (then scheme,
/// then window count).
///
/// This is the reference the sweep engine is checked against. Every
/// cell is a full simulation of its own, so under FIFO it checks the
/// engine's record-once fast path (paper §5.2) against an independent
/// computation. Parallelism and caching live in
/// `regwin_sweep::SweepEngine`.
///
/// # Errors
///
/// Returns the first run error encountered.
pub fn run_matrix(spec: &MatrixSpec) -> Result<Vec<RunRecord>, RtError> {
    let corpus = Corpus::generate(&spec.corpus);
    let mut records = Vec::with_capacity(spec.len());
    for &behavior in &spec.behaviors {
        let (m, n) = behavior.buffers();
        let config =
            SpellConfig::new(spec.corpus, m, n).with_policy(spec.policy).with_timing(spec.timing);
        let pipeline = SpellPipeline::with_corpus(corpus.clone(), config);
        for &scheme in &spec.schemes {
            for &nwindows in &spec.windows {
                let report = pipeline.run(nwindows, scheme)?.report;
                records.push(RunRecord { behavior, scheme, nwindows, policy: spec.policy, report });
            }
        }
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::{Concurrency, Granularity};

    #[test]
    fn matrix_runs_every_cell_in_order() {
        let spec = MatrixSpec {
            corpus: CorpusSpec::small(),
            behaviors: vec![Behavior::new(Concurrency::High, Granularity::Medium)],
            schemes: vec![SchemeKind::Ns, SchemeKind::Sp],
            windows: vec![4, 8],
            policy: SchedulingPolicy::Fifo,
            timing: TimingKind::S20,
        };
        assert_eq!(spec.len(), 4);
        let records = run_matrix(&spec).unwrap();
        assert_eq!(records.len(), 4);
        // Deterministic ordering: behaviour-major, then scheme, then windows.
        assert_eq!(records[0].scheme, SchemeKind::Ns);
        assert_eq!(records[0].nwindows, 4);
        assert_eq!(records[1].nwindows, 8);
        assert_eq!(records[2].scheme, SchemeKind::Sp);
    }

    #[test]
    fn matrix_equals_individual_runs() {
        let spec = MatrixSpec {
            corpus: CorpusSpec::small(),
            behaviors: vec![Behavior::new(Concurrency::High, Granularity::Fine)],
            schemes: vec![SchemeKind::Snp],
            windows: vec![6],
            policy: SchedulingPolicy::Fifo,
            timing: TimingKind::S20,
        };
        let records = run_matrix(&spec).unwrap();
        let config = SpellConfig::new(spec.corpus, 1, 1);
        let direct = SpellPipeline::new(config).run(6, SchemeKind::Snp).unwrap();
        assert_eq!(records[0].report, direct.report);
    }
}
