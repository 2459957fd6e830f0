//! The processor-design tradeoff of the paper's Conclusion (implication
//! 2): "it is possible to use more register windows profitably. The
//! trade-off in new processor design will be between the advantage of
//! fast context switching and the lengthening of register-access time."
//!
//! A larger window file is a larger (slower) RAM: every cycle stretches.
//! This module applies a register-file access-time model to a sweep's
//! cycle counts and finds, per scheme, the window count that minimises
//! *wall-clock* execution time — the analysis the paper poses as the
//! next design question.

use crate::figures::Sweep;
use crate::report::{series_table, Series, TextTable};

/// A register-file cycle-time model: the relative cycle time of an
/// `n`-window machine, normalised to 1.0 at `base_windows`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessTimeModel {
    /// Window count at which the cycle time is 1.0 (the S-20's 7).
    pub base_windows: usize,
    /// Relative cycle-time increase per doubling of the window count
    /// (e.g. 0.08 = 8% slower per doubling, a typical SRAM word-line
    /// scaling assumption).
    pub per_doubling: f64,
}

impl AccessTimeModel {
    /// The paper-era default: 7-window baseline, 8% per doubling.
    pub fn default_sram() -> Self {
        AccessTimeModel { base_windows: 7, per_doubling: 0.08 }
    }

    /// Relative cycle time of an `n`-window file.
    pub fn cycle_time(&self, nwindows: usize) -> f64 {
        let doublings = (nwindows.max(1) as f64 / self.base_windows as f64).log2();
        1.0 + self.per_doubling * doublings.max(0.0)
    }
}

/// The tradeoff analysis result.
#[derive(Debug, Clone)]
pub struct TradeoffResult {
    /// Wall-clock time series (cycles × cycle time) per scheme/behaviour.
    pub series: Vec<Series>,
    /// Rendered table.
    pub table: TextTable,
    /// Per series label, the window count minimising wall-clock time.
    pub optima: Vec<(String, usize)>,
}

/// Applies `model` to a sweep's execution-time series.
pub fn analyze(sweep: &Sweep, model: AccessTimeModel) -> TradeoffResult {
    let mut series = sweep.execution_time_series();
    for s in &mut series {
        for (n, v) in &mut s.points {
            *v *= model.cycle_time(*n);
        }
    }
    let optima = series
        .iter()
        .map(|s| {
            let best =
                s.points.iter().min_by(|a, b| a.1.total_cmp(&b.1)).map(|(n, _)| *n).unwrap_or(0);
            (s.label.clone(), best)
        })
        .collect();
    let table = series_table(
        &format!(
            "Wall-clock time with register-access scaling ({}% per doubling from {} windows)",
            (model.per_doubling * 100.0).round(),
            model.base_windows
        ),
        "normalised time",
        &series,
    );
    TradeoffResult { series, table, optima }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_time_grows_with_window_count() {
        let m = AccessTimeModel::default_sram();
        assert!((m.cycle_time(7) - 1.0).abs() < 1e-12);
        assert!(m.cycle_time(14) > m.cycle_time(7));
        assert!(m.cycle_time(28) > m.cycle_time(14));
        // No speedup below the baseline (clamped).
        assert!((m.cycle_time(4) - 1.0).abs() < 1e-12);
    }
}
