//! Ablation studies as cacheable jobs.
//!
//! An ablation replays one recorded fine/high trace against scheme
//! variants. Each (variant × window) cell is content-addressed like any
//! other job — with the variant label standing in for the scheme name
//! and the study slug in the experiment field — so the expensive trace
//! recording is skipped entirely when every cell is already cached.

use crate::engine::{Job, SweepEngine};
use crate::key::JobKey;
use regwin_core::ablations::{ablation_from_series, record_base_trace, AblationResult, VariantSet};
use regwin_core::Series;
use regwin_machine::{MachineConfig, TimingKind};
use regwin_rt::{RtError, SchedulingPolicy};
use regwin_spell::CorpusSpec;
use std::sync::Arc;

fn cell_key(set: &VariantSet, corpus: CorpusSpec, label: &str, nwindows: usize) -> JobKey {
    JobKey {
        experiment: format!("ablation:{}", set.slug),
        corpus,
        // The base trace is the fine-granularity/high-concurrency run:
        // M = N = 1 byte.
        m: 1,
        n: 1,
        policy: SchedulingPolicy::Fifo,
        scheme: label.to_string(),
        nwindows,
        timing: TimingKind::S20,
        gen: None,
        fuzz: None,
    }
}

/// Runs one ablation study through the engine: every (variant × window)
/// cell becomes a cacheable job, and the base trace is recorded only if
/// at least one cell misses.
///
/// # Errors
///
/// Propagates the first failed run.
pub fn run_ablation(
    engine: &SweepEngine,
    corpus: CorpusSpec,
    windows: &[usize],
    set: &VariantSet,
) -> Result<AblationResult, RtError> {
    let cells: Vec<(&str, usize)> = set
        .variants
        .iter()
        .flat_map(|(label, _)| windows.iter().map(move |&w| (label.as_str(), w)))
        .collect();
    let keys: Vec<JobKey> =
        cells.iter().map(|&(label, w)| cell_key(set, corpus, label, w)).collect();

    // Record the (expensive) base trace only when some cell missed the
    // batch's one cache probe. `Arc`, because each job's `'static`
    // closure owns its share.
    let served = engine.serve(&keys, |missing| -> Result<Vec<(usize, Job)>, RtError> {
        if missing.is_empty() {
            return Ok(Vec::new());
        }
        let trace = Arc::new(record_base_trace(corpus)?);
        Ok(missing
            .iter()
            .map(|&i| {
                let (label, w) = cells[i];
                let make = set.variants.iter().find(|(l, _)| l == label).expect("label from set");
                let (make, trace) = (make.1.clone(), Arc::clone(&trace));
                (i, Job::new(keys[i].clone(), move || trace.replay(MachineConfig::new(w), make())))
            })
            .collect())
    })?;

    let mut series: Vec<Series> = Vec::new();
    for ((label, w), served) in cells.into_iter().zip(served) {
        // A quarantined cell is absent from its series (the engine's
        // quarantine log has the failure).
        let Some((report, _)) = served else { continue };
        match series.last_mut().filter(|s| s.label == label) {
            Some(s) => s.push(w, report.total_cycles() as f64),
            None => {
                let mut s = Series::new(label.to_string());
                s.push(w, report.total_cycles() as f64);
                series.push(s);
            }
        }
    }
    Ok(ablation_from_series(set.title, series))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SweepConfig;
    use regwin_core::ablations::{copy_mode_variants, copy_modes, spill_batch_variants};

    #[test]
    fn engine_ablation_matches_direct_replay() {
        let corpus = CorpusSpec::small();
        let windows = [4, 8];
        let engine = SweepEngine::quiet();
        let ours = run_ablation(&engine, corpus, &windows, &copy_mode_variants()).unwrap();
        let trace = record_base_trace(corpus).unwrap();
        let reference = copy_modes(&trace, &windows).unwrap();
        assert_eq!(ours.title, reference.title);
        assert_eq!(ours.series.len(), reference.series.len());
        for (a, b) in ours.series.iter().zip(&reference.series) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.points, b.points);
        }
    }

    #[test]
    fn cached_study_skips_trace_recording() {
        let dir =
            std::env::temp_dir().join(format!("regwin-sweep-ablation-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let corpus = CorpusSpec::small();
        let set = spill_batch_variants();

        let cold = SweepEngine::with_config(SweepConfig {
            cache_dir: Some(dir.clone()),
            ..SweepConfig::default()
        });
        let first = run_ablation(&cold, corpus, &[6], &set).unwrap();
        assert_eq!(cold.summary().cache_misses, set.variants.len());

        let warm = SweepEngine::with_config(SweepConfig {
            cache_dir: Some(dir.clone()),
            ..SweepConfig::default()
        });
        let second = run_ablation(&warm, corpus, &[6], &set).unwrap();
        assert_eq!(warm.summary().cache_hits, set.variants.len());
        assert_eq!(warm.summary().cache_misses, 0);
        for (a, b) in first.series.iter().zip(&second.series) {
            assert_eq!(a.points, b.points);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
