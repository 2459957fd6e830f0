//! Ablations of the design choices the paper discusses but does not
//! evaluate quantitatively (§4.2 allocation policies, §4.3 in-register
//! copy modes, §4.4 flush-type switches) plus the Tamir–Sequin
//! one-window-per-trap rule the paper adopts from its ref.\[15\].
//!
//! All ablations replay one recorded fine-granularity/high-concurrency
//! trace against the scheme variants, so variants are compared on
//! *identical* workloads.

use crate::report::{series_table, Series, TextTable};
use regwin_machine::MachineConfig;
use regwin_rt::{RtError, Trace};
use regwin_spell::{CorpusSpec, SpellConfig, SpellPipeline};
use regwin_traps::{AllocPolicy, CopyMode, NsScheme, Scheme, SchemeKind, SnpScheme, SpScheme};
use std::sync::Arc;

/// A named scheme-variant factory for an ablation study. `Send + Sync`
/// so an external engine can build scheme instances from worker
/// threads, and `Arc` (not `Box`) so each of the engine's `'static`
/// jobs can own a clone.
pub type VariantFactory = Arc<dyn Fn() -> Box<dyn Scheme> + Send + Sync>;

/// One ablation study's variant list, separated from execution so an
/// external engine can run the variants as cacheable jobs.
pub struct VariantSet {
    /// Stable identifier (used in cache keys), e.g. `"alloc"`.
    pub slug: &'static str,
    /// The study's display title.
    pub title: &'static str,
    /// Labelled scheme factories, in display order.
    pub variants: Vec<(String, VariantFactory)>,
}

impl std::fmt::Debug for VariantSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VariantSet")
            .field("slug", &self.slug)
            .field("title", &self.title)
            .field("variants", &self.variants.iter().map(|(l, _)| l).collect::<Vec<_>>())
            .finish()
    }
}

/// All four ablation studies, in the order `repro-ablations` prints
/// them.
pub fn all_variant_sets() -> Vec<VariantSet> {
    vec![
        alloc_policy_variants(),
        copy_mode_variants(),
        flush_type_variants(),
        spill_batch_variants(),
    ]
}

/// §4.2 variant list: window allocation policies under both sharing
/// schemes.
pub fn alloc_policy_variants() -> VariantSet {
    let mut variants: Vec<(String, VariantFactory)> = Vec::new();
    for policy in [AllocPolicy::AboveSuspended, AllocPolicy::FirstFree, AllocPolicy::LruBottom] {
        variants.push((
            format!("SNP {policy:?}"),
            Arc::new(move || Box::new(SnpScheme::new().with_alloc_policy(policy))),
        ));
        variants.push((
            format!("SP {policy:?}"),
            Arc::new(move || Box::new(SpScheme::new().with_alloc_policy(policy))),
        ));
    }
    VariantSet {
        slug: "alloc",
        title: "Ablation §4.2: window allocation policy (fine/high)",
        variants,
    }
}

/// §4.3 variant list: full vs return-only in-register copy.
pub fn copy_mode_variants() -> VariantSet {
    let variants: Vec<(String, VariantFactory)> = vec![
        (
            "SP full-copy".into(),
            Arc::new(|| Box::new(SpScheme::new().with_copy_mode(CopyMode::Full))),
        ),
        (
            "SP return-only".into(),
            Arc::new(|| Box::new(SpScheme::new().with_copy_mode(CopyMode::ReturnOnly))),
        ),
        (
            "SNP full-copy".into(),
            Arc::new(|| Box::new(SnpScheme::new().with_copy_mode(CopyMode::Full))),
        ),
        (
            "SNP return-only".into(),
            Arc::new(|| Box::new(SnpScheme::new().with_copy_mode(CopyMode::ReturnOnly))),
        ),
    ];
    VariantSet {
        slug: "copy",
        title: "Ablation §4.3: underflow in-register copy mode (fine/high)",
        variants,
    }
}

/// §4.4 variant list: leave-in-situ vs flush-type context switches.
pub fn flush_type_variants() -> VariantSet {
    let variants: Vec<(String, VariantFactory)> = vec![
        ("SP in-situ".into(), Arc::new(|| Box::new(SpScheme::new()))),
        ("SP flush".into(), Arc::new(|| Box::new(SpScheme::new().with_flush_on_suspend(true)))),
        ("SNP in-situ".into(), Arc::new(|| Box::new(SnpScheme::new()))),
        ("SNP flush".into(), Arc::new(|| Box::new(SnpScheme::new().with_flush_on_suspend(true)))),
    ];
    VariantSet {
        slug: "flush",
        title: "Ablation §4.4: in-situ vs flush-type context switch (fine/high)",
        variants,
    }
}

/// Tamir–Sequin variant list: windows transferred per NS trap.
pub fn spill_batch_variants() -> VariantSet {
    let mut variants: Vec<(String, VariantFactory)> = Vec::new();
    for batch in [1usize, 2, 4] {
        variants.push((
            format!("NS batch {batch}"),
            Arc::new(move || {
                Box::new(NsScheme::new().with_overflow_batch(batch).with_underflow_batch(batch))
            }),
        ));
    }
    VariantSet {
        slug: "batch",
        title: "Ablation (Tamir & Sequin): windows transferred per NS trap (fine/high)",
        variants,
    }
}

/// One ablation study: a named variant set swept over window counts.
#[derive(Debug, Clone)]
pub struct AblationResult {
    /// The study's name.
    pub title: String,
    /// Total execution cycles per variant per window count.
    pub series: Vec<Series>,
    /// Rendered table.
    pub table: TextTable,
}

impl AblationResult {
    /// Finds a variant's series by label.
    pub fn series_by_label(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }
}

/// Records the fine-granularity high-concurrency trace the ablations
/// replay.
///
/// # Errors
///
/// Propagates runtime errors from the recording run.
pub fn record_base_trace(corpus: CorpusSpec) -> Result<Trace, RtError> {
    let config = SpellConfig::new(corpus, 1, 1);
    let pipeline = SpellPipeline::new(config);
    let (_, trace) = pipeline.run_traced(8, SchemeKind::Sp)?;
    Ok(trace)
}

/// Assembles an [`AblationResult`] from ready-made series — usable
/// directly with variant runs executed by an external engine.
pub fn ablation_from_series(title: &str, series: Vec<Series>) -> AblationResult {
    let table = series_table(title, "cycles", &series);
    AblationResult { title: title.to_string(), series, table }
}

fn sweep_variants(
    set: &VariantSet,
    trace: &Trace,
    windows: &[usize],
) -> Result<AblationResult, RtError> {
    let mut series = Vec::new();
    for (label, make) in &set.variants {
        let mut s = Series::new(label.clone());
        for &w in windows {
            let report = trace.replay(MachineConfig::new(w), make())?;
            s.push(w, report.total_cycles() as f64);
        }
        series.push(s);
    }
    Ok(ablation_from_series(set.title, series))
}

/// §4.2 — window allocation policies for windowless incoming threads,
/// under both sharing schemes. The paper evaluates only the simple
/// policy and predicts the free-search and LRU variants "may be worth
/// the extra cost".
///
/// # Errors
///
/// Propagates runtime errors.
pub fn alloc_policies(trace: &Trace, windows: &[usize]) -> Result<AblationResult, RtError> {
    sweep_variants(&alloc_policy_variants(), trace, windows)
}

/// §4.3 — full vs return-only in-register copy on in-place underflow.
///
/// # Errors
///
/// Propagates runtime errors.
pub fn copy_modes(trace: &Trace, windows: &[usize]) -> Result<AblationResult, RtError> {
    sweep_variants(&copy_mode_variants(), trace, windows)
}

/// §4.4 — leave-in-situ vs flush-type context switches for the sharing
/// schemes. The paper's evaluation assumes all threads wake soon and
/// never flushes; this shows what flushing would cost.
///
/// # Errors
///
/// Propagates runtime errors.
pub fn flush_variants(trace: &Trace, windows: &[usize]) -> Result<AblationResult, RtError> {
    sweep_variants(&flush_type_variants(), trace, windows)
}

/// The Tamir–Sequin rule (the paper's ref.\[15\], adopted in §2): windows transferred per
/// trap under NS.
///
/// # Errors
///
/// Propagates runtime errors.
pub fn spill_batches(trace: &Trace, windows: &[usize]) -> Result<AblationResult, RtError> {
    sweep_variants(&spill_batch_variants(), trace, windows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> Trace {
        record_base_trace(CorpusSpec::small()).unwrap()
    }

    #[test]
    fn copy_mode_return_only_is_never_slower() {
        let t = trace();
        let r = copy_modes(&t, &[4, 8, 16]).unwrap();
        let full = r.series_by_label("SP full-copy").unwrap();
        let partial = r.series_by_label("SP return-only").unwrap();
        for (w, v) in &partial.points {
            assert!(*v <= full.at(*w).unwrap(), "partial copy slower at {w} windows");
        }
    }

    #[test]
    fn flushing_hurts_when_threads_wake_soon() {
        // The paper's assumption (§4.4): all spell-checker threads wake
        // soon, so flushing only wastes transfers.
        let t = trace();
        let r = flush_variants(&t, &[16]).unwrap();
        let in_situ = r.series_by_label("SP in-situ").unwrap().at(16).unwrap();
        let flush = r.series_by_label("SP flush").unwrap().at(16).unwrap();
        assert!(in_situ < flush, "in-situ {in_situ} vs flush {flush}");
    }

    #[test]
    fn batching_trades_transfers_for_trap_overhead() {
        // The Tamir–Sequin tradeoff, measured: batching transfers at
        // least as many windows but takes fewer traps. (Which side wins
        // on total cycles depends on the workload: under NS's
        // flush-everything switches, flushed frames are always needed
        // back, so batched refill is competitive here — see
        // EXPERIMENTS.md.)
        use regwin_traps::NsScheme;
        let t = trace();
        let run = |batch: usize| {
            t.replay(
                MachineConfig::new(16),
                Box::new(NsScheme::new().with_overflow_batch(batch).with_underflow_batch(batch)),
            )
            .unwrap()
        };
        let b1 = run(1);
        let b4 = run(4);
        let traps = |r: &regwin_rt::RunReport| r.stats.overflow_traps + r.stats.underflow_traps;
        let transfers =
            |r: &regwin_rt::RunReport| r.stats.overflow_spills + r.stats.underflow_restores;
        assert!(traps(&b4) < traps(&b1), "batching must reduce trap count");
        assert!(transfers(&b4) >= transfers(&b1), "batching cannot reduce transfers");
    }

    #[test]
    fn alloc_policy_sweep_produces_all_variants() {
        let t = trace();
        let r = alloc_policies(&t, &[4, 8]).unwrap();
        assert_eq!(r.series.len(), 6);
        for s in &r.series {
            assert_eq!(s.points.len(), 2, "{}", s.label);
        }
    }
}
