//! Wiring of the seven threads and six streams (paper Figure 10), with
//! the M/N buffer-size knobs of §5.1.

use crate::corpus::{Corpus, CorpusSpec};
use crate::reference;
use crate::threads;
use regwin_machine::{MachineConfig, TimingKind};
use regwin_rt::{
    FaultPlan, RtError, RunReport, SchedulingPolicy, SimOptions, Simulation, StreamId,
};
use regwin_traps::{build_scheme, Scheme, SchemeKind};
use std::sync::{Arc, Mutex};

/// Configuration of one spell-checker run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpellConfig {
    /// Corpus dimensions and seed.
    pub corpus: CorpusSpec,
    /// Size in bytes of the S1 and S4–S6 buffers (the paper's **M**).
    pub m: usize,
    /// Size in bytes of the S2 and S3 buffers (the paper's **N**).
    pub n: usize,
    /// Scheduling policy (FIFO in all paper experiments except §6.5).
    pub policy: SchedulingPolicy,
    /// Timing backend (the flat S-20 model in all paper experiments).
    pub timing: TimingKind,
}

impl SpellConfig {
    /// A configuration over the given corpus with M and N buffer sizes.
    pub fn new(corpus: CorpusSpec, m: usize, n: usize) -> Self {
        SpellConfig { corpus, m, n, policy: SchedulingPolicy::Fifo, timing: TimingKind::S20 }
    }

    /// A fast, scaled-down configuration for tests and examples.
    pub fn small() -> Self {
        SpellConfig::new(CorpusSpec::small(), 4, 4)
    }

    /// Replaces the buffer sizes.
    #[must_use]
    pub fn with_buffers(mut self, m: usize, n: usize) -> Self {
        self.m = m;
        self.n = n;
        self
    }

    /// Replaces the scheduling policy.
    #[must_use]
    pub fn with_policy(mut self, policy: SchedulingPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Replaces the timing backend.
    #[must_use]
    pub fn with_timing(mut self, timing: TimingKind) -> Self {
        self.timing = timing;
        self
    }
}

/// Result of one spell-checker run: the simulation report plus the bytes
/// T5 collected (the misspelled words, one per line).
#[derive(Debug, Clone)]
pub struct SpellOutcome {
    /// The runtime/machine report (cycles, switches, traps, per-thread).
    pub report: RunReport,
    /// T5's output buffer: reported words, newline-separated.
    pub output: Vec<u8>,
}

impl SpellOutcome {
    /// The reported words in arrival order.
    pub fn misspellings(&self) -> Vec<String> {
        String::from_utf8_lossy(&self.output)
            .lines()
            .filter(|l| !l.is_empty())
            .map(str::to_string)
            .collect()
    }

    /// The reported words as a sorted multiset (stream interleaving
    /// between T2's and T3's reports depends on buffer sizes, so
    /// cross-configuration comparisons sort first).
    pub fn sorted_misspellings(&self) -> Vec<String> {
        let mut v = self.misspellings();
        v.sort();
        v
    }
}

/// A generated corpus plus a run configuration, ready to execute under
/// any scheme and window count. See the crate docs for an example.
#[derive(Debug, Clone)]
pub struct SpellPipeline {
    corpus: Corpus,
    config: SpellConfig,
    audit: bool,
}

impl SpellPipeline {
    /// Generates the corpus for `config` and prepares the pipeline.
    pub fn new(config: SpellConfig) -> Self {
        SpellPipeline { corpus: Corpus::generate(&config.corpus), config, audit: false }
    }

    /// Uses an already-generated corpus (to share one corpus across many
    /// runs of a sweep).
    pub fn with_corpus(corpus: Corpus, config: SpellConfig) -> Self {
        SpellPipeline { corpus, config, audit: false }
    }

    /// Enables window integrity auditing on every run of this pipeline.
    ///
    /// Auditing is pure bookkeeping: it never touches the cycle counter
    /// or statistics, so an audited run's report is byte-identical to an
    /// unaudited one — masked corruption is repaired silently and
    /// unmasked corruption quarantines the owning thread.
    #[must_use]
    pub fn with_window_audit(mut self) -> Self {
        self.audit = true;
        self
    }

    /// The corpus this pipeline checks.
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// The active configuration.
    pub fn config(&self) -> &SpellConfig {
        &self.config
    }

    /// What the sequential reference implementation reports for this
    /// corpus, sorted — the expected `sorted_misspellings()` of any run.
    pub fn expected_sorted(&self) -> Vec<String> {
        reference::check_sorted(&self.corpus.document, &self.corpus.dict1, &self.corpus.dict2)
    }

    /// Runs the pipeline on `nwindows` windows under `scheme` (with
    /// paper-default options and this configuration's timing backend).
    ///
    /// # Errors
    ///
    /// Propagates runtime errors (deadlock, scheme failure).
    pub fn run(&self, nwindows: usize, scheme: SchemeKind) -> Result<SpellOutcome, RtError> {
        self.run_with_scheme(self.machine_config(nwindows), build_scheme(scheme))
    }

    /// Runs with an explicit machine configuration (window count, cost
    /// model, timing backend) and scheme object (ablations).
    ///
    /// # Errors
    ///
    /// Propagates runtime errors (deadlock, scheme failure).
    pub fn run_with_scheme(
        &self,
        config: MachineConfig,
        scheme: Box<dyn Scheme>,
    ) -> Result<SpellOutcome, RtError> {
        let (report, output, _) = self.run_inner(config, scheme, false, None)?;
        Ok(SpellOutcome { report, output })
    }

    /// The machine configuration [`SpellPipeline::run`] uses at this
    /// window count: the S-20 cost table plus the pipeline's configured
    /// timing backend.
    pub fn machine_config(&self, nwindows: usize) -> MachineConfig {
        MachineConfig::new(nwindows).with_timing(self.config.timing)
    }

    /// Runs the pipeline with the given fault plan installed: the plan's
    /// spill/fill/trap faults perturb the simulated machine and its
    /// stream faults perturb the pipeline's record I/O, all at the plan's
    /// deterministic event indices.
    ///
    /// A *masked* fault (value corruption) must leave the returned report
    /// identical to a fault-free run; an *unmasked* fault surfaces as a
    /// typed error — see `regwin_rt::FaultPlan`.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors, including the typed
    /// [`RtError::FaultInjected`] / machine `FaultInjected` errors raised
    /// by unmasked injected faults.
    pub fn run_faulted(
        &self,
        nwindows: usize,
        scheme: SchemeKind,
        plan: &FaultPlan,
    ) -> Result<SpellOutcome, RtError> {
        let (report, output, _) =
            self.run_inner(self.machine_config(nwindows), build_scheme(scheme), false, Some(plan))?;
        Ok(SpellOutcome { report, output })
    }

    /// Builds the bare simulation for this pipeline — machine
    /// configuration, scheme, scheduling policy and (if enabled) window
    /// auditing — without wiring streams or threads. The entry point
    /// external drivers (`regwin-cluster`) share with the legacy path,
    /// so a 1-PE cluster constructs exactly the simulation
    /// [`SpellPipeline::run`] constructs.
    ///
    /// # Errors
    ///
    /// Rejects zero buffer sizes and window counts below the scheme's
    /// minimum.
    pub fn build_sim(
        &self,
        config: MachineConfig,
        scheme: Box<dyn Scheme>,
    ) -> Result<Simulation, RtError> {
        self.build_sim_with(config, scheme, false, None)
    }

    /// [`SpellPipeline::build_sim`] plus the per-run options (trace
    /// recording, fault plan), all applied through the shared
    /// [`Simulation::assemble`] path — the same assembly the workload
    /// generator uses, so spell runs and generated scenarios differ
    /// only in what they wire, never in how the machine is set up.
    fn build_sim_with(
        &self,
        config: MachineConfig,
        scheme: Box<dyn Scheme>,
        traced: bool,
        fault: Option<&FaultPlan>,
    ) -> Result<Simulation, RtError> {
        if self.config.m == 0 || self.config.n == 0 {
            return Err(RtError::BadConfig {
                detail: format!(
                    "buffer sizes must be nonzero (M = {}, N = {})",
                    self.config.m, self.config.n
                ),
            });
        }
        let opts = SimOptions {
            policy: self.config.policy,
            sched: None,
            audit: self.audit,
            traced,
            fault: fault.cloned(),
        };
        Simulation::assemble(config, scheme, opts)
    }

    /// Adds the six streams and spawns the seven threads of the paper's
    /// Figure 10 pipeline onto `sim`, returning the sink T5 collects
    /// reported words into. One shared wiring function serves both the
    /// legacy single-machine path and every cluster PE, which is what
    /// makes the 1-PE differential oracle hold by construction.
    pub fn wire(&self, sim: &mut Simulation) -> Arc<Mutex<Vec<u8>>> {
        let (s4, s5, s6) = self.wire_front(sim);
        let sink = Arc::new(Mutex::new(Vec::new()));
        let sink2 = Arc::clone(&sink);
        sim.spawn_async("T5:output", async move |ctx| threads::run_output(ctx, s4, sink2).await);
        self.wire_back(sim, s5, s6);
        sink
    }

    /// Like [`SpellPipeline::wire`], but T5 forwards each reported byte
    /// to a fresh uplink stream (added after S6, with the given
    /// capacity) instead of a local sink, closing it at end-of-stream.
    /// The cluster marks the returned stream outbound and routes it to
    /// a collector PE.
    pub fn wire_with_uplink(&self, sim: &mut Simulation, uplink_capacity: usize) -> StreamId {
        let (s4, s5, s6) = self.wire_front(sim);
        let uplink = sim.add_stream("S7:uplink", uplink_capacity, 1);
        sim.spawn_async("T5:output", async move |ctx| {
            threads::run_output_to_stream(ctx, s4, uplink).await
        });
        self.wire_back(sim, s5, s6);
        uplink
    }

    /// Streams plus threads T1–T4 (everything up to the T5 slot, whose
    /// body the two wiring variants differ in).
    fn wire_front(&self, sim: &mut Simulation) -> (StreamId, StreamId, StreamId) {
        let m = self.config.m;
        let n = self.config.n;
        let s1 = sim.add_stream("S1:doc", m, 1);
        let s2 = sim.add_stream("S2:words", n, 1);
        let s3 = sim.add_stream("S3:checked", n, 1);
        let s4 = sim.add_stream("S4:report", m, 2);
        let s5 = sim.add_stream("S5:dict1", m, 1);
        let s6 = sim.add_stream("S6:dict2", m, 1);

        // Spawn order follows the paper's thread numbering (Table 1).
        sim.spawn_async("T1:delatex", async move |ctx| threads::run_delatex(ctx, s1, s2).await);
        sim.spawn_async("T2:spell1", async move |ctx| {
            threads::run_spell1(ctx, s5, s2, s3, s4).await
        });
        sim.spawn_async("T3:spell2", async move |ctx| threads::run_spell2(ctx, s6, s3, s4).await);
        let doc = self.corpus.document.clone();
        sim.spawn_async("T4:input", async move |ctx| threads::run_input(ctx, &doc, s1).await);
        (s4, s5, s6)
    }

    /// Threads T6–T7 (spawned after the T5 slot).
    fn wire_back(&self, sim: &mut Simulation, s5: StreamId, s6: StreamId) {
        let dict1 = self.corpus.dict1.clone();
        sim.spawn_async("T6:dict1", async move |ctx| threads::run_dict_feed(ctx, &dict1, s5).await);
        let dict2 = self.corpus.dict2.clone();
        sim.spawn_async("T7:dict2", async move |ctx| threads::run_dict_feed(ctx, &dict2, s6).await);
    }

    pub(crate) fn run_inner(
        &self,
        config: MachineConfig,
        scheme: Box<dyn Scheme>,
        traced: bool,
        fault: Option<&FaultPlan>,
    ) -> Result<(regwin_rt::RunReport, Vec<u8>, Option<regwin_rt::Trace>), RtError> {
        let mut sim = self.build_sim_with(config, scheme, traced, fault)?;
        let sink = self.wire(&mut sim);
        let (report, trace) = sim.run_with_trace()?;
        let output = Arc::try_unwrap(sink)
            .map(|m| m.into_inner().expect("sink poisoned"))
            .unwrap_or_else(|arc| arc.lock().expect("sink poisoned").clone());
        Ok((report, output, trace))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_run_matches_reference_output() {
        let pipeline = SpellPipeline::new(SpellConfig::small());
        let outcome = pipeline.run(8, SchemeKind::Sp).unwrap();
        assert_eq!(outcome.sorted_misspellings(), pipeline.expected_sorted());
    }

    #[test]
    fn all_schemes_produce_identical_output() {
        let pipeline = SpellPipeline::new(SpellConfig::small());
        let expected = pipeline.expected_sorted();
        for scheme in SchemeKind::ALL {
            let outcome = pipeline.run(7, scheme).unwrap();
            assert_eq!(outcome.sorted_misspellings(), expected, "{scheme}");
        }
    }

    #[test]
    fn switch_counts_are_scheme_independent_under_fifo() {
        // Paper §5.2: the Table 1 numbers "are completely independent of
        // the window management schemes and the number of physical
        // windows, provided the scheduling is FIFO".
        let pipeline = SpellPipeline::new(SpellConfig::small());
        let mut counts = Vec::new();
        for scheme in SchemeKind::ALL {
            for nwindows in [4, 8, 16] {
                let outcome = pipeline.run(nwindows, scheme).unwrap();
                counts.push(outcome.report.stats.context_switches);
            }
        }
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
    }

    #[test]
    fn planted_misspellings_are_found() {
        let pipeline = SpellPipeline::new(SpellConfig::small());
        let outcome = pipeline.run(8, SchemeKind::Snp).unwrap();
        let found = outcome.sorted_misspellings();
        for m in &pipeline.corpus().planted_misspellings {
            assert!(found.binary_search(m).is_ok(), "planted {m} not reported");
        }
    }

    #[test]
    fn buffer_ratio_controls_t6_switches() {
        // Low concurrency (M ≫ N) must give the dictionary threads far
        // fewer context switches than high concurrency (M = N), as in
        // Table 1 (T6: 12 501 at M=N=4 vs 49 at M=1024).
        let corpus = CorpusSpec::small();
        let high =
            SpellPipeline::new(SpellConfig::new(corpus, 4, 4)).run(8, SchemeKind::Sp).unwrap();
        let low =
            SpellPipeline::new(SpellConfig::new(corpus, 1024, 4)).run(8, SchemeKind::Sp).unwrap();
        let t6_high = high.report.threads[5].context_switches;
        let t6_low = low.report.threads[5].context_switches;
        assert!(
            t6_low * 20 < t6_high,
            "T6 switches: low-concurrency {t6_low} vs high-concurrency {t6_high}"
        );
    }
}
