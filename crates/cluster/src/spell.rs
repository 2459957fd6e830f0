//! The sharded spell workload: one full Figure-10 pipeline per PE.
//!
//! Thread placement follows the paper's PIE64 setting — a PE owns a
//! complete pipeline over its own document shard (corpus seed =
//! base + PE number), and only *results* cross the bus: every PE ≥ 1
//! replaces the local T5 sink with an uplink stream routed to PE 0,
//! where a collector thread (`T8:collect`) drains the remote reports
//! sequentially. A 1-PE cluster has no uplink, no collector and no bus
//! traffic, and is byte-identical to
//! [`regwin_spell::SpellPipeline::run`].

use crate::bus::BusConfig;
use crate::cluster::{ClusterBuilder, ClusterReport};
use regwin_machine::{CostModel, MachineConfig};
use regwin_rt::{FaultPlan, RtError};
use regwin_spell::{CorpusSpec, SpellConfig, SpellPipeline};
use regwin_traps::{build_scheme, SchemeKind};
use std::sync::{Arc, Mutex};

/// Per-PE machine configuration — PEs may run different schemes and
/// window counts in one cluster (mixed-scheme clusters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeConfig {
    /// Window-management scheme this PE runs.
    pub scheme: SchemeKind,
    /// Physical window count of this PE.
    pub nwindows: usize,
}

/// A complete cluster experiment configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// One entry per PE; PE 0 hosts the collector.
    pub pes: Vec<PeConfig>,
    /// Shared-bus arbitration and timing.
    pub bus: BusConfig,
    /// The per-PE spell workload (PE *i* shards the corpus by running
    /// it with seed `spell.corpus.seed + i`).
    pub spell: SpellConfig,
    /// Cost model every PE charges cycles under. The timing backend
    /// comes from `spell.timing`, so a 1-PE cluster stays byte-identical
    /// to the single-machine path under either backend.
    pub cost: CostModel,
    /// Enable incremental window auditing on every PE.
    pub audit: bool,
}

impl ClusterConfig {
    /// A homogeneous cluster: `npes` identical PEs.
    pub fn homogeneous(
        npes: usize,
        scheme: SchemeKind,
        nwindows: usize,
        spell: SpellConfig,
    ) -> Self {
        ClusterConfig {
            pes: vec![PeConfig { scheme, nwindows }; npes],
            bus: BusConfig::default(),
            spell,
            cost: CostModel::s20(),
            audit: false,
        }
    }
}

/// The result of a spell cluster run.
#[derive(Debug, Clone)]
pub struct ClusterOutcome {
    /// Per-PE reports plus bus totals (see [`ClusterReport::merged`]).
    pub report: ClusterReport,
    /// Each PE's spell output (the misspelling report for its shard),
    /// indexed by PE number. PE 0's is collected locally; the others
    /// arrived over the bus.
    pub outputs: Vec<Vec<u8>>,
}

/// Runs the sharded spell workload on a cluster described by `cfg`,
/// optionally under a fault plan (whose `pe:` qualifiers select the
/// PE each machine/stream fault fires on — see
/// [`regwin_rt::FaultPlan::for_pe`]).
///
/// # Errors
///
/// [`RtError::BadConfig`] for an empty cluster or invalid buffer
/// sizes; otherwise the first PE failure (unmasked fault, deadlock,
/// scheme error) exactly as the single-machine path reports it.
pub fn run_spell_cluster(
    cfg: &ClusterConfig,
    fault: Option<&FaultPlan>,
) -> Result<ClusterOutcome, RtError> {
    let npes = cfg.pes.len();
    if npes == 0 {
        return Err(RtError::BadConfig { detail: "cluster has no PEs".into() });
    }
    let mut builder = ClusterBuilder::new(cfg.bus);
    let local_sink: Arc<Mutex<Vec<u8>>>;
    let mut remote_sinks: Vec<Arc<Mutex<Vec<u8>>>> = Vec::new();
    let mut uplinks = Vec::new();

    // PE 0: the full pipeline with a local sink, inbound streams from
    // every other PE, and the collector thread.
    {
        let pipeline = pipeline_for(cfg, 0);
        let mut sim = pipeline
            .build_sim(machine_config(cfg, &cfg.pes[0]), build_scheme(cfg.pes[0].scheme))?;
        if let Some(plan) = fault {
            sim = sim.with_fault_plan(&plan.for_pe(0));
        }
        local_sink = pipeline.wire(&mut sim);
        let mut inbound = Vec::new();
        for j in 1..npes {
            let s = sim.add_stream(format!("S8:from-pe{j}"), cfg.spell.m, 1);
            sim.mark_stream_inbound(s);
            inbound.push(s);
            remote_sinks.push(Arc::new(Mutex::new(Vec::new())));
        }
        if npes > 1 {
            let sinks: Vec<Arc<Mutex<Vec<u8>>>> = remote_sinks.iter().map(Arc::clone).collect();
            let streams = inbound.clone();
            sim.spawn_async("T8:collect", async move |ctx| {
                for (k, s) in streams.iter().enumerate() {
                    loop {
                        let eof = ctx
                            .call(async |ctx| {
                                ctx.compute(2);
                                for _ in 0..4 {
                                    match ctx.read_byte(*s).await? {
                                        Some(b) => sinks[k]
                                            .lock()
                                            .expect("collector sink poisoned")
                                            .push(b),
                                        None => return Ok(true),
                                    }
                                }
                                Ok(false)
                            })
                            .await?;
                        if eof {
                            break;
                        }
                    }
                }
                Ok(())
            });
        }
        builder.add_pe(sim.start());
        uplinks.push(inbound); // PE 0's slot holds its inbound ends.
    }

    // PEs 1..: the pipeline with T5 forwarding to an uplink stream.
    for (pe, pe_cfg) in cfg.pes.iter().enumerate().skip(1) {
        let pipeline = pipeline_for(cfg, pe);
        let mut sim =
            pipeline.build_sim(machine_config(cfg, pe_cfg), build_scheme(pe_cfg.scheme))?;
        if let Some(plan) = fault {
            sim = sim.with_fault_plan(&plan.for_pe(pe as u64));
        }
        let uplink = pipeline.wire_with_uplink(&mut sim, cfg.spell.m);
        sim.mark_stream_outbound(uplink);
        builder.add_pe(sim.start());
        builder.route(pe, uplink, 0, uplinks[0][pe - 1]);
    }

    let report = builder.run()?;
    let mut outputs = Vec::with_capacity(npes);
    outputs.push(unwrap_sink(local_sink));
    for sink in remote_sinks {
        outputs.push(unwrap_sink(sink));
    }
    Ok(ClusterOutcome { report, outputs })
}

/// The machine configuration PE `pe_cfg` runs under: the cluster-wide
/// cost model and timing backend at the PE's window count.
fn machine_config(cfg: &ClusterConfig, pe_cfg: &PeConfig) -> MachineConfig {
    MachineConfig::new(pe_cfg.nwindows).with_cost(cfg.cost.clone()).with_timing(cfg.spell.timing)
}

/// The pipeline PE `pe` runs: the base spell config with the corpus
/// seed shifted by the PE number (each PE checks its own shard).
fn pipeline_for(cfg: &ClusterConfig, pe: usize) -> SpellPipeline {
    let corpus = CorpusSpec {
        doc_bytes: cfg.spell.corpus.doc_bytes,
        dict_bytes: cfg.spell.corpus.dict_bytes,
        seed: cfg.spell.corpus.seed + pe as u64,
    };
    let mut config = cfg.spell;
    config.corpus = corpus;
    let mut pipeline = SpellPipeline::new(config);
    if cfg.audit {
        pipeline = pipeline.with_window_audit();
    }
    pipeline
}

fn unwrap_sink(sink: Arc<Mutex<Vec<u8>>>) -> Vec<u8> {
    Arc::try_unwrap(sink)
        .map(|m| m.into_inner().expect("sink poisoned"))
        .unwrap_or_else(|arc| arc.lock().expect("sink poisoned").clone())
}
