//! The differential-oracle invariant bundle: one generated scenario,
//! several independently built executions, and the requirement that
//! they all tell the same story.
//!
//! | invariant | left run | right run |
//! |-----------|----------|-----------|
//! | `trace-replay` | event-trace replay of the direct run | the direct run |
//! | `cluster-1pe` | the scenario on a 1-PE cluster over the shared bus | the direct run |
//! | `masked-fault` | the scenario with seeded masked spill/fill corruption, audited | the audited fault-free run |
//! | `injected-fault` | the scenario under the sweep's `--fault-plan` | the direct run |
//!
//! A divergence (or an error in any leg) makes [`run_bundle`] return an
//! error whose detail names the invariant and the first differing
//! field; the sweep engine then quarantines the job with the
//! scenario's full reproducer string.

use crate::spec::WorkloadSpec;
use crate::workload::Workload;
use regwin_cluster::{BusConfig, ClusterBuilder};
use regwin_machine::{MachineConfig, SchemeKind, TimingKind};
use regwin_rt::{
    fuzzed_policy, FaultKind, FaultPlan, RtError, RunReport, SchedulingPolicy, SimOptions,
    Simulation, Trace,
};
use regwin_traps::build_scheme;

/// Perturbation budget every fuzzed scenario runs with. Fixed (rather
/// than spec-derived) so a reproducer string needs only the fuzz seed.
pub const FUZZ_BUDGET: u32 = 8;

/// A complete, reproducible test case: the workload spec plus every
/// harness knob that shapes its execution. [`Scenario::canonical`]
/// serializes the whole thing into one string and
/// [`Scenario::parse`] brings it back — the reproducer format
/// quarantine records and `repro-fuzz --gen` speak.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The synthesized workload.
    pub spec: WorkloadSpec,
    /// Scheduling policy for every leg of the bundle.
    pub policy: SchedulingPolicy,
    /// Timing backend.
    pub timing: TimingKind,
    /// Window-management scheme.
    pub scheme: SchemeKind,
    /// Physical window count.
    pub nwindows: usize,
    /// Window auditing on the direct run.
    pub audit: bool,
    /// Schedule-fuzz seed: when set, every leg runs `policy` in a
    /// [`fuzzed_policy`](regwin_rt::fuzzed_policy) queue with
    /// [`FUZZ_BUDGET`] perturbations.
    pub fuzz: Option<u64>,
    /// Externally injected fault plan (the sweep's `--fault-plan`),
    /// exercised by the `injected-fault` invariant.
    pub fault: Option<FaultPlan>,
}

impl Scenario {
    /// A clean scenario over `spec` with paper-default knobs.
    pub fn new(spec: WorkloadSpec) -> Self {
        Scenario {
            spec,
            policy: SchedulingPolicy::Fifo,
            timing: TimingKind::S20,
            scheme: SchemeKind::Sp,
            nwindows: 6,
            audit: false,
            fuzz: None,
            fault: None,
        }
    }

    /// The machine configuration every leg runs with.
    pub fn machine_config(&self) -> MachineConfig {
        MachineConfig::new(self.nwindows).with_timing(self.timing)
    }

    /// The canonical scenario string: semicolon-separated `key=value`
    /// fields (`spec` uses the [`WorkloadSpec`] comma grammar; `plan`
    /// is the fault-plan canonical). Round-trips through
    /// [`Scenario::parse`].
    pub fn canonical(&self) -> String {
        let mut s = format!(
            "spec={};policy={};timing={};scheme={};w={};audit={}",
            self.spec.canonical(),
            self.policy,
            self.timing,
            self.scheme,
            self.nwindows,
            u8::from(self.audit),
        );
        if let Some(seed) = self.fuzz {
            s.push_str(&format!(";fuzz={seed:#x}"));
        }
        if let Some(plan) = &self.fault {
            if !plan.is_empty() {
                s.push_str(&format!(";plan={};planseed={:#x}", plan.canonical(), plan.seed()));
            }
        }
        s
    }

    /// Parses a canonical scenario string.
    ///
    /// # Errors
    ///
    /// Describes the first missing or malformed field.
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut sc = Scenario::new(WorkloadSpec::from_seed(0));
        let mut saw_spec = false;
        let mut plan_seed = None;
        for field in s.split(';').map(str::trim).filter(|f| !f.is_empty()) {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| format!("scenario field '{field}' is not key=value"))?;
            let value = value.trim();
            match key.trim() {
                "spec" => {
                    sc.spec = WorkloadSpec::parse(value)?;
                    saw_spec = true;
                }
                "policy" => {
                    sc.policy = SchedulingPolicy::parse(value)
                        .ok_or_else(|| format!("unknown policy '{value}'"))?;
                }
                "timing" => {
                    sc.timing = TimingKind::parse(value)
                        .ok_or_else(|| format!("unknown timing backend '{value}'"))?;
                }
                "scheme" => {
                    sc.scheme = SchemeKind::ALL
                        .into_iter()
                        .find(|k| k.name().eq_ignore_ascii_case(value))
                        .ok_or_else(|| format!("unknown scheme '{value}'"))?;
                }
                "w" => {
                    sc.nwindows = value
                        .parse()
                        .map_err(|_| format!("window count '{value}' is not an integer"))?;
                }
                "audit" => sc.audit = value == "1" || value.eq_ignore_ascii_case("true"),
                "fuzz" => sc.fuzz = Some(parse_u64(value)?),
                "plan" => {
                    sc.fault = Some(FaultPlan::parse(value).map_err(|e| e.to_string())?);
                }
                "planseed" => plan_seed = Some(parse_u64(value)?),
                other => return Err(format!("unknown scenario field '{other}'")),
            }
        }
        if !saw_spec {
            return Err("scenario has no spec= field".into());
        }
        if let Some(seed) = plan_seed {
            match sc.fault.take() {
                Some(plan) => sc.fault = Some(plan.with_seed(seed)),
                None => return Err("planseed= without plan=".into()),
            }
        }
        Ok(sc)
    }

    /// The [`SimOptions`] for one leg of the bundle.
    fn options(&self, traced: bool, fault: Option<FaultPlan>, audit: bool) -> SimOptions {
        SimOptions {
            policy: self.policy,
            sched: self.fuzz.map(|seed| fuzzed_policy(self.policy, seed, FUZZ_BUDGET)),
            audit,
            traced,
            fault,
        }
    }

    /// Builds and installs one leg's simulation.
    fn build(
        &self,
        workload: &Workload,
        traced: bool,
        fault: Option<FaultPlan>,
        audit: bool,
    ) -> Result<Simulation, RtError> {
        let mut sim = Simulation::assemble(
            self.machine_config(),
            build_scheme(self.scheme),
            self.options(traced, fault, audit),
        )?;
        workload.install(&mut sim);
        Ok(sim)
    }
}

fn parse_u64(v: &str) -> Result<u64, String> {
    if let Some(hex) = v.strip_prefix("0x") { u64::from_str_radix(hex, 16) } else { v.parse() }
        .map_err(|_| format!("'{v}' is not an integer"))
}

/// The seeded masked-fault plan the `masked-fault` invariant injects:
/// spill and fill corruption at spec-derived indices. Masked kinds
/// only, so with auditing the run must repair silently and report
/// numbers byte-identical to a fault-free run.
pub fn masked_plan(spec: &WorkloadSpec) -> FaultPlan {
    FaultPlan::new()
        .with_event(FaultKind::SpillCorrupt, spec.seed % 7)
        .with_event(FaultKind::FillCorrupt, spec.seed % 5)
        .with_seed(spec.seed)
}

/// Runs one leg to completion, optionally returning its trace.
fn run_leg(
    sc: &Scenario,
    wl: &Workload,
    traced: bool,
    fault: Option<FaultPlan>,
    audit: bool,
) -> Result<(RunReport, Option<Trace>), RtError> {
    sc.build(wl, traced, fault, audit)?.run_with_trace()
}

/// Runs the scenario as a 1-PE cluster over the shared bus — the
/// discrete-event path, which must agree with the legacy direct path
/// byte-for-byte.
fn run_cluster_leg(sc: &Scenario, wl: &Workload) -> Result<RunReport, RtError> {
    let sim = sc.build(wl, false, None, sc.audit)?;
    let mut cluster = ClusterBuilder::new(BusConfig::default());
    cluster.add_pe(sim.start());
    let report = cluster.run()?;
    Ok(report.reports.into_iter().next().expect("1-PE cluster has a PE-0 report"))
}

/// Compares two reports under an invariant name, returning a typed
/// error naming the first difference.
fn expect_eq(invariant: &str, got: &RunReport, want: &RunReport) -> Result<(), RtError> {
    if got == want {
        return Ok(());
    }
    Err(RtError::Internal {
        detail: format!("invariant {invariant} diverged: {}", first_difference(got, want)),
    })
}

/// A short human-readable description of the first differing report
/// field (quarantine details must stay greppable, not dumps).
fn first_difference(got: &RunReport, want: &RunReport) -> String {
    if got.cycles != want.cycles {
        return format!("cycles {} vs {}", got.cycles, want.cycles);
    }
    if got.stats != want.stats {
        return format!("stats {:?} vs {:?}", got.stats, want.stats);
    }
    if got.threads.len() != want.threads.len() {
        return format!("thread count {} vs {}", got.threads.len(), want.threads.len());
    }
    for (g, w) in got.threads.iter().zip(&want.threads) {
        if g != w {
            return format!("thread {} reports {:?} vs {:?}", g.name, g, w);
        }
    }
    "reports differ outside cycles/stats/threads".to_string()
}

/// Runs the full invariant bundle for `sc`, returning the direct run's
/// report when every invariant holds.
///
/// # Errors
///
/// Any leg error, or a typed `invariant ... diverged` error naming the
/// first invariant that failed. Either way the sweep engine quarantines
/// the job and its reproducer.
pub fn run_bundle(sc: &Scenario) -> Result<RunReport, RtError> {
    let wl = Workload::synthesize(&sc.spec);

    // Direct run, traced — the reference every other leg compares to.
    let (base, trace) = run_leg(sc, &wl, true, None, sc.audit)?;
    let trace =
        trace.ok_or_else(|| RtError::Internal { detail: "traced run returned no trace".into() })?;

    // Invariant: replaying the event trace on a fresh CPU reproduces
    // the direct run. Replay always reports FIFO (the trace encodes
    // the schedule, not the policy), so normalize that field.
    let mut replayed =
        trace.replay_with_options(sc.machine_config(), build_scheme(sc.scheme), None, false)?;
    replayed.policy = base.policy;
    replayed.bus = base.bus.clone();
    expect_eq("trace-replay", &replayed, &base)?;

    // Invariant: a 1-PE cluster is the legacy path.
    let cluster = run_cluster_leg(sc, &wl)?;
    expect_eq("cluster-1pe", &cluster, &base)?;

    // Invariant: masked corruption under audit repairs silently. The
    // comparison pair is always audited; when the scenario itself is
    // unaudited the reference leg is rerun with audit on (auditing is
    // pure bookkeeping, so its report matches the unaudited one —
    // which this leg also cross-checks).
    let audited_base = if sc.audit {
        base.clone()
    } else {
        let (b, _) = run_leg(sc, &wl, false, None, true)?;
        expect_eq("audit-transparency", &b, &base)?;
        b
    };
    let (masked, _) = run_leg(sc, &wl, false, Some(masked_plan(&sc.spec)), true)?;
    expect_eq("masked-fault", &masked, &audited_base)?;

    // Invariant: an externally injected plan either leaves the report
    // untouched (masked faults) or errors out of this bundle — every
    // unmasked fault is detected, never silently absorbed.
    if let Some(plan) = &sc.fault {
        if plan.has_sim_faults() {
            let (faulted, _) = run_leg(sc, &wl, false, Some(plan.clone()), sc.audit)?;
            expect_eq("injected-fault", &faulted, &base)?;
        }
    }

    Ok(base)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario(seed: u64) -> Scenario {
        Scenario::new(WorkloadSpec::from_seed(seed))
    }

    #[test]
    fn clean_bundles_pass_across_policies_and_timings() {
        for (i, seed) in [0u64, 11, 29].into_iter().enumerate() {
            let mut sc = scenario(seed);
            sc.policy = SchedulingPolicy::ALL[i % SchedulingPolicy::ALL.len()];
            sc.timing = TimingKind::ALL[i % TimingKind::ALL.len()];
            sc.scheme = SchemeKind::ALL[i % SchemeKind::ALL.len()];
            run_bundle(&sc).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn fuzzed_bundles_pass_and_fuzzing_changes_the_schedule() {
        let mut sc = scenario(5);
        let base = run_bundle(&sc).unwrap();
        sc.fuzz = Some(0xF00D);
        let fuzzed = run_bundle(&sc).unwrap();
        // Same program, so the same work gets done...
        assert_eq!(
            base.threads.iter().map(|t| &t.name).collect::<Vec<_>>(),
            fuzzed.threads.iter().map(|t| &t.name).collect::<Vec<_>>(),
        );
        // ...and the fuzzed schedule is reproducible.
        assert_eq!(run_bundle(&sc).unwrap(), fuzzed);
    }

    #[test]
    fn unmasked_injected_fault_is_detected() {
        let mut sc = scenario(2);
        sc.audit = true;
        sc.fault = Some(FaultPlan::new().with_event(FaultKind::ResidentCorrupt, 3));
        // The failure may surface as an injected-fault report
        // divergence or as a typed runtime error from the faulted leg
        // (quarantine of the corrupted thread cascades into its
        // stream neighbours) — either way the bundle must error.
        let err = run_bundle(&sc).unwrap_err();
        assert!(!err.to_string().is_empty());
        // And the failure is deterministic: the reproducer fails the
        // same way.
        let again = run_bundle(&Scenario::parse(&sc.canonical()).unwrap()).unwrap_err();
        assert_eq!(err.to_string(), again.to_string());
    }

    #[test]
    fn masked_injected_fault_passes() {
        let mut sc = scenario(2);
        sc.audit = true;
        sc.fault = Some(masked_plan(&sc.spec));
        run_bundle(&sc).unwrap();
    }

    #[test]
    fn scenario_canonical_round_trips() {
        let mut sc = scenario(77);
        sc.policy = SchedulingPolicy::Aging;
        sc.timing = TimingKind::Pipeline;
        sc.scheme = SchemeKind::Ns;
        sc.nwindows = 8;
        sc.audit = true;
        sc.fuzz = Some(0xBEEF);
        sc.fault = Some(FaultPlan::parse("resident-corrupt@4").unwrap().with_seed(9));
        let parsed = Scenario::parse(&sc.canonical()).unwrap();
        assert_eq!(parsed, sc);
        // And the minimal clean form round-trips too.
        let clean = scenario(3);
        assert_eq!(Scenario::parse(&clean.canonical()).unwrap(), clean);
    }
}
