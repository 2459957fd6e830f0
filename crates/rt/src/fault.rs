//! Seeded, deterministic fault plans for simulation runs and sweeps.
//!
//! A [`FaultPlan`] names faults to inject at chosen 0-based event
//! indices. It spans three layers:
//!
//! * **machine faults** (spill/fill corruption or failure, trap drops)
//!   compile down to a [`regwin_machine::FaultSchedule`] installed on
//!   the simulation's CPU;
//! * **stream faults** fail the N-th stream byte read or write with a
//!   typed [`crate::RtError::FaultInjected`], before the byte is
//!   transferred;
//! * **worker faults** target the sweep engine: panic or stall the
//!   worker executing the N-th job, exercising its `catch_unwind` /
//!   timeout / quarantine machinery.
//!
//! Faults are *masked* (spill/fill corruption: the run must still
//! produce byte-identical reported numbers, because reports contain
//! only cycle counts and event statistics, never register contents) or
//! *unmasked* (everything else: the run must fail with a typed error or
//! land in the sweep quarantine — never panic the process, and never
//! silently change a reported number). The differential oracle tests in
//! `crates/rt/tests/fault_oracle.rs` enforce exactly this split.
//!
//! Plans are deterministic by construction: [`FaultPlan::from_seed`]
//! derives event indices and corruption masks from a `splitmix64`
//! chain, and [`FaultPlan::parse`] accepts explicit `kind@index` specs,
//! so any faulty run can be reproduced exactly from its seed or spec.

use regwin_machine::{FaultSchedule, TransferFault};
use std::fmt;

/// The kinds of deterministic faults a [`FaultPlan`] can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// XOR the frame of the N-th backing-store spill (masked).
    SpillCorrupt,
    /// Fail the N-th backing-store spill with a typed error (unmasked).
    SpillFail,
    /// XOR the frame of the N-th backing-store fill (masked).
    FillCorrupt,
    /// Fail the N-th backing-store fill with a typed error (unmasked).
    FillFail,
    /// Drop delivery of the N-th window trap (unmasked).
    TrapDrop,
    /// Fail the N-th stream byte read that would otherwise succeed
    /// (unmasked). Fires *before* the transfer: the byte stays in the
    /// stream, matching the machine's failed-spill-leaves-state-
    /// untouched convention.
    StreamReadFail,
    /// Fail the N-th stream byte write that would otherwise succeed
    /// (unmasked). Fires *before* the transfer: nothing is buffered.
    StreamWriteFail,
    /// Panic the sweep worker executing the N-th job (quarantined).
    /// Worker faults are per *job*, not per attempt — every retry would
    /// fail identically, so the engine makes a single attempt.
    WorkerPanic,
    /// Stall the sweep worker executing the N-th job until the job's
    /// deadline, checking it every millisecond, so the attempt times
    /// out (quarantined; per-job like [`FaultKind::WorkerPanic`]). Only
    /// observable when a job timeout is configured: without one there is
    /// no deadline, the stall is a short nap and the engine warns.
    WorkerStall,
    /// XOR the live window made current by the N-th executed `save`, in
    /// place, after the save completes. A bit-flip in a *dirty* resident
    /// frame: no pristine copy exists, so with window auditing enabled
    /// the run must quarantine the owning thread (and without auditing
    /// it silently perturbs register values — never reported numbers).
    ResidentCorrupt,
}

impl FaultKind {
    /// All kinds, in canonical order.
    pub const ALL: [FaultKind; 10] = [
        FaultKind::SpillCorrupt,
        FaultKind::SpillFail,
        FaultKind::FillCorrupt,
        FaultKind::FillFail,
        FaultKind::TrapDrop,
        FaultKind::StreamReadFail,
        FaultKind::StreamWriteFail,
        FaultKind::WorkerPanic,
        FaultKind::WorkerStall,
        FaultKind::ResidentCorrupt,
    ];

    /// The canonical spec name (accepted back by [`FaultPlan::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::SpillCorrupt => "spill-corrupt",
            FaultKind::SpillFail => "spill-fail",
            FaultKind::FillCorrupt => "fill-corrupt",
            FaultKind::FillFail => "fill-fail",
            FaultKind::TrapDrop => "trap-drop",
            FaultKind::StreamReadFail => "stream-read-fail",
            FaultKind::StreamWriteFail => "stream-write-fail",
            FaultKind::WorkerPanic => "panic",
            FaultKind::WorkerStall => "stall",
            FaultKind::ResidentCorrupt => "resident-corrupt",
        }
    }

    /// Parses a canonical spec name.
    fn from_name(name: &str) -> Option<Self> {
        FaultKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether this fault is *masked*: the run succeeds and its reported
    /// numbers must be byte-identical to a fault-free run.
    pub fn is_masked(self) -> bool {
        matches!(self, FaultKind::SpillCorrupt | FaultKind::FillCorrupt)
    }

    /// Whether this fault targets the sweep worker rather than the
    /// simulation itself.
    fn is_worker(self) -> bool {
        matches!(self, FaultKind::WorkerPanic | FaultKind::WorkerStall)
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Highest cluster PE a `pe:` qualifier may target (exclusive). The
/// PIE64 machine the paper targets has 64 processing elements, and the
/// cluster sweeps never build anything larger, so a spec naming PE 64+
/// is a typo, not a bigger machine.
pub const MAX_FAULT_PES: u64 = 64;

/// A malformed [`FaultPlan`] spec entry, reported by
/// [`FaultPlan::parse`].
///
/// Each variant carries the offending text so callers can surface the
/// exact entry; `Display` renders the same human-readable messages the
/// parser produced before this type existed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultPlanError {
    /// An entry was not of the `kind@index` form.
    Malformed {
        /// The offending entry, verbatim.
        entry: String,
    },
    /// The `kind` half named no known [`FaultKind`].
    UnknownKind {
        /// The unrecognised kind name.
        kind: String,
    },
    /// The `@index` half did not parse as a non-negative integer.
    BadIndex {
        /// The unparseable index text.
        index: String,
    },
    /// A qualifier other than `pe:N` followed the entry.
    UnknownQualifier {
        /// The unrecognised qualifier, verbatim.
        qualifier: String,
    },
    /// The `pe:` qualifier's value did not parse as a non-negative
    /// integer.
    BadPe {
        /// The unparseable PE text.
        value: String,
    },
    /// The `pe:` qualifier named a PE at or beyond [`MAX_FAULT_PES`].
    PeOutOfRange {
        /// The out-of-range PE number.
        pe: u64,
    },
    /// The same `(kind, index, pe)` event appeared twice. Duplicate
    /// events used to be accepted silently even though only one copy
    /// can ever fire (each counter passes an index once).
    DuplicateEvent {
        /// The canonical form of the repeated event.
        entry: String,
    },
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::Malformed { entry } => {
                write!(f, "fault '{entry}' is not of the form kind@index")
            }
            FaultPlanError::UnknownKind { kind } => {
                let names: Vec<&str> = FaultKind::ALL.iter().map(|k| k.name()).collect();
                write!(f, "unknown fault kind '{kind}' (expected one of: {})", names.join(", "))
            }
            FaultPlanError::BadIndex { index } => {
                write!(f, "fault index '{index}' is not a non-negative integer")
            }
            FaultPlanError::UnknownQualifier { qualifier } => {
                write!(f, "unknown fault qualifier '{qualifier}' (expected pe:N)")
            }
            FaultPlanError::BadPe { value } => {
                write!(f, "fault PE '{value}' is not a non-negative integer")
            }
            FaultPlanError::PeOutOfRange { pe } => {
                write!(
                    f,
                    "fault PE {pe} is out of range (the cluster tops out at {MAX_FAULT_PES} PEs)"
                )
            }
            FaultPlanError::DuplicateEvent { entry } => {
                write!(f, "duplicate fault event '{entry}' (each event index fires at most once)")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// One planned fault: a kind and the 0-based per-kind event index at
/// which it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FaultEvent {
    /// What to inject.
    pub kind: FaultKind,
    /// 0-based index of the targeted event (spills, fills, traps,
    /// stream reads/writes and sweep jobs each keep their own counter).
    pub at: u64,
    /// The cluster PE the fault targets (spec qualifier `pe:N`).
    /// Defaults to 0, so unqualified plans keep their historical
    /// meaning: on the legacy single-machine path only PE-0 events
    /// apply, and a 1-PE cluster behaves identically. Worker faults
    /// target sweep jobs, not PEs, and ignore this field.
    pub pe: u64,
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.kind, self.at)?;
        if self.pe != 0 {
            write!(f, " pe:{}", self.pe)?;
        }
        Ok(())
    }
}

/// What an injected worker fault does to a sweep job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerFault {
    /// Panic inside the worker (caught by the engine's `catch_unwind`).
    Panic,
    /// Sleep until the job's deadline, then time out.
    Stall,
}

/// A deterministic, seeded plan of faults to inject into a run.
///
/// Construct with [`FaultPlan::from_seed`], [`FaultPlan::parse`] or the
/// [`FaultPlan::with_event`] builder; install on a simulation via
/// `Simulation::with_fault_plan` or hand to the sweep engine through
/// `SweepConfig::fault_plan`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Derives a small deterministic plan from `seed`: one masked spill
    /// corruption, one masked fill corruption, one worker panic and one
    /// worker stall, at seed-dependent event indices. The same seed
    /// always produces the same plan.
    pub fn from_seed(seed: u64) -> Self {
        let mut state = seed;
        let mut next = || splitmix64(&mut state);
        FaultPlan {
            seed,
            events: vec![
                FaultEvent { kind: FaultKind::SpillCorrupt, at: next() % 32, pe: 0 },
                FaultEvent { kind: FaultKind::FillCorrupt, at: next() % 32, pe: 0 },
                FaultEvent { kind: FaultKind::WorkerPanic, at: next() % 8, pe: 0 },
                FaultEvent { kind: FaultKind::WorkerStall, at: next() % 8, pe: 0 },
            ],
        }
    }

    /// Parses a comma-separated `kind@index` spec, e.g.
    /// `"spill-corrupt@12,panic@1,stall@2"`. Kind names are the
    /// [`FaultKind::name`] strings. An entry may carry a
    /// space-separated `pe:N` qualifier (e.g. `"spill-corrupt@3 pe:2"`)
    /// targeting a specific cluster PE; unqualified entries target
    /// PE 0, preserving their historical single-machine meaning.
    ///
    /// # Errors
    ///
    /// Returns a typed [`FaultPlanError`] for the first bad entry:
    /// malformed syntax, an unknown kind or qualifier, a `pe:` value at
    /// or beyond [`MAX_FAULT_PES`], or a duplicate `(kind, index, pe)`
    /// event (formerly accepted silently even though only one copy can
    /// fire).
    pub fn parse(spec: &str) -> Result<Self, FaultPlanError> {
        let mut plan = FaultPlan::new();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let mut tokens = part.split_whitespace();
            let head = tokens.next().expect("non-empty after the filter");
            let (kind, at) = head
                .split_once('@')
                .ok_or_else(|| FaultPlanError::Malformed { entry: part.to_string() })?;
            let kind = FaultKind::from_name(kind.trim())
                .ok_or_else(|| FaultPlanError::UnknownKind { kind: kind.to_string() })?;
            let at: u64 = at
                .trim()
                .parse()
                .map_err(|_| FaultPlanError::BadIndex { index: at.to_string() })?;
            let mut pe = 0u64;
            for qualifier in tokens {
                let value = qualifier.strip_prefix("pe:").ok_or_else(|| {
                    FaultPlanError::UnknownQualifier { qualifier: qualifier.to_string() }
                })?;
                pe = value
                    .parse()
                    .map_err(|_| FaultPlanError::BadPe { value: value.to_string() })?;
                if pe >= MAX_FAULT_PES {
                    return Err(FaultPlanError::PeOutOfRange { pe });
                }
            }
            let event = FaultEvent { kind, at, pe };
            if plan.events.contains(&event) {
                return Err(FaultPlanError::DuplicateEvent { entry: event.to_string() });
            }
            plan.events.push(event);
        }
        Ok(plan)
    }

    /// Adds one fault event targeting PE 0 (builder style).
    #[must_use]
    pub fn with_event(mut self, kind: FaultKind, at: u64) -> Self {
        self.events.push(FaultEvent { kind, at, pe: 0 });
        self
    }

    /// Sets the seed used to derive corruption masks (defaults to 0; the
    /// mask for an event also mixes in its index, so distinct events get
    /// distinct nonzero masks even under the default seed).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The seed corruption masks derive from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The planned fault events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Whether any planned fault acts inside the simulation (machine or
    /// stream faults, as opposed to worker faults).
    pub fn has_sim_faults(&self) -> bool {
        self.events.iter().any(|e| !e.kind.is_worker())
    }

    /// The canonical `kind@index` spec string ([`FaultPlan::parse`]
    /// round-trips it).
    pub fn canonical(&self) -> String {
        let parts: Vec<String> = self.events.iter().map(|e| e.to_string()).collect();
        parts.join(",")
    }

    /// The sub-plan targeting cluster PE `pe`: its matching events with
    /// the qualifier stripped (so they read as local PE-0 events), the
    /// seed preserved. Corruption masks depend only on the seed and the
    /// event index, so a `pe:`-qualified fault injects exactly what the
    /// unqualified fault would inject on a lone machine — the property
    /// the cluster fault-parity regression test pins down. Worker
    /// faults are job-level and excluded.
    pub fn for_pe(&self, pe: u64) -> FaultPlan {
        FaultPlan {
            seed: self.seed,
            events: self
                .events
                .iter()
                .filter(|e| !e.kind.is_worker() && e.pe == pe)
                .map(|e| FaultEvent { kind: e.kind, at: e.at, pe: 0 })
                .collect(),
        }
    }

    /// Compiles the machine-level portion of the plan into a fresh
    /// [`FaultSchedule`] (internal event counters at zero — install one
    /// clone per run). Only PE-0 events apply: on the legacy
    /// single-machine path a `pe:`-qualified fault has nowhere to fire.
    pub fn machine_schedule(&self) -> FaultSchedule {
        let mut schedule = FaultSchedule::new();
        for e in self.events.iter().filter(|e| e.pe == 0) {
            schedule = match e.kind {
                FaultKind::SpillCorrupt => {
                    schedule.on_spill(e.at, TransferFault::Corrupt { xor: self.mask_for(e.at) })
                }
                FaultKind::SpillFail => schedule.on_spill(e.at, TransferFault::Fail),
                FaultKind::FillCorrupt => {
                    schedule.on_fill(e.at, TransferFault::Corrupt { xor: self.mask_for(e.at) })
                }
                FaultKind::FillFail => schedule.on_fill(e.at, TransferFault::Fail),
                FaultKind::TrapDrop => schedule.on_trap_drop(e.at),
                FaultKind::ResidentCorrupt => {
                    schedule.on_resident_corrupt(e.at, self.mask_for(e.at))
                }
                _ => schedule,
            };
        }
        schedule
    }

    /// The planned stream byte-transfer failures of `kind`
    /// ([`FaultKind::StreamReadFail`] or [`FaultKind::StreamWriteFail`];
    /// PE-0 events only, matching [`FaultPlan::machine_schedule`]).
    pub(crate) fn stream_faults(&self, kind: FaultKind) -> StreamFaults {
        let mut fails: Vec<u64> =
            self.events.iter().filter(|e| e.kind == kind && e.pe == 0).map(|e| e.at).collect();
        fails.sort_unstable_by(|a, b| b.cmp(a));
        fails.dedup();
        StreamFaults { fails, seen: 0 }
    }

    /// The worker fault (if any) targeting sweep job number `seq`. When
    /// both a panic and a stall target the same job, the panic wins.
    pub fn worker_fault_at(&self, seq: u64) -> Option<WorkerFault> {
        let mut found = None;
        for e in &self.events {
            match e.kind {
                FaultKind::WorkerPanic if e.at == seq => return Some(WorkerFault::Panic),
                FaultKind::WorkerStall if e.at == seq => found = Some(WorkerFault::Stall),
                _ => {}
            }
        }
        found
    }

    /// The nonzero corruption mask for the event at index `at`, derived
    /// deterministically from the plan seed.
    fn mask_for(&self, at: u64) -> u64 {
        let mut state = self.seed ^ at.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        splitmix64(&mut state) | 1
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            f.write_str("(no faults)")
        } else {
            f.write_str(&self.canonical())
        }
    }
}

/// One kind of planned stream byte-transfer failure, consumed as the
/// transfers happen: the failing event indices, highest first so the
/// next one is always last, and the number of transfers seen so far.
/// A fault-free run checks one empty `Vec` per byte.
#[derive(Debug, Default)]
pub(crate) struct StreamFaults {
    fails: Vec<u64>,
    seen: u64,
}

impl StreamFaults {
    /// Counts one byte transfer and returns its event index if the plan
    /// fails it.
    pub(crate) fn count_transfer(&mut self) -> Option<u64> {
        let index = self.seen;
        self.seen += 1;
        if self.fails.last() == Some(&index) {
            self.fails.pop()
        } else {
            None
        }
    }
}

/// The splitmix64 generator step: deterministic, dependency-free
/// pseudo-randomness for seed-derived plans, corruption masks and the
/// schedule fuzzer's perturbation draws.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_canonical() {
        let plan = FaultPlan::parse("spill-corrupt@12, panic@1,stall@2").unwrap();
        assert_eq!(plan.canonical(), "spill-corrupt@12,panic@1,stall@2");
        let again = FaultPlan::parse(&plan.canonical()).unwrap();
        assert_eq!(plan, again);
        assert!(plan.has_sim_faults());
        assert!(plan.events().iter().any(|e| e.kind.is_worker()));
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(FaultPlan::parse("spill-corrupt").is_err());
        assert!(FaultPlan::parse("bogus@3").is_err());
        assert!(FaultPlan::parse("panic@minus-one").is_err());
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn parse_rejects_duplicate_events() {
        let err = FaultPlan::parse("spill-corrupt@12,panic@1,spill-corrupt@12").unwrap_err();
        assert_eq!(err, FaultPlanError::DuplicateEvent { entry: "spill-corrupt@12".into() });
        assert!(err.to_string().contains("duplicate fault event"));
        // Same kind and index on distinct PEs are distinct events.
        assert!(FaultPlan::parse("spill-corrupt@12,spill-corrupt@12 pe:1").is_ok());
        // ... but repeating the qualified form is still a duplicate.
        let err = FaultPlan::parse("spill-corrupt@12 pe:1,spill-corrupt@12 pe:1").unwrap_err();
        assert_eq!(err, FaultPlanError::DuplicateEvent { entry: "spill-corrupt@12 pe:1".into() });
    }

    #[test]
    fn parse_rejects_out_of_range_pe() {
        assert!(FaultPlan::parse("spill-corrupt@3 pe:63").is_ok());
        let err = FaultPlan::parse("spill-corrupt@3 pe:64").unwrap_err();
        assert_eq!(err, FaultPlanError::PeOutOfRange { pe: 64 });
        assert!(err.to_string().contains("out of range"));
        assert_eq!(
            FaultPlan::parse("fill-fail@0 pe:9000").unwrap_err(),
            FaultPlanError::PeOutOfRange { pe: 9000 },
        );
    }

    #[test]
    fn parse_errors_are_typed() {
        assert_eq!(
            FaultPlan::parse("spill-corrupt").unwrap_err(),
            FaultPlanError::Malformed { entry: "spill-corrupt".into() },
        );
        assert_eq!(
            FaultPlan::parse("bogus@3").unwrap_err(),
            FaultPlanError::UnknownKind { kind: "bogus".into() },
        );
        assert_eq!(
            FaultPlan::parse("panic@minus-one").unwrap_err(),
            FaultPlanError::BadIndex { index: "minus-one".into() },
        );
        assert_eq!(
            FaultPlan::parse("spill-corrupt@3 cpu:2").unwrap_err(),
            FaultPlanError::UnknownQualifier { qualifier: "cpu:2".into() },
        );
        assert_eq!(
            FaultPlan::parse("spill-corrupt@3 pe:x").unwrap_err(),
            FaultPlanError::BadPe { value: "x".into() },
        );
    }

    #[test]
    fn every_kind_name_round_trips() {
        for kind in FaultKind::ALL {
            assert_eq!(FaultKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(FaultKind::from_name("nope"), None);
    }

    #[test]
    fn from_seed_is_deterministic() {
        assert_eq!(FaultPlan::from_seed(42), FaultPlan::from_seed(42));
        assert_ne!(FaultPlan::from_seed(42), FaultPlan::from_seed(43));
        let plan = FaultPlan::from_seed(7);
        assert!(plan.has_sim_faults());
        assert!(plan.events().iter().any(|e| e.kind.is_worker()));
        // Seeded sim faults are all masked: safe to run anywhere.
        assert!(plan.events().iter().filter(|e| !e.kind.is_worker()).all(|e| e.kind.is_masked()));
    }

    #[test]
    fn machine_schedule_covers_machine_kinds_only() {
        let plan = FaultPlan::parse("spill-fail@0,trap-drop@2,stream-read-fail@1,panic@0").unwrap();
        let schedule = plan.machine_schedule();
        assert!(!schedule.is_empty());
        assert_eq!(plan.stream_faults(FaultKind::StreamReadFail).fails, [1]);
        assert!(plan.stream_faults(FaultKind::StreamWriteFail).fails.is_empty());
        assert_eq!(plan.worker_fault_at(0), Some(WorkerFault::Panic));
        assert_eq!(plan.worker_fault_at(1), None);
    }

    #[test]
    fn stream_faults_fire_at_their_indices_in_transfer_order() {
        // The builder, unlike `parse`, accepts a repeated event.
        let plan = FaultPlan::new()
            .with_event(FaultKind::StreamReadFail, 3)
            .with_event(FaultKind::StreamReadFail, 1)
            .with_event(FaultKind::StreamReadFail, 3);
        let mut faults = plan.stream_faults(FaultKind::StreamReadFail);
        let fired: Vec<Option<u64>> = (0..6).map(|_| faults.count_transfer()).collect();
        assert_eq!(fired, [None, Some(1), None, Some(3), None, None]);
        let mut none = FaultPlan::new().stream_faults(FaultKind::StreamWriteFail);
        assert!((0..4).all(|_| none.count_transfer().is_none()));
    }

    #[test]
    fn worker_panic_wins_over_stall_on_same_job() {
        let plan = FaultPlan::new()
            .with_event(FaultKind::WorkerStall, 3)
            .with_event(FaultKind::WorkerPanic, 3);
        assert_eq!(plan.worker_fault_at(3), Some(WorkerFault::Panic));
    }

    #[test]
    fn pe_qualifier_round_trips_and_defaults_to_zero() {
        let plan = FaultPlan::parse("spill-corrupt@3 pe:2, fill-fail@1").unwrap();
        assert_eq!(plan.canonical(), "spill-corrupt@3 pe:2,fill-fail@1");
        assert_eq!(FaultPlan::parse(&plan.canonical()).unwrap(), plan);
        assert_eq!(plan.events()[0].pe, 2);
        assert_eq!(plan.events()[1].pe, 0);
        assert!(FaultPlan::parse("spill-corrupt@3 cpu:2").is_err());
        assert!(FaultPlan::parse("spill-corrupt@3 pe:x").is_err());
    }

    #[test]
    fn pe_qualified_faults_do_not_fire_on_the_single_machine_path() {
        let qualified = FaultPlan::parse("spill-fail@0 pe:2,stream-read-fail@1 pe:2").unwrap();
        assert!(qualified.machine_schedule().is_empty());
        assert!(qualified.stream_faults(FaultKind::StreamReadFail).fails.is_empty());
        // Unqualified plans keep their historical meaning (PE 0).
        let unqualified = FaultPlan::parse("spill-fail@0,stream-read-fail@1").unwrap();
        assert!(!unqualified.machine_schedule().is_empty());
        assert_eq!(unqualified.stream_faults(FaultKind::StreamReadFail).fails, [1]);
    }

    #[test]
    fn for_pe_extracts_the_matching_sub_plan() {
        let plan = FaultPlan::parse("spill-corrupt@3 pe:2,fill-corrupt@5,panic@0").unwrap();
        let pe2 = plan.for_pe(2);
        assert_eq!(pe2.canonical(), "spill-corrupt@3");
        let pe0 = plan.for_pe(0);
        // Worker faults are job-level, not per-PE.
        assert_eq!(pe0.canonical(), "fill-corrupt@5");
        // The sub-plan keeps the seed, so masks match an unqualified
        // plan running on that PE alone.
        let direct = FaultPlan::parse("spill-corrupt@3").unwrap().with_seed(plan.seed());
        assert_eq!(pe2.machine_schedule(), direct.machine_schedule());
    }

    #[test]
    fn corruption_masks_are_nonzero_and_seed_dependent() {
        let a = FaultPlan::new().with_seed(1);
        let b = FaultPlan::new().with_seed(2);
        for at in 0..64 {
            assert_ne!(a.mask_for(at), 0);
            assert_ne!(a.mask_for(at), b.mask_for(at));
        }
    }
}
