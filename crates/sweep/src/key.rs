//! Content-addressed job identity.
//!
//! A sweep job is a pure function of its configuration: corpus
//! dimensions and seed, stream buffer sizes, scheduling policy, scheme
//! (or ablation-variant label), window count and timing backend. The
//! canonical key string spells all of those out; its FNV-1a hash names
//! the cache entry. A format-version prefix invalidates every cached
//! result when the serialization or the simulator's semantics change.

use regwin_core::{Behavior, MatrixSpec};
use regwin_machine::{SchemeKind, TimingKind};
use regwin_rt::SchedulingPolicy;
use regwin_spell::CorpusSpec;

/// Bump to invalidate all previously cached results (serialization or
/// simulation semantics changed).
///
/// v3: reports gained an optional `bus` section and the cycle counter a
/// `bus_stall` category (multi-PE cluster runs).
///
/// v4: the WorkingSet scheduler keeps resident threads FIFO among
/// themselves (the wake-order bugfix changed WorkingSet schedules), and
/// two new policies (WindowGreedy, Aging) joined the namespace.
///
/// v5: the cost-model field became the timing-backend identifier
/// (`s20` or `pipeline`), and reports gained the hazard-stall cycle
/// category charged by the pipeline backend.
///
/// v6: keys gained the `gen`/`fuzz` dimensions for synthetic-workload
/// fuzz-farm jobs (canonical scenario string and schedule-fuzz seed;
/// `-` for spell-corpus jobs).
pub const FORMAT_VERSION: u32 = 6;

/// The complete identity of one sweep job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobKey {
    /// Experiment family, e.g. `"matrix"` or `"ablation:flush"`. Keeps
    /// cache entries from unrelated experiments apart even when the
    /// numeric configuration coincides.
    pub experiment: String,
    /// Corpus dimensions and seed.
    pub corpus: CorpusSpec,
    /// The M (kernel-stream) buffer size in bytes.
    pub m: usize,
    /// The N (word-stream) buffer size in bytes.
    pub n: usize,
    /// Scheduling policy name.
    pub policy: SchedulingPolicy,
    /// Scheme or variant label, e.g. `"SP"` or `"SP flush"`.
    pub scheme: String,
    /// Physical window count.
    pub nwindows: usize,
    /// Timing backend the job charges cycles under.
    pub timing: TimingKind,
    /// Canonical synthetic-scenario string for fuzz-farm jobs
    /// (`regwin_gen::Scenario::canonical`); `None` for spell-corpus
    /// jobs.
    pub gen: Option<String>,
    /// Schedule-fuzz seed when the job's ready queue comes from
    /// `regwin_rt::fuzzed_policy`; `None` for unperturbed schedules.
    pub fuzz: Option<u64>,
}

impl JobKey {
    /// The key for one cell of a [`MatrixSpec`].
    pub fn for_cell(
        spec: &MatrixSpec,
        behavior: Behavior,
        scheme: SchemeKind,
        nwindows: usize,
    ) -> Self {
        let (m, n) = behavior.buffers();
        JobKey {
            experiment: "matrix".to_string(),
            corpus: spec.corpus,
            m,
            n,
            policy: spec.policy,
            scheme: scheme.name().to_string(),
            nwindows,
            timing: spec.timing,
            gen: None,
            fuzz: None,
        }
    }

    /// The canonical string: every field spelled out, in fixed order.
    /// Optional dimensions serialize as `-` when absent so every key,
    /// fuzz-farm or not, has the same shape.
    pub fn canonical(&self) -> String {
        format!(
            "v{}|exp={}|doc={}|dict={}|seed={}|m={}|n={}|policy={}|scheme={}|w={}|timing={}|gen={}|fuzz={}",
            FORMAT_VERSION,
            self.experiment,
            self.corpus.doc_bytes,
            self.corpus.dict_bytes,
            self.corpus.seed,
            self.m,
            self.n,
            self.policy,
            self.scheme,
            self.nwindows,
            self.timing,
            self.gen.as_deref().unwrap_or("-"),
            self.fuzz.map(|s| format!("{s:#x}")).unwrap_or_else(|| "-".to_string()),
        )
    }

    /// The job id: 64-bit FNV-1a of the canonical string, in hex. Names
    /// the cache file.
    pub fn id(&self) -> String {
        id_of(&self.canonical())
    }

    /// A short human-readable label for progress events.
    pub fn label(&self) -> String {
        format!("{} {} w={} M={} N={}", self.scheme, self.policy, self.nwindows, self.m, self.n)
    }
}

fn id_of(canonical: &str) -> String {
    format!("{:016x}", fnv1a(canonical.as_bytes()))
}

/// A job's key strings — [`JobKey::canonical`], [`JobKey::id`] and
/// [`JobKey::label`] — built once per job and carried beside its key
/// through the lookup, the cache, the events, the record and the
/// journal.
#[derive(Debug, Clone)]
pub(crate) struct KeyNames {
    pub(crate) canonical: String,
    pub(crate) id: String,
    pub(crate) label: String,
}

impl KeyNames {
    pub(crate) fn of(key: &JobKey) -> Self {
        let canonical = key.canonical();
        KeyNames { id: id_of(&canonical), canonical, label: key.label() }
    }
}

/// 64-bit FNV-1a — names cache entries and checksums cache/journal
/// payloads. Public so thin clients can derive stable ids (e.g. a
/// sweep-service session id) with the exact hash the engine uses.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use regwin_core::{Concurrency, Granularity};

    fn spec() -> MatrixSpec {
        MatrixSpec {
            corpus: CorpusSpec::small(),
            behaviors: vec![Behavior::new(Concurrency::High, Granularity::Fine)],
            schemes: vec![SchemeKind::Sp],
            windows: vec![8],
            policy: SchedulingPolicy::Fifo,
            timing: TimingKind::S20,
        }
    }

    #[test]
    fn canonical_spells_out_every_field() {
        let s = spec();
        let key = JobKey::for_cell(&s, s.behaviors[0], SchemeKind::Sp, 8);
        let c = key.canonical();
        assert!(c.contains("exp=matrix"));
        assert!(c.contains("scheme=SP"));
        assert!(c.contains("policy=FIFO"));
        assert!(c.contains("w=8"));
        assert!(c.contains("m=1") && c.contains("n=1"));
        assert!(c.contains("timing=s20"));
        assert!(c.ends_with("|gen=-|fuzz=-"));
        assert!(c.starts_with(&format!("v{FORMAT_VERSION}|")));
    }

    #[test]
    fn gen_and_fuzz_dimensions_separate_ids() {
        let s = spec();
        let base = JobKey::for_cell(&s, s.behaviors[0], SchemeKind::Sp, 8);
        let gen = JobKey { gen: Some("seed=0x2a".to_string()), ..base.clone() };
        let fuzz = JobKey { fuzz: Some(0xBEEF), ..base.clone() };
        assert_ne!(base.id(), gen.id());
        assert_ne!(base.id(), fuzz.id());
        assert_ne!(gen.id(), fuzz.id());
        assert!(gen.canonical().contains("|gen=seed=0x2a|fuzz=-"));
        assert!(fuzz.canonical().ends_with("|gen=-|fuzz=0xbeef"));
    }

    #[test]
    fn different_cells_get_different_ids() {
        let s = spec();
        let a = JobKey::for_cell(&s, s.behaviors[0], SchemeKind::Sp, 8);
        let b = JobKey::for_cell(&s, s.behaviors[0], SchemeKind::Sp, 12);
        let c = JobKey::for_cell(&s, s.behaviors[0], SchemeKind::Ns, 8);
        assert_ne!(a.id(), b.id());
        assert_ne!(a.id(), c.id());
        assert_eq!(a.id().len(), 16);
    }

    #[test]
    fn same_config_same_id() {
        let s = spec();
        let a = JobKey::for_cell(&s, s.behaviors[0], SchemeKind::Snp, 16);
        let b = JobKey::for_cell(&s, s.behaviors[0], SchemeKind::Snp, 16);
        assert_eq!(a.id(), b.id());
        assert_eq!(a.canonical(), b.canonical());
    }

    #[test]
    fn fnv_matches_reference_vector() {
        // Standard FNV-1a test vector: "a" -> 0xaf63dc4c8601ec8c.
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    }
}
