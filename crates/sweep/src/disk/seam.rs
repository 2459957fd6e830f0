//! The test-only fault seam behind every disk operation.
//!
//! A test installs a [`Seam`] on a root directory. From then on every
//! operation the disk module makes on a path under that root is
//! recorded in order, and one of them can be made to go wrong
//! ([`Fault`]). Operations under other roots, such as those of tests
//! running in parallel, pass untouched.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// One kind of disk operation, as the seam records it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    /// Creating a directory and its parents.
    Mkdir,
    /// Opening or creating a file.
    Open,
    /// Reading a file, or the last byte of a journal being opened.
    Read,
    /// Writing bytes to an open file.
    Write,
    /// Renaming a temporary file into place.
    Rename,
    /// `sync_data` on an appended file.
    Sync,
    /// Taking a kernel file lock.
    Lock,
    /// Checking that a locked file is the one at its path.
    Stat,
    /// Removing a file.
    Remove,
}

/// What goes wrong at an operation index under the seam's root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fault {
    /// Nothing: the seam only records.
    None,
    /// The N-th operation returns an I/O error and has no effect; later
    /// ones run.
    Fail(usize),
    /// A write at N keeps a prefix of its bytes (its length drawn by
    /// splitmix64 from the seed), any other operation at N does nothing,
    /// and every later operation fails, as after a `kill -9` at N.
    TearThenDie(usize),
}

struct Plan {
    root: PathBuf,
    fault: Fault,
    seed: u64,
    ops: Vec<Op>,
    dead: bool,
}

static PLANS: Mutex<Vec<Plan>> = Mutex::new(Vec::new());

/// The seam on one root directory, removed when dropped.
pub(crate) struct Seam {
    root: PathBuf,
}

impl Seam {
    /// Puts `fault` on the operations under `root`.
    pub(crate) fn install(root: &Path, fault: Fault, seed: u64) -> Seam {
        let root = root.to_path_buf();
        let plan = Plan { root: root.clone(), fault, seed, ops: Vec::new(), dead: false };
        plans().push(plan);
        Seam { root }
    }

    /// The operations made under the root so far, in order.
    pub(crate) fn ops(&self) -> Vec<Op> {
        plans().iter().find(|p| p.root == self.root).map(|p| p.ops.clone()).unwrap_or_default()
    }
}

impl Drop for Seam {
    fn drop(&mut self) {
        plans().retain(|p| p.root != self.root);
    }
}

fn plans() -> std::sync::MutexGuard<'static, Vec<Plan>> {
    PLANS.lock().unwrap_or_else(|e| e.into_inner())
}

/// The error an injected fault returns.
pub(super) fn injected() -> io::Error {
    io::Error::other("injected disk fault")
}

/// Records `op` on `path` and fails it if the seam says so.
pub(super) fn guard(op: Op, path: &Path) -> io::Result<()> {
    match verdict(op, path, 0) {
        Some(_) => Err(injected()),
        None => Ok(()),
    }
}

/// Records a write of `len` bytes to `path`: `Ok(Some(kept))` when the
/// write is torn after `kept` bytes, an error when it fails outright.
pub(super) fn tear(path: &Path, len: usize) -> io::Result<Option<usize>> {
    match verdict(Op::Write, path, len) {
        Some(Some(kept)) => Ok(Some(kept)),
        Some(None) => Err(injected()),
        None => Ok(None),
    }
}

/// `None` to go ahead, `Some(None)` to fail, `Some(Some(kept))` to keep
/// `kept` bytes of a write and die.
fn verdict(op: Op, path: &Path, len: usize) -> Option<Option<usize>> {
    let mut plans = plans();
    let plan = plans.iter_mut().find(|p| path.starts_with(&p.root))?;
    let n = plan.ops.len();
    plan.ops.push(op);
    if plan.dead {
        return Some(None);
    }
    match plan.fault {
        Fault::Fail(at) if at == n => Some(None),
        Fault::TearThenDie(at) if at == n => {
            plan.dead = true;
            let kept = splitmix64(plan.seed ^ n as u64) % (len as u64).max(1);
            Some((op == Op::Write).then_some(kept as usize))
        }
        _ => None,
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ResultCache;
    use crate::engine::{SweepConfig, SweepEngine};
    use crate::journal::replay_journal;
    use crate::json::{parse, Value};
    use crate::key::JobKey;
    use crate::serial::records_to_json;
    use regwin_core::{Behavior, Concurrency, Granularity, MatrixSpec};
    use regwin_machine::{SchemeKind, TimingKind};
    use regwin_rt::SchedulingPolicy;
    use regwin_spell::{CorpusSpec, SpellConfig, SpellPipeline};
    use std::time::Instant;

    fn spec() -> MatrixSpec {
        MatrixSpec {
            corpus: CorpusSpec::small(),
            behaviors: vec![Behavior::new(Concurrency::High, Granularity::Medium)],
            schemes: vec![SchemeKind::Ns, SchemeKind::Sp],
            windows: vec![8],
            policy: SchedulingPolicy::Fifo,
            timing: TimingKind::S20,
        }
    }

    fn keys() -> Vec<JobKey> {
        let spec = spec();
        let mut keys = Vec::new();
        for &scheme in &spec.schemes {
            for &nwindows in &spec.windows {
                keys.push(JobKey::for_cell(&spec, spec.behaviors[0], scheme, nwindows));
            }
        }
        keys
    }

    /// One sweep's state directory: a cache and an output directory
    /// holding the artifact and its journal.
    struct Dirs {
        root: PathBuf,
        cache: PathBuf,
        journal: PathBuf,
        artifact: PathBuf,
    }

    impl Dirs {
        fn fresh(tag: &str) -> Dirs {
            let root =
                std::env::temp_dir().join(format!("regwin-disk-seam-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&root);
            let out = root.join("out");
            Dirs {
                cache: root.join("cache"),
                journal: out.join("BENCH_sweep.json.journal.jsonl"),
                artifact: out.join("BENCH_sweep.json"),
                root,
            }
        }
    }

    /// A finished run's records and the artifact bytes it wrote, or its
    /// typed error.
    type Outcome = Result<(String, String), String>;

    /// The journaled sweep of CI's `resume-smoke`, on one worker so that
    /// its disk operations come in one order: a journal beside the
    /// artifact, with or without a cache.
    fn run(dirs: &Dirs, cached: bool, resume: bool) -> Outcome {
        let mut config = SweepConfig::builder().workers(1).journal(&dirs.journal).resume(resume);
        if cached {
            config = config.cache_dir(&dirs.cache);
        }
        let engine = SweepEngine::try_with_config(config.build().expect("a valid config"))
            .map_err(|e| e.to_string())?;
        let records = engine.run_matrix(&spec()).map_err(|e| e.to_string())?;
        engine.write_artifact(&dirs.artifact).map_err(|e| e.to_string())?;
        let artifact = std::fs::read_to_string(&dirs.artifact).map_err(|e| e.to_string())?;
        Ok((records_to_json(&records), artifact))
    }

    /// A crash leaves no torn file at a final path: the artifact is
    /// absent or whole, every cache entry loads and the wall hints
    /// parse. Temporaries and lock files may be left.
    fn assert_whole_at_final_paths(dirs: &Dirs, artifact: &str, context: &str) {
        if let Ok(text) = std::fs::read_to_string(&dirs.artifact) {
            assert_eq!(text, artifact, "{context}: a torn artifact");
        }
        let Ok(entries) = std::fs::read_dir(&dirs.cache) else { return };
        let (cache, keys) = (ResultCache::new(&dirs.cache), keys());
        for entry in entries {
            let name = entry.unwrap().file_name().to_string_lossy().into_owned();
            if name.contains(".tmp.") || name.ends_with(".lock") {
                continue;
            }
            if name == "wall_hints.json" {
                let text = std::fs::read_to_string(dirs.cache.join(&name)).unwrap();
                assert!(matches!(parse(&text), Ok(Value::Obj(_))), "{context}: torn hints");
                continue;
            }
            let key = keys.iter().find(|k| format!("{}.json", k.id()) == name);
            let key = key.unwrap_or_else(|| panic!("{context}: a stray file {name}"));
            assert!(cache.load(key).is_some(), "{context}: a torn cache entry {name}");
        }
    }

    /// After a resume every job has a durable record, a journal line or
    /// a cache entry that loads, and the journal's lock file is gone.
    fn assert_every_job_recorded(dirs: &Dirs, cached: bool, context: &str) {
        let (replay, cache) = (replay_journal(&dirs.journal), ResultCache::new(&dirs.cache));
        for key in keys() {
            let journaled = replay.jobs.contains_key(&key.canonical());
            assert!(journaled || (cached && cache.load(&key).is_some()), "{context}: {key:?}");
        }
        let lock = format!("{}.lock", dirs.journal.display());
        assert!(!Path::new(&lock).exists(), "{context}: the resume left the lock file");
    }

    /// Every operation index of the journaled sweep, with a cache and
    /// without one, fails once (the run goes on) and tears then dies
    /// (as after `kill -9`). A run ends with the uninterrupted run's
    /// records and artifact or a typed error, a crash leaves no torn
    /// file at a final path, and a fresh fault-free engine resumes each
    /// state to the uninterrupted run's bytes, with a durable record of
    /// every job.
    #[test]
    fn every_crash_point_of_a_journaled_sweep_resumes_byte_identically() {
        let t0 = Instant::now();
        let reference_dirs = Dirs::fresh("reference");
        let reference = run(&reference_dirs, false, false).expect("a fault-free run");
        let _ = std::fs::remove_dir_all(&reference_dirs.root);
        let mut enumerated = Vec::new();
        for cached in [false, true] {
            let tag = if cached { "cached" } else { "uncached" };
            let dirs = Dirs::fresh(tag);
            let seam = Seam::install(&dirs.root, Fault::None, 0);
            assert_eq!(run(&dirs, cached, false).as_ref(), Ok(&reference), "{tag}");
            let total = seam.ops().len();
            drop(seam);
            for n in 0..total {
                for fault in [Fault::Fail(n), Fault::TearThenDie(n)] {
                    let dirs = Dirs::fresh(tag);
                    let context = format!("{tag} {fault:?} of {total}");
                    let seam = Seam::install(&dirs.root, fault, 0x5eed_0000 + n as u64);
                    let outcome = run(&dirs, cached, false);
                    drop(seam);
                    if let Ok(own) = &outcome {
                        assert_eq!(own, &reference, "{context}: a silently different result");
                    }
                    assert_whole_at_final_paths(&dirs, &reference.1, &context);
                    let resumed = run(&dirs, cached, true);
                    assert_eq!(resumed.as_ref(), Ok(&reference), "{context}: the resume");
                    assert_every_job_recorded(&dirs, cached, &context);
                }
            }
            enumerated.push(format!("{tag} {total}"));
            let _ = std::fs::remove_dir_all(&dirs.root);
        }
        let secs = t0.elapsed().as_secs_f64();
        println!(
            "operations enumerated ({}), two faults each, in {secs:.1} s",
            enumerated.join(", ")
        );
    }

    #[test]
    fn a_cold_cache_store_is_one_mkdir_a_write_and_a_rename() {
        let dirs = Dirs::fresh("cold-store");
        let report =
            SpellPipeline::new(SpellConfig::small()).run(8, SchemeKind::Sp).unwrap().report;
        let seam = Seam::install(&dirs.root, Fault::None, 0);
        ResultCache::new(&dirs.cache).store(&keys()[0], &report);
        assert_eq!(seam.ops(), [Op::Mkdir, Op::Open, Op::Write, Op::Rename]);
        drop(seam);
        let _ = std::fs::remove_dir_all(&dirs.root);
    }

    /// A daemon session's engine on a warm cache: it replays its journal
    /// (there is none), takes the journal's lock, reads each hit's entry
    /// and removes the lock file, and creates one directory.
    #[test]
    fn a_warm_journaled_session_costs_its_lock_and_one_read_per_hit() {
        let dirs = Dirs::fresh("warm-session");
        let config = SweepConfig::builder().workers(1).cache_dir(&dirs.cache);
        let cold = SweepEngine::with_config(config.clone().build().unwrap());
        cold.run_matrix(&spec()).unwrap();
        let session = config.deterministic_artifact(true).journal(&dirs.journal).resume(true);
        let seam = Seam::install(&dirs.root, Fault::None, 0);
        let warm = SweepEngine::try_with_config(session.build().unwrap()).unwrap();
        assert_eq!(warm.run_matrix(&spec()).unwrap().len(), keys().len());
        drop(warm);
        let mut want = vec![Op::Read, Op::Mkdir, Op::Open, Op::Lock, Op::Stat];
        want.extend(vec![Op::Read; keys().len()]);
        want.push(Op::Remove);
        assert_eq!(seam.ops(), want);
        drop(seam);
        let _ = std::fs::remove_dir_all(&dirs.root);
    }
}
