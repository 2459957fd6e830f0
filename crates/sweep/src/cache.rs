//! The content-addressed result cache.
//!
//! One file per job, named by the key's FNV-1a id:
//! `<dir>/<id>.json` containing `{version, key, sum, report}`. The
//! canonical key string is stored alongside the report and verified on
//! load, so a (vanishingly unlikely) hash collision or a stale file
//! from an old format version degrades to a cache miss, never to wrong
//! data; `sum` is an FNV-1a content checksum of the serialized report,
//! so a truncated or bit-flipped entry is also a miss.
//!
//! The layout is canonical and the report comes last, so an entry's
//! report bytes are exactly the text between `,"report":` and the
//! closing brace. A load builds the entry's head (everything before the
//! report) once, checks it byte for byte against the file with the
//! sum's 16 hex digits compared in place, verifies the checksum over the
//! report bytes, and decodes the report straight from them with
//! [`crate::serial::report_from_json`], which builds no tree and reads
//! the fields in canonical order. The engine then hands those same
//! bytes to a daemon's `records` frame instead of serializing the
//! report again. An entry that is
//! valid JSON but not in canonical layout (hand-reformatted, say) is
//! therefore a miss and is reclaimed, never a wrong hit.
//!
//! Reclaiming an invalid entry is multi-client safe. A reader holding
//! stale bytes must never `remove_file` the slot directly: between its
//! failed validation and the delete, a concurrent [`ResultCache::store`]
//! may have atomically renamed *fresh* bytes into place, and the delete
//! would destroy them (a classic TOCTOU). Instead the reader renames
//! the slot aside to a process-unique quarantine name — atomically
//! capturing whatever the slot holds *now* — and re-validates the
//! captured bytes: if they turn out valid (the reader lost a race with
//! a fresh store), they are renamed straight back and served; only
//! bytes that are invalid *after* capture are deleted. Same-key stores
//! write byte-identical files (jobs are pure functions of their key),
//! so the rename-back can never clobber newer different data.

use crate::engine::write_file_atomic;
use crate::json::write_string;
use crate::key::{fnv1a, JobKey, KeyNames, FORMAT_VERSION};
use crate::serial::{report_from_json, report_to_json};
use regwin_rt::RunReport;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A directory of cached run reports.
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// A cache rooted at `dir` (created lazily on first store).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ResultCache { dir: dir.into() }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_for(&self, names: &KeyNames) -> PathBuf {
        self.dir.join(format!("{}.json", names.id))
    }

    /// Loads the cached report for `key`, or `None` on miss. Corrupt,
    /// truncated, checksum-mismatched, old-format or non-canonical
    /// entries count as misses and are reclaimed (so the next store
    /// rewrites the slot) — via `ResultCache::reclaim_invalid`, which
    /// re-validates before destroying anything, so a concurrent fresh
    /// store is never lost.
    pub fn load(&self, key: &JobKey) -> Option<RunReport> {
        self.load_verified(&KeyNames::of(key)).map(|(report, _)| report)
    }

    /// [`ResultCache::load`] for a key whose strings are built, also
    /// returning the entry's report bytes: the exact text the checksum
    /// was verified over and the report was decoded from.
    pub(crate) fn load_verified(&self, names: &KeyNames) -> Option<(RunReport, String)> {
        let path = self.path_for(names);
        let text = std::fs::read_to_string(&path).ok()?;
        decode_entry(text, &names.canonical).or_else(|| self.reclaim_invalid(&path, names))
    }

    /// Reclaims a slot whose bytes failed validation, without trusting
    /// the (possibly stale) view that failed: the slot is atomically
    /// renamed aside and the *captured* bytes re-validated. Captured
    /// bytes that validate mean the reader raced a fresh store — they
    /// are renamed back and served as a hit; captured bytes that are
    /// still invalid are deleted, freeing the slot. Returns the rescued
    /// report and its bytes, if any.
    fn reclaim_invalid(&self, path: &Path, names: &KeyNames) -> Option<(RunReport, String)> {
        // Process-unique + counter-unique, so concurrent reclaims (even
        // within one process) never collide on the quarantine name.
        static RECLAIM_SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = RECLAIM_SEQ.fetch_add(1, Ordering::Relaxed);
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "entry".to_string());
        let aside = path.with_file_name(format!("{name}.bad.{}.{seq}", std::process::id()));
        // The rename atomically captures whatever the slot holds right
        // now — which may already be fresher than what we read. If the
        // slot vanished (another reclaim won), there is nothing to do.
        if std::fs::rename(path, &aside).is_err() {
            return None;
        }
        let rescued =
            std::fs::read_to_string(&aside).ok().and_then(|c| decode_entry(c, &names.canonical));
        match rescued {
            Some(hit) => {
                // We captured a *fresh* entry a concurrent store just
                // published. Put it back; stores of the same key write
                // identical bytes, so clobbering an even newer one is
                // benign. A failed rename-back means the report is
                // still correct but the slot re-misses once — degrade,
                // don't destroy.
                if std::fs::rename(&aside, path).is_err() {
                    let _ = std::fs::remove_file(&aside);
                }
                Some(hit)
            }
            None => {
                // Invalid even after atomic capture: genuinely damaged.
                let _ = std::fs::remove_file(&aside);
                None
            }
        }
    }

    /// Stores `report` under `key`. Write failures are reported to
    /// stderr but do not fail the sweep — the cache is an accelerator,
    /// not a correctness dependency.
    pub fn store(&self, key: &JobKey, report: &RunReport) {
        self.store_json(&KeyNames::of(key), &report_to_json(report));
    }

    /// [`ResultCache::store`] for a key whose strings are built and a
    /// report already serialized by [`report_to_json`].
    pub(crate) fn store_json(&self, names: &KeyNames, report_json: &str) {
        if let Err(e) = std::fs::create_dir_all(&self.dir) {
            eprintln!("warning: cannot create cache dir {}: {e}", self.dir.display());
            return;
        }
        let mut entry = entry_head(&names.canonical, fnv1a(report_json.as_bytes()));
        entry.push_str(report_json);
        entry.push('}');
        let path = self.path_for(names);
        // Write-then-rename so a concurrent reader never sees a torn
        // entry (two workers may race to store the same key; both write
        // identical bytes, so either rename winning is fine).
        if let Err(e) = write_file_atomic(&path, &entry) {
            eprintln!("warning: cannot write cache entry {}: {e}", path.display());
        }
    }
}

/// What follows the sum in an entry's head.
const HEAD_TAIL: &str = "\",\"report\":";

/// Everything an entry holds before its report:
/// `{"version":V,"key":"<canonical>","sum":"<16 hex>","report":`. The
/// one encoder of the entry layout, used to write entries and to check
/// them.
fn entry_head(canonical: &str, sum: u64) -> String {
    let mut head = format!("{{\"version\":{FORMAT_VERSION},\"key\":");
    write_string(canonical, &mut head);
    head.push_str(&format!(",\"sum\":\"{sum:016x}{HEAD_TAIL}"));
    head
}

/// Validates one cache file's text against the key whose canonical
/// string is `canonical` and returns the decoded report with its bytes.
/// The head must be byte-identical to the one a store of that key
/// writes — which checks the format version, the canonical key and the
/// canonical layout at once — the text must end with the entry's
/// closing brace, and the bytes in between must hash to the head's
/// `sum` and decode as a report.
fn decode_entry(mut text: String, canonical: &str) -> Option<(RunReport, String)> {
    // Built once with a zero sum: every sum renders as 16 hex digits,
    // so the real head differs from this one only in those digits.
    let head = entry_head(canonical, 0);
    let sum_end = head.len() - HEAD_TAIL.len();
    let sum_start = sum_end - 16;
    if text.len() <= head.len() || !text.ends_with('}') || !text.is_char_boundary(head.len()) {
        return None;
    }
    let (bytes, want) = (text.as_bytes(), head.as_bytes());
    let sum = fnv1a(&bytes[head.len()..text.len() - 1]);
    let hex = (0..16).rev().map(|digit| b"0123456789abcdef"[(sum >> (4 * digit)) as usize & 0xf]);
    if bytes[..sum_start] != want[..sum_start]
        || bytes[sum_end..head.len()] != want[sum_end..]
        || !bytes[sum_start..sum_end].iter().copied().eq(hex)
    {
        return None;
    }
    text.truncate(text.len() - 1);
    text.drain(..head.len());
    let report = report_from_json(&text).ok()?;
    Some((report, text))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::oracle::{damaged, report_from_value};
    use regwin_core::{Behavior, Concurrency, Granularity, MatrixSpec};
    use regwin_machine::{SchemeKind, TimingKind};
    use regwin_rt::SchedulingPolicy;
    use regwin_spell::{CorpusSpec, SpellConfig, SpellPipeline};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("regwin-sweep-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_key() -> JobKey {
        let spec = MatrixSpec {
            corpus: CorpusSpec::small(),
            behaviors: vec![Behavior::new(Concurrency::High, Granularity::Medium)],
            schemes: vec![SchemeKind::Sp],
            windows: vec![8],
            policy: SchedulingPolicy::Fifo,
            timing: TimingKind::S20,
        };
        JobKey::for_cell(&spec, spec.behaviors[0], SchemeKind::Sp, 8)
    }

    #[test]
    fn store_then_load_roundtrips() {
        let cache = ResultCache::new(tmpdir("roundtrip"));
        let key = sample_key();
        assert!(cache.load(&key).is_none(), "fresh cache must miss");
        let report =
            SpellPipeline::new(SpellConfig::small()).run(8, SchemeKind::Sp).unwrap().report;
        cache.store(&key, &report);
        let loaded = cache.load(&key).expect("hit after store");
        assert_eq!(loaded.total_cycles(), report.total_cycles());
        assert_eq!(loaded.stats, report.stats);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn mismatched_canonical_key_is_a_miss() {
        let cache = ResultCache::new(tmpdir("mismatch"));
        let key = sample_key();
        let report =
            SpellPipeline::new(SpellConfig::small()).run(8, SchemeKind::Sp).unwrap().report;
        cache.store(&key, &report);
        // Simulate a hash collision: same file name, different canonical.
        let mut other = key.clone();
        other.experiment = "other-experiment".into();
        let entry_path = cache.dir().join(format!("{}.json", other.id()));
        std::fs::copy(cache.dir().join(format!("{}.json", key.id())), entry_path).unwrap();
        assert!(cache.load(&other).is_none(), "canonical-key check must reject");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn corrupt_entry_is_a_miss_and_is_deleted() {
        let cache = ResultCache::new(tmpdir("corrupt"));
        let key = sample_key();
        std::fs::create_dir_all(cache.dir()).unwrap();
        let path = cache.dir().join(format!("{}.json", key.id()));
        std::fs::write(&path, "{not json").unwrap();
        assert!(cache.load(&key).is_none());
        assert!(!path.exists(), "corrupt entry must be deleted so the slot can be rewritten");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn truncated_entry_with_valid_json_prefix_is_a_miss() {
        let cache = ResultCache::new(tmpdir("truncated"));
        let key = sample_key();
        let report =
            SpellPipeline::new(SpellConfig::small()).run(8, SchemeKind::Sp).unwrap().report;
        cache.store(&key, &report);
        let path = cache.dir().join(format!("{}.json", key.id()));
        // A crash mid-write could leave a prefix; chop the entry so it
        // is damaged even if the prefix happens to still parse.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert!(cache.load(&key).is_none());
        assert!(!path.exists());
        // The slot rewrites cleanly and hits again.
        cache.store(&key, &report);
        assert!(cache.load(&key).is_some());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn stale_reader_reclaim_cannot_delete_a_freshly_stored_entry() {
        // The TOCTOU regression pin: a reader that validated *stale*
        // bytes (garbage) reaches its reclaim step only after a
        // concurrent store has renamed fresh bytes into the slot. The
        // old code did `remove_file` here and destroyed the fresh
        // entry; reclaim must rescue it instead.
        let cache = ResultCache::new(tmpdir("toctou"));
        let key = sample_key();
        std::fs::create_dir_all(cache.dir()).unwrap();
        let path = cache.dir().join(format!("{}.json", key.id()));
        // The reader's stale view: garbage that fails validation.
        std::fs::write(&path, "{not json").unwrap();
        let stale_text = std::fs::read_to_string(&path).unwrap();
        assert!(
            decode_entry(stale_text, &key.canonical()).is_none(),
            "reader's view must be invalid"
        );
        // Concurrent store lands fresh bytes before the reader acts.
        let report =
            SpellPipeline::new(SpellConfig::small()).run(8, SchemeKind::Sp).unwrap().report;
        cache.store(&key, &report);
        // The reader's delayed reclaim step must not lose the entry —
        // and rescues it as a hit.
        let rescued = cache.reclaim_invalid(&path, &KeyNames::of(&key));
        assert_eq!(
            rescued.map(|(r, _)| r.total_cycles()),
            Some(report.total_cycles()),
            "reclaim must rescue the freshly stored entry"
        );
        assert!(path.exists(), "the fresh entry must survive the stale reader");
        assert!(cache.load(&key).is_some(), "slot must still hit");
        // No quarantine litter left behind.
        let litter: Vec<_> = std::fs::read_dir(cache.dir())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".bad."))
            .collect();
        assert!(litter.is_empty(), "rescue must not leave quarantine files: {litter:?}");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn concurrent_store_and_corrupt_load_never_lose_an_entry() {
        // Racing hammer over one slot: one thread repeatedly stores the
        // good entry, another repeatedly corrupts the slot and loads
        // (triggering reclaim). After the dust settles a final store
        // must always leave a loadable entry — reclaim may only ever
        // delete invalid bytes.
        let cache = ResultCache::new(tmpdir("race"));
        let key = sample_key();
        let report =
            SpellPipeline::new(SpellConfig::small()).run(8, SchemeKind::Sp).unwrap().report;
        cache.store(&key, &report);
        let path = cache.dir().join(format!("{}.json", key.id()));
        let want_cycles = report.total_cycles();
        std::thread::scope(|scope| {
            let storer = scope.spawn(|| {
                for _ in 0..200 {
                    cache.store(&key, &report);
                }
            });
            let corrupter = scope.spawn(|| {
                for i in 0..200 {
                    if i % 3 == 0 {
                        let _ = std::fs::write(&path, "{torn");
                    }
                    // Loads must only ever be the real report or a
                    // (transient) miss — never junk.
                    if let Some(r) = cache.load(&key) {
                        assert_eq!(r.total_cycles(), want_cycles);
                    }
                }
            });
            storer.join().unwrap();
            corrupter.join().unwrap();
        });
        cache.store(&key, &report);
        assert!(cache.load(&key).is_some(), "a final store must always leave a hit");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn a_hit_returns_the_exact_bytes_its_checksum_covers() {
        let cache = ResultCache::new(tmpdir("bytes"));
        let key = sample_key();
        let report =
            SpellPipeline::new(SpellConfig::small()).run(8, SchemeKind::Sp).unwrap().report;
        cache.store(&key, &report);
        let (loaded, bytes) = cache.load_verified(&KeyNames::of(&key)).expect("hit after store");
        assert_eq!(loaded, report);
        assert_eq!(bytes, report_to_json(&report));
        let text = std::fs::read_to_string(cache.dir().join(format!("{}.json", key.id()))).unwrap();
        assert!(text.ends_with(&format!(",\"report\":{bytes}}}")), "the report is stored last");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn a_reformatted_entry_is_a_miss_and_is_rewritten_canonically() {
        let cache = ResultCache::new(tmpdir("reformatted"));
        let key = sample_key();
        let report =
            SpellPipeline::new(SpellConfig::small()).run(8, SchemeKind::Sp).unwrap().report;
        cache.store(&key, &report);
        let path = cache.dir().join(format!("{}.json", key.id()));
        let canonical = std::fs::read_to_string(&path).unwrap();
        // Still valid JSON with the right version, key, checksum and
        // report, but no longer in canonical layout: whitespace after
        // the envelope's separators, the fields reordered, and a
        // trailing newline.
        let v = crate::json::parse(&canonical).unwrap();
        let reordered = crate::json::Value::Obj(
            ["report", "sum", "key", "version"]
                .iter()
                .map(|&k| (k.to_string(), v.get(k).unwrap().clone()))
                .collect(),
        )
        .to_json();
        for edited in
            [canonical.replacen("\",\"", "\", \"", 1), format!("{canonical}\n"), reordered]
        {
            assert_eq!(crate::json::parse(&edited).unwrap().get("sum"), v.get("sum"));
            std::fs::write(&path, &edited).unwrap();
            assert!(cache.load(&key).is_none(), "non-canonical entry must miss: {edited:.60}");
            assert!(!path.exists(), "the non-canonical entry must be reclaimed");
            cache.store(&key, &report);
            assert_eq!(std::fs::read_to_string(&path).unwrap(), canonical);
            assert_eq!(cache.load(&key).as_ref(), Some(&report));
        }
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn bit_flipped_report_fails_the_content_checksum() {
        let cache = ResultCache::new(tmpdir("bitflip"));
        let key = sample_key();
        let report =
            SpellPipeline::new(SpellConfig::small()).run(8, SchemeKind::Sp).unwrap().report;
        cache.store(&key, &report);
        let path = cache.dir().join(format!("{}.json", key.id()));
        // Tamper inside the report payload only: the file is still
        // valid JSON with the right version and key, so only the
        // content checksum can catch it.
        let text = std::fs::read_to_string(&path).unwrap();
        let needle = format!("\"saves_executed\":{}", report.stats.saves_executed);
        let tampered = text
            .replace(&needle, &format!("\"saves_executed\":{}", report.stats.saves_executed + 1));
        assert_ne!(text, tampered, "test must actually tamper");
        std::fs::write(&path, tampered).unwrap();
        assert!(cache.load(&key).is_none());
        assert!(!path.exists());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    /// The load the pull path replaced: parse the whole entry, check its
    /// version, its key and the sum over the report's re-serialization,
    /// and walk the tree.
    fn tree_load(text: &str, key: &JobKey) -> Option<RunReport> {
        let v = crate::json::parse(text).ok()?;
        let report = v.get("report")?;
        let sum = u64::from_str_radix(v.get("sum")?.as_str()?, 16).ok()?;
        let valid = v.get("version")?.as_u64()? == u64::from(FORMAT_VERSION)
            && v.get("key")?.as_str()? == key.canonical()
            && sum == fnv1a(report.to_json().as_bytes());
        valid.then(|| report_from_value(report).ok()).flatten()
    }

    #[test]
    fn damaged_entries_load_like_the_tree_or_miss() {
        let cache = ResultCache::new(tmpdir("damage"));
        let key = sample_key();
        let report =
            SpellPipeline::new(SpellConfig::small()).run(8, SchemeKind::Sp).unwrap().report;
        cache.store(&key, &report);
        let text = std::fs::read_to_string(cache.dir().join(format!("{}.json", key.id()))).unwrap();
        assert_eq!(
            decode_entry(text.clone(), &key.canonical()).map(|(r, _)| r).as_ref(),
            Some(&report)
        );
        assert_eq!(tree_load(&text, &key).as_ref(), Some(&report));
        for d in damaged(&text) {
            if let Some((loaded, bytes)) = decode_entry(d.clone(), &key.canonical()) {
                assert_eq!(Some(loaded), tree_load(&d, &key), "{d}");
                assert!(d.ends_with(&format!("{bytes}}}")), "the bytes are the entry's report");
            }
        }
        let _ = std::fs::remove_dir_all(cache.dir());
    }
}
