//! Crash-safe write-ahead journal for resumable sweeps.
//!
//! Alongside the `BENCH_sweep.json` artifact the engine can keep a
//! `*.journal.jsonl` file: one checksummed JSON line per executed or
//! quarantined job, appended and fsync'd the moment the job finishes. A
//! cache hit writes no line. Its durable record is the cache entry it
//! was served from, which was written to a temporary file, renamed into
//! place and is checked by its checksum on every load. Killing a sweep
//! at any instant (including `kill -9` mid-append) therefore loses at
//! most the in-flight jobs: on `--resume` the journal is replayed,
//! executed jobs are served from their journaled reports, hits are
//! hits again, and only the unfinished remainder re-runs. A hit whose
//! entry vanished before the resume re-runs too; runs are
//! deterministic and a journaled sweep's artifact carries no hit/miss
//! flags, so the resumed artifact is still byte-identical. A torn final
//! line (the only kind of damage an append-then-fsync discipline can
//! leave) fails its checksum and is skipped.
//!
//! Line format: `{"sum":"<16-hex>","payload":{...}}` where `sum` is the
//! FNV-1a hash of the payload bytes exactly as written. Payloads carry a
//! `"type"` of `"job"` (a [`JobRecord`] plus its full [`RunReport`]) or
//! `"quarantine"` (a [`QuarantineRecord`]).
//!
//! Replay builds no tree. It checks each line's sum over the payload
//! bytes as they stand in the file, then decodes the payload straight
//! from that text with [`crate::json`]'s pull reader, in the field order
//! the journal writes. A line that is not in that canonical layout
//! (whitespace added, fields reordered, an unknown field) is skipped the
//! same way a torn line is.
//!
//! A job payload's report is never re-encoded for the journal: it is
//! embedded verbatim as the executed job's one serialization by
//! [`crate::serial::report_to_json`], shared with its cache store, so
//! the line is byte-identical to the one [`SweepJournal::append_job`]
//! writes for the decoded report.

//! A journal is a **single-writer** file: two engines appending to the
//! same path would interleave torn lines and corrupt each other's
//! resume state. Opening one therefore takes a pid-stamped advisory
//! lock (`<path>.lock`, see [`crate::lock::DirLock`]) and fails
//! typed — [`JournalOpenError::Busy`] — while another live engine holds
//! it; a holder that died without releasing (kill -9) is detected as
//! stale and its lock is stolen, which is what keeps the
//! kill-and-resume path working.

use crate::engine::{JobRecord, QuarantineRecord};
use crate::json::{obj, ParseError, Reader, Value};
use crate::key::{fnv1a, FORMAT_VERSION};
use crate::lock::DirLock;
use crate::serial::{read_report, report_to_json, DecodeError};
use regwin_rt::RunReport;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// An append-only, fsync'd journal of completed sweep jobs. Holds the
/// journal's single-writer advisory lock for its lifetime.
#[derive(Debug)]
pub struct SweepJournal {
    /// The open file: `None` until a resumed journal's first append
    /// opens it, so a session that journals nothing creates no file.
    file: Mutex<Option<File>>,
    path: PathBuf,
    /// Released (file removed) when the journal drops.
    _lock: DirLock,
}

/// Why a journal could not be opened.
#[derive(Debug)]
pub enum JournalOpenError {
    /// Another live engine holds the journal's single-writer lock.
    Busy {
        /// The journal path that is busy.
        path: PathBuf,
    },
    /// A filesystem operation failed.
    Io(std::io::Error),
}

impl std::fmt::Display for JournalOpenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalOpenError::Busy { path } => {
                write!(f, "journal {} is locked by another live sweep engine", path.display())
            }
            JournalOpenError::Io(e) => write!(f, "journal i/o error: {e}"),
        }
    }
}

impl std::error::Error for JournalOpenError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalOpenError::Io(e) => Some(e),
            JournalOpenError::Busy { .. } => None,
        }
    }
}

impl From<std::io::Error> for JournalOpenError {
    fn from(e: std::io::Error) -> Self {
        JournalOpenError::Io(e)
    }
}

/// Takes the journal's single-writer lock at `<path>.lock`.
fn lock_journal(path: &Path) -> Result<DirLock, JournalOpenError> {
    let mut lock_name = path.as_os_str().to_owned();
    lock_name.push(".lock");
    match DirLock::try_acquire(PathBuf::from(lock_name))? {
        Some(lock) => Ok(lock),
        None => Err(JournalOpenError::Busy { path: path.to_path_buf() }),
    }
}

/// Everything a journal knew at the moment of the crash: finished jobs
/// keyed by canonical key string, plus the quarantine log.
#[derive(Debug, Default)]
pub struct JournalReplay {
    /// Completed jobs: canonical key → (log record, full report).
    pub jobs: BTreeMap<String, (JobRecord, RunReport)>,
    /// Jobs the crashed run had already given up on.
    pub quarantined: Vec<QuarantineRecord>,
}

impl SweepJournal {
    /// Starts a fresh journal at `path`, truncating any previous one.
    ///
    /// # Errors
    ///
    /// [`JournalOpenError::Busy`] when another live engine holds the
    /// journal's single-writer lock; filesystem errors otherwise.
    pub fn create(path: impl Into<PathBuf>) -> Result<Self, JournalOpenError> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let lock = lock_journal(&path)?;
        let file = File::create(&path)?;
        Ok(SweepJournal { file: Mutex::new(Some(file)), path, _lock: lock })
    }

    /// Reopens an existing journal at `path` for appending (resume). The
    /// single-writer lock is taken now; the file is opened (and created
    /// if missing) at the first append.
    ///
    /// # Errors
    ///
    /// [`JournalOpenError::Busy`] when another live engine holds the
    /// journal's single-writer lock; filesystem errors otherwise.
    pub fn append_to(path: impl Into<PathBuf>) -> Result<Self, JournalOpenError> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let lock = lock_journal(&path)?;
        Ok(SweepJournal { file: Mutex::new(None), path, _lock: lock })
    }

    /// Opens the journal file for appending, creating it if missing. A
    /// kill -9 mid-append can leave a torn, newline-less final line;
    /// terminate it so fresh appends start a new line (the torn one then
    /// simply fails its checksum on the next replay) instead of gluing
    /// onto the garbage and corrupting themselves.
    fn open_for_append(&self) -> std::io::Result<File> {
        let torn_tail = std::fs::read(&self.path)
            .map(|bytes| bytes.last().is_some_and(|&b| b != b'\n'))
            .unwrap_or(false);
        let mut file = OpenOptions::new().create(true).append(true).open(&self.path)?;
        if torn_tail {
            file.write_all(b"\n")?;
        }
        Ok(file)
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Journals one completed job (record plus its full report).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; the line is flushed and fsync'd
    /// before this returns, so a success means the entry survives
    /// `kill -9`.
    pub fn append_job(&self, record: &JobRecord, report: &RunReport) -> std::io::Result<()> {
        self.append_encoded(record, &report_to_json(report))
    }

    /// [`SweepJournal::append_job`] for a report already serialized by
    /// [`report_to_json`], embedded verbatim.
    pub(crate) fn append_encoded(
        &self,
        record: &JobRecord,
        report_json: &str,
    ) -> std::io::Result<()> {
        self.append_payload(obj(vec![
            ("type", Value::Str("job".into())),
            ("version", Value::Int(u64::from(FORMAT_VERSION))),
            ("id", Value::Str(record.id.clone())),
            ("key", Value::Str(record.key.clone())),
            ("label", Value::Str(record.label.clone())),
            ("cache", Value::Str(if record.cache_hit { "hit" } else { "miss" }.into())),
            ("total_cycles", Value::Int(record.total_cycles)),
            ("report", Value::Raw(report_json.to_string())),
        ]))
    }

    /// Journals one quarantined job.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (flushed and fsync'd like
    /// [`SweepJournal::append_job`]).
    pub fn append_quarantine(&self, q: &QuarantineRecord) -> std::io::Result<()> {
        self.append_payload(obj(vec![
            ("type", Value::Str("quarantine".into())),
            ("version", Value::Int(u64::from(FORMAT_VERSION))),
            ("id", Value::Str(q.id.clone())),
            ("key", Value::Str(q.key.clone())),
            ("label", Value::Str(q.label.clone())),
            ("reason", Value::Str(q.reason.into())),
            ("attempts", Value::Int(u64::from(q.attempts))),
            ("detail", Value::Str(q.detail.clone())),
            ("repro", Value::Str(q.repro.clone())),
        ]))
    }

    /// Appends one checksummed line and fsyncs it.
    fn append_payload(&self, payload: Value) -> std::io::Result<()> {
        let payload_text = payload.to_json();
        let sum = fnv1a(payload_text.as_bytes());
        let line = format!("{{\"sum\":\"{sum:016x}\",\"payload\":{payload_text}}}\n");
        // Poison recovery: a panicking appender can at worst leave a
        // torn final line, which replay already skips by checksum.
        let mut guard = self.file.lock().unwrap_or_else(|e| e.into_inner());
        let file = match &mut *guard {
            Some(file) => file,
            None => guard.insert(self.open_for_append()?),
        };
        file.write_all(line.as_bytes())?;
        file.flush()?;
        file.sync_data()
    }
}

/// Replays a journal: checksummed, canonical, current-format lines
/// become finished jobs or quarantine records; torn, non-canonical or
/// stale lines are skipped. A missing file replays as empty (nothing
/// was finished).
pub fn replay_journal(path: &Path) -> JournalReplay {
    let mut replay = JournalReplay::default();
    let Ok(bytes) = std::fs::read(path) else {
        return replay;
    };
    // A damaged byte that is not UTF-8 fails its own line's checksum,
    // not the whole journal.
    for line in String::from_utf8_lossy(&bytes).lines() {
        match decode_line(line) {
            Some(Entry::Job(record, report)) => {
                replay.jobs.insert(record.key.clone(), (record, *report));
            }
            Some(Entry::Quarantine(q)) => replay.quarantined.push(q),
            None => {}
        }
    }
    replay
}

/// One replayed journal line.
enum Entry {
    Job(JobRecord, Box<RunReport>),
    Quarantine(QuarantineRecord),
}

/// Decodes one journal line, or `None` to skip it. The line must be in
/// the exact layout [`SweepJournal`] writes, `{"sum":"<16 hex>",
/// "payload":<payload>}` with no whitespace, and the sum must match the
/// payload bytes exactly as they were written. The payload is then
/// decoded straight from its text, in the order it was written; a
/// payload from another format version is skipped.
fn decode_line(line: &str) -> Option<Entry> {
    let (hex, rest) = line.strip_prefix("{\"sum\":\"")?.split_at_checked(16)?;
    let payload = rest.strip_prefix("\",\"payload\":")?.strip_suffix('}')?;
    if hex != format!("{:016x}", fnv1a(payload.as_bytes())) {
        return None;
    }
    decode_payload(payload).ok()
}

/// Reads the string member named `key`.
fn string_member(r: &mut Reader<'_>, key: &str) -> Result<String, ParseError> {
    r.key(key)?;
    Ok(r.str()?.into_owned())
}

/// Decodes a checksummed payload of this build's format version.
fn decode_payload(payload: &str) -> Result<Entry, DecodeError> {
    let mut r = Reader::new(payload);
    r.begin_object()?;
    r.key("type")?;
    let kind = r.str()?;
    r.key("version")?;
    let version = r.u64()?;
    if version != u64::from(FORMAT_VERSION) {
        return Err(DecodeError(format!("format version {version}")));
    }
    let (id, key, label) = (
        string_member(&mut r, "id")?,
        string_member(&mut r, "key")?,
        string_member(&mut r, "label")?,
    );
    let entry = match &*kind {
        "job" => {
            let cache_hit = string_member(&mut r, "cache")? == "hit";
            r.key("total_cycles")?;
            let total_cycles = r.u64()?;
            r.key("report")?;
            let report = read_report(&mut r)?;
            let record = JobRecord { id, key, label, cache_hit, wall_ms: 0.0, total_cycles };
            Entry::Job(record, Box::new(report))
        }
        "quarantine" => {
            // `reason` needs a `&'static str`; map through the known set
            // so a hand-edited journal cannot smuggle in an arbitrary
            // string.
            let reason = match &*string_member(&mut r, "reason")? {
                "panic" => "panic",
                "timeout" => "timeout",
                "error" => "error",
                other => return Err(DecodeError(format!("unknown quarantine reason '{other}'"))),
            };
            r.key("attempts")?;
            let attempts = r.u64()? as u32;
            let (detail, repro) =
                (string_member(&mut r, "detail")?, string_member(&mut r, "repro")?);
            Entry::Quarantine(QuarantineRecord { id, key, label, reason, attempts, detail, repro })
        }
        other => return Err(DecodeError(format!("unknown journal entry type '{other}'"))),
    };
    r.end_object()?;
    r.finish()?;
    Ok(entry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use crate::serial::oracle::{damaged, report_from_value};
    use regwin_machine::SchemeKind;
    use regwin_spell::{SpellConfig, SpellPipeline};

    fn tmpfile(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("regwin-journal-test-{tag}-{}.jsonl", std::process::id()))
    }

    fn sample() -> (JobRecord, RunReport) {
        let report =
            SpellPipeline::new(SpellConfig::small()).run(8, SchemeKind::Sp).unwrap().report;
        let record = JobRecord {
            id: "00000000deadbeef".into(),
            key: "v2|exp=test".into(),
            label: "SP w=8".into(),
            cache_hit: false,
            wall_ms: 0.0,
            total_cycles: report.total_cycles(),
        };
        (record, report)
    }

    #[test]
    fn append_then_replay_roundtrips() {
        let path = tmpfile("roundtrip");
        let (record, report) = sample();
        let journal = SweepJournal::create(&path).unwrap();
        journal.append_job(&record, &report).unwrap();
        journal
            .append_quarantine(&QuarantineRecord {
                id: "beef".into(),
                key: "v2|exp=bad".into(),
                label: "NS w=4".into(),
                reason: "timeout",
                attempts: 3,
                detail: "exceeded 100ms".into(),
                repro: "key='v2|exp=bad' audit=0 plan='-' planseed=0x0".into(),
            })
            .unwrap();
        let replay = replay_journal(&path);
        assert_eq!(replay.jobs.len(), 1);
        let (rec, rep) = &replay.jobs[&record.key];
        assert_eq!(rec.id, record.id);
        assert_eq!(rec.total_cycles, record.total_cycles);
        assert_eq!(rep, &report);
        assert_eq!(replay.quarantined.len(), 1);
        assert_eq!(replay.quarantined[0].reason, "timeout");
        assert_eq!(replay.quarantined[0].repro, "key='v2|exp=bad' audit=0 plan='-' planseed=0x0");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_final_line_is_skipped() {
        let path = tmpfile("torn");
        let (record, report) = sample();
        let journal = SweepJournal::create(&path).unwrap();
        journal.append_job(&record, &report).unwrap();
        journal.append_job(&record, &report).unwrap();
        // Simulate kill -9 mid-append: chop the file mid-way through
        // the second line.
        let text = std::fs::read_to_string(&path).unwrap();
        let first_len = text.lines().next().unwrap().len();
        std::fs::write(&path, &text[..first_len + 1 + 20]).unwrap();
        let replay = replay_journal(&path);
        assert_eq!(replay.jobs.len(), 1, "intact first line survives, torn second is dropped");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn tampered_payload_fails_its_checksum() {
        let path = tmpfile("tamper");
        let (record, report) = sample();
        let journal = SweepJournal::create(&path).unwrap();
        journal.append_job(&record, &report).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("\"cache\":\"miss\"", "\"cache\":\"hit!\"")).unwrap();
        assert!(replay_journal(&path).jobs.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn second_writer_on_a_live_journal_is_rejected_as_busy() {
        let path = tmpfile("busy");
        let _ = std::fs::remove_file(&path);
        let first = SweepJournal::create(&path).unwrap();
        assert!(
            matches!(SweepJournal::create(&path), Err(JournalOpenError::Busy { .. })),
            "a second create on a held journal must be Busy"
        );
        assert!(
            matches!(SweepJournal::append_to(&path), Err(JournalOpenError::Busy { .. })),
            "a second append_to on a held journal must be Busy"
        );
        drop(first);
        // Release frees the path for the next writer.
        let second = SweepJournal::append_to(&path).unwrap();
        drop(second);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_killed_writers_lock_does_not_block_resume() {
        let path = tmpfile("stale-lock");
        let _ = std::fs::remove_file(&path);
        let (record, report) = sample();
        {
            let journal = SweepJournal::create(&path).unwrap();
            journal.append_job(&record, &report).unwrap();
        }
        // Simulate kill -9: the dead writer left its lock file behind,
        // stamped with a pid that no longer exists.
        let lock_path = PathBuf::from(format!("{}.lock", path.display()));
        std::fs::write(&lock_path, format!("{}", u32::MAX)).unwrap();
        let resumed = SweepJournal::append_to(&path).expect("stale lock must be stolen");
        resumed.append_job(&record, &report).unwrap();
        drop(resumed);
        assert!(!lock_path.exists(), "drop must release the stolen lock");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_journal_replays_empty() {
        let replay = replay_journal(Path::new("/nonexistent/regwin.journal.jsonl"));
        assert!(replay.jobs.is_empty());
        assert!(replay.quarantined.is_empty());
    }

    /// A replayed job in comparable form.
    type Job = (String, String, String, bool, u64, RunReport);

    fn job(record: JobRecord, report: RunReport) -> Job {
        (record.id, record.key, record.label, record.cache_hit, record.total_cycles, report)
    }

    /// The replay the pull path replaced: parse the whole line, check the
    /// sum over the payload's re-serialization, walk the tree.
    fn tree_replay_line(line: &str) -> Option<Job> {
        let v = parse(line).ok()?;
        let sum = u64::from_str_radix(v.get("sum")?.as_str()?, 16).ok()?;
        let payload = v.get("payload")?;
        if fnv1a(payload.to_json().as_bytes()) != sum
            || payload.get("version")?.as_u64()? != u64::from(FORMAT_VERSION)
            || payload.get("type")?.as_str()? != "job"
        {
            return None;
        }
        let text = |key: &str| payload.get(key)?.as_str().map(str::to_string);
        let record = JobRecord {
            id: text("id")?,
            key: text("key")?,
            label: text("label")?,
            cache_hit: text("cache")? == "hit",
            wall_ms: 0.0,
            total_cycles: payload.get("total_cycles")?.as_u64()?,
        };
        Some(job(record, report_from_value(payload.get("report")?).ok()?))
    }

    fn pull_replay_line(line: &str) -> Option<Job> {
        match decode_line(line)? {
            Entry::Job(record, report) => Some(job(record, *report)),
            Entry::Quarantine(_) => None,
        }
    }

    /// One job line as [`SweepJournal::append_job`] writes it.
    fn job_line(tag: &str) -> (String, Job) {
        let path = tmpfile(tag);
        let (record, report) = sample();
        SweepJournal::create(&path).unwrap().append_job(&record, &report).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        (text.trim_end().to_string(), job(record, report))
    }

    #[test]
    fn damaged_job_lines_replay_like_the_tree_or_are_skipped() {
        let (line, want) = job_line("damage");
        assert_eq!(pull_replay_line(&line).as_ref(), Some(&want));
        assert_eq!(tree_replay_line(&line).as_ref(), Some(&want));
        for d in damaged(&line) {
            if let Some(pulled) = pull_replay_line(&d) {
                assert_eq!(Some(pulled), tree_replay_line(&d), "{d}");
            }
        }
    }

    #[test]
    fn a_line_out_of_canonical_layout_is_skipped_like_a_torn_one() {
        let (line, want) = job_line("layout");
        // Whitespace in the envelope: the sum still matches the payload.
        let spaced = line.replacen("\",\"payload\":", "\", \"payload\": ", 1);
        // The payload's fields reordered, its sum recomputed over the
        // reordered bytes.
        let payload = parse(&line).unwrap().get("payload").unwrap().clone();
        let Value::Obj(mut fields) = payload else { panic!("a payload is an object") };
        fields.rotate_left(1);
        let reordered = Value::Obj(fields).to_json();
        let sum = fnv1a(reordered.as_bytes());
        let reordered = format!("{{\"sum\":\"{sum:016x}\",\"payload\":{reordered}}}");
        let path = tmpfile("layout");
        for edited in [spaced, reordered] {
            assert_eq!(tree_replay_line(&edited).as_ref(), Some(&want), "the tree took it");
            assert!(pull_replay_line(&edited).is_none(), "{edited:.80}");
            std::fs::write(&path, format!("{edited}\n{line}\n")).unwrap();
            assert_eq!(replay_journal(&path).jobs.len(), 1, "the canonical line still replays");
        }
        let _ = std::fs::remove_file(&path);
    }
}
