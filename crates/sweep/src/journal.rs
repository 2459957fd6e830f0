//! Crash-safe write-ahead journal for resumable sweeps.
//!
//! Alongside the `BENCH_sweep.json` artifact the engine can keep a
//! `*.journal.jsonl` file: one checksummed JSON line per completed or
//! quarantined job. An executed job's line is appended and fsync'd the
//! moment the job finishes. The cache hits of a batch are group-committed
//! instead: their lines are written one by one under one lock and made
//! durable by a single fsync, before the batch's misses start and before
//! the batch returns. Killing a sweep at any instant (including
//! `kill -9` mid-append) therefore loses at most the in-flight jobs and
//! an unsynced suffix of a hit batch: on `--resume` the journal is
//! replayed, finished jobs are served from their journaled reports, and
//! only the unfinished remainder re-runs (lost hits are simply hits
//! again). A torn final line (the only kind of damage an append-then-fsync
//! discipline can leave) fails its checksum and is skipped.
//!
//! Line format: `{"sum":"<16-hex>","payload":{...}}` where `sum` is the
//! FNV-1a hash of the payload's compact serialization. Payloads carry a
//! `"type"` of `"job"` (a [`JobRecord`] plus its full [`RunReport`]) or
//! `"quarantine"` (a [`QuarantineRecord`]).
//!
//! A job payload's report is never re-encoded for the journal: it is
//! embedded verbatim as the text [`crate::serial::report_to_json`]
//! wrote, which is the executed job's one serialization (shared with
//! its cache store) or, for a cache hit, the entry's checksum-verified
//! report bytes. Both are the same bytes, so a hit's line is
//! byte-identical to the line [`SweepJournal::append_job`] writes for
//! the decoded report.

//! A journal is a **single-writer** file: two engines appending to the
//! same path would interleave torn lines and corrupt each other's
//! resume state. Opening one therefore takes a pid-stamped advisory
//! lock (`<path>.lock`, see [`crate::lock::DirLock`]) and fails
//! typed — [`JournalOpenError::Busy`] — while another live engine holds
//! it; a holder that died without releasing (kill -9) is detected as
//! stale and its lock is stolen, which is what keeps the
//! kill-and-resume path working.

use crate::engine::{JobRecord, QuarantineRecord};
use crate::json::{obj, parse, Value};
use crate::key::{fnv1a, FORMAT_VERSION};
use crate::lock::DirLock;
use crate::serial::{report_from_value, report_to_json};
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
    file: Mutex<File>,
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
        Ok(SweepJournal { file: Mutex::new(file), path, _lock: lock })
    }

    /// Reopens an existing journal at `path` for appending (resume); a
    /// missing file is created empty.
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
        // A kill -9 mid-append can leave a torn, newline-less final
        // line; terminate it so fresh appends start a new line (the
        // torn one then simply fails its checksum on the next replay)
        // instead of gluing onto the garbage and corrupting themselves.
        let torn_tail = std::fs::read(&path)
            .map(|bytes| bytes.last().is_some_and(|&b| b != b'\n'))
            .unwrap_or(false);
        let mut file = OpenOptions::new().create(true).append(true).open(&path)?;
        if torn_tail {
            file.write_all(b"\n")?;
        }
        Ok(SweepJournal { file: Mutex::new(file), path, _lock: lock })
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
        self.append_jobs([(record, report_to_json(report).as_str())])
    }

    /// Journals a batch of completed jobs as one group commit: under one
    /// lock, each line is serialized and written in turn, then a single
    /// fsync makes the whole batch durable. An empty batch writes and
    /// syncs nothing.
    ///
    /// Each report comes as the text [`report_to_json`] wrote for it —
    /// a fresh job's one serialization, or a cache hit's verified entry
    /// bytes — and is embedded verbatim.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors. On success every line survives
    /// `kill -9`; a crash before the fsync can lose a suffix of the
    /// batch or tear its last line, which replay skips by checksum.
    pub fn append_jobs<'a>(
        &self,
        jobs: impl IntoIterator<Item = (&'a JobRecord, &'a str)>,
    ) -> std::io::Result<()> {
        self.append_payloads(jobs.into_iter().map(|(record, report_json)| {
            obj(vec![
                ("type", Value::Str("job".into())),
                ("version", Value::Int(u64::from(FORMAT_VERSION))),
                ("id", Value::Str(record.id.clone())),
                ("key", Value::Str(record.key.clone())),
                ("label", Value::Str(record.label.clone())),
                ("cache", Value::Str(if record.cache_hit { "hit" } else { "miss" }.into())),
                ("total_cycles", Value::Int(record.total_cycles)),
                ("report", Value::Raw(report_json.to_string())),
            ])
        }))
    }

    /// Journals one quarantined job.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (flushed and fsync'd like
    /// [`SweepJournal::append_job`]).
    pub fn append_quarantine(&self, q: &QuarantineRecord) -> std::io::Result<()> {
        self.append_payloads([obj(vec![
            ("type", Value::Str("quarantine".into())),
            ("version", Value::Int(u64::from(FORMAT_VERSION))),
            ("id", Value::Str(q.id.clone())),
            ("key", Value::Str(q.key.clone())),
            ("label", Value::Str(q.label.clone())),
            ("reason", Value::Str(q.reason.into())),
            ("attempts", Value::Int(u64::from(q.attempts))),
            ("detail", Value::Str(q.detail.clone())),
            ("repro", Value::Str(q.repro.clone())),
        ])])
    }

    /// Appends one checksummed line per payload, then fsyncs once.
    fn append_payloads(&self, payloads: impl IntoIterator<Item = Value>) -> std::io::Result<()> {
        // Poison recovery: a panicking appender can at worst leave a
        // torn final line, which replay already skips by checksum.
        let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
        let mut written = false;
        for payload in payloads {
            let payload_text = payload.to_json();
            let sum = fnv1a(payload_text.as_bytes());
            let line = format!("{{\"sum\":\"{sum:016x}\",\"payload\":{payload_text}}}\n");
            file.write_all(line.as_bytes())?;
            written = true;
        }
        if written {
            file.flush()?;
            file.sync_data()?;
        }
        Ok(())
    }
}

/// Replays a journal: checksummed, current-format lines become finished
/// jobs or quarantine records; torn or stale lines are skipped. A
/// missing file replays as empty (nothing was finished).
pub fn replay_journal(path: &Path) -> JournalReplay {
    let mut replay = JournalReplay::default();
    let Ok(text) = std::fs::read_to_string(path) else {
        return replay;
    };
    for line in text.lines() {
        let Some(payload) = verify_line(line) else {
            continue;
        };
        if payload.get("version").and_then(Value::as_u64) != Some(u64::from(FORMAT_VERSION)) {
            continue;
        }
        match payload.get("type").and_then(Value::as_str) {
            Some("job") => {
                if let Some((record, report)) = decode_job(&payload) {
                    replay.jobs.insert(record.key.clone(), (record, report));
                }
            }
            Some("quarantine") => {
                if let Some(q) = decode_quarantine(&payload) {
                    replay.quarantined.push(q);
                }
            }
            _ => {}
        }
    }
    replay
}

/// Parses one journal line and verifies its checksum, returning the
/// payload. The payload's compact re-serialization is byte-identical to
/// what [`SweepJournal`] hashed at append time (`Value::to_json` is
/// deterministic and parse/serialize round-trips exactly), so the
/// stored sum can be checked against the re-serialized payload.
fn verify_line(line: &str) -> Option<Value> {
    let v = parse(line).ok()?;
    let sum = u64::from_str_radix(v.get("sum")?.as_str()?, 16).ok()?;
    let payload = v.get("payload")?;
    if fnv1a(payload.to_json().as_bytes()) != sum {
        return None;
    }
    Some(payload.clone())
}

fn decode_job(payload: &Value) -> Option<(JobRecord, RunReport)> {
    let report = report_from_value(payload.get("report")?).ok()?;
    let record = JobRecord {
        id: payload.get("id")?.as_str()?.to_string(),
        key: payload.get("key")?.as_str()?.to_string(),
        label: payload.get("label")?.as_str()?.to_string(),
        cache_hit: payload.get("cache")?.as_str()? == "hit",
        wall_ms: 0.0,
        total_cycles: payload.get("total_cycles")?.as_u64()?,
    };
    Some((record, report))
}

fn decode_quarantine(payload: &Value) -> Option<QuarantineRecord> {
    // `reason` needs a `&'static str`; map through the known set so a
    // hand-edited journal cannot smuggle in an arbitrary string.
    let reason = match payload.get("reason")?.as_str()? {
        "panic" => "panic",
        "timeout" => "timeout",
        "error" => "error",
        "abandoned-cap" => "abandoned-cap",
        _ => return None,
    };
    Some(QuarantineRecord {
        id: payload.get("id")?.as_str()?.to_string(),
        key: payload.get("key")?.as_str()?.to_string(),
        label: payload.get("label")?.as_str()?.to_string(),
        reason,
        attempts: payload.get("attempts")?.as_u64()? as u32,
        detail: payload.get("detail")?.as_str()?.to_string(),
        // Absent in pre-v6 journals; those lines are version-filtered
        // out anyway, but stay tolerant.
        repro: payload.get("repro").and_then(Value::as_str).unwrap_or_default().to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
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
}
