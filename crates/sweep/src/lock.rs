//! Cross-process advisory file locks for shared sweep state.
//!
//! A [`DirLock`] is a `create_new`-exclusive lock file holding the
//! owner's pid. It guards the two pieces of sweep state that multiple
//! engine processes may share through one directory — the write-ahead
//! journal and the cache directory's `wall_hints.json` — without any
//! platform-specific `flock`/`fcntl` dependency: `O_CREAT|O_EXCL` is
//! atomic on every filesystem the engine targets.
//!
//! Liveness over strictness: a holder that dies without dropping the
//! lock (kill -9, power loss) must not wedge every future run, so
//! acquisition treats a lock file whose recorded pid no longer exists
//! (checked via `/proc/<pid>`) as stale and steals it. On platforms
//! without `/proc` a stale lock is instead stolen after
//! `STALE_AFTER`, judged by the lock file's modification time.

use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant, SystemTime};

/// How long a lock file may sit unrefreshed before the mtime-based
/// fallback (no `/proc`) declares it stale.
const STALE_AFTER: Duration = Duration::from_secs(600);

/// How long [`DirLock::acquire`] naps between contended attempts.
const RETRY_NAP: Duration = Duration::from_millis(2);

/// An exclusive advisory lock backed by a pid-stamped lock file.
/// Dropping the guard releases the lock (removes the file). Only
/// cooperating [`DirLock`] users are excluded — this is an advisory
/// protocol, not a mandatory one.
#[derive(Debug)]
pub struct DirLock {
    path: PathBuf,
}

impl DirLock {
    /// Attempts to take the lock at `path` without blocking. Returns
    /// `Ok(None)` when a live holder has it.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors other than "already locked".
    pub fn try_acquire(path: impl Into<PathBuf>) -> io::Result<Option<DirLock>> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        // Two rounds: the first may find a stale holder and reclaim its
        // file, after which the second create_new can succeed.
        for round in 0..2 {
            match std::fs::OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(mut file) => {
                    use std::io::Write;
                    let _ = write!(file, "{}", std::process::id());
                    let _ = file.sync_data();
                    return Ok(Some(DirLock { path }));
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    if round == 0 && holder_is_stale(&path) {
                        // Steal: remove and retry. Two processes may
                        // race to steal the same stale file; losing the
                        // remove (NotFound) is fine — the retry's
                        // create_new decides the new owner atomically.
                        let _ = std::fs::remove_file(&path);
                        continue;
                    }
                    return Ok(None);
                }
                Err(e) => return Err(e),
            }
        }
        Ok(None)
    }

    /// Takes the lock at `path`, retrying for up to `timeout`. Returns
    /// `Ok(None)` when the timeout expires with a live holder still in
    /// place.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors other than "already locked".
    pub fn acquire(path: impl Into<PathBuf>, timeout: Duration) -> io::Result<Option<DirLock>> {
        let path = path.into();
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(lock) = DirLock::try_acquire(&path)? {
                return Ok(Some(lock));
            }
            if Instant::now() >= deadline {
                return Ok(None);
            }
            std::thread::sleep(RETRY_NAP);
        }
    }

    /// The lock file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for DirLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Whether the lock file at `path` belongs to a holder that no longer
/// exists. A malformed pid (torn write) falls back to the mtime check,
/// as does a platform without `/proc`; any doubt keeps the lock live.
fn holder_is_stale(path: &Path) -> bool {
    let pid = std::fs::read_to_string(path).ok().and_then(|text| text.trim().parse::<u32>().ok());
    if let Some(pid) = pid {
        if Path::new("/proc").is_dir() {
            // A dead pid has no /proc entry. (Pid reuse can keep a
            // stale lock alive until the mtime fallback would fire;
            // that errs on the safe side.)
            return !Path::new(&format!("/proc/{pid}")).exists();
        }
    }
    match std::fs::metadata(path).and_then(|m| m.modified()) {
        Ok(mtime) => SystemTime::now().duration_since(mtime).is_ok_and(|age| age > STALE_AFTER),
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmplock(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("regwin-lock-test-{tag}-{}.lock", std::process::id()))
    }

    #[test]
    fn second_acquire_fails_until_the_first_drops() {
        let path = tmplock("exclusive");
        let _ = std::fs::remove_file(&path);
        let first = DirLock::try_acquire(&path).unwrap().expect("fresh lock");
        assert!(DirLock::try_acquire(&path).unwrap().is_none(), "held lock must refuse");
        assert!(
            DirLock::acquire(&path, Duration::from_millis(10)).unwrap().is_none(),
            "timeout must expire with a live holder"
        );
        drop(first);
        let second = DirLock::try_acquire(&path).unwrap();
        assert!(second.is_some(), "dropped lock must be re-acquirable");
        drop(second);
        assert!(!path.exists(), "drop must remove the lock file");
    }

    #[test]
    fn a_dead_holders_lock_is_stolen() {
        let path = tmplock("stale");
        let _ = std::fs::remove_file(&path);
        // No real pid comes close to this; /proc/<it> cannot exist.
        std::fs::write(&path, format!("{}", u32::MAX)).unwrap();
        let lock = DirLock::try_acquire(&path).unwrap();
        assert!(lock.is_some(), "a lock whose holder is dead must be stolen");
        drop(lock);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_live_holders_lock_is_not_stolen() {
        let path = tmplock("live");
        let _ = std::fs::remove_file(&path);
        // Our own pid is certainly alive.
        std::fs::write(&path, format!("{}", std::process::id())).unwrap();
        assert!(DirLock::try_acquire(&path).unwrap().is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn contended_acquire_succeeds_once_the_holder_releases() {
        let path = tmplock("contended");
        let _ = std::fs::remove_file(&path);
        let first = DirLock::try_acquire(&path).unwrap().expect("fresh lock");
        let path2 = path.clone();
        let waiter = std::thread::spawn(move || {
            DirLock::acquire(&path2, Duration::from_secs(10)).unwrap().is_some()
        });
        std::thread::sleep(Duration::from_millis(20));
        drop(first);
        assert!(waiter.join().unwrap(), "waiter must win the lock after release");
        let _ = std::fs::remove_file(&path);
    }
}
