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
//! acquisition steals a lock file whose recorded pid no longer exists
//! (checked via `/proc/<pid>`), or whose pid now belongs to a process
//! that started at another time than the one recorded beside it: a pid
//! reused in this boot or after a reboot. Start times are counted in
//! clock ticks since boot, so no wall-clock step makes a live holder
//! look stale. On platforms without `/proc` a stale lock is instead
//! stolen after `STALE_AFTER`, judged by the lock file's mtime.
//!
//! Exclusion comes from `O_CREAT|O_EXCL` alone, so the stamp is written
//! without an fsync. A live holder stamps its file as it creates it, so
//! a file that a crash left empty or torn is stale once its mtime
//! predates the current boot (`btime` in `/proc/stat`) or `STALE_AFTER`.

use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant, SystemTime};

/// How long a lock file may sit unrefreshed before the mtime-based
/// fallback (no `/proc`, or no readable pid) declares it stale.
const STALE_AFTER: Duration = Duration::from_secs(600);

/// How long [`DirLock::acquire`] naps between contended attempts.
const RETRY_NAP: Duration = Duration::from_millis(2);

/// An exclusive advisory lock backed by a lock file stamped with the
/// holder's pid and, where `/proc` has it, the holder's start time.
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
                    // One write, so a reader sees the whole stamp or none.
                    let _ = file.write_all(own_stamp().as_bytes());
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
/// exists: its pid has no `/proc` entry, or the process now holding
/// that pid started at another time than the stamp records. A stamp
/// without a start time is judged by its pid alone. A file holding no
/// pid (empty or torn by a crash), like a platform without `/proc`,
/// falls back to the mtime; any doubt keeps the lock live.
fn holder_is_stale(path: &Path) -> bool {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let mut fields = text.split_whitespace();
    if let Some(pid) = fields.next().and_then(|f| f.parse::<u32>().ok()) {
        if Path::new("/proc").is_dir() {
            if !Path::new(&format!("/proc/{pid}")).exists() {
                return true;
            }
            let recorded = fields.next().and_then(|f| f.parse::<u64>().ok());
            return recorded.zip(start_ticks(pid)).is_some_and(|(then, now)| then != now);
        }
    }
    std::fs::metadata(path).and_then(|m| m.modified()).is_ok_and(|mtime| {
        boot_time().is_some_and(|boot| mtime < boot)
            || SystemTime::now().duration_since(mtime).is_ok_and(|age| age > STALE_AFTER)
    })
}

/// This process's lock stamp: its pid, then its start time where
/// `/proc` has one.
fn own_stamp() -> String {
    let pid = std::process::id();
    start_ticks(pid).map_or_else(|| pid.to_string(), |ticks| format!("{pid} {ticks}"))
}

/// When process `pid` started, in clock ticks since boot: field 22 of
/// `/proc/<pid>/stat` (Linux). The fields are counted after the last
/// `)`, since the command name in field 2 may hold spaces.
fn start_ticks(pid: u32) -> Option<u64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    stat.rsplit_once(')')?.1.split_whitespace().nth(19)?.parse().ok()
}

/// When the running kernel booted, from `btime` in `/proc/stat`
/// (Linux); `None` where that file does not exist.
fn boot_time() -> Option<SystemTime> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let secs = stat.lines().find_map(|line| line.strip_prefix("btime "))?.trim().parse().ok()?;
    Some(SystemTime::UNIX_EPOCH + Duration::from_secs(secs))
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
    fn a_live_pid_that_started_at_another_time_is_a_stale_holder() {
        let path = tmplock("reused");
        let _ = std::fs::remove_file(&path);
        let pid = std::process::id();
        let Some(ticks) = start_ticks(pid) else { return };
        // Our own stamp is kept, even with an mtime from before the boot
        // (as after a forward clock step): staleness reads no wall clock.
        std::fs::write(&path, own_stamp()).unwrap();
        let file = std::fs::File::options().write(true).open(&path).unwrap();
        file.set_modified(SystemTime::UNIX_EPOCH).unwrap();
        assert!(DirLock::try_acquire(&path).unwrap().is_none(), "a live holder is kept");
        // Our pid with another start time belongs to a process that is
        // gone: the pid was reused, in this boot or after a reboot.
        std::fs::write(&path, format!("{pid} {}", ticks + 1)).unwrap();
        let lock = DirLock::try_acquire(&path).unwrap();
        assert!(lock.is_some(), "a reused pid's lock must be stolen");
        drop(lock);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn an_empty_lock_from_before_the_current_boot_is_stolen() {
        let path = tmplock("boot");
        let _ = std::fs::remove_file(&path);
        // A crash before the stamp reached the disk leaves the file empty.
        let empty_at = |mtime: SystemTime| {
            std::fs::write(&path, "").unwrap();
            std::fs::File::options().write(true).open(&path).unwrap().set_modified(mtime).unwrap();
        };
        empty_at(SystemTime::now());
        assert!(DirLock::try_acquire(&path).unwrap().is_none(), "a fresh empty lock is kept");
        if let Some(boot) = boot_time() {
            empty_at(boot - Duration::from_secs(1));
            let lock = DirLock::try_acquire(&path).unwrap();
            assert!(lock.is_some(), "an empty lock from before the boot must be stolen");
        }
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
