//! The lock-file policy: the write-ahead journal's cross-process
//! single-writer lock.
//!
//! A [`DirLock`] is an exclusive kernel lock (std's [`File::try_lock`])
//! on a lock file beside the journal, held through the open [`File`].
//! Taking one never waits: a journal another engine holds is refused.
//! Taking one creates the lock file's directory, which is also the
//! journal's, so a journal opens no other.
//! The kernel releases the lock when the file closes, whether its
//! holder drops it, exits, is killed or crashes, so a dead holder never
//! wedges a later run and nothing is written into the file, or synced.
//! Two opens are separate open file descriptions, so two lockers in one
//! process exclude each other too.
//!
//! Dropping the guard removes the file while the lock is still held, so
//! a finished holder leaves nothing behind. A locker that opened the
//! file just before that remove can then lock an inode that is no
//! longer at the path; after locking it checks that its file is still
//! the one at the path, and opens the path again if not.

use std::fs::{File, TryLockError};
use std::io;
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};

/// An exclusive advisory lock on the file at `path`, released when the
/// guard drops (the file is removed) or its process ends. Only
/// cooperating [`DirLock`] users are excluded.
#[derive(Debug)]
pub(crate) struct DirLock {
    path: PathBuf,
    /// Holds the kernel lock; dropped after [`Drop::drop`] removes the
    /// file.
    _file: File,
}

impl DirLock {
    /// Takes the lock at `path` without blocking. Returns `Ok(None)`
    /// while another holder has it.
    pub(crate) fn try_acquire(path: impl Into<PathBuf>) -> io::Result<Option<DirLock>> {
        DirLock::take(path.into(), File::try_lock)
    }

    /// Opens `path` and locks it with `lock` until the locked file is
    /// the one at `path`. `lock` is [`File::try_lock`]; a test passes one
    /// that removes the file between the open and the lock.
    fn take(
        path: PathBuf,
        mut lock: impl FnMut(&File) -> Result<(), TryLockError>,
    ) -> io::Result<Option<DirLock>> {
        super::create_parent(&path)?;
        loop {
            seam!(Open, &path);
            let file = File::options().write(true).create(true).truncate(false).open(&path)?;
            seam!(Lock, &path);
            match lock(&file) {
                Ok(()) => {}
                Err(TryLockError::WouldBlock) => return Ok(None),
                Err(TryLockError::Error(e)) => return Err(e),
            }
            if is_at(&file, &path)? {
                return Ok(Some(DirLock { path, _file: file }));
            }
        }
    }
}

impl Drop for DirLock {
    fn drop(&mut self) {
        let _ = super::remove(&self.path);
    }
}

/// Whether `file` is the file at `path`: a holder's drop may have
/// removed it between our open and our lock.
fn is_at(file: &File, path: &Path) -> io::Result<bool> {
    seam!(Stat, path);
    let held = file.metadata()?;
    Ok(std::fs::metadata(path).is_ok_and(|at| (at.dev(), at.ino()) == (held.dev(), held.ino())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::process::{Command, Stdio};
    use std::time::Duration;

    /// Names the lock file [`a_child_holds_the_lock_until_killed`] takes.
    const HELD_LOCK_ENV: &str = "REGWIN_LOCK_TEST_HOLD";

    fn tmplock(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("regwin-lock-test-{tag}-{}.lock", std::process::id()))
    }

    #[test]
    fn second_acquire_is_busy_until_the_first_drops() {
        let path = tmplock("exclusive");
        let _ = std::fs::remove_file(&path);
        let first = DirLock::try_acquire(&path).unwrap().expect("fresh lock");
        assert!(DirLock::try_acquire(&path).unwrap().is_none(), "held lock must be busy");
        drop(first);
        assert!(!path.exists(), "drop must remove the lock file");
        let second = DirLock::try_acquire(&path).unwrap();
        assert!(second.is_some(), "dropped lock must be re-acquirable");
        drop(second);
        assert!(!path.exists(), "drop must remove the lock file");
    }

    /// Run by [`a_killed_holders_lock_is_free`] in a child process:
    /// takes the lock named by [`HELD_LOCK_ENV`], says so, and sleeps.
    #[test]
    #[ignore = "a helper that another test runs in a child process"]
    fn a_child_holds_the_lock_until_killed() {
        let Some(path) = std::env::var_os(HELD_LOCK_ENV) else { return };
        let _lock = DirLock::try_acquire(PathBuf::from(path)).unwrap().expect("a free lock");
        println!("locked");
        std::thread::sleep(Duration::from_secs(60));
    }

    #[test]
    fn a_killed_holders_lock_is_free() {
        let path = tmplock("killed");
        let _ = std::fs::remove_file(&path);
        let mut child = Command::new(std::env::current_exe().unwrap())
            .args(["--exact", "disk::lock::tests::a_child_holds_the_lock_until_killed"])
            .args(["--ignored", "--nocapture", "--test-threads=1"])
            .env(HELD_LOCK_ENV, &path)
            .stdout(Stdio::piped())
            .spawn()
            .unwrap();
        let stdout = BufReader::new(child.stdout.take().unwrap());
        // The harness may print the test's name on the same line.
        let said_locked = stdout.lines().map_while(Result::ok).any(|line| line.ends_with("locked"));
        assert!(said_locked, "the child must take the lock");
        assert!(DirLock::try_acquire(&path).unwrap().is_none(), "a live child holds the lock");
        child.kill().unwrap();
        child.wait().unwrap();
        assert!(path.exists(), "a killed holder leaves its lock file behind");
        let lock = DirLock::try_acquire(&path).unwrap();
        assert!(lock.is_some(), "the kernel releases a killed holder's lock");
        drop(lock);
        assert!(!path.exists());
    }

    #[test]
    fn a_locker_left_holding_a_removed_file_retries_onto_the_path() {
        let path = tmplock("unlinked");
        let _ = std::fs::remove_file(&path);
        // The first lock lands just after a holder's drop removed the
        // file the locker had opened.
        let mut locks = 0;
        let lock = DirLock::take(path.clone(), |file| {
            locks += 1;
            if locks == 1 {
                std::fs::remove_file(&path).unwrap();
            }
            file.try_lock()
        })
        .unwrap()
        .expect("the retry takes the lock");
        assert_eq!(locks, 2, "a lock on a removed file must be retried");
        assert!(path.exists(), "the retry locks a file at the path");
        assert!(DirLock::try_acquire(&path).unwrap().is_none(), "and that file is held");
        drop(lock);
        assert!(!path.exists());
    }
}
