//! The one owner of the bytes on disk: every open, read, write, rename,
//! fsync, lock and remove of the sweep engine and the daemon. It offers
//! one function per kind of write, each with its durability fixed here;
//! DESIGN.md §3.10 tabulates every kind of file with that durability
//! and its error policy.
//!
//! - **Replace** ([`write_file_atomic`]): cache entries, artifacts,
//!   traces and CSVs. A crash leaves the old file or the new one at the
//!   path, never a torn one. Nothing is synced.
//! - **Durable append** ([`Appender`]): the journal. An append that
//!   returned survives a crash.
//! - **Lock file** ([`DirLock`]): the journal's single-writer lock.
//! - **Read whole file** ([`read`]) and the daemon's socket file
//!   ([`remove_socket`]).
//!
//! In this crate's unit tests every operation first passes a fault seam
//! (`seam`) that records the operations under a root directory and can
//! fail or tear the N-th one; nothing of it exists outside tests.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Lets the test-only fault seam fail the operation `$op` on `$path`,
/// returning its error; expands to nothing outside tests.
macro_rules! seam {
    ($op:ident, $path:expr) => {
        #[cfg(test)]
        $crate::disk::seam::guard($crate::disk::seam::Op::$op, $path)?;
    };
}

mod lock;

pub(crate) use lock::DirLock;

/// Writes `contents` to `path` atomically (the replace policy): the
/// bytes land in a `.tmp` sibling unique to this write (pid and a
/// process-wide sequence number) and are renamed into place, so a crash
/// mid-write can never leave a torn file at `path`. The parent
/// directory is created only when the temporary cannot be opened for
/// want of it, and the open is then retried once. Concurrent writers of
/// identical bytes, in one process or several, race benignly (either
/// rename winning leaves the same file).
///
/// # Errors
///
/// Propagates filesystem errors (the temporary file is cleaned up).
pub fn write_file_atomic(path: &Path, contents: &str) -> io::Result<()> {
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "out".to_string());
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_file_name(format!("{name}.tmp.{}.{seq}", std::process::id()));
    let result = match create_file(&tmp) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            create_parent(path).and_then(|()| create_file(&tmp))
        }
        opened => opened,
    }
    .and_then(|mut file| write_all(&mut file, &tmp, contents.as_bytes()))
    .and_then(|()| {
        seam!(Rename, path);
        std::fs::rename(&tmp, path)
    });
    if result.is_err() {
        let _ = remove(&tmp);
    }
    result
}

/// Creates the directory `path` and any missing parents.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn create_dir(path: &Path) -> io::Result<()> {
    seam!(Mkdir, path);
    std::fs::create_dir_all(path)
}

/// Removes the daemon's socket file at `path`: a stale one a dead
/// daemon left before binding, or the daemon's own at its drain.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn remove_socket(path: &Path) -> io::Result<()> {
    remove(path)
}

/// Reads the whole file at `path`.
pub(crate) fn read(path: &Path) -> io::Result<Vec<u8>> {
    seam!(Read, path);
    std::fs::read(path)
}

/// An append-only file (the durable-append policy): every
/// [`Appender::append`] is on disk when it returns.
#[derive(Debug)]
pub(crate) struct Appender {
    file: File,
    path: PathBuf,
}

impl Appender {
    /// Starts the file at `path` empty, truncating what it held. Its
    /// directory must exist.
    pub(crate) fn create(path: &Path) -> io::Result<Appender> {
        seam!(Open, path);
        Ok(Appender { file: File::create(path)?, path: path.to_path_buf() })
    }

    /// Opens the file at `path` for appending, creating it if missing.
    /// Its directory must exist. A kill mid-append can leave a torn,
    /// newline-less final line; it is terminated here, reading only its
    /// last byte, so fresh appends start a new line (the torn one then
    /// fails its checksum on the next replay) instead of gluing onto the
    /// garbage and corrupting themselves.
    pub(crate) fn open(path: &Path) -> io::Result<Appender> {
        seam!(Open, path);
        let file = OpenOptions::new().read(true).append(true).create(true).open(path)?;
        let mut appender = Appender { file, path: path.to_path_buf() };
        seam!(Read, path);
        let len = appender.file.metadata()?.len();
        let mut last = [b'\n'];
        if len > 0 {
            appender.file.read_exact_at(&mut last, len - 1)?;
        }
        if last != [b'\n'] {
            appender.append(b"\n")?;
        }
        Ok(appender)
    }

    /// Appends `bytes` and syncs them to disk.
    pub(crate) fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        write_all(&mut self.file, &self.path, bytes)?;
        seam!(Sync, &self.path);
        self.file.sync_data()
    }
}

/// Creates `path`'s parent directory and any missing parents above it.
fn create_parent(path: &Path) -> io::Result<()> {
    match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => create_dir(parent),
        _ => Ok(()),
    }
}

/// Creates (or truncates) the file at `path`.
fn create_file(path: &Path) -> io::Result<File> {
    seam!(Open, path);
    File::create(path)
}

/// Writes all of `bytes` to `file`, the file at `path`. Under the test
/// seam a torn write keeps a prefix and fails.
#[cfg_attr(not(test), allow(unused_variables))]
fn write_all(file: &mut File, path: &Path, bytes: &[u8]) -> io::Result<()> {
    #[cfg(test)]
    if let Some(kept) = seam::tear(path, bytes.len())? {
        file.write_all(&bytes[..kept])?;
        return Err(seam::injected());
    }
    file.write_all(bytes)
}

/// Removes the file at `path`.
fn remove(path: &Path) -> io::Result<()> {
    seam!(Remove, path);
    std::fs::remove_file(path)
}

#[cfg(test)]
pub(crate) mod seam;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn a_torn_tail_is_terminated_and_a_whole_one_is_left_alone() {
        let path = std::env::temp_dir().join(format!("regwin-disk-tail-{}", std::process::id()));
        for (before, after) in [("", "x\n"), ("a\n", "a\nx\n"), ("a\nto", "a\nto\nx\n")] {
            std::fs::write(&path, before).unwrap();
            Appender::open(&path).unwrap().append(b"x\n").unwrap();
            assert_eq!(std::fs::read_to_string(&path).unwrap(), after, "{before:?}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn concurrent_atomic_writes_of_one_path_are_whole() {
        let dir = std::env::temp_dir()
            .join(format!("regwin-sweep-atomic-write-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("entry.json");
        // Large enough that a write is not one page: a shared temporary
        // file would be truncated under a rename and read torn.
        let payload = "0123456789abcdef".repeat(1 << 17);
        let (done, failed, torn) = (AtomicUsize::new(0), AtomicUsize::new(0), AtomicUsize::new(0));
        std::thread::scope(|scope| {
            let writers = 4;
            for _ in 0..writers {
                scope.spawn(|| {
                    for _ in 0..25 {
                        if write_file_atomic(&path, &payload).is_err() {
                            failed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    done.fetch_add(1, Ordering::Relaxed);
                });
            }
            while done.load(Ordering::Relaxed) < writers {
                match std::fs::read_to_string(&path) {
                    Ok(read) if !read.is_empty() && read != payload => {
                        torn.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(_) => {}
                    Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::NotFound),
                }
            }
        });
        assert_eq!(failed.into_inner(), 0, "every write must succeed");
        assert_eq!(torn.into_inner(), 0, "every read must be empty or whole");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), payload);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1, "no temporary file is left");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
