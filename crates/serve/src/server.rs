//! The resident sweep daemon.
//!
//! One [`Server`] owns a Unix-domain listener and serves each
//! connection on its own thread. Every connection is a *session* with
//! its own [`SweepEngine`] — all sessions share one result-cache
//! directory (safe: the cache publishes atomically, and a damaged
//! entry is a miss whose store replaces it) and one
//! [`AdmissionGate`], which bounds the daemon's total concurrently
//! executing jobs and rotates grants across sessions so concurrent
//! clients interleave instead of queueing behind each other.
//!
//! Engines run in deterministic-artifact mode, so a thin client's
//! artifact is byte-identical to what the same sweep produces in
//! process. With a journal directory configured, each session journals
//! under the FNV-1a hash of its client-chosen session string: a client
//! reconnecting after a daemon restart resumes its journal and re-runs
//! only unfinished jobs.
//!
//! Shutdown ([`Server::run`]'s flag, typically set from SIGTERM) closes
//! the admission gate: in-flight jobs finish and journal,
//! not-yet-admitted jobs are skipped, affected sweeps report a draining
//! error to their client, and the daemon exits once every session
//! thread has unwound.

use crate::protocol::{
    frame_type, spec_from_value, write_frame, FrameReader, EVENT_PREFIX, PROTO_VERSION,
};
use regwin_core::MatrixSpec;
use regwin_obs::{Probe, StreamProbe};
use regwin_sweep::json::{obj, Value};
use regwin_sweep::{
    fnv1a, remove_socket, write_records_frame, AdmissionGate, SweepConfigError, SweepEngine,
};
use std::io::{ErrorKind, Write};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How the daemon is wired: where it listens and how its sessions run.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The Unix-domain socket path to listen on.
    pub socket: PathBuf,
    /// Shared result-cache directory (`None` disables caching).
    pub cache_dir: Option<PathBuf>,
    /// Per-session journal directory (`None` disables journaling and
    /// with it restart-resume).
    pub journal_dir: Option<PathBuf>,
    /// Global concurrently-executing-job bound, and each session
    /// engine's worker count (`0` = one per CPU).
    pub workers: usize,
    /// Connections beyond this count are turned away with a `busy`
    /// frame.
    pub max_clients: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            socket: PathBuf::from("regwin-served.sock"),
            cache_dir: Some(PathBuf::from("target/sweep-cache")),
            journal_dir: None,
            workers: 0,
            max_clients: 8,
        }
    }
}

/// State shared by the accept loop and every session thread.
struct Shared {
    config: ServerConfig,
    gate: Arc<AdmissionGate>,
    shutdown: Arc<AtomicBool>,
    active: AtomicUsize,
}

/// The resident daemon. Construct with [`Server::bind`], then drive
/// with [`Server::run`].
pub struct Server {
    listener: UnixListener,
    shared: Arc<Shared>,
}

/// The effective worker count `workers` requests (`0` = one per CPU,
/// mirroring the sweep engine's own default).
fn effective_workers(workers: usize) -> usize {
    if workers == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        workers
    }
}

/// Caps the process's glibc malloc arenas at `arenas` (at least 2).
/// Only the first call in a process takes effect.
///
/// glibc hands a thread that finds every arena busy a new arena of its
/// own, up to eight per core, and an arena keeps the pages it has
/// touched. The daemon starts a thread per session, so without a cap its
/// resident size depends on how many session, worker and client threads
/// happened to overlap, and the same traffic ends at a different peak
/// from run to run. The admission gate lets at most `workers` jobs
/// execute at once, so that many arenas spare executing jobs from lock
/// contention; session threads mostly wait on their socket.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn cap_malloc_arenas(arenas: usize) {
    extern "C" {
        // std links the C library already, so no extra crate is needed.
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_ARENA_MAX: i32 = -8;
    static CAPPED: std::sync::Once = std::sync::Once::new();
    CAPPED.call_once(|| {
        let arenas = i32::try_from(arenas.max(2)).unwrap_or(i32::MAX);
        // A rejected value leaves glibc's default in place, which is
        // only a footprint cost.
        // SAFETY: mallopt takes two plain integers and is thread-safe.
        unsafe { mallopt(M_ARENA_MAX, arenas) };
    });
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn cap_malloc_arenas(_arenas: usize) {}

/// How long the accept loop waits for a connection before it checks
/// the shutdown flag again.
const ACCEPT_POLL: Duration = Duration::from_millis(20);

/// Blocks until `listener` has a connection to accept or `timeout`
/// passes, whichever is first.
fn wait_readable(listener: &UnixListener, timeout: Duration) -> std::io::Result<()> {
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[cfg(target_os = "linux")]
    type Nfds = std::ffi::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type Nfds = std::ffi::c_uint;
    extern "C" {
        // std links the C library already, so no extra crate is needed.
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: i32) -> i32;
    }
    const POLLIN: i16 = 0x1;
    let mut fd = PollFd { fd: listener.as_raw_fd(), events: POLLIN, revents: 0 };
    let ms = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
    // SAFETY: `fd` is one valid pollfd that outlives the call, and the
    // listener keeps its descriptor open until `run` returns.
    if unsafe { poll(&mut fd, 1, ms) } < 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(())
}

impl Server {
    /// Binds the listening socket. A stale socket file left by a dead
    /// daemon is replaced; a live daemon on the same path is an error.
    ///
    /// On glibc, the first bind in a process also caps its malloc arenas
    /// at the worker count (at least 2), so the daemon's resident size
    /// does not depend on how its session threads happen to overlap.
    ///
    /// # Errors
    ///
    /// Propagates bind errors, and refuses the path if another daemon
    /// is accepting on it.
    pub fn bind(config: ServerConfig, shutdown: Arc<AtomicBool>) -> std::io::Result<Self> {
        let listener = match UnixListener::bind(&config.socket) {
            Ok(l) => l,
            Err(e) if e.kind() == ErrorKind::AddrInUse => {
                if UnixStream::connect(&config.socket).is_ok() {
                    return Err(std::io::Error::new(
                        ErrorKind::AddrInUse,
                        format!("a daemon is already listening on {}", config.socket.display()),
                    ));
                }
                remove_socket(&config.socket)?;
                UnixListener::bind(&config.socket)?
            }
            Err(e) => return Err(e),
        };
        listener.set_nonblocking(true)?;
        cap_malloc_arenas(effective_workers(config.workers));
        let gate = Arc::new(AdmissionGate::new(effective_workers(config.workers)));
        let shared = Arc::new(Shared { config, gate, shutdown, active: AtomicUsize::new(0) });
        Ok(Server { listener, shared })
    }

    /// The socket path this daemon is accepting on.
    pub fn socket(&self) -> &PathBuf {
        &self.shared.config.socket
    }

    /// Accepts and serves sessions until the shutdown flag is set, then
    /// drains: closes the admission gate, joins every session thread
    /// (in-flight jobs finish and journal; queued ones are skipped) and
    /// removes the socket file.
    ///
    /// A connection is accepted as soon as it arrives: between accepts
    /// the loop sleeps in `poll(2)` on the listener, waking early for a
    /// connection and at least every 20 ms to check the shutdown flag.
    ///
    /// # Errors
    ///
    /// Propagates accept and poll errors other than the nonblocking
    /// accept's `WouldBlock` and a signal's `Interrupted`.
    pub fn run(self) -> std::io::Result<()> {
        let mut sessions: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !self.shared.shutdown.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _addr)) => {
                    if self.shared.active.load(Ordering::SeqCst) >= self.shared.config.max_clients {
                        let mut s = stream;
                        let _ = write_frame(
                            &mut s,
                            &obj(vec![
                                ("type", Value::Str("busy".into())),
                                (
                                    "detail",
                                    Value::Str(format!(
                                        "daemon at its {}-client limit",
                                        self.shared.config.max_clients
                                    )),
                                ),
                            ]),
                        );
                        continue;
                    }
                    self.shared.active.fetch_add(1, Ordering::SeqCst);
                    let shared = Arc::clone(&self.shared);
                    sessions.push(std::thread::spawn(move || {
                        serve_session(stream, &shared);
                        shared.active.fetch_sub(1, Ordering::SeqCst);
                    }));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    sessions.retain(|h| !h.is_finished());
                    match wait_readable(&self.listener, ACCEPT_POLL) {
                        Err(e) if e.kind() != ErrorKind::Interrupted => return Err(e),
                        _ => {}
                    }
                }
                Err(e) => return Err(e),
            }
        }
        // Drain: no new admissions; in-flight jobs finish and journal.
        self.shared.gate.close();
        for handle in sessions {
            let _ = handle.join();
        }
        let _ = remove_socket(&self.shared.config.socket);
        Ok(())
    }
}

/// Reads frames off `reader`, treating the poll timeout as "check the
/// shutdown flag and keep waiting". Returns `None` on EOF, a dead peer,
/// daemon shutdown, or a frame that is not UTF-8, not JSON or too long —
/// the last answered with a `sweep_error`, since the stream cannot be
/// trusted to resynchronize.
fn next_frame(
    reader: &mut FrameReader<UnixStream>,
    writer: &Mutex<UnixStream>,
    shared: &Shared,
) -> Option<Value> {
    loop {
        match reader.next_frame() {
            Ok(frame) => return frame,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return None;
                }
            }
            Err(e) if e.kind() == ErrorKind::InvalidData => {
                let _ = send(writer, &sweep_error(e.to_string(), false));
                return None;
            }
            Err(_) => return None,
        }
    }
}

/// A `sweep_error` frame.
fn sweep_error(detail: String, draining: bool) -> Value {
    obj(vec![
        ("type", Value::Str("sweep_error".into())),
        ("detail", Value::Str(detail)),
        ("draining", Value::Bool(draining)),
    ])
}

fn send(writer: &Mutex<UnixStream>, frame: &Value) -> bool {
    let mut w = writer.lock().unwrap_or_else(|e| e.into_inner());
    write_frame(&mut *w, frame).is_ok()
}

/// Runs `spec` on the session's engine and returns the reply line: a
/// `sweep_error` when the sweep failed or a drain cut it short, else the
/// `records` frame, written once with the engine's records text (each
/// hit's verified cache bytes and each miss's one serialization).
fn sweep_reply(engine: &SweepEngine, spec: &MatrixSpec) -> String {
    let skipped_before = engine.shutdown_skipped();
    let mut line = String::with_capacity(2304 * spec.len() + 1024);
    let outcome = write_records_frame(&mut line, |out| {
        engine.run_matrix_json(spec, out)?;
        Ok::<_, regwin_rt::RtError>((engine.summary(), engine.quarantine()))
    });
    let skipped = engine.shutdown_skipped() - skipped_before;
    let error = match outcome {
        Ok(()) if skipped > 0 => sweep_error(
            format!(
                "daemon draining: {skipped} job(s) were not admitted; completed jobs are \
                 journaled — reconnect after restart to resume"
            ),
            true,
        ),
        Ok(()) => {
            line.push('\n');
            return line;
        }
        Err(e) => sweep_error(e.to_string(), false),
    };
    let mut line = error.to_json();
    line.push('\n');
    line
}

/// Builds the session's engine: shared cache, deterministic artifacts,
/// gate admission, a per-session resumable journal, and an event stream
/// back to the client.
///
/// A journal already locked by a live engine (the same session string
/// connected twice) degrades to an unjournaled session — results are
/// still correct and deterministic, only restart-resume is lost.
fn session_engine(shared: &Shared, session_id: u64, writer: Arc<Mutex<UnixStream>>) -> SweepEngine {
    let builder = || {
        let mut b = regwin_sweep::SweepConfig::builder()
            .workers(shared.config.workers)
            .deterministic_artifact(true)
            .admission(Arc::clone(&shared.gate), session_id);
        if let Some(dir) = &shared.config.cache_dir {
            b = b.cache_dir(dir.clone());
        }
        let probe_writer = Arc::clone(&writer);
        // A batch of events goes out as one socket write, of its own:
        // never joined to the next frame.
        let probe = StreamProbe::new(move |lines: &str| {
            let mut frames = String::with_capacity(lines.len() + lines.len() / 4);
            for line in lines.lines() {
                frames.push_str(EVENT_PREFIX);
                frames.push_str(line);
                frames.push_str("}\n");
            }
            let mut w = probe_writer.lock().unwrap_or_else(|e| e.into_inner());
            let _ = w.write_all(frames.as_bytes());
        });
        b.probe(Arc::new(probe) as Arc<dyn Probe>)
    };
    let journaled = shared.config.journal_dir.as_ref().map(|dir| {
        builder()
            .journal(dir.join(format!("{session_id:016x}.journal.jsonl")))
            .resume(true)
            .build()
            .expect("journaled session config is valid")
    });
    match journaled {
        None => SweepEngine::with_config(builder().build().expect("session config is valid")),
        Some(config) => match SweepEngine::try_with_config(config) {
            Ok(engine) => engine,
            Err(SweepConfigError::JournalBusy { path }) => {
                eprintln!(
                    "session {session_id:016x}: journal {} is busy (same session connected \
                     twice?); running unjournaled",
                    path.display()
                );
                SweepEngine::with_config(builder().build().expect("session config is valid"))
            }
            Err(e) => {
                eprintln!("session {session_id:016x}: {e}; running unjournaled");
                SweepEngine::with_config(builder().build().expect("session config is valid"))
            }
        },
    }
}

/// One connection, hello to bye.
fn serve_session(stream: UnixStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let Ok(write_half) = stream.try_clone() else { return };
    let writer = Arc::new(Mutex::new(write_half));
    let mut reader = FrameReader::new(stream);

    // Handshake.
    let Some(hello) = next_frame(&mut reader, &writer, shared) else { return };
    let ok = frame_type(&hello) == Ok("hello")
        && hello.get("proto").and_then(Value::as_u64) == Some(PROTO_VERSION);
    let Some(session) = hello.get("session").and_then(Value::as_str) else { return };
    if !ok {
        let _ = send(
            &writer,
            &sweep_error(format!("expected hello with proto {PROTO_VERSION}"), false),
        );
        return;
    }
    let session_id = fnv1a(session.as_bytes());
    let engine = session_engine(shared, session_id, Arc::clone(&writer));
    if !send(
        &writer,
        &obj(vec![
            ("type", Value::Str("ready".into())),
            ("proto", Value::Int(PROTO_VERSION)),
            ("session_id", Value::Str(format!("{session_id:016x}"))),
        ]),
    ) {
        return;
    }

    while let Some(frame) = next_frame(&mut reader, &writer, shared) {
        match frame_type(&frame).unwrap_or("?") {
            "sweep" => {
                let spec = match frame.get("spec").ok_or(()).and_then(|v| {
                    spec_from_value(v).map_err(|e| {
                        let _ = send(&writer, &sweep_error(e.to_string(), false));
                    })
                }) {
                    Ok(spec) => spec,
                    Err(()) => continue,
                };
                let reply = sweep_reply(&engine, &spec);
                let mut w = writer.lock().unwrap_or_else(|e| e.into_inner());
                if w.write_all(reply.as_bytes()).is_err() {
                    return;
                }
            }
            "artifact" => {
                // Exactly the bytes `SweepEngine::write_artifact` would
                // write, so a thin client's file `cmp`s clean against
                // the in-process path.
                let data = engine.artifact_value().to_json();
                if !send(
                    &writer,
                    &obj(vec![("type", Value::Str("artifact".into())), ("data", Value::Str(data))]),
                ) {
                    return;
                }
            }
            "bye" => return,
            other => {
                let _ = send(&writer, &sweep_error(format!("unknown frame type '{other}'"), false));
            }
        }
    }
}
