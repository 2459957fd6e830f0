//! The thin client: speak the daemon protocol on behalf of a repro
//! binary.
//!
//! A [`ServeClient`] replaces an in-process [`regwin_sweep::SweepEngine`]
//! for the sweep half of a repro run: it ships each [`MatrixSpec`] to
//! the daemon, relays streamed job-progress events to stderr, and
//! returns the decoded run records — which are bit-equal to what the
//! in-process engine would produce, so everything computed from them
//! (tables, figures, artifacts) is byte-identical.

use crate::protocol::{
    frame_type, spec_to_value, summary_from_value, write_frame, FrameReader, EVENT_PREFIX,
    PROTO_VERSION,
};
use regwin_core::{MatrixSpec, RunRecord};
use regwin_sweep::json::{members, obj, parse, Value};
use regwin_sweep::serial::quarantine_from_json;
use regwin_sweep::{records_from_json, QuarantineRecord, SweepSummary};
use std::fmt;
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The socket died or the daemon closed it mid-exchange.
    Io(std::io::Error),
    /// The daemon sent something this client cannot decode.
    Protocol(String),
    /// The daemon is at its client limit.
    Busy(String),
    /// The daemon reported a sweep failure. `draining` is set when the
    /// failure is a graceful shutdown cutting the sweep short (the
    /// daemon journaled what finished; reconnect after restart to
    /// resume).
    Sweep {
        /// The daemon's error message.
        detail: String,
        /// Whether the daemon was draining for shutdown.
        draining: bool,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "server connection failed: {e}"),
            ClientError::Protocol(detail) => write!(f, "server protocol error: {detail}"),
            ClientError::Busy(detail) => write!(f, "server busy: {detail}"),
            ClientError::Sweep { detail, .. } => write!(f, "server sweep failed: {detail}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

fn closed() -> ClientError {
    ClientError::Protocol("daemon closed the connection".into())
}

/// A frame that is not valid JSON: what [`FrameReader::next_frame`]
/// reports for it.
fn bad_frame(e: regwin_sweep::json::ParseError) -> ClientError {
    ClientError::Io(std::io::Error::new(std::io::ErrorKind::InvalidData, format!("bad frame: {e}")))
}

/// How often at most the progress line of a remote sweep is redrawn.
const PROGRESS_EVERY: Duration = Duration::from_millis(100);

/// Draws a sweep's progress line on stderr in one write, ending the
/// line once all `total` runs are done.
fn draw_progress(done: usize, total: usize) {
    let end = if done == total { "\n" } else { "" };
    let _ =
        std::io::stderr().write_all(format!("\r  {done}/{total} runs (remote){end}").as_bytes());
}

/// A connected session with a sweep daemon.
#[derive(Debug)]
pub struct ServeClient {
    reader: FrameReader<UnixStream>,
    writer: UnixStream,
    session_id: String,
    summary: SweepSummary,
    quarantine: Vec<QuarantineRecord>,
}

impl ServeClient {
    /// Connects to the daemon at `socket` and opens a session.
    ///
    /// `session` is a stable client-chosen string (for the repro
    /// binaries: the binary name plus its sweep-defining flags); the
    /// daemon hashes it into the session id that names the session's
    /// journal, so re-running the same invocation after a daemon
    /// restart resumes its journal.
    ///
    /// # Errors
    ///
    /// [`ClientError::Busy`] when the daemon is at its client limit,
    /// [`ClientError::Io`]/[`ClientError::Protocol`] on a dead or
    /// incompatible daemon.
    pub fn connect(socket: &Path, session: &str) -> Result<Self, ClientError> {
        let stream = UnixStream::connect(socket)?;
        let writer = stream.try_clone()?;
        let mut client = ServeClient {
            reader: FrameReader::new(stream),
            writer,
            session_id: String::new(),
            summary: SweepSummary::default(),
            quarantine: Vec::new(),
        };
        let hello = write_frame(
            &mut client.writer,
            &obj(vec![
                ("type", Value::Str("hello".into())),
                ("proto", Value::Int(PROTO_VERSION)),
                ("session", Value::Str(session.to_string())),
            ]),
        );
        // A daemon at its client limit writes `busy` and closes without
        // reading, so the hello can fail with a broken pipe while the
        // `busy` frame waits unread: read one frame either way, and
        // report the write error only if that frame is not `busy`.
        let frame = client.expect_frame();
        let is_busy = |f: &Value| frame_type(f).is_ok_and(|t| t == "busy");
        let frame = match (hello, frame) {
            (_, Ok(frame)) if is_busy(&frame) => frame,
            (Err(e), _) => return Err(ClientError::Io(e)),
            (Ok(()), frame) => frame?,
        };
        match frame_type(&frame).unwrap_or("?") {
            "ready" => {
                client.session_id =
                    frame.get("session_id").and_then(Value::as_str).unwrap_or("").to_string();
                Ok(client)
            }
            "busy" => Err(ClientError::Busy(
                frame.get("detail").and_then(Value::as_str).unwrap_or("no detail").to_string(),
            )),
            other => Err(ClientError::Protocol(format!("expected ready, got '{other}'"))),
        }
    }

    /// The daemon-assigned session id (the FNV-1a hash of the session
    /// string, in hex).
    pub fn session_id(&self) -> &str {
        &self.session_id
    }

    /// The daemon-side sweep summary after the last
    /// [`ServeClient::run_matrix`].
    pub fn summary(&self) -> SweepSummary {
        self.summary
    }

    /// The daemon-side quarantine list after the last
    /// [`ServeClient::run_matrix`].
    pub fn quarantine(&self) -> Vec<QuarantineRecord> {
        self.quarantine.clone()
    }

    fn expect_frame(&mut self) -> Result<Value, ClientError> {
        self.reader.next_frame()?.ok_or_else(closed)
    }

    /// Runs `spec` on the daemon, relaying progress events to stderr,
    /// and returns the run records.
    ///
    /// # Errors
    ///
    /// [`ClientError::Sweep`] when the daemon reports a failed (or
    /// drain-interrupted) sweep; I/O and protocol errors as usual.
    pub fn run_matrix(&mut self, spec: &MatrixSpec) -> Result<Vec<RunRecord>, ClientError> {
        write_frame(
            &mut self.writer,
            &obj(vec![("type", Value::Str("sweep".into())), ("spec", spec_to_value(spec))]),
        )?;
        // Runs done, then the count last drawn and when.
        let (total, mut done, mut drawn) = (spec.len(), 0, (0, Instant::now()));
        loop {
            let line = self.reader.next_line()?.ok_or_else(closed)?;
            if let Some(data) = line.strip_prefix(EVENT_PREFIX) {
                if data.starts_with("{\"ev\":\"end\"") {
                    done += 1;
                    if done == total || drawn.1.elapsed() >= PROGRESS_EVERY {
                        draw_progress(done, total);
                        drawn = (done, Instant::now());
                    }
                }
                continue;
            }
            // Every other frame is split into its members first, so a
            // `records` frame's run records decode straight from their
            // text in the reader's buffer, with no tree and no copy.
            let parts = members(&line).map_err(bad_frame)?;
            let part = |name: &str| {
                parts
                    .iter()
                    .find(|(key, _)| key == name)
                    .map(|&(_, text)| text)
                    .ok_or_else(|| ClientError::Protocol(format!("frame without '{name}'")))
            };
            let kind = parse(part("type")?).map_err(bad_frame)?;
            if kind.as_str() == Some("records") {
                if drawn.0 != done {
                    draw_progress(done, total);
                }
                let small = |name: &str| parse(part(name)?).map_err(bad_frame);
                self.summary = summary_from_value(&small("summary")?)
                    .map_err(|e| ClientError::Protocol(e.0))?;
                self.quarantine = quarantine_from_json(part("quarantine")?)
                    .map_err(|e| ClientError::Protocol(e.0))?;
                return records_from_json(part("records")?)
                    .map_err(|e| ClientError::Protocol(e.to_string()));
            }
            let frame = parse(&line).map_err(bad_frame)?;
            match frame_type(&frame).unwrap_or("?") {
                // An event in another layout than the daemon writes.
                "event" => {}
                "sweep_error" => {
                    return Err(ClientError::Sweep {
                        detail: frame
                            .get("detail")
                            .and_then(Value::as_str)
                            .unwrap_or("no detail")
                            .to_string(),
                        draining: frame.get("draining").and_then(Value::as_bool).unwrap_or(false),
                    });
                }
                other => {
                    return Err(ClientError::Protocol(format!(
                        "unexpected frame '{other}' during sweep"
                    )));
                }
            }
        }
    }

    /// Fetches the session's artifact — exactly the bytes the daemon's
    /// engine would write as `BENCH_sweep.json`.
    ///
    /// # Errors
    ///
    /// I/O and protocol errors.
    pub fn artifact(&mut self) -> Result<String, ClientError> {
        write_frame(&mut self.writer, &obj(vec![("type", Value::Str("artifact".into()))]))?;
        loop {
            let frame = self.expect_frame()?;
            match frame_type(&frame).unwrap_or("?") {
                // A straggling event from the sweep is harmless here.
                "event" => {}
                "artifact" => {
                    return frame
                        .get("data")
                        .and_then(Value::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| {
                            ClientError::Protocol("artifact frame without data".into())
                        });
                }
                other => {
                    return Err(ClientError::Protocol(format!(
                        "unexpected frame '{other}' awaiting artifact"
                    )));
                }
            }
        }
    }

    /// Asks the daemon to drain and exit.
    ///
    /// # Errors
    ///
    /// I/O and protocol errors.
    pub fn shutdown_daemon(&mut self) -> Result<(), ClientError> {
        write_frame(&mut self.writer, &obj(vec![("type", Value::Str("shutdown".into()))]))?;
        loop {
            let frame = self.expect_frame()?;
            match frame_type(&frame).unwrap_or("?") {
                "event" => {}
                "ok" => return Ok(()),
                other => {
                    return Err(ClientError::Protocol(format!(
                        "unexpected frame '{other}' awaiting shutdown ack"
                    )));
                }
            }
        }
    }

    /// Closes the session politely.
    pub fn bye(mut self) {
        let _ = write_frame(&mut self.writer, &obj(vec![("type", Value::Str("bye".into()))]));
    }
}
