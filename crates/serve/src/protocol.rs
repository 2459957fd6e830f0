//! The newline-delimited JSON wire protocol.
//!
//! Every frame is one JSON object on one line, with a `"type"` field
//! naming the frame. The encoding reuses the deterministic
//! [`regwin_sweep::json`] writer, so frame bytes are stable across
//! machines — which is what lets the differential oracle `cmp` a thin
//! client's artifact against the in-process path.
//!
//! Client → server frames:
//!
//! | type | fields | meaning |
//! |------|--------|---------|
//! | `hello` | `proto`, `session` | open a session; `session` is a stable client-chosen string |
//! | `sweep` | `spec` | run one matrix through the session's engine |
//! | `artifact` | — | request the session's `BENCH_sweep.json` bytes |
//! | `shutdown` | — | ask the daemon to drain and exit |
//! | `bye` | — | close the session |
//!
//! Server → client frames:
//!
//! | type | fields | meaning |
//! |------|--------|---------|
//! | `ready` | `proto`, `session_id` | session accepted |
//! | `busy` | `detail` | daemon at `--max-clients`; try again later |
//! | `event` | `data` | one streamed job-progress event (a [`regwin_obs::StreamProbe`] line) |
//! | `records` | `records`, `summary`, `quarantine` | a sweep finished |
//! | `sweep_error` | `detail`, `draining` | a sweep failed (or was cut short by a drain) |
//! | `artifact` | `data` | the artifact bytes (exactly what the engine would write) |
//! | `ok` | — | acknowledges `shutdown` |
//!
//! Control frames decode through a [`Value`] tree: they are small. A
//! `records` frame is not (about 220 KB for 108 cells), so the client
//! takes its line from the [`FrameReader`]'s buffer without a copy,
//! splits it into members with [`regwin_sweep::json::members`], and
//! decodes the run records straight from their text with
//! [`regwin_sweep::records_from_json`], and the quarantine list with
//! [`regwin_sweep::serial::quarantine_from_json`], the decoder the
//! journal's quarantine lines share. Only `summary` goes through a
//! tree. An `event` frame is not decoded at all: the client counts the
//! `end` events by their line's prefix.
//!
//! The daemon writes a sweep's events in batches, each batch in one
//! socket write: the engine hands over what it holds after the cache
//! hits and after each executed job, and whenever 64 KiB have piled up.
//! Workers share that buffer, so a batch may carry one job's `start`
//! without its `end`. The events stay in order, and every event of a
//! sweep is written before its `records` frame.

use regwin_core::MatrixSpec;
use regwin_machine::TimingKind;
use regwin_rt::SchedulingPolicy;
use regwin_spell::CorpusSpec;
use regwin_sweep::json::{obj, parse, Value};
use regwin_sweep::{serial, SweepSummary};
use std::borrow::Cow;
use std::fmt;
use std::io::Write;

/// How every `event` frame's line begins: its `data` member, one
/// [`regwin_obs::StreamProbe`] line, follows, and `}` ends the frame.
pub(crate) const EVENT_PREFIX: &str = "{\"type\":\"event\",\"data\":";

/// The protocol revision spoken by this crate. A `hello` carrying a
/// different revision is rejected, so mismatched client/daemon builds
/// fail loudly instead of mis-decoding each other's frames.
pub const PROTO_VERSION: u64 = 1;

/// A malformed or unexpected frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError(pub String);

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}

impl std::error::Error for ProtoError {}

fn bad(detail: impl Into<String>) -> ProtoError {
    ProtoError(detail.into())
}

fn need<'v>(v: &'v Value, key: &str) -> Result<&'v Value, ProtoError> {
    v.get(key).ok_or_else(|| bad(format!("missing field '{key}'")))
}

fn need_str<'v>(v: &'v Value, key: &str) -> Result<&'v str, ProtoError> {
    need(v, key)?.as_str().ok_or_else(|| bad(format!("field '{key}' not a string")))
}

fn need_u64(v: &Value, key: &str) -> Result<u64, ProtoError> {
    need(v, key)?.as_u64().ok_or_else(|| bad(format!("field '{key}' not an integer")))
}

/// Writes one frame as a single line. Flushes, so the peer sees the
/// frame immediately.
///
/// # Errors
///
/// Propagates the underlying write error.
pub fn write_frame(w: &mut impl Write, frame: &Value) -> std::io::Result<()> {
    let mut line = frame.to_json();
    line.push('\n');
    w.write_all(line.as_bytes())?;
    w.flush()
}

/// The longest frame a [`FrameReader`] accepts, newline excluded. The
/// largest frames the protocol sends — a 108-cell `records` frame and a
/// session's `artifact` — are a few hundred KiB; a peer that streams a
/// longer line is refused rather than buffered without bound.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Bytes requested from the stream per `read`.
const READ_CHUNK: usize = 64 << 10;

/// A timeout-tolerant frame reader.
///
/// A `FrameReader` keeps partially received bytes across calls: when
/// the underlying stream has a read timeout (the daemon polls its
/// shutdown flag between reads), a `WouldBlock`/`TimedOut` error
/// surfaces to the caller *without* discarding a half-received frame.
#[derive(Debug)]
pub struct FrameReader<R> {
    inner: R,
    buf: Vec<u8>,
    /// Leading bytes of `buf` already handed out as a line, dropped at
    /// the next read.
    consumed: usize,
    /// Bytes of `buf` after `consumed` already searched for a newline.
    scanned: usize,
    chunk: Box<[u8]>,
}

impl<R: std::io::Read> FrameReader<R> {
    /// Wraps a byte stream.
    pub fn new(inner: R) -> Self {
        FrameReader {
            inner,
            buf: Vec::new(),
            consumed: 0,
            scanned: 0,
            chunk: vec![0; READ_CHUNK].into(),
        }
    }

    /// The next frame; `Ok(None)` at end of stream.
    ///
    /// # Errors
    ///
    /// Timeouts (`WouldBlock`/`TimedOut`) propagate with the partial
    /// frame retained — call again to continue. Unparseable lines, and
    /// lines longer than [`MAX_FRAME_BYTES`], surface as
    /// [`std::io::ErrorKind::InvalidData`]; the reader never buffers
    /// more than one byte past the limit.
    pub fn next_frame(&mut self) -> std::io::Result<Option<Value>> {
        let Some(line) = self.next_line()? else { return Ok(None) };
        parse(&line).map(Some).map_err(|e| invalid(format!("bad frame: {e}")))
    }

    /// The next frame's text, borrowed from the reader's buffer: a
    /// caller that decodes the text itself (the client, for `records`
    /// frames) gets it without a copy. Errors as
    /// [`FrameReader::next_frame`], except that the text is not parsed.
    pub(crate) fn next_line(&mut self) -> std::io::Result<Option<Cow<'_, str>>> {
        self.buf.drain(..std::mem::take(&mut self.consumed));
        loop {
            if let Some(pos) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
                let end = self.scanned + pos;
                self.consumed = end + 1;
                self.scanned = 0;
                return Ok(Some(String::from_utf8_lossy(&self.buf[..end])));
            }
            self.scanned = self.buf.len();
            if self.buf.len() > MAX_FRAME_BYTES {
                return Err(invalid(format!("frame longer than {MAX_FRAME_BYTES} bytes")));
            }
            let want = self.chunk.len().min(MAX_FRAME_BYTES + 1 - self.buf.len());
            match self.inner.read(&mut self.chunk[..want])? {
                0 => return Ok(None),
                n => self.buf.extend_from_slice(&self.chunk[..n]),
            }
        }
    }
}

fn invalid(detail: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, detail)
}

/// The `"type"` of a frame.
///
/// # Errors
///
/// Fails if the field is missing or not a string.
pub fn frame_type(frame: &Value) -> Result<&str, ProtoError> {
    need_str(frame, "type")
}

/// Encodes a [`MatrixSpec`] for a `sweep` frame.
pub fn spec_to_value(spec: &MatrixSpec) -> Value {
    obj(vec![
        (
            "corpus",
            obj(vec![
                ("doc_bytes", Value::Int(spec.corpus.doc_bytes as u64)),
                ("dict_bytes", Value::Int(spec.corpus.dict_bytes as u64)),
                ("seed", Value::Int(spec.corpus.seed)),
            ]),
        ),
        (
            "behaviors",
            Value::Arr(spec.behaviors.iter().map(|b| Value::Str(b.to_string())).collect()),
        ),
        ("schemes", Value::Arr(spec.schemes.iter().map(|s| Value::Str(s.name().into())).collect())),
        ("windows", Value::Arr(spec.windows.iter().map(|&w| Value::Int(w as u64)).collect())),
        ("policy", Value::Str(spec.policy.name().into())),
        ("timing", Value::Str(spec.timing.name().into())),
    ])
}

/// Decodes the `spec` of a `sweep` frame.
///
/// # Errors
///
/// Fails on missing or mistyped fields.
pub(crate) fn spec_from_value(v: &Value) -> Result<MatrixSpec, ProtoError> {
    let corpus_v = need(v, "corpus")?;
    let corpus = CorpusSpec {
        doc_bytes: need_u64(corpus_v, "doc_bytes")? as usize,
        dict_bytes: need_u64(corpus_v, "dict_bytes")? as usize,
        seed: need_u64(corpus_v, "seed")?,
    };
    let behaviors = need(v, "behaviors")?
        .as_arr()
        .ok_or_else(|| bad("'behaviors' not an array"))?
        .iter()
        .map(|b| {
            let name = b.as_str().ok_or_else(|| bad("behavior not a string"))?;
            serial::behavior_from_name(name).map_err(|e| bad(e.0))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let schemes = need(v, "schemes")?
        .as_arr()
        .ok_or_else(|| bad("'schemes' not an array"))?
        .iter()
        .map(|s| {
            let name = s.as_str().ok_or_else(|| bad("scheme not a string"))?;
            serial::scheme_from_name(name).map_err(|e| bad(e.0))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let windows = need(v, "windows")?
        .as_arr()
        .ok_or_else(|| bad("'windows' not an array"))?
        .iter()
        .map(|w| w.as_u64().map(|w| w as usize).ok_or_else(|| bad("window not an integer")))
        .collect::<Result<Vec<_>, _>>()?;
    let policy_name = need_str(v, "policy")?;
    let policy = SchedulingPolicy::parse(policy_name)
        .ok_or_else(|| bad(format!("unknown policy '{policy_name}'")))?;
    let timing_name = need_str(v, "timing")?;
    let timing = TimingKind::parse(timing_name)
        .ok_or_else(|| bad(format!("unknown timing backend '{timing_name}'")))?;
    Ok(MatrixSpec { corpus, behaviors, schemes, windows, policy, timing })
}

/// Encodes a sweep summary for a `records` frame.
pub(crate) fn summary_to_value(s: &SweepSummary) -> Value {
    obj(vec![
        ("jobs", Value::Int(s.jobs as u64)),
        ("cache_hits", Value::Int(s.cache_hits as u64)),
        ("cache_misses", Value::Int(s.cache_misses as u64)),
        ("quarantined", Value::Int(s.quarantined as u64)),
    ])
}

/// Decodes a `records` frame's summary.
///
/// # Errors
///
/// Fails on missing or mistyped fields.
pub(crate) fn summary_from_value(v: &Value) -> Result<SweepSummary, ProtoError> {
    Ok(SweepSummary {
        jobs: need_u64(v, "jobs")? as usize,
        cache_hits: need_u64(v, "cache_hits")? as usize,
        cache_misses: need_u64(v, "cache_misses")? as usize,
        quarantined: need_u64(v, "quarantined")? as usize,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use regwin_core::{Behavior, Concurrency, Granularity};
    use regwin_machine::SchemeKind;
    use regwin_sweep::records_to_json;

    fn spec() -> MatrixSpec {
        MatrixSpec {
            corpus: CorpusSpec::small(),
            behaviors: vec![
                Behavior::new(Concurrency::High, Granularity::Coarse),
                Behavior::new(Concurrency::Low, Granularity::Fine),
            ],
            schemes: vec![SchemeKind::Ns, SchemeKind::Sp],
            windows: vec![4, 8, 16],
            policy: SchedulingPolicy::WorkingSet,
            timing: TimingKind::Pipeline,
        }
    }

    #[test]
    fn specs_round_trip_through_the_wire_encoding() {
        let s = spec();
        let v = spec_to_value(&s);
        let back = spec_from_value(&parse(&v.to_json()).unwrap()).unwrap();
        assert_eq!(back.corpus, s.corpus);
        assert_eq!(back.behaviors, s.behaviors);
        assert_eq!(back.schemes, s.schemes);
        assert_eq!(back.windows, s.windows);
        assert_eq!(back.policy, s.policy);
        assert_eq!(back.timing, s.timing);
    }

    #[test]
    fn every_behavior_name_parses_back() {
        for b in Behavior::ALL {
            assert_eq!(serial::behavior_from_name(&b.to_string()).unwrap(), b);
        }
        assert!(serial::behavior_from_name("high").is_err());
        assert!(serial::behavior_from_name("high/blurry").is_err());
    }

    #[test]
    fn records_round_trip_through_the_wire_encoding() {
        let mut s = spec();
        s.windows = vec![4];
        let records = regwin_core::run_matrix(&s).expect("matrix runs");
        let frame = obj(vec![
            ("type", Value::Str("records".into())),
            ("records", Value::Raw(records_to_json(&records))),
            ("summary", summary_to_value(&SweepSummary::default())),
            ("quarantine", serial::quarantine_to_value(&[])),
        ]);
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &frame).unwrap();
        let mut reader = FrameReader::new(&bytes[..]);
        let line = reader.next_line().unwrap().expect("one frame");
        assert!(matches!(line, Cow::Borrowed(_)), "the line borrows the reader's buffer");
        let parts = regwin_sweep::json::members(&line).unwrap();
        let keys: Vec<&str> = parts.iter().map(|(k, _)| &**k).collect();
        assert_eq!(keys, ["type", "records", "summary", "quarantine"]);
        let back = regwin_sweep::records_from_json(parts[1].1).unwrap();
        assert_eq!(back.len(), records.len());
        for (a, b) in back.iter().zip(&records) {
            assert_eq!(a.behavior, b.behavior);
            assert_eq!(a.scheme, b.scheme);
            assert_eq!(a.policy, b.policy);
            assert_eq!(a.nwindows, b.nwindows);
            assert_eq!(a.report, b.report);
        }
    }

    #[test]
    fn frames_survive_a_buffered_pipe() {
        let mut buf = Vec::new();
        let f1 = obj(vec![("type", Value::Str("hello".into())), ("proto", Value::Int(1))]);
        let f2 = obj(vec![("type", Value::Str("bye".into()))]);
        write_frame(&mut buf, &f1).unwrap();
        write_frame(&mut buf, &f2).unwrap();
        let mut r = FrameReader::new(&buf[..]);
        let g1 = r.next_frame().unwrap().unwrap();
        assert_eq!(frame_type(&g1).unwrap(), "hello");
        assert_eq!(g1.get("proto").and_then(Value::as_u64), Some(1));
        let g2 = r.next_frame().unwrap().unwrap();
        assert_eq!(frame_type(&g2).unwrap(), "bye");
        assert!(r.next_frame().unwrap().is_none(), "clean EOF");
    }

    /// A reader that hands out its bytes one per `read` call.
    struct Trickle<'a>(&'a [u8]);

    impl std::io::Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            match (self.0.split_first(), out.first_mut()) {
                (Some((&b, rest)), Some(slot)) => {
                    *slot = b;
                    self.0 = rest;
                    Ok(1)
                }
                _ => Ok(0),
            }
        }
    }

    #[test]
    fn a_frame_delivered_one_byte_per_read_still_parses() {
        let mut bytes = Vec::new();
        let mut s = spec();
        s.windows = vec![4];
        let records = regwin_core::run_matrix(&s).expect("matrix runs");
        let frame = obj(vec![
            ("type", Value::Str("records".into())),
            ("records", Value::Raw(records_to_json(&records))),
        ]);
        write_frame(&mut bytes, &frame).unwrap();
        write_frame(&mut bytes, &obj(vec![("type", Value::Str("bye".into()))])).unwrap();
        let mut reader = FrameReader::new(Trickle(&bytes));
        // The built frame holds `Raw` records, which never equal their
        // parsed form; compare against the frame as parsed whole.
        assert_eq!(reader.next_frame().unwrap(), Some(parse(&frame.to_json()).unwrap()));
        assert_eq!(frame_type(&reader.next_frame().unwrap().unwrap()).unwrap(), "bye");
        assert!(reader.next_frame().unwrap().is_none(), "clean EOF");
    }

    /// An endless line of `[`, counting what the reader asks for.
    struct Endless {
        served: usize,
    }

    impl std::io::Read for Endless {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            out.fill(b'[');
            self.served += out.len();
            Ok(out.len())
        }
    }

    #[test]
    fn an_oversized_unterminated_line_is_refused_without_buffering_past_the_cap() {
        let mut reader = FrameReader::new(Endless { served: 0 });
        let err = reader.next_frame().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("longer than"), "{err}");
        assert_eq!(reader.inner.served, MAX_FRAME_BYTES + 1);
    }

    #[test]
    fn summaries_round_trip() {
        let s = SweepSummary { jobs: 9, cache_hits: 4, cache_misses: 5, quarantined: 1 };
        let back = summary_from_value(&summary_to_value(&s)).unwrap();
        assert_eq!(back, s);
    }
}
