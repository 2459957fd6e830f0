//! End-to-end daemon tests: a server thread on a temp socket, real
//! `ServeClient` sessions, and byte-identity against the in-process
//! path — the differential oracle the whole service hangs on.

use regwin_core::{Behavior, Concurrency, Granularity, MatrixSpec};
use regwin_machine::{SchemeKind, TimingKind};
use regwin_rt::SchedulingPolicy;
use regwin_serve::protocol::{frame_type, spec_to_value, write_frame, FrameReader, PROTO_VERSION};
use regwin_serve::{ClientError, ServeClient, Server, ServerConfig};
use regwin_spell::CorpusSpec;
use regwin_sweep::json::{obj, parse, Value};
use regwin_sweep::{
    records_frame_from_json, records_to_json, write_records_frame, JobKey, RecordsFrame,
    SweepConfig, SweepEngine,
};
use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn spec_a() -> MatrixSpec {
    MatrixSpec {
        corpus: CorpusSpec::small(),
        behaviors: vec![Behavior::new(Concurrency::High, Granularity::Medium)],
        schemes: vec![SchemeKind::Ns, SchemeKind::Sp],
        windows: vec![4, 8],
        policy: SchedulingPolicy::Fifo,
        timing: TimingKind::S20,
    }
}

/// Overlaps `spec_a` on (NS, 8) and (SP, 8), adds (SNP, 8) and w=12.
fn spec_b() -> MatrixSpec {
    MatrixSpec {
        corpus: CorpusSpec::small(),
        behaviors: vec![Behavior::new(Concurrency::High, Granularity::Medium)],
        schemes: vec![SchemeKind::Ns, SchemeKind::Snp, SchemeKind::Sp],
        windows: vec![8, 12],
        policy: SchedulingPolicy::Fifo,
        timing: TimingKind::S20,
    }
}

struct TestDaemon {
    dir: PathBuf,
    socket: PathBuf,
    shutdown: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl TestDaemon {
    fn start(tag: &str, max_clients: usize) -> Self {
        let dir = std::env::temp_dir().join(format!("regwin-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Self::restart(dir, max_clients)
    }

    /// Starts (or restarts) a daemon over an existing state directory,
    /// reusing its cache and journals.
    fn restart(dir: PathBuf, max_clients: usize) -> Self {
        let socket = dir.join("daemon.sock");
        let shutdown = Arc::new(AtomicBool::new(false));
        let config = ServerConfig {
            socket: socket.clone(),
            cache_dir: Some(dir.join("cache")),
            journal_dir: Some(dir.join("journals")),
            workers: 2,
            max_clients,
        };
        std::fs::create_dir_all(dir.join("journals")).unwrap();
        let server = Server::bind(config, Arc::clone(&shutdown)).expect("daemon binds");
        let handle = std::thread::spawn(move || server.run());
        TestDaemon { dir, socket, shutdown, handle: Some(handle) }
    }

    fn connect(&self, session: &str) -> Result<ServeClient, ClientError> {
        // The daemon thread may still be between bind and accept; the
        // listener exists once bind returned, so connect just works.
        ServeClient::connect(&self.socket, session)
    }

    /// Flips the shutdown flag and joins the daemon thread.
    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            h.join().unwrap().expect("daemon exits cleanly");
        }
    }

    /// Stops the daemon and deletes its state directory. Call at the
    /// end of a test; plain `drop` keeps the directory so a restarted
    /// daemon can reuse it.
    fn cleanup(mut self) {
        self.stop();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Drop for TestDaemon {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The in-process ground truth for a session running `specs` in order:
/// a fresh deterministic engine, no cache.
fn reference(specs: &[MatrixSpec]) -> (Vec<Vec<regwin_core::RunRecord>>, String) {
    let engine = SweepEngine::with_config(
        SweepConfig::builder().deterministic_artifact(true).workers(2).build().unwrap(),
    );
    let records = specs.iter().map(|s| engine.run_matrix(s).expect("reference runs")).collect();
    (records, engine.artifact_value().to_json())
}

fn assert_same_records(got: &[regwin_core::RunRecord], want: &[regwin_core::RunRecord]) {
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.behavior, w.behavior);
        assert_eq!(g.scheme, w.scheme);
        assert_eq!(g.policy, w.policy);
        assert_eq!(g.nwindows, w.nwindows);
        assert_eq!(g.report, w.report, "remote records must be bit-equal");
    }
}

#[test]
fn a_thin_client_matches_the_in_process_path_byte_for_byte() {
    let daemon = TestDaemon::start("basic", 4);
    let (want_records, want_artifact) = reference(&[spec_a()]);

    let mut client = daemon.connect("basic-session").expect("client connects");
    assert_eq!(client.session_id().len(), 16);
    let records = client.run_matrix(&spec_a()).expect("remote sweep runs");
    assert_same_records(&records, &want_records[0]);
    let summary = client.summary();
    assert_eq!(summary.jobs, spec_a().len());
    assert_eq!(summary.quarantined, 0);
    assert!(client.quarantine().is_empty());
    let artifact = client.artifact().expect("artifact fetch");
    assert_eq!(artifact, want_artifact, "thin-client artifact must be byte-identical");
    client.bye();
    daemon.cleanup();
}

#[test]
fn two_concurrent_clients_with_overlapping_sweeps_both_match() {
    let daemon = TestDaemon::start("pair", 4);
    let (want_a, artifact_a) = reference(&[spec_a()]);
    let (want_b, artifact_b) = reference(&[spec_b()]);

    std::thread::scope(|scope| {
        let socket_a: &Path = &daemon.socket;
        let socket_b: &Path = &daemon.socket;
        let a = scope.spawn(move || {
            let mut client = ServeClient::connect(socket_a, "client-a").expect("a connects");
            let records = client.run_matrix(&spec_a()).expect("a sweeps");
            let artifact = client.artifact().expect("a artifact");
            client.bye();
            (records, artifact)
        });
        let b = scope.spawn(move || {
            let mut client = ServeClient::connect(socket_b, "client-b").expect("b connects");
            let records = client.run_matrix(&spec_b()).expect("b sweeps");
            let artifact = client.artifact().expect("b artifact");
            client.bye();
            (records, artifact)
        });
        let (records, artifact) = a.join().unwrap();
        assert_same_records(&records, &want_a[0]);
        assert_eq!(artifact, artifact_a, "client a artifact must be byte-identical");
        let (records, artifact) = b.join().unwrap();
        assert_same_records(&records, &want_b[0]);
        assert_eq!(artifact, artifact_b, "client b artifact must be byte-identical");
    });
    daemon.cleanup();
}

#[test]
fn a_session_resumes_byte_identically_across_a_daemon_restart() {
    let mut daemon = TestDaemon::start("resume", 4);
    let (_, want_artifact) = reference(&[spec_b()]);

    // First daemon lifetime: run the sweep and stop (the journal keeps
    // every completed job).
    let mut client = daemon.connect("resume-session").expect("client connects");
    client.run_matrix(&spec_b()).expect("first run");
    let first_artifact = client.artifact().expect("first artifact");
    assert_eq!(first_artifact, want_artifact);
    client.bye();
    daemon.stop();
    let dir = daemon.dir.clone();
    drop(std::mem::replace(&mut daemon, TestDaemon::restart(dir.clone(), 4)));

    // Second lifetime, same session string: the journal replays, the
    // sweep is pure replay, and the artifact is byte-identical.
    let mut client = daemon.connect("resume-session").expect("client reconnects");
    let records = client.run_matrix(&spec_b()).expect("resumed run");
    assert_eq!(records.len(), spec_b().len());
    let artifact = client.artifact().expect("resumed artifact");
    assert_eq!(artifact, want_artifact, "restart + resume must be byte-identical");
    client.bye();
    daemon.cleanup();
}

#[test]
fn a_draining_daemon_cuts_sweeps_short_and_a_restart_completes_them() {
    let mut daemon = TestDaemon::start("drain", 4);
    let (_, want_artifact) = reference(&[spec_b()]);

    let mut client = daemon.connect("drain-session").expect("client connects");
    // Trip the drain before the sweep: depending on timing the session
    // either errors the sweep (gate closed / draining) or the
    // connection drops — both are acceptable shutdown behaviours, and
    // either way nothing wrong lands in the journal.
    daemon.shutdown.store(true, Ordering::SeqCst);
    // Either the sweep slips in whole before the gate closes (legal —
    // everything it finished is journaled like any other run), or it is
    // cut short with a draining error / dropped connection.
    if let Ok(records) = client.run_matrix(&spec_b()) {
        assert_eq!(records.len(), spec_b().len());
    }
    daemon.stop();

    // Restart: the same session completes the sweep and the artifact is
    // byte-identical to an undisturbed run.
    let dir = daemon.dir.clone();
    drop(std::mem::replace(&mut daemon, TestDaemon::restart(dir, 4)));
    let mut client = daemon.connect("drain-session").expect("client reconnects");
    client.run_matrix(&spec_b()).expect("post-restart run");
    let artifact = client.artifact().expect("post-restart artifact");
    assert_eq!(artifact, want_artifact, "drain must never corrupt the journaled session");
    client.bye();
    daemon.cleanup();
}

#[test]
fn the_client_limit_turns_extra_connections_away_with_busy() {
    let daemon = TestDaemon::start("busy", 1);
    let client = daemon.connect("first").expect("first client connects");
    // The daemon closes a refused socket without reading the hello, so
    // the race between that close and the hello write is retried enough
    // times to lose it reliably if `connect` ever mishandles it again.
    for attempt in 0..20 {
        match daemon.connect("second") {
            Err(ClientError::Busy(detail)) => assert!(detail.contains("limit")),
            other => panic!("attempt {attempt}: expected busy, got {other:?}"),
        }
    }
    client.bye();
    daemon.cleanup();
}

/// Opens a session by hand: connects, says `hello` and reads `ready`.
fn raw_session(socket: &Path, session: &str) -> (UnixStream, FrameReader<UnixStream>) {
    let stream = UnixStream::connect(socket).expect("raw client connects");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = FrameReader::new(stream);
    write_frame(
        &mut writer,
        &obj(vec![
            ("type", Value::Str("hello".into())),
            ("proto", Value::Int(PROTO_VERSION)),
            ("session", Value::Str(session.into())),
        ]),
    )
    .unwrap();
    let ready = reader.next_frame().unwrap().expect("ready frame");
    assert_eq!(frame_type(&ready).unwrap(), "ready");
    (writer, reader)
}

/// Sends `line` from a hostile session while a well-behaved client
/// sweeps: the daemon answers with a `sweep_error` whose detail names
/// `why` and closes the hostile session, and the well-behaved client
/// still gets a byte-identical artifact.
fn a_hostile_line_closes_only_its_own_session(tag: &str, line: &[u8], why: &str) {
    let daemon = TestDaemon::start(tag, 4);
    let (_, want_artifact) = reference(&[spec_a()]);

    std::thread::scope(|scope| {
        let socket: &Path = &daemon.socket;
        let good = scope.spawn(move || {
            let mut client = ServeClient::connect(socket, "well-behaved").expect("connects");
            client.run_matrix(&spec_a()).expect("sweeps");
            let artifact = client.artifact().expect("artifact");
            client.bye();
            artifact
        });

        let (mut writer, mut reader) = raw_session(socket, "hostile");
        writer.write_all(line).unwrap();
        let reply = reader.next_frame().unwrap().expect("an error frame");
        assert_eq!(frame_type(&reply).unwrap(), "sweep_error");
        let detail = reply.get("detail").and_then(Value::as_str).unwrap();
        assert!(detail.contains(why), "{detail}");
        assert!(reader.next_frame().unwrap().is_none(), "the daemon closes the session");

        let artifact = good.join().unwrap();
        assert_eq!(artifact, want_artifact, "a concurrent client is unaffected");
    });
    daemon.cleanup();
}

#[test]
fn a_deeply_nested_frame_closes_only_its_own_session() {
    // One mebibyte of `[`: without a nesting limit the parser recurses
    // until the session thread's stack overflows, which aborts the whole
    // daemon.
    let mut line = vec![b'['; 1 << 20];
    line.push(b'\n');
    a_hostile_line_closes_only_its_own_session("nesting", &line, "nesting");
}

#[test]
fn a_frame_that_is_not_utf8_closes_only_its_own_session() {
    // Valid JSON but for two bytes that are no UTF-8 at all: read as
    // replacement characters, it would be a `sweep` with a bad spec and
    // the session would go on.
    let line = b"{\"type\":\"sweep\",\"spec\":\"\xff\xfe\"}\n";
    a_hostile_line_closes_only_its_own_session("utf8", line, "UTF-8");
}

/// No frame stops the daemon: a client's `shutdown` frame is an unknown
/// frame type like any other, and a client that connects afterwards
/// still gets a byte-identical artifact.
#[test]
fn a_shutdown_frame_does_not_stop_the_daemon() {
    let daemon = TestDaemon::start("shutdown-frame", 4);
    let (_, want_artifact) = reference(&[spec_a()]);
    let (mut writer, mut reader) = raw_session(&daemon.socket, "would-stop");
    write_frame(&mut writer, &obj(vec![("type", Value::Str("shutdown".into()))])).unwrap();
    let reply = reader.next_frame().unwrap().expect("an error frame");
    assert_eq!(frame_type(&reply).unwrap(), "sweep_error");
    let detail = reply.get("detail").and_then(Value::as_str).unwrap();
    assert!(detail.contains("unknown frame type 'shutdown'"), "{detail}");
    drop((writer, reader));

    let mut client = daemon.connect("after-shutdown").expect("the daemon still accepts");
    client.run_matrix(&spec_a()).expect("sweeps");
    assert_eq!(client.artifact().expect("artifact"), want_artifact);
    client.bye();
    daemon.cleanup();
}

#[test]
fn connections_are_accepted_as_soon_as_they_arrive() {
    let daemon = TestDaemon::start("accept", 8);
    let t0 = Instant::now();
    for i in 0..100 {
        let client = daemon.connect(&format!("accept-{i}")).expect("client connects");
        client.bye();
    }
    let elapsed = t0.elapsed();
    // A loop that sleeps 20 ms whenever no connection is pending takes
    // about 1.1 s for these 100 sessions.
    assert!(elapsed < Duration::from_millis(500), "100 sessions took {elapsed:?}");
    daemon.cleanup();
}

/// One raw session: `hello`, one `sweep` of `spec`, and every line the
/// daemon sends after `ready` up to and including the `records` frame,
/// exactly as it arrived.
fn raw_sweep_lines(socket: &Path, session: &str, spec: &MatrixSpec) -> Vec<String> {
    let stream = UnixStream::connect(socket).expect("client connects");
    stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = std::io::BufReader::new(stream);
    let mut next_line = || {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0, "the daemon closed the session");
        line
    };
    let hello = obj(vec![
        ("type", Value::Str("hello".into())),
        ("proto", Value::Int(PROTO_VERSION)),
        ("session", Value::Str(session.into())),
    ]);
    write_frame(&mut writer, &hello).unwrap();
    assert_eq!(frame_type(&parse(&next_line()).unwrap()).unwrap(), "ready");
    let sweep = obj(vec![("type", Value::Str("sweep".into())), ("spec", spec_to_value(spec))]);
    write_frame(&mut writer, &sweep).unwrap();
    let mut lines = Vec::new();
    loop {
        let line = next_line();
        let records = line.starts_with("{\"type\":\"records\",");
        lines.push(line);
        if records {
            write_frame(&mut writer, &obj(vec![("type", Value::Str("bye".into()))])).unwrap();
            return lines;
        }
    }
}

/// Checks a sweep's lines: exactly one `start` and one `end` event per
/// cell, each start before its end, and every event before the
/// `records` frame, which comes last and is exactly what the frame
/// encoder writes for what it decodes to. Returns the frame's `records`
/// text and the decoded frame.
fn events_then_records(lines: &[String], spec: &MatrixSpec) -> (String, RecordsFrame) {
    let (records, events) = lines.split_last().expect("a records frame");
    assert_eq!(events.len(), 2 * spec.len(), "two events per cell");
    // Job name → whether its end has arrived.
    let mut ended: BTreeMap<String, bool> = BTreeMap::new();
    for line in events {
        let frame = parse(line).unwrap();
        assert_eq!(frame_type(&frame).unwrap(), "event", "{line}");
        let data = frame.get("data").unwrap();
        let name = data.get("name").and_then(Value::as_str).unwrap().to_string();
        match data.get("ev").and_then(Value::as_str) {
            Some("start") => assert_eq!(ended.insert(name, false), None, "{line}"),
            Some("end") => assert_eq!(ended.insert(name, true), Some(false), "{line}"),
            other => panic!("unexpected event {other:?}"),
        }
    }
    assert_eq!(ended.len(), spec.len(), "one start per cell");
    assert!(ended.values().all(|&end| end), "every start has its end");
    let line = records.strip_suffix('\n').expect("one line");
    let frame = records_frame_from_json(line).unwrap().expect("a records frame");
    let records = records_to_json(&frame.records);
    let mut encoded = String::new();
    write_records_frame(&mut encoded, |out| {
        out.push_str(&records);
        Ok::<_, ()>((frame.summary, frame.quarantine.clone()))
    })
    .unwrap();
    assert_eq!(encoded, line, "the frame is the encoder's bytes");
    (records, frame)
}

#[test]
fn cold_warm_and_mixed_sweeps_send_two_events_per_cell_then_the_in_process_records_text() {
    let daemon = TestDaemon::start("frames", 4);
    let spec = spec_b();
    let want = records_to_json(&reference(std::slice::from_ref(&spec)).0[0]);
    let hits = |frame: &RecordsFrame| frame.summary.cache_hits as u64;

    let (records, summary) =
        events_then_records(&raw_sweep_lines(&daemon.socket, "cold", &spec), &spec);
    assert_eq!(records, want, "a cold sweep's records text");
    assert_eq!(hits(&summary), 0);

    let (records, summary) =
        events_then_records(&raw_sweep_lines(&daemon.socket, "warm", &spec), &spec);
    assert_eq!(records, want, "a warm sweep's records text, from the cached bytes");
    assert_eq!(hits(&summary), spec.len() as u64);

    // Two cells lose their cache entries: the next sweep is mixed.
    for scheme in [SchemeKind::Ns, SchemeKind::Sp] {
        let key = JobKey::for_cell(&spec, spec.behaviors[0], scheme, 12);
        std::fs::remove_file(daemon.dir.join("cache").join(format!("{}.json", key.id()))).unwrap();
    }
    let (records, summary) =
        events_then_records(&raw_sweep_lines(&daemon.socket, "mixed", &spec), &spec);
    assert_eq!(records, want, "a mixed sweep's records text");
    assert_eq!(hits(&summary), spec.len() as u64 - 2);
    daemon.cleanup();
}
