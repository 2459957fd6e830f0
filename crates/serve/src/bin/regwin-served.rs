//! The sweep daemon binary.
//!
//! ```text
//! regwin-served --socket <path> [--cache-dir <dir> | --no-cache]
//!               [--journal-dir <dir>] [--workers <n>] [--max-clients <n>]
//! ```
//!
//! Listens on a Unix-domain socket and serves sweep sessions (see the
//! `regwin-serve` crate docs). SIGTERM or SIGINT triggers a graceful
//! drain: in-flight jobs finish and journal, queued jobs are skipped,
//! the socket file is removed, and the process exits 0 — restart the
//! daemon and re-run the clients to resume from the journals.

use regwin_serve::{Server, ServerConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The flag SIGTERM/SIGINT flip; polled by the accept loop.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Installs `on_signal` for SIGTERM and SIGINT via the C `signal`
/// symbol, avoiding an external crate for one syscall.
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_signal as extern "C" fn(i32) as usize;
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
}

fn usage(problem: &str) -> ! {
    if !problem.is_empty() {
        eprintln!("error: {problem}");
    }
    eprintln!(
        "usage: regwin-served --socket <path> [--cache-dir <dir> | --no-cache] \
         [--journal-dir <dir>] [--workers <n>] [--max-clients <n>]"
    );
    std::process::exit(if problem.is_empty() { 0 } else { 2 });
}

fn main() {
    let mut config = ServerConfig::default();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => {
                config.socket =
                    PathBuf::from(it.next().unwrap_or_else(|| usage("--socket needs a path")));
            }
            "--cache-dir" => {
                config.cache_dir = Some(PathBuf::from(
                    it.next().unwrap_or_else(|| usage("--cache-dir needs a dir")),
                ));
            }
            "--no-cache" => config.cache_dir = None,
            "--journal-dir" => {
                config.journal_dir = Some(PathBuf::from(
                    it.next().unwrap_or_else(|| usage("--journal-dir needs a dir")),
                ));
            }
            "--workers" => {
                config.workers = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--workers needs a thread count"));
            }
            "--max-clients" => {
                config.max_clients = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--max-clients needs a count"));
                if config.max_clients == 0 {
                    usage("--max-clients must be at least 1");
                }
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if let Some(dir) = &config.journal_dir {
        if let Err(e) = regwin_sweep::create_dir(dir) {
            eprintln!("error: cannot create journal dir {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
    install_signal_handlers();
    let shutdown = Arc::new(AtomicBool::new(false));
    // Bridge the signal-handler static into the server's shared flag.
    let server = match Server::bind(config, Arc::clone(&shutdown)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    eprintln!("regwin-served: listening on {}", server.socket().display());
    let relay = {
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || {
            while !SHUTDOWN.load(Ordering::SeqCst) && !shutdown.load(Ordering::SeqCst) {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            shutdown.store(true, Ordering::SeqCst);
        })
    };
    match server.run() {
        Ok(()) => {
            eprintln!("regwin-served: drained, exiting");
            let _ = relay.join();
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
