//! Process resource counters from `getrusage(RUSAGE_SELF)`.
//!
//! `getrusage` sums every thread the process ever ran, including threads
//! that have already exited — which is where the simulator's handoffs
//! happen (each simulated thread is an OS thread that exits when its
//! simulation ends). `/proc/self/status` reports the main thread only
//! and would miss almost all of them.

use std::os::raw::{c_int, c_long};

#[repr(C)]
#[derive(Clone, Copy)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// Linux `struct rusage` (see getrusage(2)).
#[repr(C)]
#[derive(Clone, Copy)]
struct RawUsage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    ru_ixrss: c_long,
    ru_idrss: c_long,
    ru_isrss: c_long,
    ru_minflt: c_long,
    ru_majflt: c_long,
    ru_nswap: c_long,
    ru_inblock: c_long,
    ru_oublock: c_long,
    ru_msgsnd: c_long,
    ru_msgrcv: c_long,
    ru_nsignals: c_long,
    ru_nvcsw: c_long,
    ru_nivcsw: c_long,
}

const RUSAGE_SELF: c_int = 0;

extern "C" {
    // std links the C library already, so no extra crate is needed.
    fn getrusage(who: c_int, usage: *mut RawUsage) -> c_int;
}

/// A snapshot of the counters this benchmark reports.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    /// User CPU time, seconds.
    pub user_s: f64,
    /// System CPU time, seconds.
    pub sys_s: f64,
    /// Voluntary context switches.
    pub vcsw: u64,
    /// Involuntary context switches.
    pub ivcsw: u64,
    /// Peak resident set size, KiB.
    pub maxrss_kib: u64,
}

impl Usage {
    /// The process's counters now.
    pub fn now() -> Usage {
        let mut raw = std::mem::MaybeUninit::<RawUsage>::zeroed();
        // SAFETY: `raw` is a writable, properly aligned `struct rusage`
        // (the `repr(C)` layout above matches Linux's), and RUSAGE_SELF
        // is a valid `who`, so getrusage only writes within it.
        let rc = unsafe { getrusage(RUSAGE_SELF, raw.as_mut_ptr()) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail with valid arguments");
        // SAFETY: zero-initialised and then filled by the kernel; every
        // field is a plain integer, so any bit pattern is valid.
        let raw = unsafe { raw.assume_init() };
        let secs = |t: Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
        Usage {
            user_s: secs(raw.ru_utime),
            sys_s: secs(raw.ru_stime),
            vcsw: raw.ru_nvcsw.max(0) as u64,
            ivcsw: raw.ru_nivcsw.max(0) as u64,
            maxrss_kib: raw.ru_maxrss.max(0) as u64,
        }
    }

    /// The counters accumulated since `earlier` (peak RSS is not a
    /// counter, so the later snapshot's value is kept).
    pub fn since(self, earlier: Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            vcsw: self.vcsw.saturating_sub(earlier.vcsw),
            ivcsw: self.ivcsw.saturating_sub(earlier.ivcsw),
            maxrss_kib: self.maxrss_kib,
        }
    }

    /// User plus system CPU time, seconds.
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn counts_voluntary_switches_of_threads_that_have_exited() {
        const PARKS: u64 = 200;
        let before = Usage::now();
        let (tx, rx) = mpsc::channel::<()>();
        let sleeper = std::thread::spawn(move || {
            for _ in 0..PARKS {
                // Each timed-out park blocks in the kernel: one
                // voluntary switch of this (non-main) thread.
                std::thread::park_timeout(Duration::from_micros(200));
            }
            drop(tx);
        });
        // The main thread waits without spinning; the counted switches
        // must come from the worker, which has exited by the snapshot.
        let _ = rx.recv();
        sleeper.join().expect("sleeper thread panicked");
        let delta = Usage::now().since(before);
        assert!(delta.vcsw >= PARKS, "only {} voluntary switches counted", delta.vcsw);
    }

    #[test]
    fn cpu_time_and_peak_rss_are_positive() {
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let u = Usage::now();
        assert!(u.cpu_s() > 0.0);
        assert!(u.maxrss_kib > 0);
        assert!(std::hint::black_box(x) != 1);
    }
}
