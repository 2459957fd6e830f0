//! Runtime error type.

use regwin_machine::{MachineError, ThreadId};
use regwin_traps::SchemeError;
use std::error::Error;
use std::fmt;

/// Errors raised by the runtime.
///
/// The enum is `#[non_exhaustive]`: new failure modes may be added
/// without a semver break, so downstream matches need a wildcard arm.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RtError {
    /// An underlying scheme or machine operation failed.
    Scheme(SchemeError),
    /// All unfinished threads are blocked: the workload deadlocked.
    Deadlock {
        /// Human-readable description of who is blocked on what.
        detail: String,
    },
    /// A thread body panicked.
    ThreadPanicked {
        /// The thread's name.
        name: String,
    },
    /// A stream id was used with the wrong simulation.
    UnknownStream(usize),
    /// A write was attempted on a stream after closing it.
    WriteAfterClose(usize),
    /// A serialised trace could not be decoded.
    CorruptTrace {
        /// What was wrong with the stream.
        detail: String,
    },
    /// A simulation was configured with invalid parameters (e.g. a
    /// zero-capacity stream).
    BadConfig {
        /// What was wrong with the configuration.
        detail: String,
    },
    /// A table/figure assembler was handed an incomplete set of run
    /// records — typically because a sweep cell was quarantined — and
    /// refused to build a silently wrong exhibit from the gap.
    MissingRecord {
        /// The missing cell, human-readable.
        detail: String,
    },
    /// A deliberately injected runtime-level fault fired (see
    /// [`crate::FaultPlan`]); machine-level injected faults surface as
    /// [`RtError::Scheme`] wrapping
    /// [`regwin_machine::MachineError::FaultInjected`].
    FaultInjected {
        /// The injection site: `"stream-read"` or `"stream-write"`.
        site: &'static str,
        /// The 0-based per-site event index at which the fault fired.
        index: u64,
    },
    /// The runtime reached a state its own protocol rules out — e.g.
    /// the scheduler observed the stop flag with no recorded error.
    /// Surfaced as a typed error so drivers report it instead of the
    /// runtime panicking mid-protocol.
    Internal {
        /// What inconsistency was observed.
        detail: String,
    },
}

impl RtError {
    /// The simulated thread whose *dirty* window failed its integrity
    /// check, when this error wraps
    /// [`MachineError::UnrecoverableCorruption`] — the signal the
    /// runtime quarantines on (only that thread is abandoned; the rest
    /// of the simulation continues).
    pub fn unrecoverable_owner(&self) -> Option<ThreadId> {
        match self {
            RtError::Scheme(SchemeError::Machine(MachineError::UnrecoverableCorruption {
                owner,
                ..
            })) => Some(*owner),
            _ => None,
        }
    }
}

impl fmt::Display for RtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtError::Scheme(e) => write!(f, "scheme error: {e}"),
            RtError::Deadlock { detail } => write!(f, "deadlock: {detail}"),
            RtError::ThreadPanicked { name } => write!(f, "thread '{name}' panicked"),
            RtError::UnknownStream(id) => write!(f, "unknown stream id {id}"),
            RtError::WriteAfterClose(id) => write!(f, "write to stream {id} after close"),
            RtError::CorruptTrace { detail } => write!(f, "corrupt trace: {detail}"),
            RtError::BadConfig { detail } => write!(f, "bad configuration: {detail}"),
            RtError::MissingRecord { detail } => write!(f, "missing run record: {detail}"),
            RtError::FaultInjected { site, index } => {
                write!(f, "injected fault at {site} event {index}")
            }
            RtError::Internal { detail } => write!(f, "internal runtime error: {detail}"),
        }
    }
}

impl Error for RtError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RtError::Scheme(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SchemeError> for RtError {
    fn from(e: SchemeError) -> Self {
        RtError::Scheme(e)
    }
}

impl From<MachineError> for RtError {
    fn from(e: MachineError) -> Self {
        RtError::Scheme(SchemeError::Machine(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        let e = RtError::from(SchemeError::NoCurrentThread);
        assert!(!e.to_string().is_empty());
        assert!(Error::source(&e).is_some());
        assert!(Error::source(&RtError::UnknownStream(0)).is_none());
        assert!(RtError::Deadlock { detail: "x".into() }.to_string().contains("deadlock"));
        assert!(RtError::BadConfig { detail: "m = 0".into() }.to_string().contains("m = 0"));
        let fault = RtError::FaultInjected { site: "stream-read", index: 3 };
        assert!(fault.to_string().contains("stream-read"));
        let missing = RtError::MissingRecord { detail: "behaviour 'x'".into() };
        assert!(missing.to_string().contains("behaviour 'x'"));
    }
}
