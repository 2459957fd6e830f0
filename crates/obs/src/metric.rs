//! Typed counters and the deterministic counter set.

use std::fmt;

/// The closed set of counters the workspace reports. Each layer owns a
/// contiguous slice of the namespace: window-machine events, cycle
/// attribution by category (the paper's §6 breakdown), runtime
/// scheduling events, and sweep-engine job lifecycle events.
///
/// The variant order is the canonical serialization order: everything
/// that iterates a [`MetricSet`] walks [`Metric::ALL`], so aggregated
/// output is byte-stable across thread interleavings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Metric {
    /// Completed `save` instructions (including after overflow handling).
    SavesExecuted,
    /// Completed `restore` instructions.
    RestoresExecuted,
    /// Overflow traps taken.
    OverflowTraps,
    /// Underflow traps taken.
    UnderflowTraps,
    /// Windows spilled to memory by overflow trap handlers.
    OverflowSpills,
    /// Windows restored from memory by underflow trap handlers.
    UnderflowRestores,
    /// Bytes of register state spilled to memory (16 registers × 8
    /// bytes per window), across trap and switch transfers alike.
    SpillBytes,
    /// Bytes of register state filled back from memory.
    FillBytes,
    /// Windows flushed by whole-thread flushes (NS scheme and the §4.4
    /// switch-time flush).
    WindowsFlushed,
    /// Context switches performed.
    ContextSwitches,
    /// Windows saved during context switches.
    SwitchSaves,
    /// Windows restored during context switches.
    SwitchRestores,
    /// Cycles of application compute (the workload's own work).
    CyclesApp,
    /// Cycles of non-trapping `save`/`restore` instructions.
    CyclesWindowInstr,
    /// Cycles spent in overflow trap handlers.
    CyclesOverflowTrap,
    /// Cycles spent in underflow trap handlers.
    CyclesUnderflowTrap,
    /// Cycles spent context switching.
    CyclesContextSwitch,
    /// Scheduler dispatches (one per context switch decision).
    Dispatches,
    /// Times a thread blocked on an empty input stream.
    StreamWaitsRead,
    /// Times a thread blocked on a full output stream (or its record
    /// lock).
    StreamWaitsWrite,
    /// Stream bytes successfully read.
    StreamBytesRead,
    /// Stream bytes successfully written.
    StreamBytesWritten,
    /// Sweep jobs served from the result cache.
    CacheHits,
    /// Sweep jobs actually simulated.
    CacheMisses,
    /// Retry attempts after a failed sweep-job attempt.
    JobRetries,
    /// Sweep jobs quarantined after exhausting every attempt.
    JobsQuarantined,
    /// Corrupted-but-clean windows repaired by the window auditor from
    /// the backing stack.
    WindowRepairs,
    /// Simulated threads quarantined by the runtime after unrecoverable
    /// window corruption.
    ThreadsQuarantined,
    /// Shared-bus transactions granted to a PE (cluster runs only).
    BusGrants,
    /// Cycles a PE lost to the shared bus: arbitration contention on
    /// the sending side plus idle waiting for a delivery on the
    /// receiving side (cluster runs only).
    BusStallCycles,
    /// Cross-PE message payload bytes delivered over the shared bus
    /// (cluster runs only).
    CrossPeMessages,
    /// Pipeline stall cycles from window-register scoreboard hazards
    /// and load/store-queue backpressure (pipeline timing backend only).
    HazardStallCycles,
    /// Cumulative cycles window transfers spent resident in the
    /// load/store queue (pipeline timing backend only).
    LsqOccupancyTicks,
}

impl Metric {
    /// Every metric, in canonical serialization order.
    pub const ALL: [Metric; 33] = [
        Metric::SavesExecuted,
        Metric::RestoresExecuted,
        Metric::OverflowTraps,
        Metric::UnderflowTraps,
        Metric::OverflowSpills,
        Metric::UnderflowRestores,
        Metric::SpillBytes,
        Metric::FillBytes,
        Metric::WindowsFlushed,
        Metric::ContextSwitches,
        Metric::SwitchSaves,
        Metric::SwitchRestores,
        Metric::CyclesApp,
        Metric::CyclesWindowInstr,
        Metric::CyclesOverflowTrap,
        Metric::CyclesUnderflowTrap,
        Metric::CyclesContextSwitch,
        Metric::Dispatches,
        Metric::StreamWaitsRead,
        Metric::StreamWaitsWrite,
        Metric::StreamBytesRead,
        Metric::StreamBytesWritten,
        Metric::CacheHits,
        Metric::CacheMisses,
        Metric::JobRetries,
        Metric::JobsQuarantined,
        Metric::WindowRepairs,
        Metric::ThreadsQuarantined,
        Metric::BusGrants,
        Metric::BusStallCycles,
        Metric::CrossPeMessages,
        Metric::HazardStallCycles,
        Metric::LsqOccupancyTicks,
    ];

    /// The metric's stable snake_case name, used in JSON output.
    pub fn name(self) -> &'static str {
        match self {
            Metric::SavesExecuted => "saves_executed",
            Metric::RestoresExecuted => "restores_executed",
            Metric::OverflowTraps => "overflow_traps",
            Metric::UnderflowTraps => "underflow_traps",
            Metric::OverflowSpills => "overflow_spills",
            Metric::UnderflowRestores => "underflow_restores",
            Metric::SpillBytes => "spill_bytes",
            Metric::FillBytes => "fill_bytes",
            Metric::WindowsFlushed => "windows_flushed",
            Metric::ContextSwitches => "context_switches",
            Metric::SwitchSaves => "switch_saves",
            Metric::SwitchRestores => "switch_restores",
            Metric::CyclesApp => "cycles_app",
            Metric::CyclesWindowInstr => "cycles_window_instr",
            Metric::CyclesOverflowTrap => "cycles_overflow_trap",
            Metric::CyclesUnderflowTrap => "cycles_underflow_trap",
            Metric::CyclesContextSwitch => "cycles_context_switch",
            Metric::Dispatches => "dispatches",
            Metric::StreamWaitsRead => "stream_waits_read",
            Metric::StreamWaitsWrite => "stream_waits_write",
            Metric::StreamBytesRead => "stream_bytes_read",
            Metric::StreamBytesWritten => "stream_bytes_written",
            Metric::CacheHits => "cache_hits",
            Metric::CacheMisses => "cache_misses",
            Metric::JobRetries => "job_retries",
            Metric::JobsQuarantined => "jobs_quarantined",
            Metric::WindowRepairs => "window_repairs",
            Metric::ThreadsQuarantined => "threads_quarantined",
            Metric::BusGrants => "bus_grants",
            Metric::BusStallCycles => "bus_stall_cycles",
            Metric::CrossPeMessages => "cross_pe_messages",
            Metric::HazardStallCycles => "hazard_stall_cycles",
            Metric::LsqOccupancyTicks => "lsq_occupancy_ticks",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A fixed-size set of counter totals, one slot per [`Metric`].
///
/// Addition is commutative, so merging per-job sets in any completion
/// order yields the same totals — the property the sweep engine's
/// determinism guarantees rest on. Iteration always follows
/// [`Metric::ALL`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricSet {
    counts: [u64; Metric::ALL.len()],
}

// Derived `Default` requires `[u64; N]: Default`, which the standard
// library only provides for N ≤ 32.
impl Default for MetricSet {
    fn default() -> Self {
        MetricSet { counts: [0; Metric::ALL.len()] }
    }
}

impl MetricSet {
    /// An all-zero set.
    pub fn new() -> Self {
        MetricSet::default()
    }

    /// Adds `delta` to `metric` (saturating).
    pub fn add(&mut self, metric: Metric, delta: u64) {
        let slot = &mut self.counts[metric.index()];
        *slot = slot.saturating_add(delta);
    }

    /// The total for `metric`.
    pub fn get(&self, metric: Metric) -> u64 {
        self.counts[metric.index()]
    }

    /// Adds every counter of `other` into `self`.
    pub fn merge(&mut self, other: &MetricSet) {
        for m in Metric::ALL {
            self.add(m, other.get(m));
        }
    }

    /// Whether every counter is zero.
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// Iterates `(metric, total)` pairs in canonical order, skipping
    /// zero counters.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (Metric, u64)> + '_ {
        Metric::ALL.iter().filter_map(|&m| {
            let v = self.get(m);
            (v != 0).then_some((m, v))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_covers_every_variant_in_order() {
        for (i, m) in Metric::ALL.iter().enumerate() {
            assert_eq!(m.index(), i, "{m} out of order in ALL");
        }
    }

    #[test]
    fn names_are_unique_and_snake_case() {
        let mut seen = std::collections::BTreeSet::new();
        for m in Metric::ALL {
            assert!(seen.insert(m.name()), "duplicate name {}", m.name());
            assert!(m.name().chars().all(|c| c.is_ascii_lowercase() || c == '_'));
        }
    }

    #[test]
    fn merge_is_commutative() {
        let mut a = MetricSet::new();
        a.add(Metric::SavesExecuted, 3);
        a.add(Metric::CyclesApp, 100);
        let mut b = MetricSet::new();
        b.add(Metric::SavesExecuted, 4);
        b.add(Metric::OverflowTraps, 1);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.get(Metric::SavesExecuted), 7);
    }

    #[test]
    fn iter_nonzero_skips_zeros_and_keeps_order() {
        let mut s = MetricSet::new();
        s.add(Metric::CyclesApp, 5);
        s.add(Metric::SavesExecuted, 1);
        let items: Vec<_> = s.iter_nonzero().collect();
        assert_eq!(items, vec![(Metric::SavesExecuted, 1), (Metric::CyclesApp, 5)]);
        assert!(!s.is_empty());
        assert!(MetricSet::new().is_empty());
    }

    #[test]
    fn add_saturates() {
        let mut s = MetricSet::new();
        s.add(Metric::SpillBytes, u64::MAX);
        s.add(Metric::SpillBytes, 10);
        assert_eq!(s.get(Metric::SpillBytes), u64::MAX);
    }
}
