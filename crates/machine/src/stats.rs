//! Event counters matching the paper's reported metrics.
//!
//! [`MachineStats`] predates the unified observability layer in
//! `regwin-obs` and its layout is frozen (it participates in report
//! equality checks and cache serialization). New consumers should read
//! counters through [`MachineStats::as_metrics`], which presents the
//! same totals as a typed [`MetricSet`](regwin_obs::MetricSet).

use crate::thread::ThreadId;
use regwin_obs::{Metric, MetricSet};
use std::collections::BTreeMap;
use std::fmt;

/// The window-transfer shape of one context switch: how many windows were
/// saved and restored. Table 2 of the paper reports switch cost per shape;
/// Figure 12 reports the average across the shapes actually occurring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SwitchShape {
    /// Windows saved to memory during the switch.
    pub saves: u32,
    /// Windows restored from memory during the switch.
    pub restores: u32,
}

impl fmt::Display for SwitchShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(save {}, restore {})", self.saves, self.restores)
    }
}

/// Per-thread counters (paper Table 1 reports context switches and save
/// counts per thread).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadStats {
    /// Times this thread was switched away from.
    pub switches_out: u64,
    /// `save` instructions executed by this thread.
    pub saves: u64,
    /// `restore` instructions executed by this thread.
    pub restores: u64,
}

/// Machine-wide event counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MachineStats {
    /// Dynamic count of `save` instructions that completed (including
    /// after overflow handling) — the paper's Table 1 right column.
    pub saves_executed: u64,
    /// Dynamic count of completed `restore` instructions.
    pub restores_executed: u64,
    /// Overflow traps taken.
    pub overflow_traps: u64,
    /// Underflow traps taken.
    pub underflow_traps: u64,
    /// Windows spilled to memory by overflow handlers.
    pub overflow_spills: u64,
    /// Windows restored from memory by underflow handlers.
    pub underflow_restores: u64,
    /// Context switches performed.
    pub context_switches: u64,
    /// Windows saved during context switches.
    pub switch_saves: u64,
    /// Windows restored during context switches.
    pub switch_restores: u64,
    /// Count of context switches by transfer shape.
    pub switch_shapes: BTreeMap<SwitchShape, u64>,
    /// Per-thread counters, indexed by thread id.
    pub threads: Vec<ThreadStats>,
}

impl MachineStats {
    /// A zeroed counter set.
    pub fn new() -> Self {
        MachineStats::default()
    }

    pub(crate) fn ensure_thread(&mut self, t: ThreadId) {
        if self.threads.len() <= t.index() {
            self.threads.resize(t.index() + 1, ThreadStats::default());
        }
    }

    pub(crate) fn record_switch(&mut self, from: Option<ThreadId>, saves: u32, restores: u32) {
        self.context_switches += 1;
        self.switch_saves += u64::from(saves);
        self.switch_restores += u64::from(restores);
        *self.switch_shapes.entry(SwitchShape { saves, restores }).or_insert(0) += 1;
        if let Some(t) = from {
            self.ensure_thread(t);
            self.threads[t.index()].switches_out += 1;
        }
    }

    /// Probability that a `save` or `restore` trapped — the paper's
    /// Figure 13 metric (`(overflow + underflow traps) / (saves + restores)`).
    pub fn trap_probability(&self) -> f64 {
        let instrs = self.saves_executed + self.restores_executed;
        if instrs == 0 {
            return 0.0;
        }
        (self.overflow_traps + self.underflow_traps) as f64 / instrs as f64
    }

    /// The machine-wide counters as a typed [`MetricSet`] — the unified
    /// observability view of these statistics. Covers every counter this
    /// struct tracks directly; probe-only enrichments (spill/fill byte
    /// counts, flush events) are reported live through the machine's
    /// installed probe instead.
    pub fn as_metrics(&self) -> MetricSet {
        let mut set = MetricSet::new();
        set.add(Metric::SavesExecuted, self.saves_executed);
        set.add(Metric::RestoresExecuted, self.restores_executed);
        set.add(Metric::OverflowTraps, self.overflow_traps);
        set.add(Metric::UnderflowTraps, self.underflow_traps);
        set.add(Metric::OverflowSpills, self.overflow_spills);
        set.add(Metric::UnderflowRestores, self.underflow_restores);
        set.add(Metric::ContextSwitches, self.context_switches);
        set.add(Metric::SwitchSaves, self.switch_saves);
        set.add(Metric::SwitchRestores, self.switch_restores);
        set
    }
}

impl fmt::Display for MachineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "saves={} restores={} ovf={} unf={} switches={} (switch saves={} restores={})",
            self.saves_executed,
            self.restores_executed,
            self.overflow_traps,
            self.underflow_traps,
            self.context_switches,
            self.switch_saves,
            self.switch_restores
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trap_probability_zero_when_no_instrs() {
        let s = MachineStats::new();
        assert_eq!(s.trap_probability(), 0.0);
    }

    #[test]
    fn trap_probability_counts_both_trap_kinds() {
        let mut s = MachineStats::new();
        s.saves_executed = 50;
        s.restores_executed = 50;
        s.overflow_traps = 3;
        s.underflow_traps = 2;
        assert!((s.trap_probability() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn record_switch_updates_shape_histogram() {
        let mut s = MachineStats::new();
        s.record_switch(Some(ThreadId::new(1)), 2, 1);
        s.record_switch(Some(ThreadId::new(1)), 2, 1);
        s.record_switch(None, 0, 0);
        assert_eq!(s.context_switches, 3);
        assert_eq!(s.switch_saves, 4);
        assert_eq!(s.switch_restores, 2);
        assert_eq!(s.switch_shapes[&SwitchShape { saves: 2, restores: 1 }], 2);
        assert_eq!(s.switch_shapes[&SwitchShape { saves: 0, restores: 0 }], 1);
        assert_eq!(s.threads[1].switches_out, 2);
    }
}
