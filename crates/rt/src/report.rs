//! Run reports: the metrics the paper's figures are drawn from.
//!
//! The report layout is frozen (it is cache-serialized and compared by
//! the fault-injection oracle); the unified observability view of the
//! same numbers is [`RunReport::as_metrics`].

use crate::sched::SchedulingPolicy;
use regwin_machine::{CycleCategory, CycleCounter, MachineStats, SchemeKind};
use regwin_obs::{Metric, MetricSet};
use std::fmt;

/// Per-thread outcome of a simulation run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ThreadReport {
    /// The thread's diagnostic name.
    pub name: String,
    /// Context switches away from this thread (paper Table 1).
    pub context_switches: u64,
    /// `save` instructions it executed (paper Table 1, right column).
    pub saves: u64,
    /// `restore` instructions it executed.
    pub restores: u64,
    /// Times it blocked on an empty input stream.
    pub blocked_on_read: u64,
    /// Times it blocked on a full output stream.
    pub blocked_on_write: u64,
    /// Whether the runtime abandoned this thread after unrecoverable
    /// window corruption (its counters stop at the quarantine point).
    pub quarantined: bool,
}

/// Shared-bus totals of a multi-PE cluster run, attached to the merged
/// [`RunReport`] by `regwin-cluster`. Always `None` on the legacy
/// single-machine path and on a 1-PE cluster (which must stay
/// byte-identical to it).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BusSummary {
    /// Number of PEs in the cluster.
    pub pes: usize,
    /// Bus transactions granted (bytes moved plus close messages).
    pub grants: u64,
    /// Cross-PE message payload bytes delivered.
    pub messages: u64,
    /// Total cycles PEs lost to the bus: sender-side arbitration
    /// contention (grant tick minus request tick, charged to the
    /// requesting PE) plus receiver-side idle waits for a delivery.
    pub stall_cycles: u64,
    /// Cluster makespan: the largest per-PE cycle total.
    pub makespan_cycles: u64,
    /// Each PE's local cycle total, indexed by PE number.
    pub per_pe_cycles: Vec<u64>,
    /// Each PE's bus-stall cycles (both stall sources), by PE number.
    pub per_pe_stalls: Vec<u64>,
}

/// The complete result of a simulation run.
///
/// `PartialEq` compares every reported number — it is the equality used
/// by the fault-injection differential oracle ("a masked fault must
/// reproduce the byte-identical report"). No `Eq`: the struct carries an
/// `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Scheme the run used.
    pub scheme: SchemeKind,
    /// Scheduling policy the run used.
    pub policy: SchedulingPolicy,
    /// Physical window count.
    pub nwindows: usize,
    /// Cycle totals by category.
    pub cycles: CycleCounter,
    /// Machine event statistics.
    pub stats: MachineStats,
    /// Per-thread outcomes, in spawn order.
    pub threads: Vec<ThreadReport>,
    /// Mean ready-queue length at dispatch time — the paper's *parallel
    /// slackness* (§5): "the number of threads available for execution
    /// at a given time, excepting currently executed threads".
    pub avg_parallel_slackness: f64,
    /// Shared-bus totals when the run was a multi-PE cluster; `None`
    /// on the single-machine path and on a 1-PE cluster.
    pub bus: Option<BusSummary>,
}

impl RunReport {
    /// Total execution time in simulated cycles — the paper's Figure 11 /
    /// 14 / 15 metric.
    pub fn total_cycles(&self) -> u64 {
        self.cycles.total()
    }

    /// Window-management overhead (total minus application compute).
    pub fn overhead_cycles(&self) -> u64 {
        self.cycles.overhead()
    }

    /// Average cycles per context switch — the paper's Figure 12 metric.
    pub fn avg_switch_cycles(&self) -> f64 {
        if self.stats.context_switches == 0 {
            return 0.0;
        }
        self.cycles.category(CycleCategory::ContextSwitch) as f64
            / self.stats.context_switches as f64
    }

    /// Probability a `save`/`restore` trapped — the Figure 13 metric.
    pub fn trap_probability(&self) -> f64 {
        self.stats.trap_probability()
    }

    /// The report's counters as a typed [`MetricSet`]: machine event
    /// statistics, per-category cycle attribution and summed per-thread
    /// stream waits, merged into one set.
    ///
    /// The set is derived purely from reported numbers, so two equal
    /// reports yield identical metric sets regardless of how the runs
    /// were scheduled — the property the sweep engine's deterministic
    /// `metrics` artifact section is built on.
    pub fn as_metrics(&self) -> MetricSet {
        let mut set = self.stats.as_metrics();
        set.merge(&self.cycles.as_metrics());
        for t in &self.threads {
            set.add(Metric::StreamWaitsRead, t.blocked_on_read);
            set.add(Metric::StreamWaitsWrite, t.blocked_on_write);
            if t.quarantined {
                set.add(Metric::ThreadsQuarantined, 1);
            }
        }
        if let Some(bus) = &self.bus {
            set.add(Metric::BusGrants, bus.grants);
            set.add(Metric::CrossPeMessages, bus.messages);
            // Receiver-side idle waits already arrive via the cycle
            // counter's BusStall category; add only the sender-side
            // arbitration share so the metric covers both sources
            // without double counting.
            let receiver_side = self.cycles.category(CycleCategory::BusStall);
            set.add(Metric::BusStallCycles, bus.stall_cycles.saturating_sub(receiver_side));
        }
        set
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} / {} / {} windows: {} cycles ({} overhead), {} switches (avg {:.1} cy), trap p={:.5}",
            self.scheme,
            self.policy,
            self.nwindows,
            self.total_cycles(),
            self.overhead_cycles(),
            self.stats.context_switches,
            self.avg_switch_cycles(),
            self.trap_probability(),
        )?;
        for t in &self.threads {
            writeln!(
                f,
                "  {:<12} switches={:<8} saves={:<8} restores={:<8} blk(r/w)={}/{}{}",
                t.name,
                t.context_switches,
                t.saves,
                t.restores,
                t.blocked_on_read,
                t.blocked_on_write,
                if t.quarantined { "  [quarantined]" } else { "" }
            )?;
        }
        if let Some(bus) = &self.bus {
            writeln!(
                f,
                "  bus: {} PEs, {} grants, {} messages, {} stall cycles, makespan {}",
                bus.pes, bus.grants, bus.messages, bus.stall_cycles, bus.makespan_cycles
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_report() -> RunReport {
        RunReport {
            scheme: SchemeKind::Sp,
            policy: SchedulingPolicy::Fifo,
            nwindows: 8,
            cycles: CycleCounter::new(),
            stats: MachineStats::new(),
            threads: vec![],
            avg_parallel_slackness: 0.0,
            bus: None,
        }
    }

    #[test]
    fn zero_switches_gives_zero_average() {
        let r = empty_report();
        assert_eq!(r.avg_switch_cycles(), 0.0);
        assert_eq!(r.trap_probability(), 0.0);
    }

    #[test]
    fn averages_divide_switch_cycles_by_switch_count() {
        let mut r = empty_report();
        r.cycles.charge(CycleCategory::ContextSwitch, 300);
        r.stats.context_switches = 3;
        assert!((r.avg_switch_cycles() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn display_mentions_scheme_and_windows() {
        let r = empty_report();
        let s = r.to_string();
        assert!(s.contains("SP"));
        assert!(s.contains("8 windows"));
    }
}
