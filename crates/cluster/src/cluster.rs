//! Composing started simulations and a bus into one cluster run.
//!
//! A [`ClusterBuilder`] collects one [`StartedSim`] per PE plus the
//! routes between their outbound and inbound streams, then
//! [`ClusterBuilder::run`] drives the PEs and the bus in one event loop
//! and folds the per-PE reports and bus counters into a
//! [`ClusterReport`].
//!
//! **The 1-PE differential oracle.** A cluster of one PE has no routes
//! and never touches the bus, and its PE is driven through exactly the
//! `start → step → finish` entry points the legacy
//! [`regwin_rt::Simulation::run_with_trace`] path is implemented on.
//! [`ClusterReport::merged`] returns that PE's report verbatim
//! (`bus: None`), so a 1-PE cluster is cycle- and byte-identical to the
//! single-machine simulator by construction — the anchor every
//! determinism test in `tests/cluster_determinism.rs` leans on.

use crate::bus::{Bus, BusConfig, Request, ToPe};
use regwin_machine::{CycleCategory, CycleCounter, MachineStats};
use regwin_rt::{BusSummary, RtError, RunReport, StartedSim, StepOutcome, StreamId, ThreadReport};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Assembles PEs and routes, then runs the cluster.
pub struct ClusterBuilder {
    cfg: BusConfig,
    sims: Vec<StartedSim>,
    routes: Vec<(usize, StreamId, usize, StreamId)>,
}

impl ClusterBuilder {
    /// A builder for a cluster whose bus uses `cfg`.
    pub fn new(cfg: BusConfig) -> Self {
        ClusterBuilder { cfg, sims: Vec::new(), routes: Vec::new() }
    }

    /// Adds a PE (a simulation already started via
    /// [`regwin_rt::Simulation::start`]); returns its PE number.
    pub fn add_pe(&mut self, sim: StartedSim) -> usize {
        self.sims.push(sim);
        self.sims.len() - 1
    }

    /// Routes `outbound` (marked via
    /// [`regwin_rt::Simulation::mark_stream_outbound`] on PE
    /// `from_pe`) to `inbound` (marked inbound on PE `to_pe`).
    pub fn route(&mut self, from_pe: usize, outbound: StreamId, to_pe: usize, inbound: StreamId) {
        self.routes.push((from_pe, outbound, to_pe, inbound));
    }

    /// Runs the cluster to completion and folds the results.
    ///
    /// # Errors
    ///
    /// Propagates the first PE error (thread failure, unmasked fault,
    /// per-PE deadlock) and reports cluster-wide deadlocks assembled
    /// from every stuck PE's detail. [`RtError::BadConfig`] when the
    /// cluster has no PEs or a route references an unknown PE.
    pub fn run(self) -> Result<ClusterReport, RtError> {
        let npes = self.sims.len();
        if npes == 0 {
            return Err(RtError::BadConfig { detail: "cluster has no PEs".into() });
        }
        if let Some(&(f, _, t, _)) =
            self.routes.iter().find(|&&(f, _, t, _)| f >= npes || t >= npes)
        {
            return Err(RtError::BadConfig {
                detail: format!("route references PE {} of {npes}", f.max(t)),
            });
        }
        let mut bus = Bus::new(self.cfg, npes);
        for (f, o, t, i) in self.routes {
            bus.add_route(f, o, t, i);
        }
        let mut sims = self.sims;
        drive(&mut sims, &mut bus)?;

        let reports = sims
            .into_iter()
            .map(|sim| sim.finish().map(|(report, _)| report))
            .collect::<Result<Vec<_>, _>>()?;
        let per_pe_cycles: Vec<u64> = reports.iter().map(|r| r.cycles.total()).collect();
        let per_pe_stalls: Vec<u64> = reports
            .iter()
            .zip(bus.per_pe_stall())
            .map(|(r, &arb)| arb + r.cycles.category(CycleCategory::BusStall))
            .collect();
        let summary = BusSummary {
            pes: npes,
            grants: bus.grants(),
            messages: bus.messages(),
            stall_cycles: per_pe_stalls.iter().sum(),
            makespan_cycles: per_pe_cycles.iter().copied().max().unwrap_or(0),
            per_pe_cycles,
            per_pe_stalls,
        };
        Ok(ClusterReport { reports, summary })
    }
}

/// The cluster's event loop. Node `i < n` is PE `i` and node `n` the
/// bus; a min-heap of `(tick, node)` firings orders every step, so equal
/// ticks fire the PEs in PE order before the bus arbitrates, on every
/// run. Every node fires at tick 0, then once per message sent to it,
/// at the message's tick; a firing takes the node's messages due by
/// then in `(tick, send order)` order. A PE fires by applying its
/// grants and deliveries, stepping its simulation and raising a bus
/// request per completed send. A PE that reported done is never fired
/// again. The bus fires by arbitrating every queued request, so it
/// holds none once the heap drains.
///
/// # Errors
///
/// The first PE error, or a cluster deadlock naming every PE left
/// unfinished when no firing is due.
fn drive(pes: &mut [StartedSim], bus: &mut Bus) -> Result<(), RtError> {
    let n = pes.len();
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = (0..=n).map(|id| Reverse((0, id))).collect();
    let mut pe_mail: Vec<Vec<(u64, u64, ToPe)>> = (0..n).map(|_| Vec::new()).collect();
    let mut bus_mail: Vec<(u64, u64, Request)> = Vec::new();
    let mut done = vec![false; n];
    let mut seq = 0u64;
    while let Some(Reverse((now, id))) = heap.pop() {
        if id == n {
            for (tick, req) in take_due(&mut bus_mail, now) {
                bus.push(tick, req);
            }
            bus.arbitrate(|to, tick, msg| {
                pe_mail[to].push((tick, seq, msg));
                seq += 1;
                heap.push(Reverse((tick, to)));
            });
            continue;
        }
        if done[id] {
            continue;
        }
        let sim = &mut pes[id];
        for (tick, msg) in take_due(&mut pe_mail[id], now) {
            match msg {
                ToPe::Grant(stream) => sim.grant_send(stream),
                ToPe::Deliver(stream, payload) => sim.deliver(stream, payload, tick),
            }
        }
        done[id] = sim.step()? == StepOutcome::Done;
        for ev in sim.drain_outbound() {
            let req = Request { from_pe: id, stream: ev.stream, payload: ev.payload };
            bus_mail.push((ev.tick, seq, req));
            seq += 1;
            heap.push(Reverse((ev.tick, n)));
        }
    }
    // Quarantine records carry this text, so its format stays fixed.
    let stuck: Vec<String> = (0..n)
        .filter(|&i| !done[i])
        .map(|i| format!("component {i}: PE {i}: {}", pes[i].blocked_detail()))
        .collect();
    if stuck.is_empty() {
        Ok(())
    } else {
        Err(RtError::Deadlock { detail: format!("cluster deadlock — {}", stuck.join("; ")) })
    }
}

/// Takes the messages due by `now` out of a mailbox, in `(tick, send
/// order)` order.
fn take_due<M>(mail: &mut Vec<(u64, u64, M)>, now: u64) -> Vec<(u64, M)> {
    mail.sort_by_key(|&(tick, seq, _)| (tick, seq));
    let split = mail.iter().position(|&(tick, _, _)| tick > now).unwrap_or(mail.len());
    mail.drain(..split).map(|(tick, _, m)| (tick, m)).collect()
}

/// The complete result of a cluster run: every PE's own report plus
/// the shared-bus totals.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Per-PE run reports, indexed by PE number (`bus` is `None` in
    /// each — bus totals are cluster-level, see `summary`).
    pub reports: Vec<RunReport>,
    /// The shared-bus totals and per-PE cycle/stall vectors.
    pub summary: BusSummary,
}

impl ClusterReport {
    /// Folds the per-PE reports into one cluster-wide [`RunReport`].
    ///
    /// For a 1-PE cluster this returns PE 0's report **verbatim**
    /// (`bus: None`) — byte-identical to the legacy single-machine
    /// path. For larger clusters, cycles and machine statistics are
    /// summed, thread reports are concatenated under `peN/` name
    /// prefixes, parallel slackness is averaged over PEs, and the
    /// scheme/policy/window labels are PE 0's (per-PE values stay in
    /// [`ClusterReport::reports`]).
    pub fn merged(&self) -> RunReport {
        if self.reports.len() == 1 {
            return self.reports[0].clone();
        }
        let mut cycles = CycleCounter::new();
        let mut stats = MachineStats::new();
        let mut threads: Vec<ThreadReport> = Vec::new();
        let mut slack = 0.0;
        for (pe, r) in self.reports.iter().enumerate() {
            for cat in CycleCategory::ALL {
                cycles.charge(cat, r.cycles.category(cat));
            }
            stats.saves_executed += r.stats.saves_executed;
            stats.restores_executed += r.stats.restores_executed;
            stats.overflow_traps += r.stats.overflow_traps;
            stats.underflow_traps += r.stats.underflow_traps;
            stats.overflow_spills += r.stats.overflow_spills;
            stats.underflow_restores += r.stats.underflow_restores;
            stats.context_switches += r.stats.context_switches;
            stats.switch_saves += r.stats.switch_saves;
            stats.switch_restores += r.stats.switch_restores;
            for (shape, n) in &r.stats.switch_shapes {
                *stats.switch_shapes.entry(*shape).or_insert(0) += n;
            }
            stats.threads.extend(r.stats.threads.iter().copied());
            threads.extend(
                r.threads
                    .iter()
                    .map(|t| ThreadReport { name: format!("pe{pe}/{}", t.name), ..t.clone() }),
            );
            slack += r.avg_parallel_slackness;
        }
        RunReport {
            scheme: self.reports[0].scheme,
            policy: self.reports[0].policy,
            nwindows: self.reports[0].nwindows,
            cycles,
            stats,
            threads,
            avg_parallel_slackness: slack / self.reports.len() as f64,
            bus: Some(self.summary.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regwin_rt::{Ctx, Simulation};
    use regwin_traps::SchemeKind;
    use std::sync::{Arc, Mutex};

    /// Every node is due at tick 0, and the PEs fire in PE order: each
    /// PE's one thread runs in its PE's first firing and logs its PE.
    #[test]
    fn equal_ticks_fire_the_pes_in_pe_order() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut cluster = ClusterBuilder::new(BusConfig::default());
        for pe in 0..4 {
            let mut sim = Simulation::new(8, SchemeKind::Sp).unwrap();
            let log = Arc::clone(&log);
            sim.spawn_async("log", async move |_: &mut Ctx| {
                log.lock().unwrap().push(pe);
                Ok(())
            });
            cluster.add_pe(sim.start());
        }
        cluster.run().unwrap();
        assert_eq!(*log.lock().unwrap(), [0, 1, 2, 3]);
    }

    /// PE 1's only thread returns at once, so PE 1 is done after its
    /// tick-0 firing; PE 0's bytes still reach its inbound stream over
    /// the bus afterwards. Firing PE 1 again for those deliveries would
    /// advance its idle clock to their arrival tick, so its report must
    /// equal the same simulation run alone.
    #[test]
    fn a_finished_pe_is_never_fired_again() {
        let receiver = || {
            let mut sim = Simulation::new(8, SchemeKind::Sp).unwrap();
            let inbound = sim.add_stream("in", 4, 1);
            sim.mark_stream_inbound(inbound);
            sim.spawn_async("idle", async |ctx: &mut Ctx| {
                ctx.compute(5);
                Ok(())
            });
            (sim, inbound)
        };
        let mut sender = Simulation::new(8, SchemeKind::Sp).unwrap();
        let outbound = sender.add_stream("out", 4, 1);
        sender.mark_stream_outbound(outbound);
        sender.spawn_async("send", async move |ctx: &mut Ctx| {
            ctx.compute(100);
            ctx.write_all(outbound, b"late").await?;
            ctx.close_writer(outbound)
        });
        let (sim, inbound) = receiver();
        let mut cluster = ClusterBuilder::new(BusConfig::default());
        cluster.add_pe(sender.start());
        cluster.add_pe(sim.start());
        cluster.route(0, outbound, 1, inbound);
        let report = cluster.run().unwrap();
        assert_eq!(report.summary.messages, 4, "every byte crossed the bus");
        let mut alone = ClusterBuilder::new(BusConfig::default());
        alone.add_pe(receiver().0.start());
        let alone = alone.run().unwrap();
        assert_eq!(report.reports[1], alone.reports[0]);
        assert_eq!(report.reports[1].cycles.category(CycleCategory::BusStall), 0);
    }
}
