//! Pluggable timing backends behind the [`TimingModel`] trait.
//!
//! The paper charges every window-management event a *flat* cycle price
//! calibrated on the Fujitsu S-20 (Table 2) — that accounting lives in
//! [`CostModel`] and is reproduced exactly by the [`S20Timing`] backend.
//! A modern pipeline does not pay flat prices: spill/fill bursts queue
//! behind a finite load/store queue, and an instruction that touches a
//! window whose fill has not drained stalls on a scoreboard hazard. The
//! [`PipelineTiming`] backend models that regime.
//!
//! ## Charge points
//!
//! The machine funnels every cycle-bearing event through one trait
//! method, passing `now` (the cycle counter's running total) so stateful
//! backends can track stage/queue occupancy on the simulated timeline:
//!
//! | charge point | s20 backend | pipeline backend |
//! |---|---|---|
//! | `app` | flat burst | flat burst |
//! | `window_instr` | `window_instr` | issue + scoreboard stall on the target window |
//! | `overflow_trap` | `trap_overhead + wim + transfer×spills` | software part only (`trap_overhead + wim`) |
//! | `underflow_conventional` | `trap_overhead + wim + transfer` | software part only |
//! | `underflow_inplace` | `trap_overhead + copy + transfer + emul` | software part (`trap_overhead + copy + emul`) |
//! | `refill_extra` | `transfer × windows` | 0 (fills pay at the transfer site) |
//! | `outs_transfer` | `outs_transfer × count` | LSQ-issued half-window transfers |
//! | `context_switch` | full Table-2 shape cost | software base only |
//! | `spill_transfer` | 0 (inside the aggregates above) | LSQ issue + queue-full backpressure |
//! | `fill_transfer` | 0 (inside the aggregates above) | LSQ issue + backpressure; window busy until drain |
//!
//! The two backends are *complementary by construction*: per-window
//! transfer work is charged either in the trap/switch aggregates (s20)
//! or at the individual transfer sites (pipeline), never both. That is
//! what lets switch-time flushes and spill bursts pay queue-depth-
//! dependent latency under the pipeline backend instead of the flat
//! per-window constants of Table 2, while the s20 path stays
//! byte-identical to the pre-trait accounting.

use crate::cost::{CostModel, SchemeKind, SwitchCost};
use crate::machine::TransferReason;
use crate::window::WindowIndex;
use std::fmt;

/// Identifier of a shipped timing backend — the value threaded through
/// configuration, sweep job keys and `--timing` flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TimingKind {
    /// Flat per-event costs calibrated on the S-20 (paper Table 2).
    S20,
    /// Pipelined backend: stage issue costs, a scoreboard on window
    /// registers, and a finite load/store queue.
    Pipeline,
}

impl TimingKind {
    /// All shipped backends, in canonical order.
    pub const ALL: [TimingKind; 2] = [TimingKind::S20, TimingKind::Pipeline];

    /// The backend's stable lowercase name (used in job keys, artifacts
    /// and the `--timing` flag).
    pub fn name(self) -> &'static str {
        match self {
            TimingKind::S20 => "s20",
            TimingKind::Pipeline => "pipeline",
        }
    }

    /// Parses a backend name as accepted by `--timing`.
    pub fn parse(s: &str) -> Option<TimingKind> {
        TimingKind::ALL.into_iter().find(|k| k.name().eq_ignore_ascii_case(s.trim()))
    }

    /// Builds the backend for a machine with `nwindows` windows charging
    /// under `cost`.
    pub(crate) fn build(self, cost: &CostModel, nwindows: usize) -> Box<dyn TimingModel> {
        match self {
            TimingKind::S20 => Box::new(S20Timing::new(cost.clone())),
            TimingKind::Pipeline => Box::new(PipelineTiming::new(cost, nwindows)),
        }
    }
}

impl fmt::Display for TimingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One charge returned by a timing backend: the event's own `base`
/// cycles (attributed to the event's cycle category) plus `hazard`
/// cycles the pipeline stalled to make the event possible (attributed
/// to [`CycleCategory::HazardStall`](crate::CycleCategory)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Charge {
    /// Cycles charged to the event's own category.
    pub(crate) base: u64,
    /// Stall cycles charged to the hazard category.
    pub(crate) hazard: u64,
}

impl Charge {
    /// A stall-free charge.
    pub(crate) fn flat(base: u64) -> Self {
        Charge { base, hazard: 0 }
    }
}

/// A timing backend: prices every cycle-bearing machine event.
///
/// Methods take `now`, the machine's cycle total *before* the event, so
/// stateful backends can keep scoreboard and queue deadlines on the
/// simulated timeline. Implementations must be deterministic — the same
/// call sequence must yield the same charges (sweep artifacts are
/// byte-compared across runs and worker counts).
pub(crate) trait TimingModel: fmt::Debug + Send {
    /// An application compute burst of `cycles`.
    ///
    /// Contract: the charge must be additive in `cycles` — charging
    /// `a` then `b` must cost the same as charging `a + b` once, and
    /// must leave the backend in the same state. Both `Trace::push`'s
    /// merge of adjacent compute events and the runtime's coalescing
    /// of compute into one burst per poll rely on it.
    fn app(&mut self, now: u64, cycles: u64) -> Charge {
        let _ = now;
        Charge::flat(cycles)
    }

    /// A non-trapping `save`/`restore` entering window `target`.
    fn window_instr(&mut self, now: u64, target: WindowIndex) -> Charge;

    /// An overflow trap whose handler spilled `spills` windows.
    fn overflow_trap(&mut self, now: u64, spills: usize) -> Charge;

    /// A conventional underflow trap (one window restored below).
    fn underflow_conventional(&mut self, now: u64) -> Charge;

    /// An in-place underflow trap (paper §3.2), with a full or partial
    /// `in`-register copy.
    fn underflow_inplace(&mut self, now: u64, full_copy: bool) -> Charge;

    /// `windows` extra refills performed ahead of demand by a batched
    /// underflow handler (beyond the one the trap itself pays for).
    fn refill_extra(&mut self, now: u64, windows: usize) -> Charge;

    /// `count` stack-top `out`-register transfers to/from a TCB.
    fn outs_transfer(&mut self, now: u64, count: usize) -> Charge;

    /// A context switch under `scheme` that saved `saves` and restored
    /// `restores` windows.
    fn context_switch(
        &mut self,
        now: u64,
        scheme: SchemeKind,
        saves: usize,
        restores: usize,
    ) -> Charge;

    /// One window spilled to memory (`window` is the slot being freed).
    fn spill_transfer(&mut self, now: u64, window: WindowIndex, reason: TransferReason) -> Charge;

    /// One window filled from memory into `window`. Backends with a
    /// scoreboard mark the window busy until the fill drains.
    fn fill_transfer(&mut self, now: u64, window: WindowIndex, reason: TransferReason) -> Charge;

    /// Cumulative load/store-queue residency ticks (0 for queueless
    /// backends). Monotone; the machine publishes deltas as
    /// [`Metric::LsqOccupancyTicks`](regwin_obs::Metric).
    fn lsq_occupancy_ticks(&self) -> u64 {
        0
    }

    /// Clones the backend with its current state (machines are `Clone`).
    fn clone_box(&self) -> Box<dyn TimingModel>;
}

impl Clone for Box<dyn TimingModel> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// The paper's flat S-20 accounting behind the trait: every method
/// reproduces the pre-trait arithmetic exactly, and the per-transfer
/// charge points are zero (transfers are priced inside the trap and
/// switch aggregates, as Table 2 measures them).
#[derive(Debug, Clone)]
pub(crate) struct S20Timing {
    cost: CostModel,
}

impl S20Timing {
    /// A flat backend charging under `cost`.
    pub(crate) fn new(cost: CostModel) -> Self {
        S20Timing { cost }
    }
}

impl TimingModel for S20Timing {
    fn window_instr(&mut self, _now: u64, _target: WindowIndex) -> Charge {
        Charge::flat(self.cost.window_instr)
    }

    fn overflow_trap(&mut self, _now: u64, spills: usize) -> Charge {
        Charge::flat(self.cost.overflow_trap_cycles(spills))
    }

    fn underflow_conventional(&mut self, _now: u64) -> Charge {
        Charge::flat(self.cost.conventional_underflow_cycles())
    }

    fn underflow_inplace(&mut self, _now: u64, full_copy: bool) -> Charge {
        Charge::flat(self.cost.inplace_underflow_cycles(full_copy))
    }

    fn refill_extra(&mut self, _now: u64, windows: usize) -> Charge {
        Charge::flat(self.cost.trap_window_transfer * windows as u64)
    }

    fn outs_transfer(&mut self, _now: u64, count: usize) -> Charge {
        Charge::flat(self.cost.outs_transfer * count as u64)
    }

    fn context_switch(
        &mut self,
        _now: u64,
        scheme: SchemeKind,
        saves: usize,
        restores: usize,
    ) -> Charge {
        Charge::flat(self.cost.switch_cost(scheme).cycles(saves, restores))
    }

    fn spill_transfer(
        &mut self,
        _now: u64,
        _window: WindowIndex,
        _reason: TransferReason,
    ) -> Charge {
        Charge::flat(0)
    }

    fn fill_transfer(
        &mut self,
        _now: u64,
        _window: WindowIndex,
        _reason: TransferReason,
    ) -> Charge {
        Charge::flat(0)
    }

    fn clone_box(&self) -> Box<dyn TimingModel> {
        Box::new(self.clone())
    }
}

/// Cycles a window transfer (16 registers) occupies its LSQ slot while
/// draining to memory: a ~64-cycle memory round trip plus the burst
/// itself at two registers per cycle. Deliberately longer than the
/// software part of a trap (57 cycles on the S-20 numbers), so a
/// transfer can still be in flight when the next window event arrives —
/// that overlap is where scoreboard stalls and queue backpressure come
/// from.
const LSQ_WINDOW_DRAIN: u64 = 96;
/// Cycles a half-window (8 `out` registers) occupies its slot.
const LSQ_OUTS_DRAIN: u64 = 72;
/// Cycles the front end spends issuing the 16 stores/loads of a window
/// transfer (dual-issue: two registers per cycle).
const ISSUE_WINDOW: u64 = 8;
/// Cycles the front end spends issuing a half-window transfer.
const ISSUE_OUTS: u64 = 4;
/// Load/store-queue depth: how many window transfers can be in flight
/// before the next one backpressures the front end.
const LSQ_DEPTH: usize = 4;

/// The pipelined backend: fetch/decode/execute issue costs, a
/// scoreboard marking trap-filled windows busy until their fill drains,
/// and a depth-`LSQ_DEPTH` load/store queue that turns spill/fill
/// bursts and switch-time flushes into queue-depth-dependent latency.
///
/// Software trap/switch work (handler entry/exit, WIM recompute,
/// `in`-copy, restore emulation, scheduler base cost) is charged from
/// the same [`CostModel`] fields the s20 backend uses; only the window
/// *transfers* are re-priced through the queue model.
#[derive(Debug, Clone)]
pub(crate) struct PipelineTiming {
    cost: CostModel,
    /// Per-physical-window scoreboard deadline: the cycle at which the
    /// window's registers become readable after an in-flight fill.
    ready_at: Vec<u64>,
    /// Per-LSQ-slot deadline: the cycle at which the slot's current
    /// transfer has drained to memory.
    lsq_free_at: [u64; LSQ_DEPTH],
    /// Cumulative slot-residency ticks across all transfers.
    occupancy_ticks: u64,
}

impl PipelineTiming {
    /// A pipelined backend for `nwindows` windows charging software
    /// costs under `cost`.
    pub(crate) fn new(cost: &CostModel, nwindows: usize) -> Self {
        PipelineTiming {
            cost: cost.clone(),
            ready_at: vec![0; nwindows],
            lsq_free_at: [0; LSQ_DEPTH],
            occupancy_ticks: 0,
        }
    }

    /// Enqueues one transfer at `now` with the given drain time.
    /// Returns `(backpressure, drained_at)`: the cycles the front end
    /// stalled waiting for a free slot, and the cycle the transfer
    /// finishes draining.
    fn lsq_enqueue(&mut self, now: u64, drain: u64) -> (u64, u64) {
        // The earliest-free slot; ties resolve to the lowest index, so
        // the schedule is deterministic.
        let slot = (0..LSQ_DEPTH).min_by_key(|&i| self.lsq_free_at[i]).expect("LSQ_DEPTH > 0");
        let start = now.max(self.lsq_free_at[slot]);
        let done = start + drain;
        self.lsq_free_at[slot] = done;
        self.occupancy_ticks += done - now;
        (start - now, done)
    }

    /// The switch-time software base cost for `scheme` (Table 2 base:
    /// scheduling, WIM computation, PC/TCB bookkeeping — everything but
    /// the per-window transfers).
    fn switch_base(&self, scheme: SchemeKind) -> &SwitchCost {
        self.cost.switch_cost(scheme)
    }
}

impl TimingModel for PipelineTiming {
    fn window_instr(&mut self, now: u64, target: WindowIndex) -> Charge {
        // Scoreboard hazard: entering a window whose fill has not
        // drained stalls the pipeline until the deadline passes.
        let hazard = self.ready_at[target.index()].saturating_sub(now);
        Charge { base: self.cost.window_instr, hazard }
    }

    fn overflow_trap(&mut self, _now: u64, _spills: usize) -> Charge {
        // Software part only; each spill pays at its transfer site.
        Charge::flat(self.cost.trap_overhead + self.cost.wim_update)
    }

    fn underflow_conventional(&mut self, _now: u64) -> Charge {
        Charge::flat(self.cost.trap_overhead + self.cost.wim_update)
    }

    fn underflow_inplace(&mut self, _now: u64, full_copy: bool) -> Charge {
        let copy = if full_copy {
            self.cost.underflow_copy_ins
        } else {
            self.cost.underflow_copy_return_ins
        };
        Charge::flat(self.cost.trap_overhead + copy + self.cost.restore_emulation)
    }

    fn refill_extra(&mut self, _now: u64, _windows: usize) -> Charge {
        // Batched refills already paid per fill at the transfer site.
        Charge::flat(0)
    }

    fn outs_transfer(&mut self, now: u64, count: usize) -> Charge {
        let mut charge = Charge::default();
        let mut at = now;
        for _ in 0..count {
            let (wait, _) = self.lsq_enqueue(at, LSQ_OUTS_DRAIN);
            charge.base += ISSUE_OUTS;
            charge.hazard += wait;
            at += ISSUE_OUTS + wait;
        }
        charge
    }

    fn context_switch(
        &mut self,
        _now: u64,
        scheme: SchemeKind,
        _saves: usize,
        _restores: usize,
    ) -> Charge {
        // Base only: switch-time window transfers went through the LSQ
        // at their spill/fill sites (queue-depth-dependent), not the
        // flat Table-2 shape cost.
        Charge::flat(self.switch_base(scheme).base)
    }

    fn spill_transfer(
        &mut self,
        now: u64,
        _window: WindowIndex,
        _reason: TransferReason,
    ) -> Charge {
        // The registers are read out and the slot freed; the store
        // burst drains in the background, so only queue backpressure
        // stalls the front end.
        let (wait, _) = self.lsq_enqueue(now, LSQ_WINDOW_DRAIN);
        Charge { base: ISSUE_WINDOW, hazard: wait }
    }

    fn fill_transfer(&mut self, now: u64, window: WindowIndex, _reason: TransferReason) -> Charge {
        let (wait, done) = self.lsq_enqueue(now, LSQ_WINDOW_DRAIN);
        // The window's registers stay busy until the load burst drains;
        // a save/restore entering it earlier pays a scoreboard stall.
        self.ready_at[window.index()] = done;
        Charge { base: ISSUE_WINDOW, hazard: wait }
    }

    fn lsq_occupancy_ticks(&self) -> u64 {
        self.occupancy_ticks
    }

    fn clone_box(&self) -> Box<dyn TimingModel> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(i: usize) -> WindowIndex {
        WindowIndex::new(i)
    }

    #[test]
    fn kind_names_parse_roundtrip() {
        for kind in TimingKind::ALL {
            assert_eq!(TimingKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(TimingKind::parse("S20"), Some(TimingKind::S20));
        assert_eq!(TimingKind::parse(" pipeline "), Some(TimingKind::Pipeline));
        assert_eq!(TimingKind::parse("flat"), None);
    }

    /// The S20 backend must reproduce the CostModel arithmetic exactly —
    /// this is the identity the byte-for-byte artifact guarantees rest on.
    #[test]
    fn s20_backend_matches_cost_model_exactly() {
        let cost = CostModel::s20();
        let mut t = S20Timing::new(cost.clone());
        assert_eq!(t.window_instr(0, w(3)), Charge::flat(cost.window_instr));
        for spills in 0..4 {
            assert_eq!(
                t.overflow_trap(99, spills),
                Charge::flat(cost.overflow_trap_cycles(spills))
            );
        }
        assert_eq!(t.underflow_conventional(5), Charge::flat(cost.conventional_underflow_cycles()));
        for full in [true, false] {
            assert_eq!(
                t.underflow_inplace(0, full),
                Charge::flat(cost.inplace_underflow_cycles(full))
            );
        }
        assert_eq!(t.refill_extra(0, 3), Charge::flat(3 * cost.trap_window_transfer));
        assert_eq!(t.outs_transfer(0, 2), Charge::flat(2 * cost.outs_transfer));
        for scheme in SchemeKind::ALL {
            assert_eq!(
                t.context_switch(0, scheme, 2, 1),
                Charge::flat(cost.switch_cost(scheme).cycles(2, 1))
            );
        }
        assert_eq!(t.spill_transfer(0, w(1), TransferReason::Trap), Charge::flat(0));
        assert_eq!(t.fill_transfer(0, w(1), TransferReason::Switch), Charge::flat(0));
        assert_eq!(t.lsq_occupancy_ticks(), 0);
    }

    #[test]
    fn pipeline_fill_makes_window_busy_until_drain() {
        let mut t = PipelineTiming::new(&CostModel::s20(), 8);
        let c = t.fill_transfer(100, w(2), TransferReason::Trap);
        assert_eq!(c, Charge { base: ISSUE_WINDOW, hazard: 0 });
        // Entering the filled window right away stalls until the drain.
        let c = t.window_instr(110, w(2));
        assert_eq!(c.hazard, (100 + LSQ_WINDOW_DRAIN).saturating_sub(110));
        // A different window has no hazard.
        assert_eq!(t.window_instr(110, w(5)).hazard, 0);
        // After the drain deadline the hazard is gone.
        assert_eq!(t.window_instr(100 + LSQ_WINDOW_DRAIN, w(2)).hazard, 0);
    }

    #[test]
    fn pipeline_burst_pays_queue_backpressure() {
        let mut t = PipelineTiming::new(&CostModel::s20(), 8);
        // LSQ_DEPTH transfers at the same instant fill every slot
        // without stalling; the next one backpressures.
        let mut stalls = Vec::new();
        for i in 0..=LSQ_DEPTH {
            stalls.push(t.spill_transfer(0, w(i % 8), TransferReason::Switch).hazard);
        }
        assert!(stalls[..LSQ_DEPTH].iter().all(|&s| s == 0), "{stalls:?}");
        assert_eq!(stalls[LSQ_DEPTH], LSQ_WINDOW_DRAIN);
        assert!(t.lsq_occupancy_ticks() > 0);
    }

    #[test]
    fn pipeline_spread_out_transfers_do_not_stall() {
        let mut t = PipelineTiming::new(&CostModel::s20(), 8);
        let mut now = 0;
        for i in 0..10 {
            let c = t.spill_transfer(now, w(i % 8), TransferReason::Switch);
            assert_eq!(c.hazard, 0, "transfer {i} stalled");
            now += LSQ_WINDOW_DRAIN; // ample spacing
        }
    }

    #[test]
    fn pipeline_switch_charges_base_not_shape() {
        let cost = CostModel::s20();
        let mut t = PipelineTiming::new(&cost, 8);
        for scheme in SchemeKind::ALL {
            let c = t.context_switch(0, scheme, 3, 1);
            assert_eq!(c, Charge::flat(cost.switch_cost(scheme).base));
        }
    }

    #[test]
    fn pipeline_is_deterministic_and_clonable_mid_run() {
        let run = |t: &mut PipelineTiming| {
            let mut total = 0;
            let mut now = 1000;
            for i in 0..20 {
                let c = t.fill_transfer(now, w(i % 6), TransferReason::Trap);
                now += c.base + c.hazard;
                total += c.base + c.hazard;
                let c = t.window_instr(now, w((i + 1) % 6));
                now += c.base + c.hazard;
                total += c.base + c.hazard;
            }
            (total, t.lsq_occupancy_ticks())
        };
        let mut a = PipelineTiming::new(&CostModel::s20(), 6);
        let mut b = a.clone();
        assert_eq!(run(&mut a), run(&mut b));
        // Clone mid-run carries queue and scoreboard state.
        let mut c = a.clone();
        assert_eq!(run(&mut a), run(&mut c));
    }

    #[test]
    fn build_dispatches_on_kind() {
        let cost = CostModel::s20();
        assert!(format!("{:?}", TimingKind::S20.build(&cost, 8)).starts_with("S20Timing"));
        let pipeline = format!("{:?}", TimingKind::Pipeline.build(&cost, 8));
        assert!(pipeline.starts_with("PipelineTiming"));
    }
}
