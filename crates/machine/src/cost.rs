//! Cycle cost model, calibrated against the paper's S-20 measurements.
//!
//! The paper measured context-switch and trap costs on the Fujitsu S-20
//! SPARC of PIE64 with a logic analyzer (paper §6.2, Table 2). We do not
//! have that hardware, so costs are charged from a parameterised model
//! whose default preset, [`CostModel::s20`], is calibrated so the derived
//! per-scheme context-switch costs land inside the paper's measured
//! ranges:
//!
//! | Scheme | transfers (save, restore) | paper cycles | model |
//! |--------|---------------------------|--------------|-------|
//! | NS     | (1,1) … (6,1)             | 145–149 … 325–329 | 147 + 36·(s−1) |
//! | SNP    | (0,0) (0,1) (1,0) (1,1)   | 113–118, 142–147, 162–171, 187–196 | 116, 145, 165, 194 |
//! | SP     | (0,0) (0,1) (1,1) (2,1)   | 93–98, 136–141, 180–197, 220–237 | 96, 139, 189, 229 |
//!
//! Trap costs are not itemised in the paper; they are composed from the
//! same primitives plus a trap enter/leave overhead (the overhead the
//! paper's §4.4 says a switch-time flush avoids).

use std::fmt;

/// Which window-management scheme a cost is being charged for (the paper's
/// three evaluated schemes, §4.5). Scheme *behaviour* lives in
/// `regwin-traps`; this enum only selects cost-table rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SchemeKind {
    /// Non-sharing: flush everything on a context switch.
    Ns,
    /// Sharing without private reserved windows.
    Snp,
    /// Sharing with a private reserved window per thread.
    Sp,
}

impl SchemeKind {
    /// All schemes, in the paper's order.
    pub const ALL: [SchemeKind; 3] = [SchemeKind::Ns, SchemeKind::Snp, SchemeKind::Sp];

    /// The paper's abbreviation for the scheme.
    pub fn name(self) -> &'static str {
        match self {
            SchemeKind::Ns => "NS",
            SchemeKind::Snp => "SNP",
            SchemeKind::Sp => "SP",
        }
    }
}

impl fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-scheme context-switch cost parameters: a fixed software base
/// (scheduling, WIM computation, PC/TCB bookkeeping) plus per-window
/// transfer costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchCost {
    /// Cycles charged on every switch regardless of window traffic.
    pub base: u64,
    /// Cycles for the first window saved during the switch.
    pub first_save: u64,
    /// Cycles for each additional window saved.
    pub extra_save: u64,
    /// Cycles per window restored during the switch.
    pub restore: u64,
}

impl SwitchCost {
    /// Total cycles for a switch that saved `saves` windows and restored
    /// `restores` windows.
    pub fn cycles(&self, saves: usize, restores: usize) -> u64 {
        let save_cycles = match saves {
            0 => 0,
            n => self.first_save + self.extra_save * (n as u64 - 1),
        };
        self.base + save_cycles + self.restore * restores as u64
    }
}

/// The complete cycle cost model.
///
/// Construct with [`CostModel::s20`] for the calibrated preset, or adjust
/// individual fields for sensitivity studies:
///
/// ```rust
/// use regwin_machine::CostModel;
///
/// let mut model = CostModel::s20();
/// model.trap_overhead = 80; // what if traps were pricier?
/// assert!(model.overflow_trap_cycles(1) > CostModel::s20().overflow_trap_cycles(1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostModel {
    /// Cycles for a `save` or `restore` instruction that does not trap.
    pub window_instr: u64,
    /// Cycles to enter and leave a window trap handler (the cost §4.4
    /// says switch-time flushing avoids).
    pub trap_overhead: u64,
    /// Cycles to transfer one window (16 registers) to or from memory
    /// inside a trap handler.
    pub trap_window_transfer: u64,
    /// Cycles to recompute/update the WIM inside a trap handler.
    pub wim_update: u64,
    /// Cycles for the proposed underflow algorithm's copy of the callee's
    /// 8 `in` registers to the `out` position (paper §3.2).
    pub underflow_copy_ins: u64,
    /// Same, when only the return-value and stack-pointer registers are
    /// copied (the partial-copy variant of §3.2).
    pub underflow_copy_return_ins: u64,
    /// Cycles to decode and emulate the trapped `restore` instruction's
    /// add semantics (paper §4.3).
    pub restore_emulation: u64,
    /// Cycles to save or restore the stack-top `out` registers to/from
    /// the TCB (half a window transfer).
    pub outs_transfer: u64,
    /// Context-switch cost table for the NS scheme.
    pub switch_ns: SwitchCost,
    /// Context-switch cost table for the SNP scheme.
    pub switch_snp: SwitchCost,
    /// Context-switch cost table for the SP scheme.
    pub switch_sp: SwitchCost,
}

impl CostModel {
    /// The preset calibrated against the paper's S-20 measurements.
    pub fn s20() -> Self {
        CostModel {
            window_instr: 1,
            trap_overhead: 52,
            trap_window_transfer: 36,
            wim_update: 5,
            underflow_copy_ins: 16,
            underflow_copy_return_ins: 8,
            restore_emulation: 12,
            outs_transfer: 18,
            // NS(1,1) = 75 + 36 + 36 = 147 (paper: 145–149); each extra
            // save adds 36, reaching 327 at (6,1) (paper: 325–329).
            switch_ns: SwitchCost { base: 75, first_save: 36, extra_save: 36, restore: 36 },
            // SNP(0,0)=116 (113–118), (0,1)=145 (142–147), (1,0)=165
            // (162–171), (1,1)=194 (187–196).
            switch_snp: SwitchCost { base: 116, first_save: 49, extra_save: 49, restore: 29 },
            // SP(0,0)=96 (93–98), (0,1)=139 (136–141), (1,1)=189
            // (180–197), (2,1)=229 (220–237).
            switch_sp: SwitchCost { base: 96, first_save: 50, extra_save: 40, restore: 43 },
        }
    }

    /// The context-switch cost table for `scheme`.
    pub fn switch_cost(&self, scheme: SchemeKind) -> &SwitchCost {
        match scheme {
            SchemeKind::Ns => &self.switch_ns,
            SchemeKind::Snp => &self.switch_snp,
            SchemeKind::Sp => &self.switch_sp,
        }
    }

    /// Total cycles for an overflow trap that spilled `spills` windows
    /// (0 when the handler only walked the reservation over a free slot).
    pub fn overflow_trap_cycles(&self, spills: usize) -> u64 {
        self.trap_overhead + self.wim_update + self.trap_window_transfer * spills as u64
    }

    /// Total cycles for a conventional underflow trap (restore one window
    /// into the slot below, move the reservation).
    pub fn conventional_underflow_cycles(&self) -> u64 {
        self.trap_overhead + self.wim_update + self.trap_window_transfer
    }

    /// Total cycles for the proposed in-place underflow (paper §3.2): trap
    /// overhead, copy of the live `in` registers, one window restored into
    /// the current slot, and emulation of the trapped `restore`'s add
    /// semantics. No WIM update is needed — nothing moves.
    pub fn inplace_underflow_cycles(&self, full_copy: bool) -> u64 {
        let copy = if full_copy { self.underflow_copy_ins } else { self.underflow_copy_return_ins };
        self.trap_overhead + copy + self.trap_window_transfer + self.restore_emulation
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::s20()
    }
}

/// Where cycles were spent, for the paper's breakdowns (execution time,
/// average switch cost, trap overhead).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CycleCategory {
    /// Application computation charged by the workload.
    App,
    /// Non-trapping `save`/`restore` instructions.
    WindowInstr,
    /// Overflow trap handling.
    OverflowTrap,
    /// Underflow trap handling.
    UnderflowTrap,
    /// Context switching (including switch-time window transfers).
    ContextSwitch,
    /// Idle cycles waiting on the shared cluster bus (a PE whose
    /// threads are all blocked on a cross-PE stream until a delivery
    /// tick). Never charged on the legacy single-machine path.
    BusStall,
    /// Pipeline stall cycles: scoreboard hazards on window registers
    /// and load/store-queue backpressure. Never charged by the flat
    /// `s20` timing backend.
    HazardStall,
}

impl CycleCategory {
    /// All categories.
    pub const ALL: [CycleCategory; 7] = [
        CycleCategory::App,
        CycleCategory::WindowInstr,
        CycleCategory::OverflowTrap,
        CycleCategory::UnderflowTrap,
        CycleCategory::ContextSwitch,
        CycleCategory::BusStall,
        CycleCategory::HazardStall,
    ];

    /// The observability [`Metric`](regwin_obs::Metric) this category's
    /// cycles are reported under.
    pub fn metric(self) -> regwin_obs::Metric {
        match self {
            CycleCategory::App => regwin_obs::Metric::CyclesApp,
            CycleCategory::WindowInstr => regwin_obs::Metric::CyclesWindowInstr,
            CycleCategory::OverflowTrap => regwin_obs::Metric::CyclesOverflowTrap,
            CycleCategory::UnderflowTrap => regwin_obs::Metric::CyclesUnderflowTrap,
            CycleCategory::ContextSwitch => regwin_obs::Metric::CyclesContextSwitch,
            CycleCategory::BusStall => regwin_obs::Metric::BusStallCycles,
            CycleCategory::HazardStall => regwin_obs::Metric::HazardStallCycles,
        }
    }

    /// The category's slot in [`CycleCategory::ALL`] (the discriminant).
    fn index(self) -> usize {
        self as usize
    }
}

/// A cycle counter with per-category totals — the measurement instrument
/// the paper implements with a dedicated logic analyzer plus a counter
/// that is "stopped during the emulation" (§6.1). Emulator overhead is
/// simply never charged here, giving the same measurement semantics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CycleCounter {
    /// Per-category totals, indexed by [`CycleCategory`]'s discriminant —
    /// one array so adding a category is a one-line enum change.
    counts: [u64; CycleCategory::ALL.len()],
    /// The sum of `counts`, kept by [`CycleCounter::charge`]: the timing
    /// backends read the clock on every event.
    total: u64,
}

impl CycleCounter {
    /// A zeroed counter.
    pub fn new() -> Self {
        CycleCounter::default()
    }

    /// Charges `cycles` to `category`.
    pub fn charge(&mut self, category: CycleCategory, cycles: u64) {
        self.counts[category.index()] += cycles;
        self.total += cycles;
    }

    /// Cycles charged to `category`.
    pub fn category(&self, category: CycleCategory) -> u64 {
        self.counts[category.index()]
    }

    /// Total cycles across all categories — the paper's "execution time".
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Cycles spent on window management only (everything but application
    /// compute): the overhead the schemes compete on.
    pub fn overhead(&self) -> u64 {
        self.total() - self.category(CycleCategory::App)
    }

    /// The per-category totals as an observability
    /// [`MetricSet`](regwin_obs::MetricSet), one `Cycles*` counter per
    /// category.
    pub fn as_metrics(&self) -> regwin_obs::MetricSet {
        let mut set = regwin_obs::MetricSet::new();
        for cat in CycleCategory::ALL {
            set.add(cat.metric(), self.category(cat));
        }
        set
    }
}

impl fmt::Display for CycleCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "total={} (app={} instr={} ovf={} unf={} switch={} bus={} hazard={})",
            self.total(),
            self.category(CycleCategory::App),
            self.category(CycleCategory::WindowInstr),
            self.category(CycleCategory::OverflowTrap),
            self.category(CycleCategory::UnderflowTrap),
            self.category(CycleCategory::ContextSwitch),
            self.category(CycleCategory::BusStall),
            self.category(CycleCategory::HazardStall)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The golden calibration test: the derived switch costs must land in
    /// the paper's measured ranges (Table 2).
    #[test]
    fn s20_matches_paper_table2_ranges() {
        let m = CostModel::s20();
        // NS: saves 1..=6, restores 1.
        let ns_ranges = [(145, 149), (181, 185), (217, 221), (253, 257), (289, 293), (325, 329)];
        for (i, (lo, hi)) in ns_ranges.iter().enumerate() {
            let c = m.switch_cost(SchemeKind::Ns).cycles(i + 1, 1);
            assert!(c >= *lo && c <= *hi, "NS({},1) = {} not in {}..={}", i + 1, c, lo, hi);
        }
        // SNP rows.
        let snp = [
            ((0, 0), (113, 118)),
            ((0, 1), (142, 147)),
            ((1, 0), (162, 171)),
            ((1, 1), (187, 196)),
        ];
        for ((s, r), (lo, hi)) in snp {
            let c = m.switch_cost(SchemeKind::Snp).cycles(s, r);
            assert!(c >= lo && c <= hi, "SNP({s},{r}) = {c} not in {lo}..={hi}");
        }
        // SP rows.
        let sp =
            [((0, 0), (93, 98)), ((0, 1), (136, 141)), ((1, 1), (180, 197)), ((2, 1), (220, 237))];
        for ((s, r), (lo, hi)) in sp {
            let c = m.switch_cost(SchemeKind::Sp).cycles(s, r);
            assert!(c >= lo && c <= hi, "SP({s},{r}) = {c} not in {lo}..={hi}");
        }
    }

    #[test]
    fn sp_best_case_beats_snp_beats_ns() {
        let m = CostModel::s20();
        let sp = m.switch_cost(SchemeKind::Sp).cycles(0, 0);
        let snp = m.switch_cost(SchemeKind::Snp).cycles(0, 0);
        let ns = m.switch_cost(SchemeKind::Ns).cycles(1, 1);
        assert!(sp < snp, "SP best must beat SNP best");
        assert!(snp < ns, "SNP best must beat NS best");
    }

    #[test]
    fn sp_worst_case_exceeds_snp_worst() {
        // Paper §6.2: "the SP scheme is more expensive in the worst case
        // than the SNP scheme, because two windows have to be saved".
        let m = CostModel::s20();
        assert!(
            m.switch_cost(SchemeKind::Sp).cycles(2, 1)
                > m.switch_cost(SchemeKind::Snp).cycles(1, 1)
        );
    }

    #[test]
    fn switch_time_flush_is_cheaper_than_trap_spill() {
        // Paper §4.4: flushing at switch time avoids the trap overhead.
        let m = CostModel::s20();
        let flush_per_window = m.switch_ns.extra_save;
        let trap_spill = m.overflow_trap_cycles(1);
        assert!(flush_per_window < trap_spill);
    }

    #[test]
    fn overflow_cycles_scale_with_spills() {
        let m = CostModel::s20();
        assert_eq!(m.overflow_trap_cycles(2) - m.overflow_trap_cycles(1), m.trap_window_transfer);
    }

    #[test]
    fn partial_copy_is_cheaper_than_full() {
        let m = CostModel::s20();
        assert!(m.inplace_underflow_cycles(false) < m.inplace_underflow_cycles(true));
    }

    #[test]
    fn cycle_counter_totals() {
        let mut c = CycleCounter::new();
        c.charge(CycleCategory::App, 100);
        c.charge(CycleCategory::ContextSwitch, 50);
        c.charge(CycleCategory::OverflowTrap, 10);
        assert_eq!(c.total(), 160);
        assert_eq!(c.overhead(), 60);
        assert_eq!(c.category(CycleCategory::App), 100);
    }

    #[test]
    fn category_all_matches_discriminant_order() {
        for (i, cat) in CycleCategory::ALL.iter().enumerate() {
            assert_eq!(cat.index(), i, "{cat:?} out of order in ALL");
        }
    }

    #[test]
    fn hazard_stall_counts_like_any_category() {
        let mut c = CycleCounter::new();
        c.charge(CycleCategory::HazardStall, 7);
        c.charge(CycleCategory::App, 3);
        assert_eq!(c.category(CycleCategory::HazardStall), 7);
        assert_eq!(c.total(), 10);
        assert_eq!(c.overhead(), 7);
        assert_eq!(c.as_metrics().get(regwin_obs::Metric::HazardStallCycles), 7);
    }

    #[test]
    fn switch_cost_zero_saves_has_no_save_component() {
        let sc = SwitchCost { base: 10, first_save: 100, extra_save: 50, restore: 7 };
        assert_eq!(sc.cycles(0, 0), 10);
        assert_eq!(sc.cycles(0, 2), 24);
        assert_eq!(sc.cycles(1, 0), 110);
        assert_eq!(sc.cycles(3, 1), 10 + 100 + 50 + 50 + 7);
    }

    #[test]
    fn scheme_kind_names() {
        assert_eq!(SchemeKind::Ns.to_string(), "NS");
        assert_eq!(SchemeKind::Snp.to_string(), "SNP");
        assert_eq!(SchemeKind::Sp.to_string(), "SP");
    }
}
