//! Per-bank timing state machine.
//!
//! Each bank tracks its open row and the earliest cycle at which each
//! command class may legally be issued, in the style of cycle-level DRAM
//! simulators: issuing a command advances the ready-times of the commands it
//! constrains (tRCD, tRAS, tRP, tRC, tRTP, write recovery).
//!
//! Rank-level constraints (tRRD, tFAW, refresh) live in [`crate::rank`];
//! channel-level data-bus constraints (tCCD, burst occupancy) are enforced by
//! the device.

use crate::geometry::RowId;
use crate::timing::TimingParams;
use shadow_sim::time::Cycle;

/// Whether the bank has a row open in its row buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BankPhase {
    /// All bitlines precharged; ACT is legal.
    Idle,
    /// `row` is latched in the row buffer; RD/WR/PRE are legal.
    Active(RowId),
}

/// Timing state of one bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankState {
    phase: BankPhase,
    /// Earliest cycle for the next ACT.
    act_ready: Cycle,
    /// Earliest cycle for the next PRE.
    pre_ready: Cycle,
    /// Earliest cycle for the next RD/WR (column command).
    cas_ready: Cycle,
    /// Total ACTs issued to this bank (power model input).
    acts: u64,
}

impl Default for BankState {
    fn default() -> Self {
        Self::new()
    }
}

impl BankState {
    /// A freshly precharged bank, ready at cycle 0.
    pub fn new() -> Self {
        BankState {
            phase: BankPhase::Idle,
            act_ready: 0,
            pre_ready: 0,
            cas_ready: 0,
            acts: 0,
        }
    }

    /// Current phase.
    pub fn phase(&self) -> BankPhase {
        self.phase
    }

    /// The open row, if any.
    pub fn open_row(&self) -> Option<RowId> {
        match self.phase {
            BankPhase::Active(r) => Some(r),
            BankPhase::Idle => None,
        }
    }

    /// Lifetime ACT count.
    pub fn act_count(&self) -> u64 {
        self.acts
    }

    /// Earliest legal ACT cycle (bank-local constraints only).
    pub fn earliest_act(&self) -> Cycle {
        self.act_ready
    }

    /// Earliest legal PRE cycle.
    pub fn earliest_pre(&self) -> Cycle {
        self.pre_ready
    }

    /// Earliest legal RD/WR cycle.
    pub fn earliest_cas(&self) -> Cycle {
        self.cas_ready
    }

    /// Issues an ACT at cycle `t`.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the bank is not idle or `t` violates timing.
    pub fn on_act(&mut self, t: Cycle, row: RowId, tp: &TimingParams) {
        debug_assert_eq!(self.phase, BankPhase::Idle, "ACT to non-idle bank");
        debug_assert!(
            t >= self.act_ready,
            "ACT at {t} before ready {}",
            self.act_ready
        );
        self.phase = BankPhase::Active(row);
        self.acts += 1;
        self.cas_ready = t + tp.t_rcd_effective();
        // Per the paper's methodology (§VII-C), only tRCD is extended by
        // the remapping-row fetch; tRAS/tRC are unchanged MC-visible
        // parameters (restoration overlaps the shortened remaining window).
        self.pre_ready = self.pre_ready.max(t + tp.t_ras);
        self.act_ready = self.act_ready.max(t + tp.t_rc);
    }

    /// Issues a RD at cycle `t`. Returns the cycle the data burst completes.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if no row is open or `t` violates timing.
    pub fn on_rd(&mut self, t: Cycle, tp: &TimingParams) -> Cycle {
        debug_assert!(
            matches!(self.phase, BankPhase::Active(_)),
            "RD with no open row"
        );
        debug_assert!(
            t >= self.cas_ready,
            "RD at {t} before ready {}",
            self.cas_ready
        );
        self.pre_ready = self.pre_ready.max(t + tp.t_rtp);
        self.cas_ready = self.cas_ready.max(t + tp.t_ccd_l);
        t + tp.t_cl + tp.t_bl
    }

    /// Issues a WR at cycle `t`. Returns the cycle write recovery completes.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if no row is open or `t` violates timing.
    pub fn on_wr(&mut self, t: Cycle, tp: &TimingParams) -> Cycle {
        debug_assert!(
            matches!(self.phase, BankPhase::Active(_)),
            "WR with no open row"
        );
        debug_assert!(
            t >= self.cas_ready,
            "WR at {t} before ready {}",
            self.cas_ready
        );
        let recovery = t + tp.t_cwl + tp.t_bl + tp.t_wr;
        self.pre_ready = self.pre_ready.max(recovery);
        self.cas_ready = self.cas_ready.max(t + tp.t_ccd_l);
        recovery
    }

    /// Issues a PRE at cycle `t`.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `t` violates tRAS / recovery constraints.
    pub fn on_pre(&mut self, t: Cycle, tp: &TimingParams) {
        debug_assert!(
            t >= self.pre_ready,
            "PRE at {t} before ready {}",
            self.pre_ready
        );
        self.phase = BankPhase::Idle;
        self.act_ready = self.act_ready.max(t + tp.t_rp);
    }

    /// Blocks the bank until cycle `until` (REF / RFM occupancy).
    ///
    /// The bank must be idle; refresh-class commands require precharged
    /// banks.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the bank has an open row.
    pub fn block_until(&mut self, until: Cycle) {
        debug_assert_eq!(
            self.phase,
            BankPhase::Idle,
            "refresh-class command to active bank"
        );
        self.act_ready = self.act_ready.max(until);
        self.cas_ready = self.cas_ready.max(until);
        self.pre_ready = self.pre_ready.max(until);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tp() -> TimingParams {
        TimingParams::tiny()
    }

    #[test]
    fn fresh_bank_is_idle_and_ready() {
        let b = BankState::new();
        assert_eq!(b.phase(), BankPhase::Idle);
        assert_eq!(b.earliest_act(), 0);
        assert_eq!(b.open_row(), None);
    }

    #[test]
    fn act_opens_row_and_sets_trcd() {
        let t = tp();
        let mut b = BankState::new();
        b.on_act(0, 7, &t);
        assert_eq!(b.open_row(), Some(7));
        assert_eq!(b.earliest_cas(), t.t_rcd); // RD must wait tRCD
        assert_eq!(b.earliest_pre(), t.t_ras); // PRE must wait tRAS
        assert_eq!(b.earliest_act(), t.t_rc); // next ACT waits tRC
        assert_eq!(b.act_count(), 1);
    }

    #[test]
    fn trcd_extra_extends_only_cas() {
        let mut t = tp();
        t.t_rcd_extra = 2;
        let mut b = BankState::new();
        b.on_act(0, 1, &t);
        assert_eq!(b.earliest_cas(), t.t_rcd + 2);
        // tRAS / tRC are MC-visible constants, unchanged by SHADOW.
        assert_eq!(b.earliest_pre(), t.t_ras);
        assert_eq!(b.earliest_act(), t.t_rc);
    }

    #[test]
    fn read_then_precharge_respects_trtp() {
        let t = tp();
        let mut b = BankState::new();
        b.on_act(0, 1, &t);
        let done = b.on_rd(t.t_rcd, &t);
        assert_eq!(done, t.t_rcd + t.t_cl + t.t_bl);
        assert!(b.earliest_pre() >= t.t_rcd + t.t_rtp);
    }

    #[test]
    fn write_recovery_delays_precharge() {
        let t = tp();
        let mut b = BankState::new();
        b.on_act(0, 1, &t);
        let rec = b.on_wr(t.t_rcd, &t);
        assert_eq!(rec, t.t_rcd + t.t_cwl + t.t_bl + t.t_wr);
        assert_eq!(b.earliest_pre(), rec);
    }

    #[test]
    fn pre_closes_and_sets_trp() {
        let t = tp();
        let mut b = BankState::new();
        b.on_act(0, 1, &t);
        b.on_pre(t.t_ras, &t);
        assert_eq!(b.phase(), BankPhase::Idle);
        // tRC from ACT dominates or tRP from PRE, whichever later.
        assert_eq!(b.earliest_act(), (t.t_ras + t.t_rp).max(t.t_rc));
    }

    #[test]
    fn act_pre_act_cycle_time() {
        let t = tp();
        let mut b = BankState::new();
        b.on_act(0, 1, &t);
        b.on_pre(t.t_ras, &t);
        let next = b.earliest_act();
        b.on_act(next, 2, &t);
        assert_eq!(b.open_row(), Some(2));
        assert_eq!(b.act_count(), 2);
    }

    #[test]
    fn consecutive_reads_spaced_by_tccd() {
        let t = tp();
        let mut b = BankState::new();
        b.on_act(0, 1, &t);
        b.on_rd(t.t_rcd, &t);
        assert_eq!(b.earliest_cas(), t.t_rcd + t.t_ccd_l);
    }

    #[test]
    fn block_until_delays_everything() {
        let t = tp();
        let mut b = BankState::new();
        b.block_until(100);
        assert_eq!(b.earliest_act(), 100);
        b.on_act(100, 3, &t);
        assert_eq!(b.open_row(), Some(3));
    }

    // This test and the next two check `debug_assert!`s, which release
    // builds compile out.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic]
    fn double_act_panics_in_debug() {
        let t = tp();
        let mut b = BankState::new();
        b.on_act(0, 1, &t);
        b.on_act(t.t_rc, 2, &t); // still active: must PRE first
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic]
    fn early_read_panics_in_debug() {
        let t = tp();
        let mut b = BankState::new();
        b.on_act(0, 1, &t);
        b.on_rd(1, &t); // before tRCD
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic]
    fn read_without_open_row_panics() {
        let t = tp();
        let mut b = BankState::new();
        b.on_rd(10, &t);
    }
}
