//! Rank-level timing constraints: tRRD, tFAW, and the auto-refresh engine.
//!
//! Activations to different banks of the same rank are rate-limited by the
//! row-to-row delay (tRRD, with a longer value inside a bank group) and by
//! the four-activate window (tFAW). Auto-refresh (REF) blocks the whole rank
//! for tRFC and must fire on average once per tREFI so every row is
//! refreshed within tREFW.

use crate::timing::TimingParams;
use shadow_sim::time::Cycle;

/// Timing state of one rank.
#[derive(Debug, Clone)]
pub struct RankState {
    /// Cycles of the last four ACTs (for tFAW), most recent last.
    act_window: [Cycle; 4],
    /// Total ACTs recorded (tFAW only applies once four exist).
    acts_seen: u64,
    /// Earliest next-ACT cycle due to tRRD_S (short value, any bank pair).
    rrd_ready: Cycle,
    /// Last ACT cycle per bank group (tRRD_L applies between consecutive
    /// ACTs *to the same group*, not only adjacent commands — an
    /// A-B-A group pattern must still keep the two A ACTs tRRD_L apart).
    group_act: Vec<Option<Cycle>>,
    /// Earliest cycle the next REF may start / rank unblocked after REF.
    refresh_ready: Cycle,
    /// Deadline-tracking: next scheduled tREFI tick.
    next_refi: Cycle,
    /// The first cycle the refresh debt reaches [`Self::MAX_POSTPONE`]:
    /// `next_refi + (MAX_POSTPONE - 1) * tREFI`. Moves with `next_refi`, so
    /// the urgency test is one compare instead of a division.
    urgent_at: Cycle,
    /// REF commands issued.
    refs: u64,
    /// Sequential refresh pointer (which row block the next REF covers).
    refresh_row_ptr: u32,
}

impl RankState {
    /// A fresh rank with its first refresh due at one tREFI.
    pub fn new(tp: &TimingParams) -> Self {
        RankState {
            act_window: [0; 4],
            acts_seen: 0,
            rrd_ready: 0,
            group_act: Vec::new(),
            refresh_ready: 0,
            next_refi: tp.t_refi,
            urgent_at: tp.t_refi.saturating_add(Self::postpone_span(tp)),
            refs: 0,
            refresh_row_ptr: 0,
        }
    }

    /// Earliest cycle an ACT to `bank_group` satisfies tRRD and tFAW.
    pub fn earliest_act(&self, bank_group: u32, tp: &TimingParams) -> Cycle {
        // tFAW: the 4th-previous ACT must be at least tFAW ago (only once
        // four ACTs have actually happened).
        let faw_ready = if self.acts_seen >= 4 {
            self.act_window[0] + tp.t_faw
        } else {
            0
        };
        // tRRD: the short value since any ACT, the long value since the
        // last ACT to this same bank group.
        let rrd_l = match self.group_act.get(bank_group as usize).copied().flatten() {
            Some(last) => last + tp.t_rrd_l,
            None => 0,
        };
        faw_ready
            .max(self.rrd_ready)
            .max(rrd_l)
            .max(self.refresh_ready)
    }

    /// Records an ACT at cycle `t` to `bank_group`.
    pub fn on_act(&mut self, t: Cycle, bank_group: u32, tp: &TimingParams) {
        debug_assert!(
            t >= self.earliest_act(bank_group, tp),
            "rank ACT timing violation"
        );
        self.act_window.rotate_left(1);
        self.act_window[3] = t;
        self.acts_seen += 1;
        self.rrd_ready = t + tp.t_rrd_s;
        let g = bank_group as usize;
        if self.group_act.len() <= g {
            self.group_act.resize(g + 1, None);
        }
        self.group_act[g] = Some(t);
    }

    /// Whether an auto-refresh is due at cycle `now`.
    pub fn refresh_due(&self, now: Cycle) -> bool {
        now >= self.next_refi
    }

    /// The exact cycle at which the next refresh becomes due:
    /// `refresh_due(now)` is precisely `now >= next_refi()`. Moves only
    /// when a REF is issued.
    pub fn next_refi(&self) -> Cycle {
        self.next_refi
    }

    /// How many tREFI periods the rank is behind (postponed refreshes).
    pub fn refresh_debt(&self, now: Cycle, tp: &TimingParams) -> u64 {
        if now < self.next_refi {
            0
        } else {
            1 + (now - self.next_refi) / tp.t_refi
        }
    }

    /// Maximum REF commands JEDEC allows a controller to postpone.
    pub const MAX_POSTPONE: u64 = 8;

    /// Cycles between a refresh falling due and its debt reaching
    /// [`Self::MAX_POSTPONE`].
    fn postpone_span(tp: &TimingParams) -> Cycle {
        (Self::MAX_POSTPONE - 1).saturating_mul(tp.t_refi)
    }

    /// The exact first cycle at which [`must_refresh`](Self::must_refresh)
    /// holds: `next_refi() + (MAX_POSTPONE - 1) * tREFI`. Moves only when a
    /// REF is issued.
    #[inline]
    pub fn urgent_at(&self) -> Cycle {
        self.urgent_at
    }

    /// Whether the refresh debt has reached the JEDEC postponement limit —
    /// the controller *must* drain and refresh now. Equal to
    /// `refresh_debt(now) >= MAX_POSTPONE` at every cycle: the debt is
    /// `1 + (now - next_refi) / tREFI` once due, which reaches the limit
    /// exactly when `now - next_refi >= (MAX_POSTPONE - 1) * tREFI`.
    #[inline]
    pub fn must_refresh(&self, now: Cycle) -> bool {
        now >= self.urgent_at
    }

    /// Records a REF issued at cycle `t`; returns the cycle the rank is
    /// usable again (`t + tRFC`) and the row-block pointer this REF covers.
    pub fn on_refresh(&mut self, t: Cycle, rows_per_bank: u32, tp: &TimingParams) -> (Cycle, u32) {
        let done = t + tp.t_rfc;
        self.refresh_ready = done;
        self.next_refi += tp.t_refi;
        self.urgent_at = self.next_refi.saturating_add(Self::postpone_span(tp));
        self.refs += 1;
        let ptr = self.refresh_row_ptr;
        // Each REF covers rows_per_bank / refs_per_window rows in every bank.
        let rows_per_ref = (rows_per_bank as u64 / tp.refs_per_window().max(1)).max(1) as u32;
        self.refresh_row_ptr = (self.refresh_row_ptr + rows_per_ref) % rows_per_bank;
        (done, ptr)
    }

    /// Rows covered by one REF command.
    pub fn rows_per_ref(&self, rows_per_bank: u32, tp: &TimingParams) -> u32 {
        (rows_per_bank as u64 / tp.refs_per_window().max(1)).max(1) as u32
    }

    /// Blocks all activity in the rank until `until` (used by RFM-all-bank
    /// style operations or emulated extra refreshes).
    pub fn block_until(&mut self, until: Cycle) {
        self.refresh_ready = self.refresh_ready.max(until);
    }

    /// Total REF commands issued.
    pub fn ref_count(&self) -> u64 {
        self.refs
    }

    /// Current sequential refresh pointer.
    pub fn refresh_row_ptr(&self) -> u32 {
        self.refresh_row_ptr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tp() -> TimingParams {
        TimingParams::tiny()
    }

    #[test]
    fn trrd_spacing_enforced() {
        let t = tp();
        let mut r = RankState::new(&t);
        r.on_act(0, 0, &t);
        // Different bank group: short tRRD.
        assert_eq!(r.earliest_act(1, &t), t.t_rrd_s);
        // Same bank group: long tRRD.
        assert_eq!(r.earliest_act(0, &t), t.t_rrd_l);
    }

    #[test]
    fn tfaw_limits_burst_of_activates() {
        let t = tp();
        let mut r = RankState::new(&t);
        let mut now = 0;
        for i in 0..4 {
            now = r.earliest_act(i % 2, &t).max(now);
            r.on_act(now, i % 2, &t);
            now += 1;
        }
        // The 5th ACT must wait until first-of-window + tFAW.
        let fifth = r.earliest_act(0, &t);
        assert!(fifth >= r.act_window[0] + t.t_faw);
    }

    #[test]
    fn trrd_l_applies_across_interleaved_groups() {
        // A-B-A: the second group-0 ACT must sit tRRD_L after the first
        // group-0 ACT even though a group-1 ACT came between.
        let t = tp();
        let mut r = RankState::new(&t);
        r.on_act(0, 0, &t);
        let tb = r.earliest_act(1, &t);
        r.on_act(tb, 1, &t);
        assert!(
            r.earliest_act(0, &t) >= t.t_rrd_l,
            "tRRD_L lost across groups"
        );
    }

    #[test]
    fn refresh_due_and_debt() {
        let t = tp();
        let r = RankState::new(&t);
        assert!(!r.refresh_due(t.t_refi - 1));
        assert!(r.refresh_due(t.t_refi));
        assert_eq!(r.refresh_debt(t.t_refi * 3, &t), 3);
        assert_eq!(r.refresh_debt(0, &t), 0);
    }

    #[test]
    fn postponement_limit() {
        let t = tp();
        let r = RankState::new(&t);
        assert!(!r.must_refresh(t.t_refi * 7));
        assert!(r.must_refresh(t.t_refi * RankState::MAX_POSTPONE));
    }

    #[test]
    fn catching_up_clears_urgency() {
        let t = tp();
        let mut r = RankState::new(&t);
        let now = t.t_refi * RankState::MAX_POSTPONE;
        assert!(r.must_refresh(now));
        for i in 0..RankState::MAX_POSTPONE {
            r.on_refresh(now + i * t.t_rfc, 64, &t);
        }
        assert!(!r.must_refresh(now + 8 * t.t_rfc));
    }

    #[test]
    fn closed_form_urgency_matches_the_debt_formula() {
        // Every cycle from just before the first deadline to nine tREFI past
        // it, across several REFs issued at different lags: the one-compare
        // test must agree with the division-based debt at each of them.
        let t = tp();
        let mut r = RankState::new(&t);
        for lag in [0, 1, t.t_refi / 2, 3 * t.t_refi, 8 * t.t_refi] {
            let due = r.next_refi();
            assert_eq!(
                r.urgent_at(),
                due + (RankState::MAX_POSTPONE - 1) * t.t_refi
            );
            for now in due - 2..=due + 9 * t.t_refi {
                assert_eq!(
                    r.must_refresh(now),
                    r.refresh_debt(now, &t) >= RankState::MAX_POSTPONE,
                    "cycle {now}, deadline {due}"
                );
            }
            r.on_refresh(due + lag, 64, &t);
        }
        assert_eq!(r.ref_count(), 5);
    }

    #[test]
    fn refresh_blocks_rank_and_advances_pointer() {
        let t = tp();
        let mut r = RankState::new(&t);
        let rows_per_bank = 64;
        let (done, ptr0) = r.on_refresh(t.t_refi, rows_per_bank, &t);
        assert_eq!(done, t.t_refi + t.t_rfc);
        assert_eq!(ptr0, 0);
        assert_eq!(r.earliest_act(0, &t), done);
        assert_eq!(r.ref_count(), 1);
        let (_, ptr1) = r.on_refresh(2 * t.t_refi, rows_per_bank, &t);
        assert!(ptr1 > 0, "pointer should advance");
    }

    #[test]
    fn refresh_pointer_wraps() {
        let t = tp();
        let mut r = RankState::new(&t);
        let rows_per_bank = 8;
        let mut now = t.t_refi;
        for _ in 0..1000 {
            let (_, ptr) = r.on_refresh(now, rows_per_bank, &t);
            assert!(ptr < rows_per_bank);
            now += t.t_refi;
        }
    }

    #[test]
    fn block_until_delays_acts() {
        let t = tp();
        let mut r = RankState::new(&t);
        r.block_until(500);
        assert_eq!(r.earliest_act(0, &t), 500);
    }
}
