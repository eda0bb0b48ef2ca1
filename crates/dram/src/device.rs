//! The assembled DRAM device: banks + ranks + channel data buses.
//!
//! [`DramDevice`] is a *passive* timing model: the memory controller asks it
//! for earliest-legal issue cycles, then commits commands with
//! [`issue`](DramDevice::issue). In debug builds every commit re-validates
//! the governing constraints, so scheduler bugs surface as panics rather
//! than silently optimistic results.

use crate::command::DramCommand;
use crate::geometry::{BankId, DramGeometry, RowId};
use crate::lane::ChannelLane;
use crate::lut::GeometryLut;
use crate::timing::TimingParams;
use crate::trace::CommandTrace;
use shadow_sim::ring::RingLog;
use shadow_sim::stats::Counter;
use shadow_sim::time::Cycle;

/// Outcome of committing a command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IssueResult {
    /// For RD: cycle the read data burst completes. For WR: cycle write
    /// recovery completes. For REF/RFM: cycle the blocked resource frees.
    pub done_at: Option<Cycle>,
}

/// A cycle-level DRAM device model.
///
/// All bank/rank/bus timing state lives in per-channel [`ChannelLane`]s
/// (channels share no timing state); the device keeps the cross-channel
/// bookkeeping — stats, command history, the optional conformance trace —
/// and delegates timing queries to the owning lane. The memory system
/// borrows the lanes wholesale via [`take_lanes`](DramDevice::take_lanes)
/// for the duration of a run.
#[derive(Debug, Clone)]
pub struct DramDevice {
    geometry: DramGeometry,
    timing: TimingParams,
    lanes: Vec<ChannelLane>,
    /// Per-bank coordinate tables shared with the memory controller.
    lut: GeometryLut,
    /// Ring buffer of recent commands (debugging aid; see
    /// [`DramDevice::recent_commands`]).
    history: RingLog<(Cycle, DramCommand)>,
    /// Optional full command recorder for the conformance oracle. `None`
    /// (the default) costs one branch per command.
    trace: Option<CommandTrace>,
    stats: Counter,
}

/// Depth of the command-history ring.
const HISTORY_DEPTH: usize = 64;

impl DramDevice {
    /// Builds a device from geometry and timing.
    ///
    /// # Panics
    ///
    /// Panics if the timing set fails [`TimingParams::validate`].
    pub fn new(geometry: DramGeometry, timing: TimingParams) -> Self {
        if let Err(e) = timing.validate() {
            panic!("invalid timing parameters: {e}");
        }
        DramDevice {
            geometry,
            timing,
            lanes: (0..geometry.channels)
                .map(|ch| ChannelLane::new(ch, &geometry, &timing))
                .collect(),
            lut: GeometryLut::new(&geometry),
            history: RingLog::new(HISTORY_DEPTH),
            trace: None,
            stats: Counter::new(),
        }
    }

    /// Moves the per-channel lanes out of the device (for the duration of a
    /// run, during which each scheduler shard owns its channel's lane).
    ///
    /// Until [`restore_lanes`](DramDevice::restore_lanes) puts them back,
    /// timing queries panic; bookkeeping ([`record`](DramDevice::record),
    /// trace, stats, history) keeps working.
    pub fn take_lanes(&mut self) -> Vec<ChannelLane> {
        debug_assert!(!self.lanes.is_empty(), "lanes already taken");
        std::mem::take(&mut self.lanes)
    }

    /// Returns lanes taken by [`take_lanes`](DramDevice::take_lanes).
    ///
    /// # Panics
    ///
    /// Panics if the lane count does not match the geometry.
    pub fn restore_lanes(&mut self, lanes: Vec<ChannelLane>) {
        assert_eq!(
            lanes.len(),
            self.geometry.channels as usize,
            "lane count mismatch"
        );
        self.lanes = lanes;
    }

    /// Turns on command tracing with a ring of `depth` entries. Replaces any
    /// previously collected trace.
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0` — disable tracing with
    /// [`disable_trace`](DramDevice::disable_trace) instead.
    pub fn enable_trace(&mut self, depth: usize) {
        self.trace = Some(CommandTrace::new(depth));
    }

    /// Turns off command tracing, discarding any collected trace.
    pub fn disable_trace(&mut self) {
        self.trace = None;
    }

    /// The collected command trace, if tracing is enabled.
    pub fn trace(&self) -> Option<&CommandTrace> {
        self.trace.as_ref()
    }

    /// Drains the collected trace (oldest first), leaving tracing enabled.
    /// Returns `None` if tracing is off.
    pub fn take_trace(&mut self) -> Option<Vec<crate::trace::CommandRecord>> {
        self.trace.as_mut().map(|t| t.take())
    }

    /// The device geometry.
    pub fn geometry(&self) -> &DramGeometry {
        &self.geometry
    }

    /// The timing parameter set.
    pub fn timing(&self) -> &TimingParams {
        &self.timing
    }

    /// Mutable timing access (mitigations adjust `t_rcd_extra`; experiments
    /// sweep tRCD). Re-validated on the next [`DramDevice::issue`].
    pub fn timing_mut(&mut self) -> &mut TimingParams {
        &mut self.timing
    }

    /// Command counters (ACT/PRE/RD/WR/REF/RFM) for the power model.
    pub fn stats(&self) -> &Counter {
        &self.stats
    }

    /// The shared per-bank coordinate tables.
    pub fn lut(&self) -> &GeometryLut {
        &self.lut
    }

    #[inline]
    fn lane(&self, bank: BankId) -> &ChannelLane {
        &self.lanes[self.lut.channel_of(bank) as usize]
    }

    #[inline]
    fn rank_lane(&self, rank: u32) -> &ChannelLane {
        &self.lanes[(rank / self.geometry.ranks_per_channel) as usize]
    }

    /// The row currently open in `bank`, if any.
    pub fn open_row(&self, bank: BankId) -> Option<RowId> {
        self.lane(bank).open_row(bank)
    }

    /// Lifetime ACT count of `bank`.
    pub fn act_count(&self, bank: BankId) -> u64 {
        self.lane(bank).act_count(bank)
    }

    /// Earliest cycle ≥ `now` at which `ACT bank` is legal.
    pub fn earliest_act(&self, bank: BankId, now: Cycle) -> Cycle {
        self.lane(bank).earliest_act(bank, now, &self.timing)
    }

    /// Earliest cycle ≥ `now` at which `PRE bank` is legal.
    pub fn earliest_pre(&self, bank: BankId, now: Cycle) -> Cycle {
        self.lane(bank).earliest_pre(bank, now)
    }

    /// Earliest cycle ≥ `now` at which `RD bank` is legal (bank CAS timing,
    /// channel data-bus availability, and the rank's write-to-read
    /// turnaround).
    pub fn earliest_rd(&self, bank: BankId, now: Cycle) -> Cycle {
        self.lane(bank).earliest_rd(bank, now, &self.timing)
    }

    /// Earliest cycle ≥ `now` at which `WR bank` is legal.
    pub fn earliest_wr(&self, bank: BankId, now: Cycle) -> Cycle {
        self.lane(bank).earliest_wr(bank, now, &self.timing)
    }

    /// Earliest cycle ≥ `now` at which a REF to `rank` may start (requires
    /// all banks of the rank precharged and past their ACT-ready times).
    pub fn earliest_ref(&self, rank: u32, now: Cycle) -> Cycle {
        self.rank_lane(rank).earliest_ref(rank, now)
    }

    /// Whether an auto-refresh is due on `rank` at `now`.
    pub fn refresh_due(&self, rank: u32, now: Cycle) -> bool {
        self.rank_lane(rank).refresh_due(rank, now)
    }

    /// Whether `rank`'s refresh debt has hit the JEDEC postponement limit.
    pub fn refresh_urgent(&self, rank: u32, now: Cycle) -> bool {
        self.rank_lane(rank).refresh_urgent(rank, now)
    }

    /// Rows covered by one REF in each bank of a rank.
    pub fn rows_per_ref(&self, rank: u32) -> u32 {
        self.rank_lane(rank).rows_per_ref(rank, &self.timing)
    }

    /// Records `cmd` in the bookkeeping stream (stats, history, trace)
    /// without touching timing state.
    ///
    /// This is the bookkeeping half of [`issue`](DramDevice::issue); the
    /// coordinator calls it after the shards' lanes applied the state
    /// transitions, preserving the canonical channel-order command stream.
    pub fn record(&mut self, cmd: DramCommand, t: Cycle) {
        self.stats.inc(cmd.mnemonic());
        self.history.push((t, cmd));
        if let Some(trace) = &mut self.trace {
            trace.record(t, cmd);
        }
    }

    /// Commits `cmd` at cycle `t`.
    ///
    /// Returns per-command completion info. For `Ref`, the covered row
    /// block is readable via [`DramDevice::refresh_row_ptr`] *before* the
    /// call (the pointer advances on issue).
    ///
    /// # Panics
    ///
    /// Panics (debug builds) on any timing or state violation.
    pub fn issue(&mut self, cmd: DramCommand, t: Cycle) -> IssueResult {
        self.record(cmd, t);
        let ch = match cmd {
            DramCommand::Ref { rank } | DramCommand::Rfmab { rank } => {
                (rank / self.geometry.ranks_per_channel) as usize
            }
            DramCommand::Act { bank, .. }
            | DramCommand::Pre { bank }
            | DramCommand::Rd { bank }
            | DramCommand::Wr { bank }
            | DramCommand::Rfm { bank }
            | DramCommand::Rfmsb { bank } => self.lut.channel_of(bank) as usize,
        };
        self.lanes[ch].apply(cmd, t, &self.timing)
    }

    /// The sequential refresh pointer of `rank` (row block refreshed by the
    /// *next* REF).
    pub fn refresh_row_ptr(&self, rank: u32) -> u32 {
        self.rank_lane(rank).refresh_row_ptr(rank)
    }

    /// Total REF commands issued to `rank`.
    pub fn ref_count(&self, rank: u32) -> u64 {
        self.rank_lane(rank).ref_count(rank)
    }

    /// The most recent commands (oldest first), for scheduler debugging.
    pub fn recent_commands(&self) -> impl Iterator<Item = (Cycle, DramCommand)> + '_ {
        self.history.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> DramDevice {
        DramDevice::new(DramGeometry::tiny(), TimingParams::tiny())
    }

    #[test]
    fn act_read_pre_sequence() {
        let mut d = dev();
        let bank = d.geometry().bank_id(0, 0, 0);
        let t0 = d.earliest_act(bank, 0);
        d.issue(DramCommand::Act { bank, row: 3 }, t0);
        assert_eq!(d.open_row(bank), Some(3));
        let tr = d.earliest_rd(bank, t0);
        let res = d.issue(DramCommand::Rd { bank }, tr);
        assert!(res.done_at.unwrap() > tr);
        let tpre = d.earliest_pre(bank, tr);
        d.issue(DramCommand::Pre { bank }, tpre);
        assert_eq!(d.open_row(bank), None);
    }

    #[test]
    fn command_stats_counted() {
        let mut d = dev();
        let bank = d.geometry().bank_id(0, 0, 0);
        d.issue(DramCommand::Act { bank, row: 0 }, 0);
        let tr = d.earliest_rd(bank, 0);
        d.issue(DramCommand::Rd { bank }, tr);
        assert_eq!(d.stats().get("ACT"), 1);
        assert_eq!(d.stats().get("RD"), 1);
    }

    #[test]
    fn bus_contention_serializes_reads_across_banks() {
        let mut d = dev();
        let tp = *d.timing();
        let b0 = d.geometry().bank_id(0, 0, 0);
        let b1 = d.geometry().bank_id(0, 0, 1);
        d.issue(DramCommand::Act { bank: b0, row: 0 }, 0);
        let t1 = d.earliest_act(b1, 0);
        d.issue(DramCommand::Act { bank: b1, row: 0 }, t1);
        let r0 = d.earliest_rd(b0, t1);
        let done0 = d.issue(DramCommand::Rd { bank: b0 }, r0).done_at.unwrap();
        // Second read's data cannot start before the first burst ends.
        let r1 = d.earliest_rd(b1, r0);
        assert!(r1 + tp.t_cl >= done0, "read bursts overlap on the bus");
    }

    #[test]
    fn refresh_blocks_whole_rank() {
        let mut d = dev();
        let bank = d.geometry().bank_id(0, 0, 0);
        let other = d.geometry().bank_id(0, 0, 1);
        let t = d.earliest_ref(0, 0);
        let done = d.issue(DramCommand::Ref { rank: 0 }, t).done_at.unwrap();
        assert_eq!(d.earliest_act(bank, t), done);
        assert_eq!(d.earliest_act(other, t), done);
        assert_eq!(d.ref_count(0), 1);
    }

    #[test]
    fn rfm_blocks_only_target_bank() {
        let mut d = dev();
        let bank = d.geometry().bank_id(0, 0, 0);
        let other = d.geometry().bank_id(0, 0, 1);
        let done = d.issue(DramCommand::Rfm { bank }, 0).done_at.unwrap();
        assert_eq!(done, d.timing().t_rfm);
        assert_eq!(d.earliest_act(bank, 0), done);
        // The sibling bank only sees rank-level constraints (none yet).
        assert_eq!(d.earliest_act(other, 0), 0);
    }

    #[test]
    fn refresh_due_tracks_trefi() {
        let d = dev();
        let tp = *d.timing();
        assert!(!d.refresh_due(0, tp.t_refi - 1));
        assert!(d.refresh_due(0, tp.t_refi));
    }

    #[test]
    fn trcd_extra_flows_to_read_latency() {
        let mut d = dev();
        d.timing_mut().t_rcd_extra = 4;
        let bank = d.geometry().bank_id(0, 0, 0);
        d.issue(DramCommand::Act { bank, row: 0 }, 0);
        let tr = d.earliest_rd(bank, 0);
        assert_eq!(tr, d.timing().t_rcd + 4);
    }

    #[test]
    #[should_panic]
    fn invalid_timing_rejected() {
        let mut tp = TimingParams::tiny();
        tp.t_rc = 0;
        let _ = DramDevice::new(DramGeometry::tiny(), tp);
    }

    #[test]
    fn same_group_cas_spacing_is_tccd_l() {
        let mut d = dev();
        let tp = *d.timing();
        // tiny geometry: one bank group; banks 0 and 1 share it.
        let b0 = d.geometry().bank_id(0, 0, 0);
        let b1 = d.geometry().bank_id(0, 0, 1);
        d.issue(DramCommand::Act { bank: b0, row: 0 }, 0);
        let t1 = d.earliest_act(b1, 0);
        d.issue(DramCommand::Act { bank: b1, row: 0 }, t1);
        let r0 = d.earliest_rd(b0, t1);
        d.issue(DramCommand::Rd { bank: b0 }, r0);
        let r1 = d.earliest_rd(b1, r0);
        assert!(
            r1 >= r0 + tp.t_ccd_l,
            "same-group CAS at {r1} < {} + tCCD_L",
            r0
        );
    }

    #[test]
    fn command_history_rings() {
        let mut d = dev();
        let bank = d.geometry().bank_id(0, 0, 0);
        d.issue(DramCommand::Act { bank, row: 3 }, 0);
        let tr = d.earliest_rd(bank, 0);
        d.issue(DramCommand::Rd { bank }, tr);
        let hist: Vec<_> = d.recent_commands().collect();
        assert_eq!(hist.len(), 2);
        assert!(matches!(hist[0].1, DramCommand::Act { row: 3, .. }));
        assert!(matches!(hist[1].1, DramCommand::Rd { .. }));
        // The ring is bounded.
        for i in 0..200u64 {
            let t = d.earliest_pre(bank, tr + i * 100);
            let _ = t; // keep simple: reissue ACT/PRE pairs
        }
    }

    #[test]
    fn trace_captures_committed_commands() {
        let mut d = dev();
        assert!(d.trace().is_none());
        d.enable_trace(16);
        let bank = d.geometry().bank_id(0, 0, 0);
        d.issue(DramCommand::Act { bank, row: 7 }, 0);
        let tr = d.earliest_rd(bank, 0);
        d.issue(DramCommand::Rd { bank }, tr);
        let trace = d.trace().unwrap();
        assert!(trace.is_complete());
        assert_eq!(trace.len(), 2);
        let recs = d.take_trace().unwrap();
        assert!(matches!(recs[0].cmd, DramCommand::Act { row: 7, .. }));
        assert_eq!(recs[1].cycle, tr);
        assert!(
            d.trace().unwrap().is_empty(),
            "take_trace leaves tracing on"
        );
        d.disable_trace();
        assert!(d.trace().is_none());
    }

    #[test]
    fn write_to_read_turnaround_enforced() {
        let mut d = dev();
        let tp = *d.timing();
        let b0 = d.geometry().bank_id(0, 0, 0);
        let b1 = d.geometry().bank_id(0, 0, 1);
        d.issue(DramCommand::Act { bank: b0, row: 0 }, 0);
        let t1 = d.earliest_act(b1, 0);
        d.issue(DramCommand::Act { bank: b1, row: 0 }, t1);
        let tw = d.earliest_wr(b0, t1);
        d.issue(DramCommand::Wr { bank: b0 }, tw);
        // A read on the *other* bank of the same rank still waits tWTR.
        let tr = d.earliest_rd(b1, tw);
        assert!(
            tr >= tw + tp.t_cwl + tp.t_bl + tp.t_wtr_l,
            "read at {tr} ignores write-to-read turnaround"
        );
    }

    #[test]
    fn tfaw_throttles_rapid_acts() {
        let mut d = DramDevice::new(DramGeometry::ddr4_single_rank(), TimingParams::ddr4_2666());
        let tp = *d.timing();
        let mut t = 0;
        let mut act_times = Vec::new();
        for i in 0..5 {
            let bank = d.geometry().bank_id(0, 0, i);
            t = d.earliest_act(bank, t);
            d.issue(DramCommand::Act { bank, row: 0 }, t);
            act_times.push(t);
        }
        assert!(
            act_times[4] - act_times[0] >= tp.t_faw,
            "five ACTs in {} < tFAW {}",
            act_times[4] - act_times[0],
            tp.t_faw
        );
    }
}
