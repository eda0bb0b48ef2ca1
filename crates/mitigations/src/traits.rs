//! The [`Mitigation`] trait: the contract between a Row Hammer defense and
//! the memory-system simulator.
//!
//! A mitigation interposes at three points:
//!
//! 1. **Address translation** — row-indirection schemes (SHADOW, RRS)
//!    remap the MC's PA row to a device DA row; others are the identity.
//! 2. **Activation** — trackers observe, throttlers delay, probabilistic
//!    schemes occasionally refresh victims.
//! 3. **RFM** — RFM-compatible schemes perform their mitigating action in
//!    the tRFM slack the command grants.
//!
//! The simulator applies whatever the mitigation reports (delays, victim
//! refreshes, row copies, channel blocking) to both the timing model and
//! the Row Hammer fault ledger, so protection and performance are always
//! evaluated against the same mechanism.

use shadow_sim::time::Cycle;

/// Response to one ACT.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ActResponse {
    /// Delay imposed *before* the ACT may issue (BlockHammer throttling).
    pub delay_cycles: Cycle,
    /// DA rows to refresh right away (PARA's probabilistic TRR).
    pub refreshes: Vec<u32>,
    /// Row copies `(src_da, dst_da)` triggered by this ACT (RRS row-swap).
    pub copies: Vec<(u32, u32)>,
    /// Channel blocking time in ns (RRS swaps stream both rows' data
    /// through the MC, blocking the whole channel — §III-A's 4 µs).
    pub channel_block_ns: f64,
}

/// Work performed in a mitigation slot (RFM, or a scheme-initiated action).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RfmAction {
    /// DA rows restored (TRR victims, SHADOW's incremental refresh).
    pub refreshes: Vec<u32>,
    /// Row copies `(src_da, dst_da)` performed (SHADOW shuffle, RRS swap).
    /// Each copy activates both rows (restore + disturb at both sites).
    pub copies: Vec<(u32, u32)>,
    /// Extra time, in nanoseconds, the *channel* is blocked beyond the
    /// command's own slot (RRS's 4 µs memory-channel-blocking swap).
    pub channel_block_ns: f64,
}

/// Scope a PRAC-style Alert Back-Off recovery blocks while it drains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AboScope {
    /// Recovery RFMs block the whole rank (DDR5 PRAC's RFMab flow).
    Rank,
    /// Recovery RFMs block only the alerting bank (PRACtical's bank-level
    /// recovery isolation: siblings keep servicing demand traffic).
    Bank,
}

/// The Alert Back-Off contract of a PRAC-style scheme: when any per-row
/// activation counter reaches `threshold` the scheme asserts ALERTn, and
/// the controller must stop in-scope ACTs and issue `rfms_per_alert`
/// recovery RFM commands before normal traffic resumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AboSpec {
    /// Per-row activation count at which the alert fires (the crossing
    /// row's counter resets when it does).
    pub threshold: u32,
    /// Recovery RFM commands the controller owes per alert.
    pub rfms_per_alert: u32,
    /// What the recovery window blocks while it drains.
    pub scope: AboScope,
}

/// A Row Hammer mitigation scheme.
///
/// `bank` arguments are flat bank indices (`0..banks`); `pa_row` / returned
/// rows are bank-relative. Implementations must be deterministic given
/// their construction-time RNG seeds. `Send` is part of the contract, so an
/// assembled system can move between threads; every scheme is plain owned
/// data, so the bound costs implementors nothing. `Any` is too: the
/// simulator devirtualizes `Box<dyn Mitigation>` into the
/// [`AnyMitigation`](crate::AnyMitigation) enum by type id, so the hot
/// translate/activate path monomorphizes over the built-in schemes; every
/// scheme is `'static` owned data, so the bound costs implementors nothing.
pub trait Mitigation: std::fmt::Debug + Send + std::any::Any {
    /// Scheme name for reports ("SHADOW", "PARFM", ...).
    fn name(&self) -> &'static str;

    /// Translates a PA row to the device DA row for `bank`.
    ///
    /// Identity unless the scheme maintains row indirection.
    ///
    /// Must be a pure lookup: repeated calls with the same arguments return
    /// the same row until the mapping itself changes, and every mapping
    /// change must bump [`remap_epoch`](Mitigation::remap_epoch).
    fn translate(&mut self, _bank: usize, pa_row: u32) -> u32 {
        pa_row
    }

    /// Monotonic *remap epoch* of `bank`'s PA→DA mapping.
    ///
    /// The simulator caches [`translate`](Mitigation::translate) results
    /// tagged with this value and only re-translates when it changes, so
    /// the FR-FCFS row-hit scan is a cache lookup instead of a translation
    /// per queued request per scheduling pass.
    ///
    /// **Contract:** implementations MUST return a value that changes
    /// (conventionally: increments) whenever *any* row's translation for
    /// `bank` may have changed — e.g. on every SHADOW shuffle or RRS swap
    /// of that bank — and MUST keep it stable otherwise. Schemes whose
    /// `translate` is the identity (or otherwise immutable) keep the
    /// default constant `0`. Returning a stale epoch after a mapping
    /// change silently desynchronizes the controller from the device and
    /// breaks simulation fidelity; bumping spuriously is safe but slow.
    fn remap_epoch(&self, _bank: usize) -> u64 {
        0
    }

    /// Observes (and possibly throttles) an ACT of `pa_row` on `bank` at
    /// `cycle`.
    fn on_activate(&mut self, _bank: usize, _pa_row: u32, _cycle: Cycle) -> ActResponse {
        ActResponse::default()
    }

    /// Performs the scheme's RFM work for `bank`.
    ///
    /// Only called when [`uses_rfm`](Mitigation::uses_rfm) is true.
    fn on_rfm(&mut self, _bank: usize) -> RfmAction {
        RfmAction::default()
    }

    /// Whether the scheme consumes the JEDEC RFM interface.
    fn uses_rfm(&self) -> bool {
        false
    }

    /// The RAAIMT this scheme requires, if RFM-based.
    fn raaimt(&self) -> Option<u32> {
        None
    }

    /// Additional ACT→RD/WR cycles the scheme imposes (SHADOW's tRD_RM).
    fn t_rcd_extra_cycles(&self) -> Cycle {
        0
    }

    /// Device DA rows per subarray (SHADOW adds its empty row).
    fn da_rows_per_subarray(&self, rows_per_subarray: u32) -> u32 {
        rows_per_subarray
    }

    /// Auto-refresh rate multiplier (DRR = 2).
    fn refresh_rate_multiplier(&self) -> u32 {
        1
    }

    /// Whether this ACT counts toward the bank's RAA counter.
    ///
    /// The §VIII filtering optimization returns `false` for activations of
    /// rows a pre-filter deems cold, suppressing unnecessary RFMs on benign
    /// traffic. The default (count everything) is plain JEDEC behaviour.
    fn counts_toward_rfm(&mut self, _bank: usize, _pa_row: u32) -> bool {
        true
    }

    /// The scheme's Alert Back-Off contract, if it is PRAC-style.
    ///
    /// `Some` opts the scheme into the ABO flow: the scheduler feeds every
    /// committed ACT to [`on_act_issued`](Mitigation::on_act_issued), and an
    /// asserted alert arms `rfms_per_alert` recovery RFM commands at the
    /// spec's scope. Must be stable for the lifetime of the scheme (the
    /// controller and the conformance oracle both capture it once).
    fn abo(&self) -> Option<AboSpec> {
        None
    }

    /// Observes one *committed* ACT of device row `da_row` on `bank`;
    /// returns `true` when the scheme asserts the ABO alert.
    ///
    /// Unlike [`on_activate`](Mitigation::on_activate) — a per-request
    /// consult charged once even if an urgent refresh forces the row to be
    /// re-activated — this hook fires for every ACT command the scheduler
    /// actually issues, in issue order, mirroring counters that physically
    /// live in the DRAM rows. Only called when [`abo`](Mitigation::abo)
    /// returns `Some`.
    fn on_act_issued(&mut self, _bank: usize, _da_row: u32) -> bool {
        false
    }

    /// Performs the scheme's work for one ABO recovery RFM slot on `bank`
    /// (targeted victim refreshes, typically).
    ///
    /// Rank-scoped recoveries call this once per bank of the blocked rank,
    /// ascending; bank-scoped recoveries once for the alerting bank.
    fn on_recovery_rfm(&mut self, _bank: usize) -> RfmAction {
        RfmAction::default()
    }

    /// Total tracker-entry evictions the scheme has performed (DAPPER's
    /// resilience metric; trackerless schemes report 0).
    fn tracker_evictions(&self) -> u64 {
        0
    }

    /// Unused: the engine never calls it, and no built-in scheme implements
    /// it. It keeps its default `None` body only so that wrappers which
    /// still forward it keep compiling.
    fn split_channels(
        &mut self,
        _channels: usize,
        _banks_per_channel: usize,
    ) -> Option<Vec<Box<dyn Mitigation>>> {
        None
    }
}

impl<M: Mitigation + ?Sized> Mitigation for Box<M> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn translate(&mut self, bank: usize, pa_row: u32) -> u32 {
        (**self).translate(bank, pa_row)
    }

    fn remap_epoch(&self, bank: usize) -> u64 {
        (**self).remap_epoch(bank)
    }

    fn on_activate(&mut self, bank: usize, pa_row: u32, cycle: Cycle) -> ActResponse {
        (**self).on_activate(bank, pa_row, cycle)
    }

    fn on_rfm(&mut self, bank: usize) -> RfmAction {
        (**self).on_rfm(bank)
    }

    fn uses_rfm(&self) -> bool {
        (**self).uses_rfm()
    }

    fn raaimt(&self) -> Option<u32> {
        (**self).raaimt()
    }

    fn t_rcd_extra_cycles(&self) -> Cycle {
        (**self).t_rcd_extra_cycles()
    }

    fn da_rows_per_subarray(&self, rows_per_subarray: u32) -> u32 {
        (**self).da_rows_per_subarray(rows_per_subarray)
    }

    fn refresh_rate_multiplier(&self) -> u32 {
        (**self).refresh_rate_multiplier()
    }

    fn counts_toward_rfm(&mut self, bank: usize, pa_row: u32) -> bool {
        (**self).counts_toward_rfm(bank, pa_row)
    }

    fn abo(&self) -> Option<AboSpec> {
        (**self).abo()
    }

    fn on_act_issued(&mut self, bank: usize, da_row: u32) -> bool {
        (**self).on_act_issued(bank, da_row)
    }

    fn on_recovery_rfm(&mut self, bank: usize) -> RfmAction {
        (**self).on_recovery_rfm(bank)
    }

    fn tracker_evictions(&self) -> u64 {
        (**self).tracker_evictions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct Nop;
    impl Mitigation for Nop {
        fn name(&self) -> &'static str {
            "nop"
        }
    }

    #[test]
    fn default_methods_are_inert() {
        let mut n = Nop;
        assert_eq!(n.translate(0, 42), 42);
        assert_eq!(n.on_activate(0, 42, 0), ActResponse::default());
        assert_eq!(n.on_rfm(0), RfmAction::default());
        assert!(!n.uses_rfm());
        assert_eq!(n.raaimt(), None);
        assert_eq!(n.t_rcd_extra_cycles(), 0);
        assert_eq!(n.da_rows_per_subarray(512), 512);
        assert_eq!(n.refresh_rate_multiplier(), 1);
        assert_eq!(n.remap_epoch(0), 0, "static schemes sit at epoch 0");
    }

    #[test]
    fn trait_is_object_safe() {
        let mut boxed: Box<dyn Mitigation> = Box::new(Nop);
        assert_eq!(boxed.name(), "nop");
        let _ = boxed.on_rfm(0);
    }
}
