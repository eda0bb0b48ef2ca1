//! Forwarding timers around the simulator's two plug-in boundaries.
//!
//! The traced pass wraps every `Box<dyn RequestStream>` in
//! [`TracedStream`] and the cell's `Box<dyn Mitigation>` in
//! [`TracedMitigation`]. Each wrapper forwards every call unchanged and,
//! for the calls the memory system makes while it runs, adds one call and
//! the call's host nanoseconds to a per-thread [`Tally`]. The benchmark
//! runs its cells serially on one thread, so a thread-local tally sees
//! every call of the cell in flight and nothing else.
//!
//! Wrapping is observation-only: a wrapped run must produce the same
//! report as an unwrapped one. The mitigation wrapper is not a type the
//! memory system's enum dispatch recognises, so a traced run also takes
//! the `AnyMitigation::Dyn` path, and comparing its reports with the
//! untraced pass cross-checks that dispatch path.

use shadow_mitigations::{AboSpec, ActResponse, Mitigation, RfmAction};
use shadow_sim::time::Cycle;
use shadow_workloads::{Request, RequestStream};
use std::cell::Cell;
use std::time::Instant;

/// One wrapped call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// `RequestStream::next_request`.
    NextRequest,
    /// `Mitigation::translate`.
    Translate,
    /// `Mitigation::remap_epoch`.
    RemapEpoch,
    /// `Mitigation::on_activate`.
    OnActivate,
    /// `Mitigation::on_rfm`.
    OnRfm,
    /// `Mitigation::counts_toward_rfm`.
    CountsTowardRfm,
    /// `Mitigation::on_act_issued`.
    OnActIssued,
    /// `Mitigation::on_recovery_rfm`.
    OnRecoveryRfm,
}

impl Site {
    /// Every site, in metric order.
    pub const ALL: [Site; 8] = [
        Site::NextRequest,
        Site::Translate,
        Site::RemapEpoch,
        Site::OnActivate,
        Site::OnRfm,
        Site::CountsTowardRfm,
        Site::OnActIssued,
        Site::OnRecoveryRfm,
    ];

    /// Whether the site belongs to the mitigation layer.
    pub fn is_mitigation(self) -> bool {
        self != Site::NextRequest
    }
}

/// Calls made and host nanoseconds spent at one site.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Calls made.
    pub calls: u64,
    /// Host nanoseconds spent inside the calls.
    pub nanos: u64,
}

/// Tallies for every [`Site`], indexed by `Site as usize`.
pub type Tallies = [Tally; Site::ALL.len()];

thread_local! {
    static TALLIES: Cell<Tallies> = const { Cell::new([Tally { calls: 0, nanos: 0 }; Site::ALL.len()]) };
}

/// The calling thread's tallies so far.
pub fn snapshot() -> Tallies {
    TALLIES.with(Cell::get)
}

impl Tally {
    /// Host seconds spent inside the calls.
    pub fn secs(&self) -> f64 {
        self.nanos as f64 * 1e-9
    }
}

/// Host seconds spent at every site, summed.
pub fn total_secs(t: &Tallies) -> f64 {
    t.iter().map(Tally::secs).sum()
}

/// `after - before`, site by site.
pub fn delta(before: &Tallies, after: &Tallies) -> Tallies {
    let mut d = *after;
    for (d, b) in d.iter_mut().zip(before) {
        d.calls -= b.calls;
        d.nanos -= b.nanos;
    }
    d
}

fn timed<R>(site: Site, call: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let out = call();
    let nanos = t0.elapsed().as_nanos() as u64;
    TALLIES.with(|t| {
        let mut all = t.get();
        let slot = &mut all[site as usize];
        slot.calls += 1;
        slot.nanos += nanos;
        t.set(all);
    });
    out
}

/// A request stream that times `next_request`.
#[derive(Debug)]
pub struct TracedStream(pub Box<dyn RequestStream>);

impl RequestStream for TracedStream {
    fn next_request(&mut self) -> Request {
        timed(Site::NextRequest, || self.0.next_request())
    }

    fn name(&self) -> &str {
        self.0.name()
    }
}

/// A mitigation that times the calls the memory system makes while it
/// runs. The configuration queries (`uses_rfm`, `raaimt`, `abo`, ...),
/// read once at construction, and `name` and `tracker_evictions`, read
/// once for the report, are forwarded untimed: their cost stays with the
/// memory system.
#[derive(Debug)]
pub struct TracedMitigation(pub Box<dyn Mitigation>);

impl Mitigation for TracedMitigation {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn translate(&mut self, bank: usize, pa_row: u32) -> u32 {
        timed(Site::Translate, || self.0.translate(bank, pa_row))
    }

    fn remap_epoch(&self, bank: usize) -> u64 {
        timed(Site::RemapEpoch, || self.0.remap_epoch(bank))
    }

    fn on_activate(&mut self, bank: usize, pa_row: u32, cycle: Cycle) -> ActResponse {
        timed(Site::OnActivate, || self.0.on_activate(bank, pa_row, cycle))
    }

    fn on_rfm(&mut self, bank: usize) -> RfmAction {
        timed(Site::OnRfm, || self.0.on_rfm(bank))
    }

    fn uses_rfm(&self) -> bool {
        self.0.uses_rfm()
    }

    fn raaimt(&self) -> Option<u32> {
        self.0.raaimt()
    }

    fn t_rcd_extra_cycles(&self) -> Cycle {
        self.0.t_rcd_extra_cycles()
    }

    fn da_rows_per_subarray(&self, rows_per_subarray: u32) -> u32 {
        self.0.da_rows_per_subarray(rows_per_subarray)
    }

    fn refresh_rate_multiplier(&self) -> u32 {
        self.0.refresh_rate_multiplier()
    }

    fn counts_toward_rfm(&mut self, bank: usize, pa_row: u32) -> bool {
        timed(Site::CountsTowardRfm, || {
            self.0.counts_toward_rfm(bank, pa_row)
        })
    }

    fn abo(&self) -> Option<AboSpec> {
        self.0.abo()
    }

    fn on_act_issued(&mut self, bank: usize, da_row: u32) -> bool {
        timed(Site::OnActIssued, || self.0.on_act_issued(bank, da_row))
    }

    fn on_recovery_rfm(&mut self, bank: usize) -> RfmAction {
        timed(Site::OnRecoveryRfm, || self.0.on_recovery_rfm(bank))
    }

    fn tracker_evictions(&self) -> u64 {
        self.0.tracker_evictions()
    }

    fn split_channels(
        &mut self,
        channels: usize,
        banks_per_channel: usize,
    ) -> Option<Vec<Box<dyn Mitigation>>> {
        self.0.split_channels(channels, banks_per_channel)
    }
}
