//! BlockHammer (Yağlıkçı et al., HPCA 2021) — the throttling baseline.
//!
//! BlockHammer estimates per-row ACT rates with a dual counting Bloom
//! filter (rotating every half refresh window) and *blacklists* rows whose
//! estimate exceeds `N_BL`. ACTs to blacklisted rows are delayed so the row
//! cannot reach `H_cnt` effective activations within the window.
//!
//! The paper's observation (§VII-C): as `H_cnt` shrinks, `N_BL` shrinks,
//! the required delay grows, and the false-positive probability of the
//! Bloom filter rises — so benign workloads start being throttled too,
//! which is why BlockHammer's overhead explodes at 2K in Fig. 11.

use crate::traits::{ActResponse, Mitigation};
use shadow_rh::RhParams;
use shadow_sim::time::Cycle;
use shadow_trackers::{DualBloom, TrackerCost};

/// The BlockHammer mitigation.
#[derive(Debug)]
pub struct BlockHammer {
    filters: Vec<DualBloom>,
    /// Blacklist threshold (estimated ACTs in the current window).
    n_bl: u32,
    /// Delay applied per blacklisted ACT, in cycles.
    throttle_cycles: Cycle,
    /// Filter rotation period in cycles (half the refresh window).
    rotation_period: Cycle,
    last_rotation: Vec<Cycle>,
    throttled_acts: u64,
}

impl BlockHammer {
    /// Bloom filter size per side (counters) — BlockHammer's 1K-counter
    /// configuration.
    const FILTER_COUNTERS: usize = 1024;
    /// Hash probes per insertion.
    const FILTER_HASHES: u32 = 4;

    /// Creates BlockHammer for `banks` banks.
    ///
    /// `t_refw_cycles` is the refresh window in command-clock cycles; the
    /// filters rotate every half window.
    pub fn new(banks: usize, rh: RhParams, t_refw_cycles: Cycle) -> Self {
        // A row may safely receive H_cnt / W_sum ACTs per window; blacklist
        // at half that to leave margin (BlockHammer's N_BL = N_RH/2 rule).
        let safe_acts = (rh.h_cnt as f64 / rh.w_sum()).floor() as u32;
        let n_bl = (safe_acts / 2).max(1);
        // A blacklisted row is limited to n_bl further ACTs per half-window:
        // spacing them evenly yields the per-ACT delay.
        let throttle_cycles = (t_refw_cycles / 2) / (n_bl as u64).max(1);
        BlockHammer {
            filters: (0..banks)
                .map(|_| DualBloom::new(Self::FILTER_COUNTERS, Self::FILTER_HASHES, u64::MAX / 2))
                .collect(),
            n_bl,
            throttle_cycles,
            rotation_period: t_refw_cycles / 2,
            last_rotation: vec![0; banks],
            throttled_acts: 0,
        }
    }

    /// The blacklist threshold.
    pub fn blacklist_threshold(&self) -> u32 {
        self.n_bl
    }

    /// The per-ACT throttle delay for blacklisted rows.
    pub fn throttle_cycles(&self) -> Cycle {
        self.throttle_cycles
    }

    /// ACTs that have been throttled so far.
    pub fn throttled_acts(&self) -> u64 {
        self.throttled_acts
    }

    /// Per-bank SRAM cost of the dual filter (8-bit counters) plus the
    /// row-address history BlockHammer keeps.
    pub fn filter_cost(&self) -> TrackerCost {
        self.filters[0].cost(8)
    }
}

impl Mitigation for BlockHammer {
    fn name(&self) -> &'static str {
        "BlockHammer"
    }

    fn on_activate(&mut self, bank: usize, pa_row: u32, cycle: Cycle) -> ActResponse {
        // Time-based dual-filter rotation.
        if cycle.saturating_sub(self.last_rotation[bank]) >= self.rotation_period {
            self.filters[bank].rotate();
            self.last_rotation[bank] = cycle;
        }
        let est = self.filters[bank].estimate(pa_row as u64);
        self.filters[bank].insert(pa_row as u64);
        if est >= self.n_bl {
            self.throttled_acts += 1;
            ActResponse {
                delay_cycles: self.throttle_cycles,
                ..ActResponse::default()
            }
        } else {
            ActResponse::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bh(h_cnt: u64) -> BlockHammer {
        BlockHammer::new(1, RhParams::new(h_cnt, 3), 85_000_000)
    }

    #[test]
    fn benign_rows_not_throttled() {
        let mut m = bh(4096);
        for row in 0..200 {
            let r = m.on_activate(0, row, row as u64 * 100);
            assert_eq!(r.delay_cycles, 0, "benign row {row} throttled");
        }
        assert_eq!(m.throttled_acts(), 0);
    }

    #[test]
    fn hammering_row_gets_throttled() {
        let mut m = bh(4096);
        let mut throttled = false;
        for i in 0..2000u64 {
            let r = m.on_activate(0, 7, i * 50);
            if r.delay_cycles > 0 {
                throttled = true;
                break;
            }
        }
        assert!(throttled, "hammer row never blacklisted");
    }

    #[test]
    fn threshold_scales_with_hcnt() {
        assert!(bh(8192).blacklist_threshold() > bh(2048).blacklist_threshold());
    }

    #[test]
    fn delay_grows_as_hcnt_shrinks() {
        // The §VII-C scalability problem: lower H_cnt -> longer delays.
        assert!(bh(2048).throttle_cycles() > bh(8192).throttle_cycles());
    }

    #[test]
    fn rotation_forgets_old_history() {
        let mut m = bh(4096);
        // Hammer enough to blacklist.
        for i in 0..2000u64 {
            m.on_activate(0, 7, i);
        }
        assert!(m.on_activate(0, 7, 2001).delay_cycles > 0);
        // Two rotation periods later the row is clean again.
        let far = 2 * 85_000_000 + 10_000;
        m.on_activate(0, 1, far); // triggers one rotation
        let r = m.on_activate(0, 7, far + m.rotation_period + 1); // second rotation
        assert_eq!(r.delay_cycles, 0, "history survived two rotations");
    }

    #[test]
    fn does_not_use_rfm() {
        let m = bh(4096);
        assert!(!m.uses_rfm());
        assert_eq!(m.raaimt(), None);
    }

    #[test]
    fn filter_cost_reported() {
        let m = bh(4096);
        assert_eq!(m.filter_cost().total_bytes(), 2 * 1024);
    }
}
