//! PARA (Kim et al., ISCA 2014) — the classic stateless probabilistic TRR.
//!
//! On every ACT, with probability `p`, the victims of the activated row are
//! refreshed. No tracking state at all; protection is purely statistical.
//! The required `p` scales as `~1/H_cnt`, so at low thresholds the extra
//! refresh traffic becomes significant (§IX: "performance overhead is
//! exacerbated with high sensitivity under a low H_cnt") — PARFM is its
//! RFM-interface descendant.
//!
//! Coin flips come from per-bank RNG substreams (seeded through disjoint
//! PRINCE counter windows, see [`crate::bank_stream_seed`]) so that the
//! draw sequence observed by one bank is independent of the ACT interleaving
//! across banks.

use crate::traits::{ActResponse, Mitigation};
use crate::{bank_stream_seed, victims_of, SeedDomain};
use shadow_rh::RhParams;
use shadow_sim::rng::Xoshiro256;
use shadow_sim::time::Cycle;

/// The PARA mitigation.
#[derive(Debug)]
pub struct Para {
    p: f64,
    rh: RhParams,
    rows_per_subarray: u32,
    seed: u64,
    /// Lazily grown per-bank coin-flip streams (PARA is sized without a
    /// bank count, so streams materialize on first ACT).
    rngs: Vec<Option<Xoshiro256>>,
    trr_count: u64,
}

impl Para {
    /// Creates PARA with explicit refresh probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p <= 1`.
    pub fn new(p: f64, rh: RhParams, seed: u64) -> Self {
        assert!(p > 0.0 && p <= 1.0, "probability must be in (0, 1]");
        Para {
            p,
            rh,
            rows_per_subarray: 512,
            seed,
            rngs: Vec::new(),
            trr_count: 0,
        }
    }

    /// PARA sized for `H_cnt`: `p = 11 / H_cnt` gives a sub-1%-per-year
    /// failure probability in the Kim et al. analysis scaled to modern
    /// thresholds.
    pub fn for_h_cnt(rh: RhParams, seed: u64) -> Self {
        let p = (11.0 / rh.h_cnt as f64).min(1.0);
        Self::new(p, rh, seed)
    }

    /// Overrides the subarray size (tests use small geometries).
    #[must_use]
    pub fn with_rows_per_subarray(mut self, rows: u32) -> Self {
        self.rows_per_subarray = rows;
        self
    }

    /// The per-ACT refresh probability.
    pub fn probability(&self) -> f64 {
        self.p
    }

    /// TRR events fired so far.
    pub fn trr_count(&self) -> u64 {
        self.trr_count
    }

    fn rng_for(&mut self, bank: usize) -> &mut Xoshiro256 {
        if bank >= self.rngs.len() {
            self.rngs.resize_with(bank + 1, || None);
        }
        let seed = bank_stream_seed(self.seed, SeedDomain::Para, bank);
        self.rngs[bank].get_or_insert_with(|| Xoshiro256::seed_from_u64(seed))
    }
}

impl Mitigation for Para {
    fn name(&self) -> &'static str {
        "PARA"
    }

    fn on_activate(&mut self, bank: usize, pa_row: u32, _cycle: Cycle) -> ActResponse {
        let p = self.p;
        if self.rng_for(bank).gen_bool(p) {
            self.trr_count += 1;
            ActResponse {
                refreshes: victims_of(pa_row, self.rh.blast_radius, self.rows_per_subarray),
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

    #[test]
    fn fires_at_configured_rate() {
        let mut m = Para::new(0.01, RhParams::new(4096, 3), 5);
        let n = 100_000;
        for i in 0..n {
            m.on_activate(0, (i % 512) as u32, i);
        }
        let rate = m.trr_count() as f64 / n as f64;
        assert!((rate - 0.01).abs() < 0.002, "TRR rate {rate}");
    }

    #[test]
    fn refreshes_are_blast_victims() {
        let mut m = Para::new(1.0, RhParams::new(4096, 2), 5);
        let r = m.on_activate(0, 50, 0);
        assert_eq!(r.refreshes, vec![49, 51, 48, 52]);
    }

    #[test]
    fn probability_scales_inverse_hcnt() {
        let p2k = Para::for_h_cnt(RhParams::new(2048, 3), 1).probability();
        let p8k = Para::for_h_cnt(RhParams::new(8192, 3), 1).probability();
        assert!((p2k / p8k - 4.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn invalid_probability_rejected() {
        let _ = Para::new(0.0, RhParams::new(4096, 3), 1);
    }

    #[test]
    fn banks_draw_independent_streams() {
        // Interleaving ACTs across banks must not perturb any single bank's
        // coin-flip sequence.
        let mut solo = Para::new(0.5, RhParams::new(4096, 1), 7);
        let solo_fires: Vec<bool> = (0..64)
            .map(|i| !solo.on_activate(0, i, 0).refreshes.is_empty())
            .collect();
        let mut mixed = Para::new(0.5, RhParams::new(4096, 1), 7);
        let mut mixed_fires = Vec::new();
        for i in 0..64 {
            mixed.on_activate(1, i, 0);
            mixed_fires.push(!mixed.on_activate(0, i, 0).refreshes.is_empty());
        }
        assert_eq!(solo_fires, mixed_fires);
    }
}
