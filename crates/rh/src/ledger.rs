//! The disturbance ledger: per-row accumulation and bit-flip detection.
//!
//! One [`HammerLedger`] models one bank. Every ACT deposits
//! distance-weighted disturbance on the victims inside the aggressor's
//! subarray (threat-model item 3: disturbance never crosses subarrays).
//! Any charge-restoring event — auto-refresh, TRR, SHADOW's incremental
//! refresh, or an activation of the row itself (ACT-PRE restores the row) —
//! resets that row's accumulator. A victim whose accumulator reaches
//! `H_cnt` is recorded as a [`BitFlip`].
//!
//! The ledger works in *device* row addresses (DA): mitigations that remap
//! rows (SHADOW, RRS) translate PA→DA before calling in, which is exactly
//! how physical adjacency works on a real part.
//!
//! ## First-touch storage
//!
//! A bank has tens of thousands of rows, but a simulated slice activates
//! rows in only a few of its subarrays. The ledger therefore keeps one
//! `f64` accumulator per row in per-subarray blocks ([`RowBlocks`]) that
//! are allocated on the subarray's first ACT. A row of an absent block
//! reads as zero, and a restore of it is a no-op: disturbance never
//! crosses subarrays, so a row outside every activated subarray has
//! nothing to restore. Restores zero only the allocated rows they cover,
//! so a REF costs at most its own row count.
//!
//! A row's "already flipped" flag is not stored: between restores its
//! accumulator only grows (weights are non-negative) and starts at zero,
//! below `H_cnt` (which is positive), so the row has flipped exactly when
//! its accumulator is at or above `H_cnt`. A flip is recorded when a
//! deposit carries the accumulator across `H_cnt`.
//!
//! A construction-time eager mode ([`HammerLedger::new_eager`]) allocates
//! every block up front and finds [`hottest`](HammerLedger::hottest) by
//! scanning every row, as a differential reference; the equivalence tests
//! in `tests/lazy_eager_equivalence.rs` and the conformance fuzzer's
//! `eager-ledger` leg pin first-touch == eager.

use crate::model::RhParams;
use shadow_sim::RowBlocks;

/// A recorded Row Hammer bit-flip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BitFlip {
    /// The victim row (device address).
    pub victim: u32,
    /// Ledger-local event index (ACT sequence number) when it flipped.
    pub at_act: u64,
}

/// Per-bank Row Hammer disturbance state.
#[derive(Debug, Clone)]
pub struct HammerLedger {
    params: RhParams,
    /// Accumulated effective disturbance per row since its last restore,
    /// one block per subarray.
    pressure: RowBlocks<f64>,
    /// Eager reference mode: every block allocated at construction and a
    /// full-scan `hottest()`.
    force_eager: bool,
    flips: Vec<BitFlip>,
    acts_seen: u64,
}

impl HammerLedger {
    /// Creates a ledger for a bank of `rows` rows in subarrays of
    /// `rows_per_subarray`. No per-row state is allocated until a
    /// subarray's first ACT.
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0`, `rows_per_subarray == 0`, or `rows` is not a
    /// multiple of `rows_per_subarray`.
    pub fn new(rows: u32, rows_per_subarray: u32, params: RhParams) -> Self {
        Self::with_mode(rows, rows_per_subarray, params, false)
    }

    /// Creates a ledger in eager reference mode: every subarray's state is
    /// allocated up front and `hottest()` scans all rows. Must be
    /// observationally bit-identical to the default first-touch mode.
    pub fn new_eager(rows: u32, rows_per_subarray: u32, params: RhParams) -> Self {
        Self::with_mode(rows, rows_per_subarray, params, true)
    }

    fn with_mode(rows: u32, rows_per_subarray: u32, params: RhParams, force_eager: bool) -> Self {
        assert!(rows > 0 && rows_per_subarray > 0, "ledger needs rows");
        assert_eq!(rows % rows_per_subarray, 0, "rows must tile into subarrays");
        let mut pressure = RowBlocks::new(rows, rows_per_subarray);
        if force_eager {
            pressure.allocate_all();
        }
        HammerLedger {
            params,
            pressure,
            force_eager,
            flips: Vec::new(),
            acts_seen: 0,
        }
    }

    /// The model parameters.
    pub fn params(&self) -> &RhParams {
        &self.params
    }

    /// Whether this ledger runs in the eager reference mode.
    pub fn is_eager(&self) -> bool {
        self.force_eager
    }

    /// Number of subarrays whose per-row state is allocated.
    pub fn allocated_subarrays(&self) -> usize {
        self.pressure.allocated_blocks()
    }

    /// Records an activation of `row` (DA). `_cycle` tags flips for reports.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn on_activate(&mut self, row: u32, _cycle: u64) {
        assert!(row < self.pressure.rows(), "row {row} out of range");
        self.acts_seen += 1;
        let rps = self.pressure.block_rows();
        let sa = row / rps;
        let aggr = row - sa * rps;
        let h_cnt = self.params.h_cnt as f64;
        let HammerLedger {
            params,
            pressure,
            flips,
            acts_seen,
            ..
        } = self;
        let block = pressure.block_mut(sa as usize);
        // Activation restores the aggressor row itself.
        block[aggr as usize] = 0.0;
        let mut deposit = |victim: u32, w: f64| {
            let p = &mut block[victim as usize];
            let before = *p;
            *p += w;
            if *p >= h_cnt && before < h_cnt {
                flips.push(BitFlip {
                    victim: sa * rps + victim,
                    at_act: *acts_seen,
                });
            }
        };
        for d in 1..=params.blast_radius {
            let w = params.weight(d);
            // Victim below.
            if aggr >= d {
                deposit(aggr - d, w);
            }
            // Victim above.
            if aggr + d < rps {
                deposit(aggr + d, w);
            }
        }
    }

    /// Restores `row` (refresh / TRR / incremental refresh / own ACT):
    /// clears its accumulator and re-arms flip detection.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn restore(&mut self, row: u32) {
        assert!(row < self.pressure.rows(), "row {row} out of range");
        self.restore_block(row, 1);
    }

    /// Restores a contiguous block of rows (one REF command's coverage).
    /// Rows past the end of the bank are ignored.
    pub fn restore_block(&mut self, start: u32, count: u32) {
        let end = start.saturating_add(count).min(self.pressure.rows());
        let rps = self.pressure.block_rows();
        let mut r = start;
        while r < end {
            let sa = r / rps;
            let stop = end.min((sa + 1) * rps);
            if let Some(block) = self.pressure.existing_block_mut(sa as usize) {
                block[(r - sa * rps) as usize..(stop - sa * rps) as usize].fill(0.0);
            }
            r = stop;
        }
    }

    /// Restores every row (a full refresh window has elapsed).
    pub fn restore_all(&mut self) {
        for block in self.pressure.allocated_mut() {
            block.fill(0.0);
        }
    }

    /// All recorded bit-flips.
    pub fn flips(&self) -> &[BitFlip] {
        &self.flips
    }

    /// Clears the flip record (keeps accumulated pressure).
    pub fn clear_flips(&mut self) {
        self.flips.clear();
    }

    /// Current accumulated disturbance of `row` (zero for a row of a
    /// never-activated subarray).
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn pressure(&self, row: u32) -> f64 {
        self.pressure.get(row)
    }

    /// The highest-pressure row and its accumulator value.
    ///
    /// Ties break to the highest row index, and an all-zero ledger reports
    /// the last row — exactly the `Iterator::max_by` behaviour of the
    /// eager full scan, which the allocated-blocks scan must replicate.
    pub fn hottest(&self) -> (u32, f64) {
        if self.force_eager {
            let (i, p) = self
                .pressure
                .allocated()
                .flat_map(|(_, block)| block.iter())
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("pressure is never NaN"))
                .expect("ledger has rows");
            return (i as u32, *p);
        }
        // Rows of absent blocks tie at 0.0, where the full scan would
        // settle on the last row.
        let mut best = (self.pressure.rows() - 1, 0.0f64);
        for (first, block) in self.pressure.allocated() {
            for (r, &p) in (first..).zip(block) {
                if p > best.1 || (p == best.1 && r > best.0) {
                    best = (r, p);
                }
            }
        }
        best
    }

    /// Total ACTs observed.
    pub fn acts_seen(&self) -> u64 {
        self.acts_seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger() -> HammerLedger {
        HammerLedger::new(64, 16, RhParams::new(100, 3))
    }

    #[test]
    fn single_sided_flips_adjacent_first() {
        let mut l = ledger();
        for _ in 0..100 {
            l.on_activate(8, 0);
        }
        let victims: Vec<u32> = l.flips().iter().map(|f| f.victim).collect();
        assert!(
            victims.contains(&7) && victims.contains(&9),
            "victims {victims:?}"
        );
        // Distance-2 rows only accumulated 50.
        assert!(!victims.contains(&6) && !victims.contains(&10));
        assert_eq!(l.pressure(6), 50.0);
    }

    #[test]
    fn double_sided_flips_middle_twice_as_fast() {
        let mut l = ledger();
        // Alternate aggressors 7 and 9; victim 8 gets weight 1 from each,
        // so 100 total ACTs (50 per side) reach H_cnt = 100.
        for i in 0..100 {
            l.on_activate(if i % 2 == 0 { 7 } else { 9 }, 0);
        }
        assert!(
            l.flips().iter().any(|f| f.victim == 8),
            "50+50 ACTs should flip row 8"
        );
    }

    #[test]
    fn blast_attack_reaches_distance_three() {
        let mut l = ledger();
        for _ in 0..400 {
            l.on_activate(8, 0);
        }
        // Row 11 (distance 3, weight .25) accumulates 100 = H_cnt.
        assert!(l.flips().iter().any(|f| f.victim == 11));
    }

    #[test]
    fn refresh_resets_accumulation() {
        let mut l = ledger();
        for _ in 0..99 {
            l.on_activate(8, 0);
        }
        l.restore(7);
        l.on_activate(8, 0);
        // Row 7 was reset at 99, so only 1 unit of pressure now.
        assert_eq!(l.pressure(7), 1.0);
        assert!(l.flips().iter().all(|f| f.victim != 7));
        // Row 9 was not reset and flipped.
        assert!(l.flips().iter().any(|f| f.victim == 9));
    }

    #[test]
    fn own_activation_restores_row() {
        let mut l = ledger();
        for _ in 0..99 {
            l.on_activate(8, 0); // row 9 at 99 pressure
        }
        l.on_activate(9, 0); // activating 9 restores it...
        assert_eq!(l.pressure(9), 0.0);
        // ...but hammers its own neighbours 8 and 10. Row 10 held
        // 99 × weight(2) = 49.5 from the row-8 hammering, plus 1 now.
        assert_eq!(l.pressure(10), 99.0 * 0.5 + 1.0);
    }

    #[test]
    fn disturbance_confined_to_subarray() {
        let mut l = ledger();
        // Row 15 is the last row of subarray 0; rows 16+ are subarray 1.
        for _ in 0..1000 {
            l.on_activate(15, 0);
        }
        assert_eq!(l.pressure(16), 0.0, "cross-subarray disturbance");
        assert_eq!(l.pressure(17), 0.0);
        assert!(l.flips().iter().all(|f| f.victim < 16));
    }

    #[test]
    fn edge_rows_have_one_sided_victims() {
        let mut l = ledger();
        for _ in 0..100 {
            l.on_activate(0, 0);
        }
        assert!(l.flips().iter().any(|f| f.victim == 1));
        assert!(l.flips().iter().all(|f| f.victim <= 3));
    }

    #[test]
    fn restore_block_covers_range() {
        let mut l = ledger();
        for _ in 0..60 {
            l.on_activate(8, 0);
        }
        l.restore_block(0, 16);
        for r in 0..16 {
            assert_eq!(l.pressure(r), 0.0);
        }
    }

    #[test]
    fn restore_all_rearms_flips() {
        let mut l = ledger();
        for _ in 0..100 {
            l.on_activate(8, 0);
        }
        let n = l.flips().len();
        assert!(n > 0);
        l.restore_all();
        l.clear_flips();
        for _ in 0..100 {
            l.on_activate(8, 0);
        }
        assert_eq!(l.flips().len(), n, "flips should re-arm after restore");
    }

    #[test]
    fn hottest_tracks_max_pressure() {
        let mut l = ledger();
        for _ in 0..10 {
            l.on_activate(8, 0);
        }
        let (row, p) = l.hottest();
        assert!(row == 7 || row == 9);
        assert_eq!(p, 10.0);
    }

    #[test]
    fn no_duplicate_flip_until_restored() {
        let mut l = ledger();
        for _ in 0..200 {
            l.on_activate(8, 0);
        }
        let count7 = l.flips().iter().filter(|f| f.victim == 7).count();
        assert_eq!(count7, 1);
    }

    #[test]
    #[should_panic]
    fn rows_must_tile() {
        let _ = HammerLedger::new(60, 16, RhParams::new(10, 1));
    }

    #[test]
    fn restore_all_reads_zero() {
        let mut l = ledger();
        for _ in 0..50 {
            l.on_activate(8, 0);
        }
        l.restore_all();
        for r in 0..64 {
            assert_eq!(l.pressure(r), 0.0);
        }
        assert_eq!(l.hottest(), (63, 0.0));
    }

    #[test]
    fn restore_block_unaligned_span() {
        let mut l = ledger();
        for _ in 0..50 {
            l.on_activate(8, 0);
        }
        // Unaligned start: must still zero the covered range.
        l.restore_block(5, 7);
        for r in 5..12 {
            assert_eq!(l.pressure(r), 0.0, "row {r}");
        }
    }

    #[test]
    fn block_then_single_restore_interleave() {
        let mut l = ledger();
        for _ in 0..30 {
            l.on_activate(8, 0);
        }
        l.restore_block(0, 16);
        for _ in 0..5 {
            l.on_activate(8, 0); // re-deposits on restored rows
        }
        assert_eq!(l.pressure(7), 5.0);
        assert_eq!(l.pressure(9), 5.0);
        l.restore(7);
        assert_eq!(l.pressure(7), 0.0);
        assert_eq!(l.pressure(9), 5.0);
    }

    #[test]
    fn hottest_ties_break_to_highest_index_like_full_scan() {
        // Rows 7 and 9 tie; the eager full scan (Iterator::max_by) keeps
        // the last maximum, so the allocated-blocks scan must report row 9.
        let mut lazy = ledger();
        let mut eager = HammerLedger::new_eager(64, 16, RhParams::new(100, 3));
        for _ in 0..10 {
            lazy.on_activate(8, 0);
            eager.on_activate(8, 0);
        }
        assert_eq!(lazy.hottest(), (9, 10.0));
        assert_eq!(lazy.hottest(), eager.hottest());
    }
}
