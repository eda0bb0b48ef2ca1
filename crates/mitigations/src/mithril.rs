//! Mithril (Kim et al., HPCA 2022) — the CAM-tracker RFM baseline.
//!
//! Mithril keeps a per-bank Counter-based Summary (CbS) of activation
//! counts; on each RFM it refreshes the victims of the entry with the
//! largest counter-minus-minimum gap, then lowers that counter to the table
//! minimum. Its guarantee comes from sizing the table and RAAIMT against
//! `H_cnt`; the paper evaluates two corners:
//!
//! * **Mithril-perf** — a large (10 KB/bank ≈ 2048-entry) CAM allowing a
//!   relaxed RAAIMT, minimizing performance overhead at high area cost;
//! * **Mithril-area** — RAAIMT pinned to 32 with the table sized to the
//!   minimum that sustains the guarantee (grows as `H_cnt` shrinks —
//!   ~5 KB/bank at 2K, the §VII-C scalability pain point).

use crate::traits::{ActResponse, Mitigation, RfmAction};
use crate::victims_of;
use shadow_rh::RhParams;
use shadow_sim::time::Cycle;
use shadow_trackers::{CounterSummary, TrackerCost};

/// Which corner of Mithril's area/performance trade-off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MithrilClass {
    /// 10 KB/bank CAM, relaxed RAAIMT (performance-optimized).
    Perf,
    /// RAAIMT = 32, minimum table (area-optimized).
    Area,
}

/// The Mithril mitigation.
#[derive(Debug)]
pub struct Mithril {
    tables: Vec<CounterSummary>,
    class: MithrilClass,
    rh: RhParams,
    rows_per_subarray: u32,
    raaimt: u32,
    entries: usize,
}

impl Mithril {
    /// Creates Mithril in the given class for `banks` banks at `h_cnt`.
    pub fn new(banks: usize, class: MithrilClass, rh: RhParams) -> Self {
        let (entries, raaimt) = Self::configure(class, rh.h_cnt, rh.blast_radius);
        Mithril {
            tables: (0..banks).map(|_| CounterSummary::new(entries)).collect(),
            class,
            rh,
            rows_per_subarray: 512,
            raaimt,
            entries,
        }
    }

    /// Overrides the subarray size (tests use small geometries).
    #[must_use]
    pub fn with_rows_per_subarray(mut self, rows: u32) -> Self {
        self.rows_per_subarray = rows;
        self
    }

    /// Table size and RAAIMT per class (paper §VII-C).
    ///
    /// CbS guarantees every row with true count ≥ `N/(k+1)` is tracked; the
    /// table must catch any row before it accumulates `H_cnt/W_sum`-level
    /// pressure between RFMs, and a wider blast radius divides the budget
    /// (each aggressor threatens more victims — the §III-A degradation).
    /// Mithril-perf fixes a 2048-entry (≈10 KB) CAM and scales RAAIMT with
    /// `H_cnt`; Mithril-area anchors RAAIMT = 32 at the paper's radius-3
    /// baseline and scales the table inversely with `H_cnt`.
    pub fn configure(class: MithrilClass, h_cnt: u64, blast_radius: u32) -> (usize, u32) {
        let radius = blast_radius.max(1) as u64;
        match class {
            MithrilClass::Perf => (2048, ((h_cnt * 3) / (32 * radius)).clamp(16, 512) as u32),
            MithrilClass::Area => {
                // Entries ~ (tREFW ACT budget) / H_cnt; 2K H_cnt → ~1024
                // entries ≈ 5 KB/bank, halving as H_cnt doubles.
                let entries = ((2_097_152 / h_cnt).clamp(64, 4096)) as usize;
                (entries, ((32 * 3) / radius).clamp(8, 256) as u32)
            }
        }
    }

    /// The configured class.
    pub fn class(&self) -> MithrilClass {
        self.class
    }

    /// Per-bank CAM cost (17-bit row tags, 16-bit counters).
    pub fn table_cost(&self) -> TrackerCost {
        TrackerCost::cam_table(self.entries, 17, 16)
    }
}

impl Mitigation for Mithril {
    fn name(&self) -> &'static str {
        match self.class {
            MithrilClass::Perf => "Mithril-perf",
            MithrilClass::Area => "Mithril-area",
        }
    }

    fn on_activate(&mut self, bank: usize, pa_row: u32, _cycle: Cycle) -> ActResponse {
        self.tables[bank].observe(pa_row as u64);
        ActResponse::default()
    }

    fn on_rfm(&mut self, bank: usize) -> RfmAction {
        let Some((row, _count)) = self.tables[bank].hottest() else {
            return RfmAction::default();
        };
        self.tables[bank].reset_to_min(row);
        RfmAction {
            refreshes: victims_of(row as u32, self.rh.blast_radius, self.rows_per_subarray),
            copies: Vec::new(),
            channel_block_ns: 0.0,
        }
    }

    fn uses_rfm(&self) -> bool {
        true
    }

    fn raaimt(&self) -> Option<u32> {
        Some(self.raaimt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rh() -> RhParams {
        RhParams::new(4096, 3)
    }

    #[test]
    fn perf_class_has_big_table_high_raaimt() {
        let (e_perf, r_perf) = Mithril::configure(MithrilClass::Perf, 4096, 3);
        let (e_area, r_area) = Mithril::configure(MithrilClass::Area, 4096, 3);
        assert!(e_perf >= e_area);
        assert!(r_perf > r_area);
        assert_eq!(r_area, 32);
    }

    #[test]
    fn raaimt_tightens_with_blast_radius() {
        let (_, r1) = Mithril::configure(MithrilClass::Area, 4096, 1);
        let (_, r3) = Mithril::configure(MithrilClass::Area, 4096, 3);
        let (_, r5) = Mithril::configure(MithrilClass::Area, 4096, 5);
        assert!(r1 > r3 && r3 > r5, "{r1} {r3} {r5}");
    }

    #[test]
    fn area_table_grows_as_hcnt_shrinks() {
        let (e8k, _) = Mithril::configure(MithrilClass::Area, 8192, 3);
        let (e4k, _) = Mithril::configure(MithrilClass::Area, 4096, 3);
        let (e2k, _) = Mithril::configure(MithrilClass::Area, 2048, 3);
        assert!(e2k > e4k && e4k > e8k, "{e8k} {e4k} {e2k}");
        // ~5 KB/bank at 2K (paper §VII-C): 1024 entries * 33 bits ≈ 4.2 KB.
        let m = Mithril::new(1, MithrilClass::Area, RhParams::new(2048, 3));
        let kb = m.table_cost().total_bytes() as f64 / 1024.0;
        assert!((3.0..7.0).contains(&kb), "area table {kb} KB");
    }

    #[test]
    fn perf_table_is_about_10kb() {
        let m = Mithril::new(1, MithrilClass::Perf, rh());
        let kb = m.table_cost().total_bytes() as f64 / 1024.0;
        assert!((7.0..12.0).contains(&kb), "perf table {kb} KB");
    }

    #[test]
    fn rfm_refreshes_hottest_rows_victims() {
        let mut m = Mithril::new(1, MithrilClass::Perf, rh());
        for _ in 0..100 {
            m.on_activate(0, 200, 0);
        }
        m.on_activate(0, 9, 0);
        let a = m.on_rfm(0);
        assert_eq!(a.refreshes, victims_of(200, 3, 512));
    }

    #[test]
    fn counter_resets_after_mitigation() {
        let mut m = Mithril::new(1, MithrilClass::Perf, rh());
        for _ in 0..100 {
            m.on_activate(0, 200, 0);
        }
        for _ in 0..50 {
            m.on_activate(0, 300, 0);
        }
        m.on_rfm(0); // mitigates row 200, resets it
        let a = m.on_rfm(0); // now row 300 is hottest
        assert!(
            a.refreshes.contains(&299),
            "expected row 300's victims, got {:?}",
            a.refreshes
        );
    }

    #[test]
    fn empty_table_rfm_is_noop() {
        let mut m = Mithril::new(1, MithrilClass::Area, rh());
        assert_eq!(m.on_rfm(0), RfmAction::default());
    }

    #[test]
    fn names_distinguish_classes() {
        assert_eq!(
            Mithril::new(1, MithrilClass::Perf, rh()).name(),
            "Mithril-perf"
        );
        assert_eq!(
            Mithril::new(1, MithrilClass::Area, rh()).name(),
            "Mithril-area"
        );
    }
}
