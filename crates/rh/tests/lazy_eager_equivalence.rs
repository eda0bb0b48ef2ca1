//! Differential property tests: the first-touch [`HammerLedger`] must be
//! observationally bit-identical to the eager reference mode (every
//! subarray allocated up front) under arbitrary interleavings of
//! activations and restores, including restores of never-activated
//! subarrays.
//!
//! Inputs come from the workspace's deterministic `Xoshiro256` generator
//! (fixed seeds), keeping every failure reproducible without an external
//! property-testing framework. Case count honors `PROPTEST_CASES`.

use shadow_rh::{HammerLedger, RhParams};
use shadow_sim::rng::Xoshiro256;

fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Asserts every observable of the two ledgers matches, bit for bit.
fn assert_same(lazy: &HammerLedger, eager: &HammerLedger, rows: u32, ctx: &str) {
    assert_eq!(lazy.acts_seen(), eager.acts_seen(), "{ctx}: acts_seen");
    assert_eq!(lazy.flips(), eager.flips(), "{ctx}: flip ledger");
    assert_eq!(lazy.hottest(), eager.hottest(), "{ctx}: hottest");
    for r in 0..rows {
        // f64 bit-identity, not approximate equality: the lazy ledger must
        // perform the same additions in the same order.
        assert_eq!(
            lazy.pressure(r).to_bits(),
            eager.pressure(r).to_bits(),
            "{ctx}: pressure of row {r}"
        );
    }
}

/// One randomized episode: a stream of ACTs, single restores, block
/// restores (aligned and ragged), and full restores, applied to both
/// ledgers in lockstep with observations compared after every step.
fn run_episode(seed: u64, rows: u32, rows_per_subarray: u32, params: RhParams, ops: u32) {
    let mut gen = Xoshiro256::seed_from_u64(seed);
    let mut lazy = HammerLedger::new(rows, rows_per_subarray, params);
    let mut eager = HammerLedger::new_eager(rows, rows_per_subarray, params);
    assert!(!lazy.is_eager() && eager.is_eager());
    // The steady-state refresh granule this episode will mostly use.
    let granule = 1 << gen.gen_range(1, 5); // 2..=16
    for step in 0..ops {
        let ctx = format!("seed {seed:#x} step {step}");
        match gen.gen_range(0, 100) {
            // ACTs dominate, as in a real command stream.
            0..=69 => {
                let row = gen.gen_range(0, rows as u64) as u32;
                lazy.on_activate(row, step as u64);
                eager.on_activate(row, step as u64);
            }
            70..=79 => {
                let row = gen.gen_range(0, rows as u64) as u32;
                lazy.restore(row);
                eager.restore(row);
            }
            80..=89 => {
                // Aligned block restore: the refresh engine's shape.
                let blocks = rows / granule;
                let start = gen.gen_range(0, blocks as u64) as u32 * granule;
                lazy.restore_block(start, granule);
                eager.restore_block(start, granule);
            }
            90..=94 => {
                // Ragged block restore: may span subarrays and the end.
                let start = gen.gen_range(0, rows as u64) as u32;
                let count = gen.gen_range(1, 2 * rows as u64) as u32;
                lazy.restore_block(start, count);
                eager.restore_block(start, count);
            }
            95..=97 => {
                lazy.restore_all();
                eager.restore_all();
            }
            _ => {
                lazy.clear_flips();
                eager.clear_flips();
            }
        }
        assert_same(&lazy, &eager, rows, &ctx);
    }
}

#[test]
fn lazy_matches_eager_small_geometry() {
    for case in 0..cases(64) as u64 {
        run_episode(0x1ed6_e400 + case, 64, 16, RhParams::new(50, 3), 400);
    }
}

#[test]
fn lazy_matches_eager_wide_subarrays() {
    for case in 0..cases(32) as u64 {
        run_episode(0x1ed6_e500 + case, 256, 64, RhParams::new(120, 2), 600);
    }
}

#[test]
fn lazy_matches_eager_single_subarray() {
    // One subarray spanning the whole bank: every ACT can reach every row.
    for case in 0..cases(32) as u64 {
        run_episode(0x1ed6_e600 + case, 32, 32, RhParams::new(20, 4), 300);
    }
}

/// The refresh-engine shape specifically: periodic aligned block restores
/// sweeping the bank, as `MemSystem` drives them, with heavy hammering in
/// between, so REFs land on both allocated and absent subarrays.
#[test]
fn lazy_matches_eager_refresh_sweep() {
    for case in 0..cases(16) as u64 {
        let seed = 0x1ed6_e700 + case;
        let mut gen = Xoshiro256::seed_from_u64(seed);
        let (rows, rps) = (512, 64);
        let params = RhParams::new(200, 3);
        let mut lazy = HammerLedger::new(rows, rps, params);
        let mut eager = HammerLedger::new_eager(rows, rps, params);
        let granule = 8;
        let mut ptr = 0u32;
        for sweep in 0..(rows / granule) * 2 {
            for _ in 0..40 {
                let row = gen.gen_range(0, rows as u64) as u32;
                lazy.on_activate(row, sweep as u64);
                eager.on_activate(row, sweep as u64);
            }
            lazy.restore_block(ptr, granule);
            eager.restore_block(ptr, granule);
            ptr = (ptr + granule) % rows;
            assert_same(
                &lazy,
                &eager,
                rows,
                &format!("seed {seed:#x} sweep {sweep}"),
            );
        }
    }
}

/// A never-activated ledger allocates nothing and reads as all zero; the
/// all-zero `hottest()` still reports the last row, as the eager scan does.
#[test]
fn untouched_ledger_reads_zero_without_allocating() {
    let (rows, rps) = (65_536, 512);
    let mut lazy = HammerLedger::new(rows, rps, RhParams::new(1024, 3));
    let eager = HammerLedger::new_eager(1024, 512, RhParams::new(1024, 3));
    assert_eq!(lazy.allocated_subarrays(), 0);
    assert_eq!(eager.allocated_subarrays(), 2);
    for r in [0, 1, rps - 1, rps, rows / 2, rows - 1] {
        assert_eq!(lazy.pressure(r).to_bits(), 0.0f64.to_bits(), "row {r}");
    }
    assert_eq!(lazy.hottest(), (rows - 1, 0.0));
    assert_eq!(eager.hottest(), (1023, 0.0));
    // Restores of absent subarrays stay no-ops and allocate nothing.
    lazy.restore(7);
    lazy.restore_block(0, 8);
    lazy.restore_block(rows - 4, 64);
    lazy.restore_all();
    assert_eq!(lazy.allocated_subarrays(), 0);
    assert_eq!(lazy.hottest(), (rows - 1, 0.0));
    // The first ACT allocates exactly its own subarray.
    lazy.on_activate(rps + 3, 0);
    assert_eq!(lazy.allocated_subarrays(), 1);
    assert_eq!(lazy.pressure(rps + 2), 1.0);
    assert_eq!(lazy.pressure(rps - 1), 0.0, "disturbance crossed subarrays");
}

/// Restores issued before a subarray's first deposit (every kind, on the
/// rows about to be hammered) leave the later history exactly as in the
/// eager ledger, whose rows were allocated all along.
#[test]
fn restores_before_first_deposit_match_eager() {
    let (rows, rps) = (64, 16);
    let params = RhParams::new(8, 2);
    let mut lazy = HammerLedger::new(rows, rps, params);
    let mut eager = HammerLedger::new_eager(rows, rps, params);
    for l in [&mut lazy, &mut eager] {
        l.restore(20);
        l.restore_block(16, 8);
        l.restore_block(30, 40);
        l.restore_all();
    }
    assert_eq!(lazy.allocated_subarrays(), 0);
    assert_same(&lazy, &eager, rows, "before any ACT");
    for i in 0..40u32 {
        let row = if i % 2 == 0 { 19 } else { 21 };
        lazy.on_activate(row, i as u64);
        eager.on_activate(row, i as u64);
        if i == 25 {
            lazy.restore_block(16, 8);
            eager.restore_block(16, 8);
        }
        assert_same(&lazy, &eager, rows, &format!("act {i}"));
    }
    assert!(!lazy.flips().is_empty(), "row 20 should flip");
    assert_eq!(lazy.allocated_subarrays(), 1);
}
