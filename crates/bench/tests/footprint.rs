//! Construction footprint: building a DDR4 cell must not allocate per-row
//! state for the whole device.
//!
//! A simulated slice touches a small share of the device's subarrays, so
//! the Row Hammer ledgers, SHADOW's remapping tables, RRS's indirection
//! and PRAC's counters allocate per-subarray (or per-bank) state on first
//! use. This binary counts every byte the global allocator hands out while
//! one cell's streams, mitigation and `MemSystem` are built, for every
//! traffic × scheme pair of the repository benchmark's three workloads.
//! It holds a single test so no other test's allocations interleave.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use shadow_bench::{build_mitigation, try_workload, Scheme};
use shadow_dram::mapping::AddressMapper;
use shadow_memsys::{AttackerCore, MemSystem, SystemConfig};
use shadow_rh::AttackPattern;
use shadow_workloads::RequestStream;

/// Cumulative bytes handed out (allocations plus realloc growth).
static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size.saturating_sub(layout.size()), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Construction budget per cell. RRS's Misra–Gries tables are pre-sized
/// (about 36 MB on this device) and fit under it; whole-device per-row
/// state (151 MB of ledger alone) does not.
const BUDGET_BYTES: usize = 48 << 20;

/// Two attacker cores beside the benign mix, as the benchmark's
/// `hammer-mix` workload adds them.
fn push_attackers(streams: &mut Vec<Box<dyn RequestStream>>, cfg: &SystemConfig) {
    let g = cfg.geometry;
    let victim = g.subarrays_per_bank / 2 * g.rows_per_subarray + g.rows_per_subarray / 2;
    let attacks = [
        (g.bank_id(0, 0, 0), AttackPattern::double_sided(victim)),
        (
            g.bank_id(g.channels / 2, 0, g.banks_per_rank() - 1),
            AttackPattern::half_double(victim),
        ),
    ];
    for (bank, pattern) in attacks {
        streams.push(Box::new(AttackerCore::new(
            pattern,
            AddressMapper::new(g),
            bank,
        )));
    }
}

/// Bytes allocated while building one cell (the system is dropped after
/// the count is taken).
fn construction_bytes(cfg: &SystemConfig, traffic: &str, attackers: bool, scheme: Scheme) -> usize {
    let before = ALLOCATED.load(Ordering::Relaxed);
    let mut streams =
        try_workload(traffic, cfg, 0xACE0_0000 + traffic.len() as u64).expect("workload builds");
    if attackers {
        push_attackers(&mut streams, cfg);
    }
    let mitigation = build_mitigation(scheme, cfg);
    let sys = MemSystem::try_new(*cfg, streams, mitigation).expect("system builds");
    let bytes = ALLOCATED.load(Ordering::Relaxed) - before;
    drop(sys);
    bytes
}

#[test]
fn cell_construction_allocates_no_whole_device_state() {
    let mut dense = SystemConfig::ddr4_actual_system();
    dense.target_requests = 60_000;
    let mut hammer = dense;
    hammer.rh.h_cnt = 1024;
    let four = [Scheme::Baseline, Scheme::Shadow, Scheme::Rrs, Scheme::Parfm];
    let hammer_schemes = [
        Scheme::Baseline,
        Scheme::Shadow,
        Scheme::Prac,
        Scheme::Practical,
        Scheme::Rrs,
    ];
    let mut cells: Vec<(SystemConfig, &str, bool, Scheme)> = Vec::new();
    for traffic in ["spec-high", "mix-high", "random-stream", "spec-low", "npb"] {
        cells.extend(four.iter().map(|&s| (dense, traffic, false, s)));
    }
    cells.extend(
        hammer_schemes
            .iter()
            .map(|&s| (hammer, "spec-high", true, s)),
    );

    let mut over = Vec::new();
    for (cfg, traffic, attackers, scheme) in cells {
        let bytes = construction_bytes(&cfg, traffic, attackers, scheme);
        let label = format!(
            "{traffic}{} × {scheme:?}",
            if attackers { " + attackers" } else { "" }
        );
        println!("{label}: {:.1} MiB", bytes as f64 / (1 << 20) as f64);
        if bytes >= BUDGET_BYTES {
            over.push(label);
        }
    }
    assert!(
        over.is_empty(),
        "construction allocated {} MiB or more for: {over:?}",
        BUDGET_BYTES >> 20
    );
}
