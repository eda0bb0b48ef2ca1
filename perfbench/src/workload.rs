//! The benchmark's three workloads: which cells each runs, and how a
//! cell's request streams are made from the benchmark seed.
//!
//! Why each workload exists is written up in `perfbench/README.md`.

use shadow_bench::{engine_sweep_cells, request_target, try_workload, BenchError, Cell, Scheme};
use shadow_dram::mapping::AddressMapper;
use shadow_memsys::{AttackerCore, SystemConfig};
use shadow_rh::AttackPattern;
use shadow_workloads::RequestStream;

/// `H_cnt` of the `hammer-mix` device. Low enough that an unprotected
/// device flips within one cell, and on SHADOW's secure diagonal
/// (`RAAIMT = H_cnt / 64`, clamped to 16).
pub const HAMMER_H_CNT: u64 = 1024;

/// Prefix of a `hammer-mix` cell's workload name: `hammer:<benign mix>`.
const HAMMER_PREFIX: &str = "hammer:";

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The bus-saturated 12-cell slice `engine_sweep_cells()` builds.
    DenseSweep,
    /// Compute-bound traffic under the same four schemes.
    SparseSweep,
    /// Row Hammer attackers beside benign cores at a reduced `H_cnt`.
    HammerMix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::DenseSweep,
        Workload::SparseSweep,
        Workload::HammerMix,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DenseSweep => "dense-sweep",
            Workload::SparseSweep => "sparse-sweep",
            Workload::HammerMix => "hammer-mix",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's cells, in run order, at the default request target.
    pub fn cells(self) -> Vec<Cell> {
        match self {
            Workload::DenseSweep => engine_sweep_cells(),
            Workload::SparseSweep => {
                let mut cfg = SystemConfig::ddr4_actual_system();
                cfg.target_requests = request_target();
                grid(
                    cfg,
                    &["spec-low", "npb"],
                    &[Scheme::Baseline, Scheme::Shadow, Scheme::Rrs, Scheme::Parfm],
                )
            }
            Workload::HammerMix => {
                let mut cfg = SystemConfig::ddr4_actual_system();
                cfg.target_requests = request_target();
                cfg.rh.h_cnt = HAMMER_H_CNT;
                grid(
                    cfg,
                    &["hammer:spec-high"],
                    &[
                        Scheme::Baseline,
                        Scheme::Shadow,
                        Scheme::Prac,
                        Scheme::Practical,
                        Scheme::Rrs,
                    ],
                )
            }
        }
    }
}

/// Every `traffic × scheme` pair on one config, traffic-major.
fn grid(cfg: SystemConfig, traffic: &[&str], schemes: &[Scheme]) -> Vec<Cell> {
    traffic
        .iter()
        .flat_map(|t| schemes.iter().map(move |&s| (cfg, t.to_string(), s)))
        .collect()
}

/// The stream seed of a cell named `name` (a `hammer:` cell uses its
/// benign mix's) for benchmark seed `seed`. Seed 0 is the seed every sweep
/// in the repository uses (`0xACE0_0000` plus the length of the traffic
/// name), so `dense-sweep` at seed 0 simulates exactly the cells the
/// engine benches and the ROADMAP baseline measured.
pub fn stream_seed(name: &str, seed: u64) -> u64 {
    let traffic = name.strip_prefix(HAMMER_PREFIX).unwrap_or(name);
    (0xACE0_0000 + traffic.len() as u64).wrapping_add(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Builds a cell's request streams through the public `try_workload`
/// factory. A `hammer:<mix>` cell adds two attacker cores to the benign
/// mix: a double-sided hammer on the first bank of the first channel and
/// a half-double hammer on the last bank of the middle channel, each
/// around a victim in the middle of a middle subarray. The attacks stay
/// put across seeds: where they land decides how much benign traffic
/// shares their banks and channels, which would otherwise swing the
/// workload's cost from seed to seed more than any engine change does.
///
/// # Errors
///
/// [`BenchError::Workload`] for a traffic name `try_workload` rejects.
pub fn build_streams(
    name: &str,
    cfg: &SystemConfig,
    seed: u64,
) -> Result<Vec<Box<dyn RequestStream>>, BenchError> {
    let Some(benign) = name.strip_prefix(HAMMER_PREFIX) else {
        return try_workload(name, cfg, stream_seed(name, seed));
    };
    let mut streams = try_workload(benign, cfg, stream_seed(name, seed))?;
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
    Ok(streams)
}
