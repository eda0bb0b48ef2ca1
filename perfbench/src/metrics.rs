//! The metrics the benchmark prints, their units, and how each is
//! computed from a run's passes. `BENCHMARK.json` declares the same names
//! and units; a test keeps the two in step.

use crate::pass::Pass;
use crate::trace::Site;
use shadow_bench::Scheme;
use shadow_memsys::SimReport;

/// End-to-end metrics (untraced passes): name and unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("sim_cycles_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("rel_perf_shadow", "ratio"),
];

/// Per-layer metrics (traced pass): name and unit.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("memsys.run.self_s", "s"),
    ("memsys.ns_per_pass", "ns"),
    ("memsys.passes_per_kcycle", "1/kcycle"),
    ("memsys.gate_rank_skips", "count"),
    ("memsys.gate_bus_skips", "count"),
    ("memsys.skipped_cycle_ratio", "ratio"),
    ("memsys.try_new_s", "s"),
    ("memsys.row_hit_rate", "ratio"),
    ("workloads.next_request.calls", "count"),
    ("workloads.next_request.self_s", "s"),
    ("mitigations.translate.calls", "count"),
    ("mitigations.remap_epoch.calls", "count"),
    ("mitigations.on_activate.calls", "count"),
    ("mitigations.on_rfm.calls", "count"),
    ("mitigations.counts_toward_rfm.calls", "count"),
    ("mitigations.on_act_issued.calls", "count"),
    ("mitigations.on_recovery_rfm.calls", "count"),
    ("mitigations.self_s", "s"),
    ("mitigations.on_rfm.self_s", "s"),
    ("mitigations.translate.self_s", "s"),
    ("mitigations.abo_events", "count"),
    ("mitigations.tracker_evictions", "count"),
    ("bench.try_workload_s", "s"),
    ("bench.build_mitigation_s", "s"),
    ("bench.runner.self_s", "s"),
    ("bench.load_manifest_s", "s"),
    ("bench.manifest_bytes", "bytes"),
    ("bench.unattributed_s", "s"),
    ("dram.cmd.act", "count"),
    ("dram.cmd.cas", "count"),
    ("dram.cmd.ref", "count"),
    ("dram.cmd.rfm", "count"),
    ("dram.busy_share", "ratio"),
    ("rh.flips", "count"),
    ("flips_shadow", "count"),
    ("cell_error_rate", "ratio"),
    ("trace_overhead", "ratio"),
    ("traced_wall_s", "s"),
];

/// The median of `values` (the mean of the middle two for an even
/// count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// SHADOW's relative performance against Baseline: the mean per-core
/// throughput ratio (`SimReport::relative_performance`) over the benign
/// cores, averaged over the workload's traffic groups (cells that share a
/// traffic name). Attacker cores are left out: their throughput is not a
/// cost anyone pays, and it swings with how hard the defence throttles
/// them.
pub fn rel_perf_shadow(pass: &Pass) -> Option<f64> {
    let of = |traffic: &str, scheme: Scheme| -> Option<&SimReport> {
        pass.cells
            .iter()
            .find(|c| c.cell.1 == traffic && c.cell.2 == scheme)
            .and_then(|c| c.report.as_ref())
    };
    let mut traffic: Vec<&str> = pass.cells.iter().map(|c| c.cell.1.as_str()).collect();
    traffic.dedup();
    let rels: Option<Vec<f64>> = traffic
        .iter()
        .map(|t| {
            Some(benign_rel_perf(
                of(t, Scheme::Shadow)?,
                of(t, Scheme::Baseline)?,
            ))
        })
        .collect();
    let rels = rels?;
    (!rels.is_empty()).then(|| rels.iter().sum::<f64>() / rels.len() as f64)
}

fn benign_rel_perf(scheme: &SimReport, baseline: &SimReport) -> f64 {
    let ratios: Vec<f64> = scheme
        .core_names
        .iter()
        .zip(scheme.throughputs().iter().zip(baseline.throughputs()))
        .filter(|(name, _)| name.as_str() != "attacker")
        .map(|(_, (s, b))| if b > 0.0 { s / b } else { 1.0 })
        .collect();
    ratios.iter().sum::<f64>() / ratios.len().max(1) as f64
}

/// Bit flips under SHADOW over the pass's cells.
pub fn flips_shadow(pass: &Pass) -> u64 {
    pass.cells
        .iter()
        .filter(|c| c.cell.2 == Scheme::Shadow)
        .filter_map(|c| c.report.as_ref())
        .map(|r| r.total_flips() as u64)
        .sum()
}

/// The end-to-end metrics over untraced `passes`: medians across passes,
/// plus the process's peak resident memory.
pub fn end_to_end(passes: &[Pass], peak_rss_mb: f64) -> Vec<(&'static str, f64)> {
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let cps: Vec<f64> = passes
        .iter()
        .map(|p| p.total_cycles() as f64 / p.wall_s)
        .collect();
    let setups: Vec<f64> = passes.iter().map(Pass::setup_s).collect();
    let rel = passes.first().and_then(rel_perf_shadow).unwrap_or(f64::NAN);
    vec![
        ("wall_s", median(&walls)),
        ("sim_cycles_per_s", median(&cps)),
        ("setup_s", median(&setups)),
        ("peak_rss_mb", peak_rss_mb),
        ("rel_perf_shadow", rel),
    ]
}

/// The per-layer metrics of `traced` (the traced pass whose wall is the
/// median of the traced passes), with `trace_overhead` against the
/// median `untraced_wall_s` and `cell_error_rate` over the whole run.
pub fn per_layer(
    traced: &Pass,
    untraced_wall_s: f64,
    cell_error_rate: f64,
) -> Vec<(&'static str, f64)> {
    let l = &traced.layers;
    let reports: Vec<&SimReport> = traced.reports().collect();
    let sum =
        |f: &dyn Fn(&SimReport) -> u64| -> f64 { reports.iter().map(|r| f(r)).sum::<u64>() as f64 };
    let cycles = sum(&|r| r.cycles);
    let passes = sum(&|r| r.sched_passes);
    let pass_cycles = sum(&|r| r.pass_cycles);
    let cmd = |names: &[&str]| sum(&|r| names.iter().map(|n| r.commands.get(n)).sum());
    let act = cmd(&["ACT"]);
    let cas = cmd(&["RD", "WR"]);
    let busy = sum(&|r| r.channel_busy_cycles.iter().sum());
    let channel_cycles = sum(&|r| r.cycles * r.channel_busy_cycles.len() as u64);
    let calls = |s: Site| l.wrapped[s as usize].calls as f64;
    let secs = |s: Site| l.wrapped[s as usize].secs();
    let mitigation_s: f64 = Site::ALL
        .into_iter()
        .filter(|s| s.is_mitigation())
        .map(secs)
        .sum();
    vec![
        ("memsys.run.self_s", l.run_self_s),
        ("memsys.ns_per_pass", l.run_self_s * 1e9 / passes.max(1.0)),
        ("memsys.passes_per_kcycle", passes * 1e3 / cycles.max(1.0)),
        (
            "memsys.gate_rank_skips",
            sum(&|r| r.gate_rank_skips.iter().sum()),
        ),
        ("memsys.gate_bus_skips", sum(&|r| r.gate_bus_skips)),
        (
            "memsys.skipped_cycle_ratio",
            1.0 - pass_cycles / cycles.max(1.0),
        ),
        ("memsys.try_new_s", l.try_new_s),
        (
            "memsys.row_hit_rate",
            if cas > 0.0 {
                (1.0 - act / cas).max(0.0)
            } else {
                0.0
            },
        ),
        ("workloads.next_request.calls", calls(Site::NextRequest)),
        ("workloads.next_request.self_s", secs(Site::NextRequest)),
        ("mitigations.translate.calls", calls(Site::Translate)),
        ("mitigations.remap_epoch.calls", calls(Site::RemapEpoch)),
        ("mitigations.on_activate.calls", calls(Site::OnActivate)),
        ("mitigations.on_rfm.calls", calls(Site::OnRfm)),
        (
            "mitigations.counts_toward_rfm.calls",
            calls(Site::CountsTowardRfm),
        ),
        ("mitigations.on_act_issued.calls", calls(Site::OnActIssued)),
        (
            "mitigations.on_recovery_rfm.calls",
            calls(Site::OnRecoveryRfm),
        ),
        ("mitigations.self_s", mitigation_s),
        ("mitigations.on_rfm.self_s", secs(Site::OnRfm)),
        ("mitigations.translate.self_s", secs(Site::Translate)),
        ("mitigations.abo_events", sum(&|r| r.abo_events)),
        (
            "mitigations.tracker_evictions",
            sum(&|r| r.tracker_evictions),
        ),
        ("bench.try_workload_s", l.try_workload_s),
        ("bench.build_mitigation_s", l.build_mitigation_s),
        ("bench.runner.self_s", l.runner_self_s),
        ("bench.load_manifest_s", l.load_manifest_s),
        ("bench.manifest_bytes", traced.manifest_bytes as f64),
        ("bench.unattributed_s", traced.unattributed_s()),
        ("dram.cmd.act", act),
        ("dram.cmd.cas", cas),
        ("dram.cmd.ref", cmd(&["REF"])),
        ("dram.cmd.rfm", cmd(&["RFM", "RFMAB", "RFMSB"])),
        ("dram.busy_share", busy / channel_cycles.max(1.0)),
        ("rh.flips", sum(&|r| r.total_flips() as u64)),
        ("flips_shadow", flips_shadow(traced) as f64),
        ("cell_error_rate", cell_error_rate),
        ("trace_overhead", traced.wall_s / untraced_wall_s - 1.0),
        ("traced_wall_s", traced.wall_s),
    ]
}
