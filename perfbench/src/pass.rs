//! One pass: a workload's whole cell set through the public sweep path,
//! timed around every call into the simulator, then checked.
//!
//! A pass runs `shadow_bench::runner::run_cells_isolated_with` on one
//! thread with a checkpoint manifest, exactly as a resumable sweep does,
//! and then reloads the manifest the way a resumed sweep would. Its
//! [`CellRunner`] calls `build_streams` (which calls `try_workload`),
//! `build_mitigation`, `MemSystem::try_new` and `run_checked`, timing
//! each. A traced pass also wraps the streams and the mitigation in the
//! forwarding timers of [`crate::trace`].

use crate::trace::{self, Tallies, TracedMitigation, TracedStream};
use crate::workload::{build_streams, Workload};
use shadow_bench::runner::{
    fingerprint, load_manifest, run_cells_isolated_with, CellOutcome, CellRunner, RetryPolicy,
    SweepOptions,
};
use shadow_bench::{build_mitigation, BenchError, Cell, CellResult, EngineMode, Scheme};
use shadow_memsys::{MemSystem, SimReport};
use shadow_mitigations::{Mitigation, Retranslate};
use shadow_workloads::RequestStream;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One cell of a pass.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// The cell as run.
    pub cell: Cell,
    /// Its report, when the cell completed.
    pub report: Option<SimReport>,
    /// Every check the cell failed (empty: the cell is correct).
    pub failures: Vec<String>,
}

impl CellRun {
    /// Whether the cell completed and passed every check.
    pub fn ok(&self) -> bool {
        self.report.is_some() && self.failures.is_empty()
    }
}

/// Host time of one cell or one pass, split by layer. Every field is in
/// seconds except where noted; a pass's layers sum to [`Pass::wall_s`]
/// with [`Pass::unattributed_s`] as the explicit remainder.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Inside `try_workload` (stream construction).
    pub try_workload_s: f64,
    /// Inside `build_mitigation`.
    pub build_mitigation_s: f64,
    /// Inside `MemSystem::try_new`, minus wrapped calls it made.
    pub try_new_s: f64,
    /// Inside `run_checked`, minus wrapped calls: scheduler, calendar,
    /// coordinator, device, RH ledger and report merge.
    pub run_self_s: f64,
    /// Wrapped calls per site (zero on an untraced pass).
    pub wrapped: Tallies,
    /// The sweep runner outside the cell calls: isolation,
    /// fingerprinting, checkpoint append.
    pub runner_self_s: f64,
    /// Reloading the checkpoint manifest after the sweep.
    pub load_manifest_s: f64,
}

impl Layers {
    fn add(&mut self, other: &Layers) {
        self.try_workload_s += other.try_workload_s;
        self.build_mitigation_s += other.build_mitigation_s;
        self.try_new_s += other.try_new_s;
        self.run_self_s += other.run_self_s;
        self.runner_self_s += other.runner_self_s;
        self.load_manifest_s += other.load_manifest_s;
        for (sum, w) in self.wrapped.iter_mut().zip(&other.wrapped) {
            sum.calls += w.calls;
            sum.nanos += w.nanos;
        }
    }
}

/// One pass over a workload's cells.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Whether the streams and mitigation were wrapped in timers.
    pub traced: bool,
    /// Host seconds from the sweep call to the end of the manifest reload.
    pub wall_s: f64,
    /// The wall split by layer.
    pub layers: Layers,
    /// Bytes in the checkpoint manifest the sweep wrote.
    pub manifest_bytes: u64,
    /// Every cell, in cell order.
    pub cells: Vec<CellRun>,
}

impl Pass {
    /// Host seconds in `try_workload`, `build_mitigation` and
    /// `MemSystem::try_new` (on a traced pass, minus the wrapped calls
    /// `try_new` made).
    pub fn setup_s(&self) -> f64 {
        let l = &self.layers;
        l.try_workload_s + l.build_mitigation_s + l.try_new_s
    }

    /// The part of the wall no layer claims: the benchmark's own
    /// bookkeeping inside each cell call.
    pub fn unattributed_s(&self) -> f64 {
        let l = &self.layers;
        self.wall_s
            - (l.try_workload_s
                + l.build_mitigation_s
                + l.try_new_s
                + l.run_self_s
                + trace::total_secs(&l.wrapped)
                + l.runner_self_s
                + l.load_manifest_s)
    }

    /// Completed reports, in cell order.
    pub fn reports(&self) -> impl Iterator<Item = &SimReport> {
        self.cells.iter().filter_map(|c| c.report.as_ref())
    }

    /// Simulated cycles over every completed cell.
    pub fn total_cycles(&self) -> u64 {
        self.reports().map(|r| r.cycles).sum()
    }

    /// Cells that failed to complete or failed a check.
    pub fn failed_cells(&self) -> usize {
        self.cells.iter().filter(|c| !c.ok()).count()
    }
}

/// Runs one cell the way `shadow_bench::try_timed_run` does, with every
/// call into the simulator timed and, when `traced`, the streams and the
/// mitigation wrapped. Returns the result, the cell's layers and the
/// host seconds of the whole call, bookkeeping included.
fn run_cell(
    cell: Cell,
    mode: EngineMode,
    seed: u64,
    traced: bool,
) -> Result<(CellResult, Layers, f64), BenchError> {
    let t_call = Instant::now();
    let (mut cfg, name, scheme) = cell;
    if mode == EngineMode::Reference {
        cfg.force_full_scan = true;
        cfg.force_eager_ledger = true;
        cfg.force_linear_frfcfs = true;
    }
    let mut times = Layers::default();

    let t0 = Instant::now();
    let mut streams = build_streams(&name, &cfg, seed)?;
    times.try_workload_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let mut mitigation = build_mitigation(scheme, &cfg);
    times.build_mitigation_s = t0.elapsed().as_secs_f64();

    if mode == EngineMode::Reference {
        mitigation = Box::new(Retranslate::new(mitigation));
    }
    if traced {
        streams = streams
            .into_iter()
            .map(|s| Box::new(TracedStream(s)) as Box<dyn RequestStream>)
            .collect();
        mitigation = Box::new(TracedMitigation(mitigation)) as Box<dyn Mitigation>;
    }

    // Wrapped calls belong to their own layers, so each phase's time
    // is its wall minus the wrapped calls it made.
    let before = trace::snapshot();
    let t0 = Instant::now();
    let mut sys = MemSystem::try_new(cfg, streams, mitigation)?;
    let try_new_s = t0.elapsed().as_secs_f64();
    let mid = trace::snapshot();

    // Tearing the system down is the memory system's work too.
    let t0 = Instant::now();
    let report = sys.run_checked()?;
    drop(sys);
    let run_s = t0.elapsed().as_secs_f64();
    let after = trace::snapshot();

    times.try_new_s = try_new_s - trace::total_secs(&trace::delta(&before, &mid));
    times.run_self_s = run_s - trace::total_secs(&trace::delta(&mid, &after));
    times.wrapped = trace::delta(&before, &after);

    let result = CellResult {
        report,
        wall_secs: try_new_s + run_s,
    };
    Ok((result, times, t_call.elapsed().as_secs_f64()))
}

/// Runs every cell of `cells` once, serially, through
/// `run_cells_isolated_with`, checkpointing to `manifest` (which is
/// replaced), then checks each cell: it completed, reached its request
/// target, and reloads from the manifest to the same report.
///
/// # Errors
///
/// Manifest-level failures only; cell failures land in
/// [`CellRun::failures`].
pub fn run_pass(
    cells: &[Cell],
    seed: u64,
    traced: bool,
    manifest: &Path,
) -> Result<Pass, BenchError> {
    let io = |e: std::io::Error| BenchError::Io {
        path: manifest.display().to_string(),
        why: e.to_string(),
    };
    match std::fs::remove_file(manifest) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(io(e)),
        _ => {}
    }
    let times: Arc<Mutex<Vec<(Layers, f64)>>> = Arc::default();
    let sink = Arc::clone(&times);
    let runner: CellRunner = Arc::new(move |cell, mode| {
        let (result, layers, call_s) = run_cell(cell, mode, seed, traced)?;
        sink.lock().expect("cell-times lock").push((layers, call_s));
        Ok(result)
    });
    let opts = SweepOptions {
        threads: Some(1),
        deadline_secs: None,
        manifest: Some(manifest.to_path_buf()),
        retry: RetryPolicy::NONE,
    };
    let cells_in = cells.to_vec();

    let t0 = Instant::now();
    let outcomes = run_cells_isolated_with(cells_in, &opts, runner)?;
    let t1 = Instant::now();
    let restored = load_manifest(&manifest.to_path_buf())?;
    let t2 = Instant::now();

    let manifest_bytes = std::fs::metadata(manifest).map_err(io)?.len();
    let mut layers = Layers::default();
    let mut calls_s = 0.0;
    for (cell, call_s) in times.lock().expect("cell-times lock").iter() {
        layers.add(cell);
        calls_s += call_s;
    }
    layers.runner_self_s = (t1 - t0).as_secs_f64() - calls_s;
    layers.load_manifest_s = (t2 - t1).as_secs_f64();

    let cells_out: Vec<CellRun> = cells
        .iter()
        .zip(outcomes)
        .map(|(cell, outcome)| cell_run(cell, outcome, &restored))
        .collect();
    Ok(Pass {
        traced,
        wall_s: (t2 - t0).as_secs_f64(),
        layers,
        manifest_bytes,
        cells: cells_out,
    })
}

/// A cell's outcome with the per-cell checks applied: it completed, it
/// reached its request target, and its checkpoint reloads to the same
/// report.
fn cell_run(
    cell: &Cell,
    outcome: CellOutcome,
    restored: &std::collections::HashMap<u64, CellResult>,
) -> CellRun {
    let mut failures = Vec::new();
    let report = match outcome {
        CellOutcome::Ok(r) => Some(r.report),
        CellOutcome::Panicked { message, .. } => {
            failures.push(format!("panicked: {message}"));
            None
        }
        CellOutcome::Stalled { error, .. } => {
            failures.push(format!("stalled: {error}"));
            None
        }
        CellOutcome::TimedOut { deadline_secs } => {
            failures.push(format!("timed out after {deadline_secs} s"));
            None
        }
        CellOutcome::Invalid { error } => {
            failures.push(format!("invalid: {error}"));
            None
        }
    };
    if let Some(r) = &report {
        let target = cell.0.target_requests;
        if r.total_completed() < target {
            failures.push(format!(
                "missed its request target: {} of {target} completed in {} cycles",
                r.total_completed(),
                r.cycles
            ));
        }
        match restored.get(&fingerprint(cell)) {
            Some(back) if back.report == *r => {}
            Some(_) => failures.push("checkpoint reloads to a different report".into()),
            None => failures.push("no checkpoint line in the manifest".into()),
        }
    }
    CellRun {
        cell: cell.clone(),
        report,
        failures,
    }
}

/// Total simulated cycles of the 12 `dense-sweep` cells at seed 0 and the
/// default 60 000-request target: the `sim_cycles_total` the
/// `engine_speedup` bench records in `BENCH_engine.json`.
pub const DENSE_SEED0_CYCLES: u64 = 4_345_018;

/// Workload-level checks: at seed 0, `dense-sweep` simulates exactly the
/// cycles the engine bench records; on `hammer-mix` the attack is live
/// (Baseline flips) and SHADOW holds (no flips).
pub fn check_workload(workload: Workload, seed: u64, pass: &mut Pass) {
    let cells = &mut pass.cells;
    match workload {
        Workload::DenseSweep if seed == 0 && cells.iter().all(|c| c.report.is_some()) => {
            let total: u64 = cells
                .iter()
                .filter_map(|c| c.report.as_ref())
                .map(|r| r.cycles)
                .sum();
            if total != DENSE_SEED0_CYCLES {
                for c in cells.iter_mut() {
                    c.failures.push(format!(
                        "dense-sweep at seed 0 simulated {total} cycles, not {DENSE_SEED0_CYCLES}"
                    ));
                }
            }
        }
        Workload::HammerMix => {
            for c in cells.iter_mut() {
                let Some(r) = &c.report else { continue };
                let flips = r.total_flips();
                match c.cell.2 {
                    Scheme::Baseline if flips == 0 => c
                        .failures
                        .push("Baseline did not flip: the attack is not live".into()),
                    Scheme::Shadow if flips > 0 => {
                        c.failures.push(format!("SHADOW let {flips} bit(s) flip"))
                    }
                    _ => {}
                }
            }
        }
        _ => {}
    }
}

/// Whether two reports are identical, engine diagnostics included
/// (`SimReport`'s `PartialEq` leaves out the scheduling-pass and gate
/// counters).
pub fn same_report(a: &SimReport, b: &SimReport) -> bool {
    a == b
        && a.sched_passes == b.sched_passes
        && a.pass_cycles == b.pass_cycles
        && a.gate_rank_skips == b.gate_rank_skips
        && a.gate_bus_skips == b.gate_bus_skips
}

/// Marks every cell of `pass` whose report differs from the same cell of
/// `reference`, the run's first untraced pass: repeated passes must
/// agree, and a traced pass must match an untraced one exactly.
pub fn check_same_reports(reference: &Pass, pass: &mut Pass) {
    for (want, got) in reference.cells.iter().zip(pass.cells.iter_mut()) {
        if let (Some(a), Some(b)) = (&want.report, &got.report) {
            if !same_report(a, b) {
                got.failures
                    .push("report differs from the first untraced pass".into());
            }
        }
    }
}
