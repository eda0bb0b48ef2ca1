//! # shadow-perfbench
//!
//! The repository's performance benchmark. It runs one named workload's
//! sweep cells through the public sweep path
//! (`shadow_bench::runner::run_cells_isolated_with`) serially, on one
//! thread, with the default calendar engine, and reports end-to-end host
//! time and throughput from untraced passes and per-layer host time and
//! counts from a traced pass. `README.md` beside this crate explains the
//! workloads and what each metric should move.

pub mod metrics;
pub mod pass;
pub mod trace;
pub mod workload;
