//! `shadow-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <path>]`
//!
//! Repeats the workload's cell set until `--seconds` have passed (at
//! least [`MIN_PASSES`] times) and prints, as the last line of standard
//! output, one JSON object: `correct`, `attempted` and `failed` cells, and
//! the metrics — end-to-end ones with `--trace 0`, per-layer ones with
//! `--trace 1`. Every pass is checked; any failed check makes `correct`
//! false and the exit code 1. Provenance goes to standard error, and with
//! `--out` the whole result is also written to that file.

use shadow_bench::json::Json;
use shadow_perfbench::metrics::{self, median};
use shadow_perfbench::pass::{check_same_reports, check_workload, run_pass, Pass};
use shadow_perfbench::workload::{stream_seed, Workload};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Fewest passes a run makes, whatever `--seconds` says, so that every
/// reported time is a median.
const MIN_PASSES: usize = 3;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut out) = (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} `{value}`: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    bad(&format!("unknown workload; one of {}", names.join(", ")))
                })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<u64>().map_err(|e| bad(&e))?;
                if s == 0 {
                    return Err(bad(&"must be at least 1"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

/// The harness's `SHADOW_BENCH_*` knobs change the cells (request
/// target, cores, time scale, slice length) or the engine; the benchmark
/// fixes its inputs, so it refuses to run with any of them set.
fn check_env() -> Result<(), String> {
    let set: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("SHADOW_BENCH_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "unset {} (the benchmark fixes its inputs)",
            set.join(", ")
        ))
    }
}

/// Trimmed standard output of a command run in the working directory,
/// or `"unknown"`.
fn command_stdout(cmd: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(cmd).args(args).output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    out.status.success().then(|| text.trim().to_string())
}

/// Where the run came from, read at run time from the working tree.
fn provenance(args: &Args, cells: &[shadow_bench::Cell]) -> Json {
    let unknown = || "unknown".to_string();
    let git_rev = command_stdout("git", &["rev-parse", "HEAD"])
        .map(
            |rev| match command_stdout("git", &["status", "--porcelain"]) {
                Some(s) if s.is_empty() => rev,
                _ => format!("{rev}-dirty"),
            },
        )
        .unwrap_or_else(unknown);
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let rustc = command_stdout(&rustc, &["--version"]).unwrap_or_else(unknown);
    let cells = cells
        .iter()
        .map(|(cfg, traffic, scheme)| {
            Json::Obj(vec![
                ("traffic".into(), Json::str(traffic.as_str())),
                ("scheme".into(), Json::str(scheme.name())),
                ("target_requests".into(), Json::u64(cfg.target_requests)),
                ("h_cnt".into(), Json::u64(cfg.rh.h_cnt)),
                (
                    "stream_seed".into(),
                    Json::u64(stream_seed(traffic, args.seed)),
                ),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("git_rev".into(), Json::str(git_rev)),
        ("rustc".into(), Json::str(rustc)),
        ("nproc".into(), Json::u64(shadow_bench::host_cpus() as u64)),
        ("workload".into(), Json::str(args.workload.name())),
        ("seed".into(), Json::u64(args.seed)),
        ("seconds".into(), Json::u64(args.seconds)),
        ("trace".into(), Json::Bool(args.trace)),
        ("cells".into(), Json::Arr(cells)),
    ])
}

/// Peak resident memory of this process in MiB (`VmHWM`, Linux).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak_rss_mb needs /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Scratch space for the checkpoint manifest: beside the executable,
/// inside the build directory.
fn work_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("the executable has no parent directory")?
        .join("perfbench-work");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// The untraced and traced passes of one run.
struct Passes {
    plain: Vec<Pass>,
    traced: Vec<Pass>,
}

/// Repeats the cell set for `args.seconds`. With `--trace 1`, every
/// untraced pass is followed by a traced one; with `--trace 0`, one
/// traced pass after the measurement checks the wrappers.
fn measure(args: &Args, manifest: &Path) -> Result<Passes, String> {
    let cells = args.workload.cells();
    let pass = |traced| {
        let mut p = run_pass(&cells, args.seed, traced, manifest).map_err(|e| e.to_string())?;
        check_workload(args.workload, args.seed, &mut p);
        Ok::<Pass, String>(p)
    };
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut out = Passes {
        plain: Vec::new(),
        traced: Vec::new(),
    };
    while out.plain.len() < MIN_PASSES || start.elapsed() < budget {
        let mut p = pass(false)?;
        if let Some(first) = out.plain.first() {
            check_same_reports(first, &mut p);
        }
        eprintln!(
            "[perfbench] {} pass {}: wall {:.4} s, setup {:.4} s, {} cycles",
            args.workload.name(),
            out.plain.len() + 1,
            p.wall_s,
            p.setup_s(),
            p.total_cycles()
        );
        out.plain.push(p);
        if args.trace {
            out.traced.push(pass(true)?);
        }
    }
    if !args.trace {
        out.traced.push(pass(true)?);
    }
    for t in &mut out.traced {
        check_same_reports(&out.plain[0], t);
    }
    Ok(out)
}

fn run() -> Result<bool, String> {
    let args = parse_args(std::env::args().skip(1))?;
    check_env()?;
    let prov = provenance(&args, &args.workload.cells());
    eprintln!("[perfbench] provenance {}", prov.to_json());

    let manifest = work_dir()?.join(format!(
        "{}-{}.jsonl",
        args.workload.name(),
        std::process::id()
    ));
    let measured = measure(&args, &manifest);
    let _ = std::fs::remove_file(&manifest);
    let Passes { plain, traced } = measured?;

    let all = || plain.iter().chain(&traced);
    let attempted: usize = all().map(|p| p.cells.len()).sum();
    let failed: usize = all().map(Pass::failed_cells).sum();
    for p in all() {
        for c in p.cells.iter().filter(|c| !c.ok()) {
            for f in &c.failures {
                eprintln!(
                    "[perfbench] FAILED {}/{} ({} pass): {f}",
                    c.cell.1,
                    c.cell.2.name(),
                    if p.traced { "traced" } else { "untraced" }
                );
            }
        }
    }

    let plain_wall = median(&plain.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let (values, declared) = if args.trace {
        let mid = median(&traced.iter().map(|p| p.wall_s).collect::<Vec<_>>());
        let pick = traced
            .iter()
            .min_by(|a, b| (a.wall_s - mid).abs().total_cmp(&(b.wall_s - mid).abs()))
            .expect("at least one traced pass");
        let error_rate = failed as f64 / attempted as f64;
        (
            metrics::per_layer(pick, plain_wall, error_rate),
            &metrics::PER_LAYER[..],
        )
    } else {
        (
            metrics::end_to_end(&plain, peak_rss_mb()?),
            &metrics::END_TO_END[..],
        )
    };
    let finite = values.iter().all(|(_, v)| v.is_finite());
    if !finite {
        eprintln!("[perfbench] FAILED: a metric is not a finite number: {values:?}");
    }
    let correct = failed == 0 && finite;
    let metrics = Json::Obj(
        values
            .iter()
            .zip(declared)
            .map(|(&(name, v), &(declared, unit))| {
                assert_eq!(name, declared, "metrics print in declaration order");
                let v = if v.is_finite() {
                    Json::f64(v)
                } else {
                    Json::Null
                };
                (
                    name.to_string(),
                    Json::Obj(vec![("value".into(), v), ("unit".into(), Json::str(unit))]),
                )
            })
            .collect(),
    );
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::u64(attempted as u64)),
        ("failed".into(), Json::u64(failed as u64)),
        ("metrics".into(), metrics),
    ]);
    if let Some(path) = &args.out {
        let doc = Json::Obj(vec![
            ("provenance".into(), prov),
            (
                "untraced_wall_s".into(),
                Json::Arr(plain.iter().map(|p| Json::f64(p.wall_s)).collect()),
            ),
            (
                "traced_wall_s".into(),
                Json::Arr(traced.iter().map(|p| Json::f64(p.wall_s)).collect()),
            ),
            ("result".into(), result.clone()),
        ]);
        std::fs::write(path, doc.to_json() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", result.to_json());
    Ok(correct)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("shadow-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
