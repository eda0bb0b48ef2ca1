//! The benchmark's own checks: its timers observe without changing
//! anything, its layer times account for the whole traced wall, and its
//! metric names agree with `BENCHMARK.json`.

use shadow_bench::json::Json;
use shadow_bench::{build_mitigation, Cell, Scheme};
use shadow_memsys::{MemSystem, SimReport, SystemConfig};
use shadow_mitigations::Mitigation;
use shadow_perfbench::metrics::{self, END_TO_END, PER_LAYER};
use shadow_perfbench::pass::{check_same_reports, run_pass, same_report};
use shadow_perfbench::trace::{self, Site, TracedMitigation, TracedStream};
use shadow_perfbench::workload::{build_streams, stream_seed, Workload};
use shadow_workloads::RequestStream;
use std::path::PathBuf;

fn run(cfg: SystemConfig, traffic: &str, scheme: Scheme, traced: bool) -> SimReport {
    let mut streams = build_streams(traffic, &cfg, 0).expect("known traffic");
    let mut mitigation = build_mitigation(scheme, &cfg);
    if traced {
        streams = streams
            .into_iter()
            .map(|s| Box::new(TracedStream(s)) as Box<dyn RequestStream>)
            .collect();
        mitigation = Box::new(TracedMitigation(mitigation)) as Box<dyn Mitigation>;
    }
    MemSystem::try_new(cfg, streams, mitigation)
        .expect("valid cell")
        .run_checked()
        .expect("cell completes")
}

#[test]
fn timing_wrappers_are_observation_only_for_every_scheme() {
    let cfg = SystemConfig::tiny();
    for traffic in ["random-stream", "hammer:spec-high"] {
        for &scheme in Scheme::all() {
            let plain = run(cfg, traffic, scheme, false);
            let before = trace::snapshot();
            let traced = run(cfg, traffic, scheme, true);
            let seen = trace::delta(&before, &trace::snapshot());
            assert!(
                same_report(&plain, &traced),
                "{traffic}/{}: the traced report differs",
                scheme.name()
            );
            assert!(
                seen[Site::NextRequest as usize].calls >= plain.total_completed(),
                "{traffic}/{}: the stream wrapper saw too few calls",
                scheme.name()
            );
            assert!(
                seen[Site::Translate as usize].calls > 0,
                "{traffic}/{}: the mitigation wrapper saw no calls",
                scheme.name()
            );
        }
    }
}

fn small_cells() -> Vec<Cell> {
    let cfg = SystemConfig::tiny();
    [Scheme::Baseline, Scheme::Shadow, Scheme::Prac]
        .iter()
        .flat_map(|&s| {
            ["random-stream", "hammer:spec-high"]
                .iter()
                .map(move |t| (cfg, t.to_string(), s))
        })
        .collect()
}

fn manifest(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{name}.jsonl"))
}

#[test]
fn traced_layer_times_sum_to_the_traced_wall() {
    let cells = small_cells();
    let path = manifest("layers");
    let plain = run_pass(&cells, 0, false, &path).expect("pass runs");
    let mut traced = run_pass(&cells, 0, true, &path).expect("pass runs");
    let _ = std::fs::remove_file(&path);
    check_same_reports(&plain, &mut traced);
    assert_eq!(traced.failed_cells(), 0, "{:?}", traced.cells);

    let layers = metrics::per_layer(&traced, plain.wall_s, 0.0);
    let value = |name: &str| {
        layers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .expect("metric present")
    };
    let parts = [
        "bench.try_workload_s",
        "bench.build_mitigation_s",
        "memsys.try_new_s",
        "memsys.run.self_s",
        "workloads.next_request.self_s",
        "mitigations.self_s",
        "bench.runner.self_s",
        "bench.load_manifest_s",
    ];
    for p in parts {
        assert!(value(p) >= 0.0, "{p} is negative: {}", value(p));
    }
    let sum: f64 = parts.iter().map(|p| value(p)).sum();
    let wall = value("traced_wall_s");
    assert!(
        (sum + value("bench.unattributed_s") - wall).abs() < 1e-9,
        "the remainder does not close the sum"
    );
    assert!(
        (wall - sum).abs() <= 0.05 * wall,
        "layers sum to {sum} s of a {wall} s wall"
    );
    assert!(value("workloads.next_request.calls") > 0.0);
}

fn benchmark_json() -> Json {
    let text = std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json at the root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = doc
        .field(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k| {
                m.field(k)
                    .and_then(Json::as_str)
                    .expect("string")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect();
    out.sort();
    out
}

fn ours(list: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = list
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    out.sort();
    out
}

#[test]
fn metric_names_are_well_formed_and_match_benchmark_json() {
    let doc = benchmark_json();
    assert_eq!(declared(&doc, "end_to_end"), ours(&END_TO_END));
    assert_eq!(declared(&doc, "per_layer"), ours(&PER_LAYER));
    let workloads: Vec<String> = doc
        .field("workloads")
        .and_then(Json::as_arr)
        .expect("workload list")
        .iter()
        .map(|w| {
            w.field("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, names);

    let mut all: Vec<&str> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|(n, _)| *n)
        .collect();
    for name in &all {
        let ok = !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'));
        assert!(ok, "malformed metric name `{name}`");
    }
    all.sort_unstable();
    let n = all.len();
    all.dedup();
    assert_eq!(all.len(), n, "a metric name is used twice");
}

#[test]
fn printed_metrics_are_exactly_the_declared_ones() {
    let cells = small_cells();
    let path = manifest("names");
    let plain = run_pass(&cells, 0, false, &path).expect("pass runs");
    let _ = std::fs::remove_file(&path);
    let names = |v: Vec<(&'static str, f64)>| v.into_iter().map(|(n, _)| n).collect::<Vec<_>>();
    let want = |l: &[(&'static str, &str)]| l.iter().map(|(n, _)| *n).collect::<Vec<_>>();
    assert_eq!(
        names(metrics::end_to_end(std::slice::from_ref(&plain), 1.0)),
        want(&END_TO_END)
    );
    assert_eq!(
        names(metrics::per_layer(&plain, plain.wall_s, 0.0)),
        want(&PER_LAYER)
    );
}

#[test]
fn seed_zero_is_the_historical_sweep_seed() {
    assert_eq!(stream_seed("spec-high", 0), 0xACE0_0000 + 9);
    assert_eq!(stream_seed("random-stream", 0), 0xACE0_0000 + 13);
    assert_ne!(stream_seed("spec-high", 1), stream_seed("spec-high", 0));
    assert_eq!(
        stream_seed("hammer:spec-high", 5),
        stream_seed("spec-high", 5)
    );
}

#[test]
fn hammer_cells_carry_a_live_attack() {
    let cfg = SystemConfig::tiny();
    let streams = build_streams("hammer:spec-high", &cfg, 3).expect("known traffic");
    let benign = build_streams("spec-high", &cfg, 3).expect("known traffic");
    assert_eq!(streams.len(), benign.len() + 2, "two attacker cores");
    let report = run(cfg, "hammer:spec-high", Scheme::Baseline, false);
    assert!(
        report.total_flips() > 0,
        "unprotected tiny device must flip"
    );
}
