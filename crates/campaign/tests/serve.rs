//! Serve-mode protocol tests: one recipe per Unix-socket connection,
//! JSONL events streamed back, malformed submissions answered with an
//! error line instead of taking the service down.

#![cfg(unix)]

use shadow_bench::json::Json;
use shadow_campaign::serve::{handle_submission, serve_unix, ServeOptions};
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

const RECIPE: &str = r#"
[campaign]
name = "served"
threads = 2

[[scenario]]
preset = "tiny"
workloads = ["random-stream"]
schemes = ["baseline"]
requests = [200, 300]
"#;

fn socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("shadow-serve-{tag}-{}.sock", std::process::id()))
}

/// Starts an in-process server on `path` that exits after `campaigns`
/// submissions.
fn start_server(path: &Path, campaigns: usize) -> std::thread::JoinHandle<i32> {
    let opts = ServeOptions {
        socket: Some(path.to_path_buf()),
        max_campaigns: Some(campaigns),
        base_dir: None,
    };
    std::thread::spawn(move || serve_unix(&opts))
}

/// Submits one recipe over the Unix socket at `path` and returns the
/// event lines streamed back.
fn submit(path: &Path, recipe: &str) -> Vec<Json> {
    // Wait for the listener to come up.
    let t0 = std::time::Instant::now();
    let mut stream = loop {
        match UnixStream::connect(path) {
            Ok(s) => break s,
            Err(_) if t0.elapsed() < std::time::Duration::from_secs(10) => {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            Err(e) => panic!("server socket never came up: {e}"),
        }
    };
    stream.write_all(recipe.as_bytes()).unwrap();
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close to submit");
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("bad event line `{l}`: {e}")))
        .collect()
}

/// Drives one submission over a real Unix socket against an in-process
/// server and returns the event lines streamed back.
fn submit_over_socket(recipe: &str, tag: &str) -> Vec<Json> {
    let path = socket_path(tag);
    let server = start_server(&path, 1);
    let events = submit(&path, recipe);
    assert_eq!(server.join().unwrap(), 0, "server exits 0 after serving");
    events
}

fn event_kind(e: &Json) -> &str {
    e.get("event").unwrap().as_str().unwrap()
}

#[test]
fn socket_submission_streams_events_and_final_summary() {
    let events = submit_over_socket(RECIPE, "ok");
    let kinds: Vec<String> = events
        .iter()
        .map(|e| e.get("event").unwrap().as_str().unwrap().to_string())
        .collect();
    assert_eq!(kinds.first().map(String::as_str), Some("campaign-started"));
    assert_eq!(kinds.last().map(String::as_str), Some("campaign-finished"));
    assert_eq!(
        kinds.iter().filter(|k| *k == "cell-finished").count(),
        2,
        "one finish per cell: {kinds:?}"
    );
    let finished = events.last().unwrap();
    assert_eq!(
        finished.get("exit_code").unwrap().as_u64().unwrap(),
        0,
        "healthy campaign reports exit 0 in-band"
    );
}

#[test]
fn malformed_submission_answers_with_error_line() {
    let out: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
    let code = handle_submission("this is not a recipe", None, out.clone());
    assert_eq!(code, 3);
    let text = String::from_utf8(out.lock().unwrap().clone()).unwrap();
    let line = Json::parse(text.lines().next().expect("one error line")).unwrap();
    assert_eq!(line.get("event").unwrap().as_str().unwrap(), "error");
    assert!(line
        .get("message")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("recipe error"));
}

/// A grid too large to expand (five 100-entry axes, 10^10 cells) gets an
/// in-band error line, and the same server still runs the next
/// submission.
#[test]
fn oversized_grid_answers_in_band_and_server_survives() {
    let axis = |item: &str| vec![item; 100].join(", ");
    let oversized = format!(
        "[campaign]\nname = \"huge\"\n[[scenario]]\npreset = \"tiny\"\n\
         workloads = [{}]\nschemes = [{}]\nrequests = [{}]\nh_cnt = [{}]\nblast = [{}]\n",
        axis("\"random-stream\""),
        axis("\"baseline\""),
        axis("200"),
        axis("64"),
        axis("1"),
    );
    let path = socket_path("oversized");
    let server = start_server(&path, 2);
    let rejected = submit(&path, &oversized);
    assert_eq!(rejected.len(), 1, "one error line: {rejected:?}");
    assert_eq!(event_kind(&rejected[0]), "error");
    let message = rejected[0].get("message").unwrap().as_str().unwrap();
    assert!(message.contains("grid too large"), "{message}");
    let events = submit(&path, RECIPE);
    assert_eq!(events.last().map(event_kind), Some("campaign-finished"));
    let exit_code = events.last().unwrap().get("exit_code").unwrap();
    assert_eq!(exit_code.as_u64().unwrap(), 0, "the next submission runs");
    assert_eq!(
        server.join().unwrap(),
        0,
        "server exits 0 after two submissions"
    );
}

#[test]
fn zero_hammer_threshold_answers_in_band_and_server_survives() {
    // `h_cnt = [0]` used to pass parsing and panic in `RhParams::new` when
    // the grid expanded, inside the accept loop, taking the server down.
    let bad = RECIPE.replace("requests = [200, 300]", "requests = [200]\nh_cnt = [0]");
    let path = socket_path("zero-hcnt");
    let server = start_server(&path, 2);
    let rejected = submit(&path, &bad);
    assert_eq!(rejected.len(), 1, "one error line: {rejected:?}");
    assert_eq!(event_kind(&rejected[0]), "error");
    let message = rejected[0].get("message").unwrap().as_str().unwrap();
    assert!(
        message.contains("h_cnt: every entry must be positive"),
        "{message}"
    );
    let events = submit(&path, RECIPE);
    assert_eq!(events.last().map(event_kind), Some("campaign-finished"));
    let exit_code = events.last().unwrap().get("exit_code").unwrap();
    assert_eq!(exit_code.as_u64().unwrap(), 0, "the next submission runs");
    assert_eq!(
        server.join().unwrap(),
        0,
        "server exits 0 after two submissions"
    );
}
