//! Golden coverage for the observability export path, end to end
//! through the CLI: `elk serve`/`elk cluster`/`elk simulate` with
//! `--timeline` must emit Chrome-trace timelines (plus flat metrics)
//! that are **byte-identical at `--threads 1` vs `8`**, span the
//! compile pipeline, the event kernel, and per-request lanes in one
//! file, carry no wall-clock-smelling keys, and pass `elk validate`'s
//! structural trace-event check.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde::Value;

fn scenario(name: &str) -> String {
    format!("{}/scenarios/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn fresh_dir(tag: &str) -> PathBuf {
    let out = std::env::temp_dir().join(format!("elk-obs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    out
}

/// Runs `elk <command> <scenario> --threads N --timeline ...` and
/// returns the raw bytes of the timeline and metrics files.
fn export_timeline(
    command: &str,
    scenario_file: &str,
    threads: u32,
    out: &Path,
) -> (String, String) {
    let timeline = out.join(format!("t{threads}.timeline.json"));
    let output = Command::new(env!("CARGO_BIN_EXE_elk"))
        .args([
            command,
            scenario_file,
            "--threads",
            &threads.to_string(),
            "--out",
        ])
        .arg(out)
        .arg("--timeline")
        .arg(&timeline)
        .output()
        .expect("spawn elk");
    assert!(
        output.status.success(),
        "`elk {command}` must exit 0: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let metrics = out.join(format!("t{threads}.metrics.json"));
    (
        std::fs::read_to_string(&timeline).expect("timeline emitted"),
        std::fs::read_to_string(&metrics).expect("metrics emitted"),
    )
}

/// Same recursive walk the report golden tests use: a deterministic
/// artifact must not contain wall-clock-smelling keys. Chrome-trace
/// `ts`/`dur` carry *simulated* microseconds and pass by construction.
fn assert_no_wall_clock_keys(v: &Value, path: &str) {
    const FORBIDDEN: &[&str] = &["wall", "elapsed", "timestamp", "time_ms", "unix_"];
    match v {
        Value::Map(entries) => {
            for (k, child) in entries {
                let key = k.to_ascii_lowercase();
                assert!(
                    !FORBIDDEN.iter().any(|f| key.contains(f)) && key != "now" && key != "date",
                    "wall-clock-smelling key {path}.{k} in a deterministic timeline"
                );
                assert_no_wall_clock_keys(child, &format!("{path}.{k}"));
            }
        }
        Value::Seq(items) => {
            for (i, child) in items.iter().enumerate() {
                assert_no_wall_clock_keys(child, &format!("{path}[{i}]"));
            }
        }
        _ => {}
    }
}

fn field<'a>(pairs: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// The `traceEvents` array of a parsed timeline.
fn trace_events(timeline: &Value) -> &[Value] {
    let Value::Map(pairs) = timeline else {
        panic!("timeline is not an object");
    };
    let Some(Value::Seq(events)) = field(pairs, "traceEvents") else {
        panic!("timeline has no traceEvents array");
    };
    events
}

/// Track (thread) names, from the `thread_name` metadata events.
fn track_names(events: &[Value]) -> Vec<String> {
    events
        .iter()
        .filter_map(|ev| {
            let Value::Map(pairs) = ev else { return None };
            match (
                field(pairs, "ph"),
                field(pairs, "name"),
                field(pairs, "args"),
            ) {
                (Some(Value::Str(ph)), Some(Value::Str(name)), Some(Value::Map(args)))
                    if ph == "M" && name == "thread_name" =>
                {
                    match field(args, "name") {
                        Some(Value::Str(track)) => Some(track.clone()),
                        _ => None,
                    }
                }
                _ => None,
            }
        })
        .collect()
}

/// Event names of non-metadata events.
fn event_names(events: &[Value]) -> Vec<String> {
    events
        .iter()
        .filter_map(|ev| {
            let Value::Map(pairs) = ev else { return None };
            match (field(pairs, "ph"), field(pairs, "name")) {
                (Some(Value::Str(ph)), Some(Value::Str(name))) if ph != "M" => Some(name.clone()),
                _ => None,
            }
        })
        .collect()
}

/// One timeline check: export at `--threads 1` and `8`, demand byte
/// identity, then structural coverage of all three instrumented layers:
/// compile lanes, the engine's own tracks (`engine_tracks`, by prefix:
/// its kernel track and any engine-specific ones), and request lanes.
fn check_scenario(command: &str, file: &str, engine_tracks: &[&str], tag: &str) {
    let out = fresh_dir(tag);
    let scenario_file = scenario(file);
    let t1 = export_timeline(command, &scenario_file, 1, &out);
    let t8 = export_timeline(command, &scenario_file, 8, &out);
    assert_eq!(
        t1, t8,
        "{file}: timeline + metrics must be byte-identical at --threads 1 vs 8"
    );

    let (timeline_text, metrics_text) = &t1;
    let timeline: Value = serde_json::from_str(timeline_text).expect("timeline parses");
    let metrics: Value = serde_json::from_str(metrics_text).expect("metrics parse");
    assert_no_wall_clock_keys(&timeline, "timeline");
    assert_no_wall_clock_keys(&metrics, "metrics");

    let events = trace_events(&timeline);
    assert!(!events.is_empty(), "{file}: timeline has events");
    let tracks = track_names(events);
    let has = |prefix: &str| tracks.iter().any(|t| t.starts_with(prefix));
    assert!(
        has("compile/"),
        "{file}: compile-pipeline lanes: {tracks:?}"
    );
    for track in engine_tracks {
        assert!(has(track), "{file}: `{track}` track: {tracks:?}");
    }
    assert!(has("req/"), "{file}: per-request lanes: {tracks:?}");

    let names = event_names(events);
    for expected in ["enumerate", "order_search", "lower", "prefill"] {
        assert!(
            names.iter().any(|n| n == expected),
            "{file}: expected a `{expected}` event"
        );
    }

    // The files also pass the CLI's own structural validator.
    let output = Command::new(env!("CARGO_BIN_EXE_elk"))
        .arg("validate")
        .arg(&out)
        .output()
        .expect("spawn elk validate");
    assert!(
        output.status.success(),
        "`elk validate` over {}: {}",
        out.display(),
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("trace event(s)"),
        "validate recognized the timeline structurally: {stdout}"
    );
}

#[test]
fn serve_timeline_is_deterministic_and_spans_all_layers() {
    // serving_burst replays a bursty flat-pool trace: kernel events
    // land on per-replica tracks.
    check_scenario("serve", "serving_burst.json", &["serve/replica"], "serve");
}

#[test]
fn cluster_timeline_is_deterministic_and_spans_all_layers() {
    // tenants_overload drives the multi-tenant cluster engine: the
    // admission dispositions ride on the request lanes.
    check_scenario(
        "cluster",
        "tenants_overload.json",
        &["tenancy/kernel"],
        "cluster",
    );
}

#[test]
fn autoscale_timeline_is_deterministic_and_spans_all_layers() {
    // autoscale_burst drives the elastic fleet: scale transitions land
    // on the `fleet` track next to the engine's kernel track.
    check_scenario(
        "cluster",
        "autoscale_burst.json",
        &["autoscale/kernel", "fleet"],
        "autoscale",
    );
}

#[test]
fn disagg_timeline_is_deterministic_and_spans_all_layers() {
    // disagg_chat runs the two-pool engine: prefill, handoff and decode
    // legs share each request's lane.
    check_scenario("cluster", "disagg_chat.json", &["disagg/kernel"], "disagg");
}

#[test]
fn simulate_timeline_records_the_compile_pipeline() {
    let out = fresh_dir("simulate");
    let scenario_file = scenario("paper_all_designs.json");
    let t1 = export_timeline("simulate", &scenario_file, 1, &out);
    let t8 = export_timeline("simulate", &scenario_file, 8, &out);
    assert_eq!(t1, t8, "simulate timeline must be thread-count invariant");
    let timeline: Value = serde_json::from_str(&t1.0).expect("timeline parses");
    assert_no_wall_clock_keys(&timeline, "timeline");
    let tracks = track_names(trace_events(&timeline));
    assert!(
        tracks.iter().filter(|t| t.starts_with("compile/")).count() >= 2,
        "one compile lane per design: {tracks:?}"
    );
}

#[test]
fn observe_spec_section_drives_recording_without_the_flag() {
    // A scenario can opt in via its own `observe` section; the timeline
    // then derives to `<out>/<name>.timeline.json`.
    let out = fresh_dir("spec-observe");
    let text = std::fs::read_to_string(scenario("serving_burst.json")).expect("scenario");
    let mut doc: Value = serde_json::from_str(&text).expect("scenario parses");
    let Value::Map(pairs) = &mut doc else {
        panic!("scenario is an object")
    };
    pairs.push((
        "observe".to_string(),
        Value::Map(vec![("enable".to_string(), Value::Bool(true))]),
    ));
    let rewritten = out.join("observed.json");
    std::fs::create_dir_all(&out).expect("mkdir");
    std::fs::write(&rewritten, serde_json::to_string(&doc).expect("serialize")).expect("write");

    let output = Command::new(env!("CARGO_BIN_EXE_elk"))
        .arg("serve")
        .arg(&rewritten)
        .args(["--threads", "2", "--out"])
        .arg(&out)
        .output()
        .expect("spawn elk");
    assert!(
        output.status.success(),
        "`elk serve` must exit 0: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let timeline = out.join("serving_burst.timeline.json");
    let metrics = out.join("serving_burst.metrics.json");
    assert!(timeline.is_file(), "derived timeline path exists");
    assert!(metrics.is_file(), "derived metrics path exists");
}

#[test]
fn compile_rejects_the_timeline_flag() {
    let out = fresh_dir("reject");
    let output = Command::new(env!("CARGO_BIN_EXE_elk"))
        .args(["compile", &scenario("paper_default.json"), "--timeline"])
        .arg(out.join("t.json"))
        .args(["--out"])
        .arg(&out)
        .output()
        .expect("spawn elk");
    assert!(
        !output.status.success(),
        "`elk compile --timeline` is a usage error"
    );
    assert!(
        String::from_utf8_lossy(&output.stderr).contains("--timeline"),
        "error names the flag"
    );
}
