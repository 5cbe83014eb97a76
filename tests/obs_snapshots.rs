//! Golden-snapshot tests for the observability export formats.
//!
//! The Prometheus text exposition, the JSONL span log, and the Chrome
//! trace are consumed by external tooling (scrapers, `chrome://tracing`,
//! Perfetto), so their byte layout is a contract: a fixed set of
//! hand-built metric and span values must render **byte-identically** to
//! the files under `tests/snapshots/`. Everything here uses local
//! [`MetricsRegistry`] / [`Tracer`] instances — no global state and no
//! cross-test interference.
//!
//! To regenerate after an intentional format change:
//!
//! ```text
//! OBS_SNAPSHOT_UPDATE=1 cargo test --test obs_snapshots
//! ```
//!
//! then review the diff like any other code change.

use cynthia::obs::span::{to_chrome_trace, to_jsonl};
use cynthia::obs::{MetricsRegistry, Tracer};

/// Compares `got` against the checked-in snapshot, or rewrites the
/// snapshot when `OBS_SNAPSHOT_UPDATE=1` (the standard bless workflow).
fn assert_snapshot(rel_path: &str, got: &str, want: &str) {
    if std::env::var_os("OBS_SNAPSHOT_UPDATE").is_some() {
        let path = format!("{}/{rel_path}", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(&path, got).expect("rewrite snapshot");
        return;
    }
    assert_eq!(
        got, want,
        "{rel_path} drifted; if intentional, bless with OBS_SNAPSHOT_UPDATE=1"
    );
}

/// A small registry exercising every metric kind, label rendering, and
/// the histogram's cumulative-bucket / +Inf conventions.
fn fixture_registry() -> MetricsRegistry {
    let reg = MetricsRegistry::new();
    let plans = reg.counter("demo_provision_plans_total", "Alg. 1 invocations");
    plans.add(3);
    for (kind, n) in [("worker-crash", 5u64), ("straggler", 2)] {
        reg.counter_with("demo_faults_total", &[("kind", kind)], "Faults by kind")
            .add(n);
    }
    reg.float_counter("demo_comp_seconds_total", "Compute seconds (paper t_comp)")
        .add(12.25);
    reg.gauge("demo_fleet_workers", "Current fleet width")
        .set(6.0);
    let hist = reg.histogram(
        "demo_iter_seconds",
        &[0.5, 1.0, 5.0],
        "Per-iteration seconds",
    );
    for v in [0.25, 0.75, 0.75, 4.0, 60.0] {
        hist.observe(v);
    }
    reg
}

/// A two-track span forest: a provisioning tree with a child, plus a
/// training root whose iteration child carries args.
fn fixture_spans() -> Vec<cynthia::obs::SpanRecord> {
    let tracer = Tracer::new(64);
    tracer.set_enabled(true);
    tracer.begin_at("provision", "provision.plan", 0.0);
    tracer.complete("provision", "provision.band.m4.xlarge", 0.5, 2.0, &[]);
    tracer.end_at("provision", 3.0, &[("candidates", 24.0)]);
    tracer.begin_at("train#1", "train.run", 0.0);
    tracer.complete(
        "train#1",
        "train.iteration",
        10.0,
        16.5,
        &[("comp_secs", 6.0), ("comm_secs", 0.25)],
    );
    tracer.end_at("train#1", 100.0, &[("updates", 800.0)]);
    tracer.drain()
}

#[test]
fn prometheus_exposition_matches_snapshot() {
    assert_snapshot(
        "tests/snapshots/metrics.prom",
        &fixture_registry().render_prometheus(),
        include_str!("snapshots/metrics.prom"),
    );
}

#[test]
fn metrics_json_matches_snapshot() {
    let got = fixture_registry().to_json().to_json_pretty() + "\n";
    assert_snapshot(
        "tests/snapshots/metrics.json",
        &got,
        include_str!("snapshots/metrics.json"),
    );
}

#[test]
fn jsonl_trace_matches_snapshot() {
    assert_snapshot(
        "tests/snapshots/trace.jsonl",
        &to_jsonl(&fixture_spans()),
        include_str!("snapshots/trace.jsonl"),
    );
}

#[test]
fn chrome_trace_matches_snapshot() {
    let got = to_chrome_trace(&fixture_spans()).to_json_pretty() + "\n";
    assert_snapshot(
        "tests/snapshots/chrome_trace.json",
        &got,
        include_str!("snapshots/chrome_trace.json"),
    );
}

#[test]
fn snapshot_chrome_trace_parses_back() {
    let raw = include_str!("snapshots/chrome_trace.json");
    let v: serde_json::Value = serde_json::from_str(raw).expect("snapshot parses");
    let events = v["traceEvents"].as_array().expect("traceEvents");
    assert_eq!(
        events.iter().filter(|e| e["ph"] == "X").count(),
        fixture_spans().len()
    );
    assert_eq!(v["displayTimeUnit"], "ms");
}
