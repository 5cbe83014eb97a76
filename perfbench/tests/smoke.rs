//! Self-tests of the benchmark runner: every workload runs in the reduced
//! smoke mode with no failed op, and the metric names it emits are valid
//! and exactly the ones `BENCHMARK.json` declares.

use serde_json::Value;
use std::process::Command;

const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

fn declared(section: &str) -> Vec<String> {
    let spec: Value = serde_json::from_str(BENCHMARK).expect("BENCHMARK.json parses");
    spec[section]
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| m["name"].as_str().expect("metric name").to_string())
        .collect()
}

fn workloads() -> Vec<String> {
    let spec: Value = serde_json::from_str(BENCHMARK).expect("BENCHMARK.json parses");
    spec["workloads"]
        .as_array()
        .expect("workload list")
        .iter()
        .map(|w| w["name"].as_str().expect("workload name").to_string())
        .collect()
}

/// Runs one smoke-sized measurement and returns its result line.
fn smoke(workload: &str, trace: &str) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.01"])
        .args(["--trace", trace, "--smoke", "--out", "-"])
        .output()
        .expect("runner starts");
    assert!(out.status.success(), "{workload}: exit {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the result line is JSON")
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn every_workload_runs_clean_and_emits_the_declared_names() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let expected = declared(section);
        for workload in workloads() {
            let result = smoke(&workload, trace);
            assert_eq!(
                result["correct"], true,
                "{workload} trace {trace}: {result}"
            );
            assert_eq!(result["failed"], 0, "{workload} trace {trace}");
            assert!(result["attempted"].as_u64().unwrap_or(0) >= 1);
            let emitted: Vec<String> = result["metrics"]
                .as_object()
                .expect("metrics object")
                .iter()
                .map(|(name, _)| name.clone())
                .collect();
            assert_eq!(emitted, expected, "{workload} trace {trace}");
            for (name, m) in result["metrics"].as_object().expect("metrics object") {
                assert!(valid_name(name), "bad metric name {name:?}");
                assert!(
                    m["value"].as_f64().is_some_and(f64::is_finite),
                    "{name}: {m}"
                );
            }
        }
    }
}

/// The default seed at full size checks every op against `digests.txt`
/// and the `spot-chaos` fingerprint runs against
/// `tests/snapshots/faulted_fingerprints.txt`; the traced pass must also
/// reproduce the untraced one.
#[test]
fn seed_zero_matches_the_committed_digests() {
    for workload in workloads() {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(["--workload", &workload, "--seed", "0", "--seconds", "0.01"])
            .args(["--trace", "1", "--out", "-"])
            .output()
            .expect("runner starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{workload}: {stderr}");
        let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
        let result: Value = serde_json::from_str(stdout.lines().last().expect("a result line"))
            .expect("the result line is JSON");
        assert_eq!(result["failed"], 0, "{workload}: {stderr}");
        assert_eq!(result["correct"], true, "{workload}");
    }
}

#[test]
fn declared_names_are_valid_and_unique() {
    let mut all: Vec<String> = declared("end_to_end");
    all.extend(declared("per_layer"));
    all.extend(workloads());
    for name in &all {
        assert!(valid_name(name) && name.len() <= 64, "bad name {name:?}");
    }
    let unique: std::collections::BTreeSet<&String> = all.iter().collect();
    assert_eq!(unique.len(), all.len(), "a name is used twice");
}

#[test]
fn unknown_workload_is_refused_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "nope", "--out", "-"])
        .output()
        .expect("runner starts");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
