//! `perfbench compare OLD.jsonl NEW.jsonl`: for every workload and metric,
//! each side's median and quartiles over its runs, the relative delta of
//! the medians, and a verdict against the metric's bound in
//! `BENCHMARK.json`:
//!
//! * `REGRESSION` — the new median is worse by more than the bound;
//! * `unresolved` — either side's quartile spread exceeds the bound, so
//!   the runs cannot tell (unless every new run beats every old one);
//! * `ok` — within the bound. Per-layer metrics have no bound (`-`).
//!
//! Exits 1 when any regression is flagged.

use crate::metrics::quartiles;
use crate::RunRecord;
use serde_json::Value;
use std::collections::BTreeMap;
use std::process::ExitCode;

const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

/// Direction and bound of a metric, from `BENCHMARK.json`.
struct Rule {
    lower_is_better: bool,
    bound: Option<f64>,
}

fn rules() -> BTreeMap<String, Rule> {
    let spec: Value = serde_json::from_str(BENCHMARK).expect("BENCHMARK.json parses");
    let mut rules = BTreeMap::new();
    for section in ["end_to_end", "per_layer"] {
        for m in spec[section].as_array().into_iter().flatten() {
            let name = m["name"].as_str().unwrap_or_default().to_string();
            rules.insert(
                name,
                Rule {
                    lower_is_better: m["better"] == "lower",
                    bound: m.get("bound").and_then(Value::as_f64),
                },
            );
        }
    }
    rules
}

fn load(path: &str) -> Result<Vec<RunRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| serde_json::from_str(l).map_err(|e| format!("{path}: {e}")))
        .collect()
}

/// `(workload, metric)` → values, one per non-smoke run.
type Table = BTreeMap<(String, String), (String, Vec<f64>)>;

fn table(records: &[RunRecord]) -> Table {
    let mut t = Table::new();
    for r in records.iter().filter(|r| !r.smoke) {
        if !r.correct {
            eprintln!(
                "warning: {} seed {} failed its output checks",
                r.workload, r.seed
            );
        }
        for m in &r.metrics {
            t.entry((r.workload.clone(), m.name.clone()))
                .or_insert_with(|| (m.unit.clone(), Vec::new()))
                .1
                .push(m.value);
        }
    }
    t
}

/// The verdict for one metric; `delta` is `new / old − 1` of the medians.
fn verdict(rule: Option<&Rule>, old: &[f64], new: &[f64], delta: f64, spread: f64) -> &'static str {
    let Some(Rule {
        lower_is_better,
        bound: Some(bound),
    }) = rule
    else {
        return "-";
    };
    let better = |a: f64, b: f64| if *lower_is_better { a < b } else { a > b };
    let all_better = new.iter().all(|&n| old.iter().all(|&o| better(n, o)));
    let worse_by = if *lower_is_better { delta } else { -delta };
    if spread > *bound && !all_better {
        "unresolved"
    } else if worse_by > *bound {
        "REGRESSION"
    } else {
        "ok"
    }
}

pub fn main(args: &[String]) -> ExitCode {
    let [old_path, new_path] = args else {
        eprintln!("usage: perfbench compare OLD.jsonl NEW.jsonl");
        return ExitCode::from(2);
    };
    let (old, new) = match (load(old_path), load(new_path)) {
        (Ok(o), Ok(n)) => (table(&o), table(&n)),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfbench compare: {e}");
            return ExitCode::from(2);
        }
    };
    let rules = rules();
    let mut regressions = 0;
    println!(
        "{:<14} {:<44} {:>5} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8}  verdict",
        "workload",
        "metric",
        "unit",
        "old.q1",
        "old.median",
        "old.q3",
        "new.q1",
        "new.median",
        "new.q3",
        "delta"
    );
    for ((workload, name), (unit, o)) in &old {
        let Some((_, n)) = new.get(&(workload.clone(), name.clone())) else {
            continue;
        };
        let (Some(qo), Some(qn)) = (quartiles(o), quartiles(n)) else {
            continue;
        };
        let delta = if qo[1] == 0.0 {
            0.0
        } else {
            qn[1] / qo[1] - 1.0
        };
        let rel_spread = |q: [f64; 3]| {
            if q[1] == 0.0 {
                0.0
            } else {
                (q[2] - q[0]) / q[1].abs()
            }
        };
        let spread = rel_spread(qo).max(rel_spread(qn));
        let v = verdict(rules.get(name), o, n, delta, spread);
        if v == "REGRESSION" {
            regressions += 1;
        }
        println!(
            "{workload:<14} {name:<44} {unit:>5} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>+7.1}%  {v}",
            qo[0], qo[1], qo[2], qn[0], qn[1], qn[2], delta * 100.0
        );
    }
    if regressions > 0 {
        eprintln!("perfbench compare: {regressions} regression(s) beyond the bound");
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Rule {
        Rule {
            lower_is_better: true,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let r = lower(0.1);
        assert_eq!(verdict(Some(&r), &[1.0], &[1.05], 0.05, 0.0), "ok");
        assert_eq!(verdict(Some(&r), &[1.0], &[1.2], 0.2, 0.0), "REGRESSION");
        assert_eq!(
            verdict(Some(&r), &[1.0, 1.5], &[1.2, 1.9], 0.2, 0.4),
            "unresolved"
        );
        // A wide spread is resolved when every new run beats every old one.
        assert_eq!(verdict(Some(&r), &[2.0, 3.0], &[1.0, 1.5], -0.5, 0.4), "ok");
        assert_eq!(verdict(None, &[1.0], &[9.0], 8.0, 0.0), "-");
    }

    #[test]
    fn every_benchmark_metric_has_a_direction() {
        let rules = rules();
        assert!(rules
            .values()
            .all(|r| r.bound.is_none_or(|b| b > 0.0 && b <= 0.25)));
        assert!(rules.contains_key("setup_s"));
    }
}
