//! Turning timed passes into the benchmark's metrics: the end-to-end set
//! (untraced passes) and the per-layer set (traced passes).

use crate::op::{Kind, Op};
use crate::workloads::{sweep_cfgs, EXPERIMENTS, TABLE1_LABELS};
use cynthia::obs::{metrics, Counter};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Duration;

/// Engine counters read around every traced op.
const COUNTERS: [&str; 11] = [
    "cynthia_sim_events_total",
    "cynthia_sim_flows_started_total",
    "cynthia_sim_flows_cancelled_total",
    "cynthia_train_rollbacks_total",
    "cynthia_train_restores_total",
    "cynthia_elastic_rescue_searches_total",
    "cynthia_provision_candidates_total",
    "cynthia_provision_cache_hits_total",
    "cynthia_provision_cache_misses_total",
    "cynthia_billing_leases_total",
    "cynthia_train_runs_total",
];
const EVENTS: usize = 0;
const FLOWS_STARTED: usize = 1;
const FLOWS_CANCELLED: usize = 2;
const ROLLBACKS: usize = 3;
const RESTORES: usize = 4;
const RESCUES: usize = 5;
const CANDIDATES: usize = 6;
const CACHE_HITS: usize = 7;
const CACHE_MISSES: usize = 8;
const LEASES: usize = 9;

pub type Counts = [u64; COUNTERS.len()];

/// Handles on the engine's counters in the process-wide registry.
pub struct CounterSet(Vec<Counter>);

impl CounterSet {
    pub fn new() -> Self {
        CounterSet(COUNTERS.iter().map(|n| metrics().counter(n, "")).collect())
    }

    pub fn read(&self) -> Counts {
        let mut c = [0; COUNTERS.len()];
        for (slot, counter) in c.iter_mut().zip(&self.0) {
            *slot = counter.get();
        }
        c
    }
}

/// One op's measurements in one pass.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Wall time inside the library calls, from the op's timer.
    pub elapsed: Duration,
    pub units: u64,
    /// Duration of the op's span on the benchmark track (traced passes).
    pub span_s: f64,
    /// Counter deltas across the op (traced passes).
    pub counts: Counts,
    /// Spans the library recorded during the op (traced passes).
    pub spans: u64,
}

/// One pass over a workload's op list, samples indexed like the ops.
pub type Pass = Vec<Sample>;

/// A reported metric: its value and the samples it came from (per pass,
/// per op or per call, as the metric defines).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
    pub samples: Vec<f64>,
}

/// Percentile `p ∈ [0, 1]` by linear interpolation between order
/// statistics. `NaN` for no data.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` (exclusive
/// method) computes them. `None` for no data.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        1 => Some([v[0]; 3]),
        _ => {
            let m = n + 1;
            let mut q = [0.0; 3];
            for (i, slot) in (1..4).zip(q.iter_mut()) {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
            }
            Some(q)
        }
    }
}

fn metric(name: &str, unit: &str, value: f64, samples: Vec<f64>) -> Metric {
    Metric {
        name: name.to_string(),
        unit: unit.to_string(),
        value,
        samples,
    }
}

/// Wall seconds spent inside library calls in one pass.
pub fn pass_wall(pass: &Pass) -> f64 {
    pass.iter().map(|s| s.elapsed.as_secs_f64()).sum()
}

/// Each op's best (shortest) time over the passes, seconds. Contention
/// from other tenants only ever adds time, so the best of several
/// identical calls is the steadiest estimate of the code's own speed.
pub fn best_times(ops: &[Op], passes: &[Pass]) -> Vec<f64> {
    (0..ops.len())
        .map(|i| {
            passes
                .iter()
                .map(|p| p[i].elapsed.as_secs_f64())
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// The end-to-end metrics of an untraced run, from each op's best time and
/// the best of the set-up repetitions. Times are multiplied by `scale`
/// (see `reference`), which expresses them at nominal machine speed; the
/// samples kept are the measured values.
pub fn end_to_end(
    ops: &[Op],
    passes: &[Pass],
    setup_s: &[f64],
    peak_rss_mb: f64,
    scale: f64,
) -> Vec<Metric> {
    let best = best_times(ops, passes);
    let latencies: Vec<f64> = (0..ops.len())
        .filter(|&i| ops[i].kind.scored())
        .map(|i| best[i] * 1e6)
        .collect();
    let wall: f64 = best.iter().sum();
    vec![
        metric(
            "setup_s",
            "s",
            setup_s.iter().copied().fold(f64::INFINITY, f64::min) * scale,
            setup_s.to_vec(),
        ),
        metric(
            "wall_s",
            "s",
            wall * scale,
            passes.iter().map(pass_wall).collect(),
        ),
        metric("op_p50_us", "us", median(&latencies) * scale, latencies),
        metric("peak_rss_mb", "MB", peak_rss_mb, vec![peak_rss_mb]),
    ]
}

/// Every per-layer metric name with its unit, in report order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    for cfg in sweep_cfgs() {
        v.push((format!("train.engine.wall_ms.{cfg}"), "ms"));
        v.push((format!("train.engine.us_per_flow.{cfg}"), "us"));
        v.push((format!("sim.fluid.flows_started.{cfg}"), "count"));
        v.push((format!("sim.events.popped.{cfg}"), "count"));
    }
    for n in [8, 32] {
        v.push((format!("sim.fluid.us_per_flow.star_n{n}"), "us"));
    }
    for wl in TABLE1_LABELS {
        for mode in ["bounded", "full"] {
            v.push((format!("core.provisioner.plan_us.{wl}.{mode}"), "us"));
            v.push((
                format!("core.provisioner.candidates_per_plan.{wl}.{mode}"),
                "count",
            ));
        }
        v.push((format!("core.profiler.profile_us.{wl}"), "us"));
        v.push((format!("core.loss_model.fit_us.{wl}"), "us"));
    }
    let fixed: [(&str, &'static str); 18] = [
        ("core.provisioner.plan_p99_us", "us"),
        ("core.perf_model.predict_ns", "ns"),
        ("elastic.scenario.run_elastic_ms", "ms"),
        ("elastic.slo.run_guarded_ms", "ms"),
        ("train.engine.faulted_ms.fingerprint", "ms"),
        ("train.engine.faulted_ms.large", "ms"),
        ("faults.injector.draw_plan_us", "us"),
        ("cloud.spot.trace_us", "us"),
        ("sim.fluid.flows_cancelled", "count"),
        ("train.rollbacks", "count"),
        ("train.restores", "count"),
        ("elastic.rescue_searches", "count"),
        ("cloud.billing.leases", "count"),
        ("core.provisioner.cache_hit_ratio", "ratio"),
        ("baselines.optimus.plan_us", "us"),
        ("baselines.paleo.predict_ns", "ns"),
        ("obs.trace_overhead_pct", "%"),
        ("obs.spans_recorded", "count"),
    ];
    v.extend(fixed.iter().map(|&(n, u)| (n.to_string(), u)));
    for e in EXPERIMENTS {
        v.push((format!("experiments.{e}_s"), "s"));
    }
    v
}

/// Per-layer samples: metric name → one value per op call (timings) or
/// per pass (totals and ratios). Each metric reports the median.
#[derive(Default)]
struct Acc(BTreeMap<String, Vec<f64>>);

impl Acc {
    fn push(&mut self, name: String, value: f64) {
        self.0.entry(name).or_default().push(value);
    }
}

/// The per-layer metrics of a traced run. `overhead_pct` is the traced
/// over untraced wall ratio minus one; `spans` counts the spans the
/// library recorded per pass.
pub fn per_layer(ops: &[Op], passes: &[Pass], overhead_pct: f64, spans: &[f64]) -> Vec<Metric> {
    let mut acc = Acc::default();
    let mut plan_us = Vec::new();
    for pass in passes {
        let mut totals = [0u64; COUNTERS.len()];
        let mut candidates: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for (op, s) in ops.iter().zip(pass) {
            let us = s.span_s * 1e6;
            let c = &s.counts;
            for (t, d) in totals.iter_mut().zip(c) {
                *t += d;
            }
            match &op.kind {
                Kind::Simulate { cfg } => {
                    acc.push(format!("train.engine.wall_ms.{cfg}"), us / 1e3);
                    let flows = c[FLOWS_STARTED];
                    acc.push(
                        format!("train.engine.us_per_flow.{cfg}"),
                        us / flows.max(1) as f64,
                    );
                    acc.push(format!("sim.fluid.flows_started.{cfg}"), flows as f64);
                    acc.push(format!("sim.events.popped.{cfg}"), c[EVENTS] as f64);
                }
                Kind::FluidStar { n } => acc.push(
                    format!("sim.fluid.us_per_flow.star_n{n}"),
                    us / s.units.max(1) as f64,
                ),
                Kind::Plan { wl, mode } => {
                    acc.push(format!("core.provisioner.plan_us.{wl}.{mode}"), us);
                    plan_us.push(us);
                    let e = candidates.entry(format!("{wl}.{mode}")).or_default();
                    e.0 += c[CANDIDATES];
                    e.1 += 1;
                }
                Kind::OptimusPlan => acc.push("baselines.optimus.plan_us".into(), us),
                Kind::Profile { wl } => acc.push(format!("core.profiler.profile_us.{wl}"), us),
                Kind::FitLoss { wl } => acc.push(format!("core.loss_model.fit_us.{wl}"), us),
                Kind::PredictCynthia { calls } => acc.push(
                    "core.perf_model.predict_ns".into(),
                    us * 1e3 / *calls as f64,
                ),
                Kind::PredictPaleo { calls } => acc.push(
                    "baselines.paleo.predict_ns".into(),
                    us * 1e3 / *calls as f64,
                ),
                Kind::Elastic => acc.push("elastic.scenario.run_elastic_ms".into(), us / 1e3),
                Kind::Faulted { set } => {
                    acc.push(format!("train.engine.faulted_ms.{set}"), us / 1e3)
                }
                Kind::Guarded => acc.push("elastic.slo.run_guarded_ms".into(), us / 1e3),
                Kind::DrawPlan => acc.push("faults.injector.draw_plan_us".into(), us),
                Kind::SpotTrace => acc.push("cloud.spot.trace_us".into(), us),
                Kind::Experiment { name } => acc.push(format!("experiments.{name}_s"), us / 1e6),
            }
        }
        for (key, (cands, plans)) in candidates {
            acc.push(
                format!("core.provisioner.candidates_per_plan.{key}"),
                cands as f64 / plans as f64,
            );
        }
        for (name, i) in [
            ("sim.fluid.flows_cancelled", FLOWS_CANCELLED),
            ("train.rollbacks", ROLLBACKS),
            ("train.restores", RESTORES),
            ("elastic.rescue_searches", RESCUES),
            ("cloud.billing.leases", LEASES),
        ] {
            acc.push(name.into(), totals[i] as f64);
        }
        let lookups = totals[CACHE_HITS] + totals[CACHE_MISSES];
        let ratio = if lookups == 0 {
            0.0
        } else {
            totals[CACHE_HITS] as f64 / lookups as f64
        };
        acc.push("core.provisioner.cache_hit_ratio".into(), ratio);
    }
    if !plan_us.is_empty() {
        acc.push(
            "core.provisioner.plan_p99_us".into(),
            percentile(&plan_us, 0.99),
        );
    }
    acc.push("obs.trace_overhead_pct".into(), overhead_pct);
    for &s in spans {
        acc.push("obs.spans_recorded".into(), s);
    }
    per_layer_names()
        .into_iter()
        .map(|(name, unit)| {
            let samples = acc.0.remove(&name).unwrap_or_default();
            let value = if samples.is_empty() {
                0.0
            } else {
                median(&samples)
            };
            Metric {
                name,
                unit: unit.to_string(),
                value,
                samples,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        assert_eq!(
            quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]),
            Some([2.75, 5.5, 8.25])
        );
        // statistics.quantiles([3, 1, 2], n=4)
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(quartiles(&[4.0]), Some([4.0; 3]));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn percentile_interpolates() {
        assert_eq!(percentile(&[1.0, 3.0], 0.5), 2.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.99), 4.96);
    }

    #[test]
    fn per_layer_names_are_unique_and_few() {
        let names = per_layer_names();
        let unique: std::collections::BTreeSet<_> = names.iter().map(|(n, _)| n).collect();
        assert_eq!(unique.len(), names.len());
        assert!(names.len() <= 128, "{} per-layer names", names.len());
    }
}
