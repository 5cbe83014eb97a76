//! Sensitivity study — how robust are the predictions to conditions the
//! model was never told about?
//!
//! Two stressors:
//!
//! * **compute jitter** — per-segment duration noise (shared-tenant CPU
//!   variance). The paper repeats runs three times to average this out;
//!   here we sweep the coefficient of variation from the calibrated 3%
//!   up to 15% and check the error stays bounded (BSP barriers integrate
//!   jitter into a systematic max-of-n slowdown, so error grows slowly
//!   but visibly).
//! * **NIC interference** — a fraction of each PS NIC consumed by
//!   co-located tenants. The model profiles on a quiet network, so its
//!   error grows with interference in communication-bound shapes; the
//!   sweep locates the robustness boundary (≈ where interference exceeds
//!   the shape's bandwidth slack).

use crate::common::{render_table, ExpConfig};
use cynthia_core::perf_model::{ClusterShape, CynthiaModel, PerfModel};
use cynthia_core::profiler::profile_workload;
use cynthia_models::Workload;
use cynthia_train::{simulate, ClusterSpec, SimConfig, TrainJob};
use serde::Serialize;

#[derive(Debug, Clone, Serialize)]
pub struct Row {
    pub stressor: String,
    pub level: f64,
    pub observed_s: f64,
    pub predicted_s: f64,
    pub error: f64,
}

#[derive(Debug, Clone, Serialize)]
pub struct Sensitivity {
    pub rows: Vec<Row>,
}

/// Sweeps both stressors on a mid-bottleneck mnist/BSP shape.
pub fn run(cfg: &ExpConfig) -> Sensitivity {
    let w = Workload::mnist_bsp().with_iterations(if cfg.quick { 1500 } else { 4000 });
    let n = 6u32;
    let profile = profile_workload(&w, cfg.m4(), cfg.seed);
    let model = CynthiaModel::new(profile);
    let shape = ClusterShape::homogeneous(cfg.m4(), n, 1);
    let predicted = model.predict_time(&shape, w.iterations);

    // The stressor grid is embarrassingly parallel: every point owns its
    // SimConfig, so the sweep fans out across threads in grid order.
    let mut grid: Vec<(&str, f64, SimConfig)> = Vec::new();
    for cv in [0.0, 0.03, 0.08, 0.15] {
        let mut c = cfg.sim(0);
        c.jitter_cv = cv;
        grid.push(("jitter-cv", cv, c));
    }
    for interference in [0.0, 0.1, 0.2, 0.35] {
        let mut c = cfg.sim(0);
        c.nic_interference = interference;
        grid.push(("nic-interference", interference, c));
    }
    let rows = rayon::par_map(grid, |(stressor, level, config)| {
        let observed = simulate(&TrainJob {
            workload: &w,
            cluster: ClusterSpec::homogeneous(cfg.m4(), n, 1),
            config,
        })
        .total_time;
        Row {
            stressor: stressor.to_string(),
            level,
            observed_s: observed,
            predicted_s: predicted,
            error: (predicted - observed) / observed,
        }
    });
    Sensitivity { rows }
}

impl Sensitivity {
    /// Renders the sweep.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.stressor.clone(),
                    format!("{:.2}", r.level),
                    format!("{:.0}", r.observed_s),
                    format!("{:.0}", r.predicted_s),
                    format!("{:+.1}%", r.error * 100.0),
                ]
            })
            .collect();
        format!(
            "Sensitivity: prediction error under unmodelled conditions\n{}",
            render_table(
                &["stressor", "level", "observed(s)", "predicted(s)", "error"],
                &rows
            )
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_conditions_are_accurate_and_errors_grow_smoothly() {
        let cfg = ExpConfig::quick();
        let s = run(&cfg);
        // At the calibrated operating point (3% jitter, no interference)
        // the prediction is tight.
        let base = s
            .rows
            .iter()
            .find(|r| r.stressor == "jitter-cv" && (r.level - 0.03).abs() < 1e-9)
            .unwrap();
        assert!(
            base.error.abs() < 0.10,
            "baseline error {:.1}%",
            base.error * 100.0
        );
        // Interference slows training, so the (uninformed) prediction
        // becomes optimistic monotonically.
        let interf: Vec<&Row> = s
            .rows
            .iter()
            .filter(|r| r.stressor == "nic-interference")
            .collect();
        for pair in interf.windows(2) {
            assert!(
                pair[1].observed_s >= pair[0].observed_s * 0.999,
                "more interference cannot speed things up: {pair:?}"
            );
        }
        // At 35% stolen bandwidth the error is clearly visible (the study
        // is useful) but not catastrophic (service degrades gracefully).
        let worst = interf.last().unwrap();
        assert!(
            worst.error < -0.03 && worst.error > -0.60,
            "worst-case error {:.1}%",
            worst.error * 100.0
        );
    }
}
