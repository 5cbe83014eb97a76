//! Shared experiment plumbing: configuration, repeated runs with error
//! bars, and table rendering.

use cynthia_cloud::catalog::{default_catalog, Catalog};
use cynthia_cloud::instance::InstanceType;
use cynthia_models::Workload;
use cynthia_sim::metrics::Stats;
use cynthia_train::{simulate, ClusterSpec, FastForward, SimConfig, TrainJob, TrainingReport};
use serde::Serialize;

/// Experiment-wide configuration.
#[derive(Debug, Clone)]
pub struct ExpConfig {
    pub catalog: Catalog,
    /// Master seed; repeat `r` uses `seed + r`.
    pub seed: u64,
    /// Independent repetitions for error bars (the paper repeats each
    /// workload three times).
    pub repeats: u32,
    /// Steady-state window for fast-forwarded sweeps.
    pub fast_forward: FastForward,
    /// Quick mode shrinks windows further for smoke tests.
    pub quick: bool,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            catalog: default_catalog(),
            seed: 2019,
            repeats: 3,
            fast_forward: FastForward {
                warmup: 20,
                measure: 120,
            },
            quick: false,
        }
    }
}

impl ExpConfig {
    /// A configuration with small windows and one repeat, for smoke tests.
    pub fn quick() -> Self {
        ExpConfig {
            repeats: 1,
            fast_forward: FastForward {
                warmup: 5,
                measure: 40,
            },
            quick: true,
            ..Default::default()
        }
    }

    /// The m4.xlarge baseline instance.
    pub fn m4(&self) -> &InstanceType {
        self.catalog.expect("m4.xlarge")
    }

    /// The m1.xlarge straggler instance.
    pub fn m1(&self) -> &InstanceType {
        self.catalog.expect("m1.xlarge")
    }

    /// Simulation config for sweep runs (fast-forwarded).
    pub fn sim(&self, repeat: u32) -> SimConfig {
        SimConfig {
            fast_forward: Some(self.fast_forward),
            ..SimConfig::exact(self.seed + repeat as u64)
        }
    }

    /// Simulation config for full-detail runs (time-series figures).
    pub fn sim_exact(&self, repeat: u32) -> SimConfig {
        SimConfig::exact(self.seed + repeat as u64)
    }

    /// Runs `workload` on `cluster` once per repeat and returns all
    /// reports. Repeats run in parallel — each owns its seeded `SimConfig`
    /// end to end, so the reports are identical to a serial loop, in
    /// repeat order.
    pub fn run_repeated(&self, workload: &Workload, cluster: &ClusterSpec) -> Vec<TrainingReport> {
        rayon::par_map((0..self.repeats).collect(), |r| {
            simulate(&TrainJob {
                workload,
                cluster: cluster.clone(),
                config: self.sim(r),
            })
        })
    }

    /// Mean ± std of training time across repeats.
    pub fn time_stats(&self, workload: &Workload, cluster: &ClusterSpec) -> Stats {
        let times: Vec<f64> = self
            .run_repeated(workload, cluster)
            .iter()
            .map(|r| r.total_time)
            .collect();
        Stats::of(&times)
    }
}

/// A `mean ± std` measurement cell.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Measure {
    pub mean: f64,
    pub std: f64,
}

impl From<Stats> for Measure {
    fn from(s: Stats) -> Measure {
        Measure {
            mean: s.mean,
            std: s.std,
        }
    }
}

impl std::fmt::Display for Measure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.1} ± {:.1}", self.mean, self.std)
    }
}

/// Relative prediction error `(predicted − observed)/observed`, signed.
pub fn rel_err(predicted: f64, observed: f64) -> f64 {
    (predicted - observed) / observed
}

/// Formats a signed relative error as a percentage.
pub fn pct(e: f64) -> String {
    format!("{:+.1}%", e * 100.0)
}

/// Renders rows of equal-width columns as an aligned text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&head, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_config_is_smaller() {
        let q = ExpConfig::quick();
        let d = ExpConfig::default();
        assert!(q.repeats < d.repeats);
        assert!(q.fast_forward.measure < d.fast_forward.measure);
    }

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["n", "time"],
            &[
                vec!["1".into(), "10.0".into()],
                vec!["100".into(), "3.5".into()],
            ],
        );
        assert!(t.contains("n"));
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn rel_err_is_signed() {
        assert!(rel_err(110.0, 100.0) > 0.0);
        assert!(rel_err(90.0, 100.0) < 0.0);
        assert_eq!(pct(0.105), "+10.5%");
    }
}
