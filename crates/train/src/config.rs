//! Simulation configuration.

use serde::{Deserialize, Serialize};

/// Steady-state extrapolation: simulate `warmup + measure` iterations in
/// full detail, then extend the run analytically from the measured
/// steady-state iteration time. Loss curves for the extrapolated portion
/// come from the same seeded convergence generator, so the output is
/// statistically indistinguishable from a full run (validated by the
/// engine test `fast_forward_matches_exact_run_within_tolerance`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FastForward {
    /// Iterations excluded from the steady-state window.
    pub warmup: u64,
    /// Iterations measured before extrapolating.
    pub measure: u64,
}

impl FastForward {
    /// Total iterations simulated in detail.
    pub fn horizon(&self) -> u64 {
        self.warmup + self.measure
    }
}

/// Knobs of the ground-truth simulator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Master seed; every stochastic stream derives from it.
    pub seed: u64,
    /// Coefficient of variation of per-segment compute jitter
    /// (the paper repeats runs three times and reports error bars; 3% is
    /// typical iteration-time variance on shared cloud CPUs).
    pub jitter_cv: f64,
    /// Number of parameter shards for layer-wise pipelining and multi-PS
    /// sharding. The effective count is `max(chunks, 8 · n_ps)` clamped to
    /// `1..=32`.
    pub chunks: usize,
    /// Optional steady-state extrapolation.
    pub fast_forward: Option<FastForward>,
    /// Approximate number of points kept in the loss curve.
    pub loss_samples: usize,
    /// Stale-synchronous-parallel slack (the paper's ref. \[14\]): a BSP
    /// worker may compute iteration `i` with parameters as old as version
    /// `i − ssp_slack`. `0` (the default) is strict BSP. Slack absorbs
    /// transient jitter and pipeline hiccups; it cannot outrun a
    /// *systematically* slow straggler, because bounded staleness still
    /// ties global progress to the slowest worker — the `ssp` experiment
    /// demonstrates both halves.
    pub ssp_slack: u32,
    /// Fraction of each PS NIC consumed by co-located background traffic
    /// (multi-tenant interference, the lineage of the authors' iAware
    /// work). `0.0` = dedicated instances. The *predictor* is never told
    /// about this — the sensitivity experiment measures how far
    /// interference can grow before predictions degrade.
    pub nic_interference: f64,
    /// Window (seconds) for bucketing PS NIC throughput time series; it
    /// must be finite and positive, which the engine checks when built.
    pub throughput_window: f64,
}

impl SimConfig {
    /// Full-detail simulation with the default jitter.
    pub fn exact(seed: u64) -> Self {
        SimConfig {
            seed,
            jitter_cv: 0.03,
            chunks: 8,
            fast_forward: None,
            loss_samples: 512,
            ssp_slack: 0,
            nic_interference: 0.0,
            throughput_window: 10.0,
        }
    }

    /// Fast configuration for tests and searches: short steady-state
    /// window, extrapolated tail.
    pub fn fast(seed: u64) -> Self {
        SimConfig {
            fast_forward: Some(FastForward {
                warmup: 10,
                measure: 60,
            }),
            ..Self::exact(seed)
        }
    }

    /// Deterministic configuration (no jitter) for calibration tests.
    pub fn deterministic(seed: u64) -> Self {
        SimConfig {
            jitter_cv: 0.0,
            ..Self::exact(seed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_consistent() {
        let e = SimConfig::exact(1);
        assert!(e.fast_forward.is_none());
        assert!(e.jitter_cv > 0.0);

        let f = SimConfig::fast(1);
        let ff = f.fast_forward.unwrap();
        assert_eq!(ff.horizon(), 70);

        let d = SimConfig::deterministic(1);
        assert_eq!(d.jitter_cv, 0.0);
    }
}
