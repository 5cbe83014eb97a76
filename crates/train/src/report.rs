//! Training run reports: everything the paper's evaluation measures.

use cynthia_models::SyncMode;
use cynthia_sim::metrics::Stats;
use serde::{Deserialize, Serialize};

/// The observable outcome of one simulated training run. Field-by-field
/// mapping to the paper's artifacts:
///
/// * `total_time` — Figs. 1, 6, 8–13 (training time).
/// * `worker_cpu_util` / `ps_cpu_util` — Table 2.
/// * `ps_nic_series` — Figs. 2 and 7 (PS network throughput over time).
/// * `total_comp_time` / `total_comm_time` — Fig. 3 (breakdown).
/// * `loss_curve` — Fig. 4.
/// * `staleness` — the ASP mechanism behind Eq. (1)'s √n factor.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainingReport {
    /// Workload id, e.g. `"mnist DNN/BSP"`.
    pub workload: String,
    pub sync: SyncMode,
    pub n_workers: u32,
    pub n_ps: u32,
    /// Target global updates (Table 1's #iterations).
    pub iterations: u64,
    /// Wall-clock training time, seconds (extrapolated if `extrapolated`).
    pub total_time: f64,
    /// Global updates simulated in full detail.
    pub simulated_iterations: u64,
    /// Virtual time covered by detailed simulation.
    pub simulated_time: f64,
    /// Whether the tail was extrapolated from the steady-state window.
    pub extrapolated: bool,
    /// Per-iteration wall time over the measured window.
    pub iter_time: Stats,
    /// Per-iteration compute time (slowest worker for BSP; committing
    /// worker for ASP).
    pub comp_time: Stats,
    /// Per-iteration communication time (union of intervals with any
    /// in-flight push/apply/pull belonging to the iteration).
    pub comm_time: Stats,
    /// `comp_time.mean × iterations` — Fig. 3's "computation time" curve.
    pub total_comp_time: f64,
    /// `comm_time.mean × iterations` — Fig. 3's "communication time".
    pub total_comm_time: f64,
    /// Average CPU utilization per worker over the simulated window.
    pub worker_cpu_util: Vec<f64>,
    /// Average CPU utilization per PS node.
    pub ps_cpu_util: Vec<f64>,
    /// Mean NIC throughput per PS node, MB/s, over the simulated window.
    pub ps_nic_mean_mbps: Vec<f64>,
    /// Bucketed NIC throughput series per PS node: `(time, MB/s)`.
    pub ps_nic_series: Vec<Vec<(f64, f64)>>,
    /// `(global update count, loss)` samples.
    pub loss_curve: Vec<(u64, f64)>,
    /// Loss at the end of training.
    pub final_loss: f64,
    /// ASP parameter staleness (in missed updates); all-zero for BSP.
    pub staleness: Stats,
    /// Worker revocations that actually disrupted the run (crashes and
    /// departures of a fault plan, e.g. spot reclaims).
    #[serde(default)]
    pub revocations: u32,
    /// Repairs completed: replacement workers that finished their
    /// checkpoint restore and re-joined the computation.
    #[serde(default)]
    pub repairs: u32,
    /// Wall-clock seconds the whole fleet was paused by a PS outage
    /// (crash to recovery, including failover/reboot latency).
    #[serde(default)]
    pub downtime_secs: f64,
    /// Wall-clock seconds (outside downtime) spent with at least one
    /// active impairment: a straggler episode, a degraded link, a PS
    /// stall, or a worker absent/restoring after a crash.
    #[serde(default)]
    pub degraded_secs: f64,
    /// Committed updates rolled back by PS crashes (lost to the last
    /// checkpoint and re-executed).
    #[serde(default)]
    pub lost_updates: u64,
    /// Updates re-committed while climbing back to the pre-rollback
    /// high-water mark. Equals `lost_updates` in a completed run, so
    /// `simulated_iterations + (lost − replayed)` is conserved.
    #[serde(default)]
    pub replayed_updates: u64,
    /// Policy-driven worker restart attempts (retry-budget consumption).
    #[serde(default)]
    pub retries: u32,
    /// PS crash recoveries: chunk failovers onto surviving servers, or
    /// checkpoint reboots when no failover capacity exists.
    #[serde(default)]
    pub failovers: u32,
    /// `(virtual time, committed updates)` trajectory samples, including a
    /// marker at every checkpoint rollback — what the SLO guard projects
    /// deadline feasibility from.
    #[serde(default)]
    pub progress_curve: Vec<(f64, u64)>,
}

impl TrainingReport {
    /// Average worker CPU utilization across all workers.
    pub fn mean_worker_util(&self) -> f64 {
        if self.worker_cpu_util.is_empty() {
            0.0
        } else {
            self.worker_cpu_util.iter().sum::<f64>() / self.worker_cpu_util.len() as f64
        }
    }

    /// Average worker CPU utilization over a subset of workers (e.g. only
    /// the m4 workers of a heterogeneous cluster, as Table 2 reports).
    pub fn mean_worker_util_of(&self, indices: &[usize]) -> f64 {
        if indices.is_empty() {
            return 0.0;
        }
        indices
            .iter()
            .map(|i| self.worker_cpu_util[*i])
            .sum::<f64>()
            / indices.len() as f64
    }

    /// Average PS CPU utilization across PS nodes.
    pub fn mean_ps_util(&self) -> f64 {
        if self.ps_cpu_util.is_empty() {
            0.0
        } else {
            self.ps_cpu_util.iter().sum::<f64>() / self.ps_cpu_util.len() as f64
        }
    }

    /// Aggregate mean PS NIC throughput (summed across PS nodes), MB/s.
    pub fn total_ps_nic_mbps(&self) -> f64 {
        self.ps_nic_mean_mbps.iter().sum()
    }

    /// Loss value closest to the requested update count.
    pub fn loss_at(&self, updates: u64) -> Option<f64> {
        self.loss_curve
            .iter()
            .min_by_key(|(s, _)| s.abs_diff(updates))
            .map(|(_, l)| *l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stub() -> TrainingReport {
        TrainingReport {
            workload: "stub".into(),
            sync: SyncMode::Bsp,
            n_workers: 2,
            n_ps: 1,
            iterations: 100,
            total_time: 10.0,
            simulated_iterations: 100,
            simulated_time: 10.0,
            extrapolated: false,
            iter_time: Stats::of(&[0.1]),
            comp_time: Stats::of(&[0.08]),
            comm_time: Stats::of(&[0.05]),
            total_comp_time: 8.0,
            total_comm_time: 5.0,
            worker_cpu_util: vec![0.8, 0.6],
            ps_cpu_util: vec![0.5],
            ps_nic_mean_mbps: vec![30.0, 20.0],
            ps_nic_series: vec![vec![(5.0, 30.0)]],
            loss_curve: vec![(1, 2.0), (50, 1.0), (100, 0.5)],
            final_loss: 0.5,
            staleness: Stats::of(&[]),
            revocations: 0,
            repairs: 0,
            downtime_secs: 0.0,
            degraded_secs: 0.0,
            lost_updates: 0,
            replayed_updates: 0,
            retries: 0,
            failovers: 0,
            progress_curve: Vec::new(),
        }
    }

    #[test]
    fn aggregates() {
        let r = stub();
        assert!((r.mean_worker_util() - 0.7).abs() < 1e-12);
        assert!((r.mean_worker_util_of(&[0]) - 0.8).abs() < 1e-12);
        assert!((r.mean_ps_util() - 0.5).abs() < 1e-12);
        assert!((r.total_ps_nic_mbps() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn loss_lookup_picks_nearest() {
        let r = stub();
        assert_eq!(r.loss_at(45), Some(1.0));
        assert_eq!(r.loss_at(100), Some(0.5));
        assert_eq!(r.loss_at(2), Some(2.0));
    }
}
