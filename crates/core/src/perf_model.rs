//! The analytical DDNN training performance model (Sec. 3, Eqs. 2–7).
//!
//! The model consumes only (a) the one-shot profile of the workload
//! ([`crate::profiler::ProfileData`]) and (b) static per-instance-type
//! capabilities, and predicts iteration/training time for any cluster
//! shape.
//!
//! ## Composition
//!
//! * Computation (Eq. 4): `t_comp = w_iter / (n · min_j c_j)` for BSP (the
//!   global batch splits across workers and the slowest one paces the
//!   barrier) and `w_iter / c_j` per worker for ASP.
//! * Communication (Eq. 5): one iteration moves `2·g_param` per worker
//!   through the parameter servers. The divisor is the PS tier's
//!   *effective service bandwidth*: the NIC supply `Σ b_ps` **and** the
//!   CPU-ingest supply `Σ c_ps / κ`, where `κ = c_prof / b_prof` is the
//!   profiled CPU cost per MB of PS traffic. This is Sec. 3's
//!   demand/supply reasoning applied to the PS data path: whichever PS
//!   resource exhausts first bounds the achievable transfer rate — exactly
//!   the CPU-and-bandwidth hotspot behaviour of Table 2/Fig. 2.
//! * Iteration time (Eq. 3): `max(t_comp, t_comm)` for BSP (TensorFlow's
//!   `SyncReplicasOptimizer` overlaps the two; footnote 2), serial
//!   `t_comp + t_comm` for ASP.
//! * ASP cluster throughput: workers cycle independently, so the global
//!   update rate is `Σ_j 1/t_iter_j`, floored by the PS service bandwidth
//!   once aggregate demand saturates it.
//!
//! The paper-literal worker-utilization throttle (the `u_wk` formula of
//! Sec. 3) is exposed via [`CynthiaModel::worker_utilization`] and is what
//! the provisioner's Eq. (12) ratio uses; ablation toggles let benchmarks
//! degrade the model into the bottleneck-oblivious / non-overlapping
//! baselines to quantify each ingredient's contribution.
//!
//! ## Band evaluation
//!
//! Alg. 1 scores every worker count of an `(instance type, n_ps)` band,
//! so [`PerfModel::predict_band`] predicts a whole band into a buffer.
//! Its contract is exactness: entry `i` equals
//! `predict_time(&ClusterShape::homogeneous(ty, first_n + i, n_ps), u_i)`
//! bit for bit. The default makes exactly those calls, growing one shape
//! by a worker per candidate. [`CynthiaModel`] fills a band without
//! building shapes:
//!
//! * BSP: on a homogeneous shape the slowest worker is the type's core
//!   itself and the service bandwidth depends on `n_ps` only, so each
//!   candidate runs `predict_time`'s operations on the same operands.
//! * Bottleneck-aware ASP: the think-time sum over `n` workers is a fold,
//!   so one running sum gives every candidate's sum, and the exact MVA
//!   runs 8 recurrences side by side, one lane per worker count. Each
//!   lane does the serial recurrence's IEEE operations in its order and
//!   is read at its own customer count; the CPU overlaps the lanes'
//!   division chains.
//! * The ablated ASP form (`bottleneck_aware = false`) keeps the default.

use crate::profiler::ProfileData;
use cynthia_cloud::instance::InstanceType;
use cynthia_models::SyncMode;
use cynthia_train::ClusterSpec;
use serde::{Deserialize, Serialize};

/// The capability summary of a candidate cluster, as the model sees it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterShape {
    /// Per-worker CPU capability, GFLOPS.
    pub worker_gflops: Vec<f64>,
    /// Aggregate PS CPU supply `Σ c_ps`, GFLOPS.
    pub ps_total_gflops: f64,
    /// Aggregate PS NIC supply `Σ b_ps`, MB/s.
    pub ps_total_bw: f64,
    /// Number of parameter servers the aggregates are spread over.
    pub n_ps: u32,
}

impl ClusterShape {
    /// A homogeneous shape of `n` workers and `n_ps` PS nodes of one type.
    pub fn homogeneous(ty: &InstanceType, n: u32, n_ps: u32) -> Self {
        assert!(n > 0 && n_ps > 0, "degenerate shape");
        let (ps_total_gflops, ps_total_bw) = ps_supply(ty, n_ps);
        ClusterShape {
            worker_gflops: vec![ty.core_gflops; n as usize],
            ps_total_gflops,
            ps_total_bw,
            n_ps,
        }
    }

    /// The shape of an explicit (possibly heterogeneous) cluster spec.
    pub fn from_spec(spec: &ClusterSpec) -> Self {
        ClusterShape {
            worker_gflops: spec.worker_gflops(),
            ps_total_gflops: spec.ps.iter().map(|t| t.node_gflops).sum(),
            ps_total_bw: spec.ps.iter().map(|t| t.nic_mbps).sum(),
            n_ps: spec.n_ps(),
        }
    }

    /// Number of workers.
    pub fn n_workers(&self) -> u32 {
        self.worker_gflops.len() as u32
    }

    /// The slowest worker's capability (Eq. 4's `min_j`).
    pub fn min_worker_gflops(&self) -> f64 {
        self.worker_gflops
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min)
    }
}

/// A DDNN training-time predictor.
pub trait PerfModel {
    /// Human-readable model name.
    fn name(&self) -> &str;

    /// Predicted duration of one iteration on the shape. For ASP this is a
    /// single worker's cycle time on the slowest worker (reported for
    /// Fig. 6-style comparisons); use [`PerfModel::predict_time`] for
    /// whole-run time.
    fn iter_time(&self, shape: &ClusterShape) -> f64;

    /// Predicted wall-clock time to complete `total_updates` global
    /// updates.
    fn predict_time(&self, shape: &ClusterShape, total_updates: u64) -> f64;

    /// Predicted times of one Alg. 1 band: homogeneous clusters of `ty`
    /// with `n_ps` PS nodes and `first_n`, `first_n + 1`, … workers.
    /// `times[i]` is, bit for bit,
    /// `predict_time(&ClusterShape::homogeneous(ty, first_n + i, n_ps),
    /// total_updates[i])`; the default makes those calls, on an equal
    /// shape.
    fn predict_band(
        &self,
        ty: &InstanceType,
        n_ps: u32,
        first_n: u32,
        total_updates: &[u64],
        times: &mut [f64],
    ) {
        predict_each(self, ty, n_ps, first_n, total_updates, times);
    }
}

/// [`PerfModel::predict_band`] one `predict_time` call per candidate.
/// The shape of `n + 1` workers is the shape of `n` plus one worker, so
/// one shape grows across the band instead of one being built per
/// candidate.
fn predict_each<M: PerfModel + ?Sized>(
    model: &M,
    ty: &InstanceType,
    n_ps: u32,
    first_n: u32,
    total_updates: &[u64],
    times: &mut [f64],
) {
    assert_eq!(total_updates.len(), times.len(), "one time per candidate");
    if total_updates.is_empty() {
        return;
    }
    assert!(first_n > 0 && n_ps > 0, "degenerate shape");
    let mut worker_gflops = Vec::with_capacity(first_n as usize + total_updates.len());
    worker_gflops.resize(first_n as usize, ty.core_gflops);
    let (ps_total_gflops, ps_total_bw) = ps_supply(ty, n_ps);
    let mut shape = ClusterShape {
        worker_gflops,
        ps_total_gflops,
        ps_total_bw,
        n_ps,
    };
    for (&updates, time) in total_updates.iter().zip(times) {
        *time = model.predict_time(&shape, updates);
        shape.worker_gflops.push(ty.core_gflops);
    }
}

/// The PS tier's aggregate `(Σ c_ps, Σ b_ps)` for `n_ps` nodes of `ty`.
fn ps_supply(ty: &InstanceType, n_ps: u32) -> (f64, f64) {
    (ty.node_gflops * n_ps as f64, ty.nic_mbps * n_ps as f64)
}

/// The Cynthia performance model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CynthiaModel {
    /// The one-shot profile (Table 4 quantities) the predictions scale from.
    pub profile: ProfileData,
    /// Model BSP's computation/communication overlap (Eq. 3's `max`).
    /// Disabled in ablations to emulate additive baselines.
    pub overlap: bool,
    /// Account for the PS CPU-ingest bound in the communication term.
    /// Disabled in ablations (bandwidth-only Eq. 5).
    pub bottleneck_aware: bool,
}

impl CynthiaModel {
    /// The full model as evaluated in Sec. 5.
    pub fn new(profile: ProfileData) -> Self {
        CynthiaModel {
            profile,
            overlap: true,
            bottleneck_aware: true,
        }
    }

    /// The PS tier's effective service bandwidth for parameter traffic,
    /// MB/s (see module docs).
    pub fn service_bandwidth(&self, shape: &ClusterShape) -> f64 {
        self.service_bw(shape.ps_total_gflops, shape.ps_total_bw)
    }

    /// [`CynthiaModel::service_bandwidth`] from the PS tier's aggregates.
    fn service_bw(&self, ps_total_gflops: f64, ps_total_bw: f64) -> f64 {
        if self.bottleneck_aware {
            let kappa = self.profile.kappa();
            let ingest = if kappa > 0.0 {
                ps_total_gflops / kappa
            } else {
                f64::INFINITY
            };
            ps_total_bw.min(ingest)
        } else {
            ps_total_bw
        }
    }

    /// Eq. (4) computation time for one iteration (BSP: slowest worker on
    /// a 1/n share of the batch; ASP: full batch on the slowest worker).
    pub fn t_comp(&self, shape: &ClusterShape) -> f64 {
        let w = self.profile.w_iter_gflops;
        match self.profile.sync {
            SyncMode::Bsp => self.bsp_comp(shape.n_workers() as f64, shape.min_worker_gflops()),
            SyncMode::Asp => w / shape.min_worker_gflops(),
        }
    }

    /// BSP's Eq. (4) for `n` workers paced by one of `min_c` GFLOPS.
    fn bsp_comp(&self, n: f64, min_c: f64) -> f64 {
        self.profile.w_iter_gflops / (n * min_c)
    }

    /// BSP's Eq. (5) for `n` workers and service bandwidth `bw`.
    fn bsp_comm(&self, n: f64, bw: f64) -> f64 {
        2.0 * self.profile.g_param_mb * n / bw
    }

    /// BSP's Eq. (3) from its two terms.
    fn bsp_iter(&self, comp: f64, comm: f64) -> f64 {
        if self.overlap {
            comp.max(comm)
        } else {
            comp + comm
        }
    }

    /// Eq. (5) communication time for one iteration.
    pub fn t_comm(&self, shape: &ClusterShape) -> f64 {
        let g2 = 2.0 * self.profile.g_param_mb;
        let bw = self.service_bandwidth(shape);
        match self.profile.sync {
            SyncMode::Bsp => self.bsp_comm(shape.n_workers() as f64, bw),
            SyncMode::Asp => {
                if self.bottleneck_aware {
                    // Serial per-update path: transfer on the NIC, then
                    // CPU ingest (the two are not pipelined within one
                    // worker's update).
                    let kappa = self.profile.kappa();
                    g2 / shape.ps_total_bw + g2 * kappa / shape.ps_total_gflops
                } else {
                    g2 / shape.ps_total_bw
                }
            }
        }
    }

    /// Eq. (3) iteration time.
    fn t_iter(&self, shape: &ClusterShape) -> f64 {
        let comp = self.t_comp(shape);
        let comm = self.t_comm(shape);
        match self.profile.sync {
            SyncMode::Bsp => self.bsp_iter(comp, comm),
            SyncMode::Asp => comp + comm,
        }
    }

    /// The resource-scaling ratio of Eq. (7).
    pub fn r_scale(&self, shape: &ClusterShape) -> f64 {
        let cb = self.profile.c_base_gflops;
        match self.profile.sync {
            SyncMode::Bsp => shape.n_workers() as f64 * shape.min_worker_gflops() / cb,
            SyncMode::Asp => shape.worker_gflops.iter().sum::<f64>() / cb,
        }
    }

    /// The paper's predicted worker CPU utilization under PS bottleneck
    /// (Sec. 3, demand/supply ratio): `min(b_sup/b_dem, c_sup/c_dem, 1)`.
    pub fn worker_utilization(&self, shape: &ClusterShape) -> f64 {
        let r = self.r_scale(shape);
        let c_demand = self.profile.c_prof_gflops * r;
        let b_demand = self.profile.b_prof_mbps * r;
        let mut u: f64 = 1.0;
        if c_demand > shape.ps_total_gflops {
            u = u.min(shape.ps_total_gflops / c_demand);
        }
        if b_demand > shape.ps_total_bw {
            u = u.min(shape.ps_total_bw / b_demand);
        }
        u
    }

    /// Whether the PS tier bottlenecks for this shape (Sec. 3's condition
    /// `c_demand > c_supply || b_demand > b_supply`).
    pub fn bottleneck_occurs(&self, shape: &ClusterShape) -> bool {
        self.worker_utilization(shape) < 1.0
    }

    /// Predicted fraction of time a worker spends computing — the model's
    /// own estimate of Table 2's worker CPU utilization. For BSP this is
    /// `t_comp / t_iter` (communication on the critical path idles the
    /// workers); for ASP it is the compute share of the MVA cycle. More
    /// faithful than the coarse demand/supply `u` of
    /// [`CynthiaModel::worker_utilization`], which scales demand linearly
    /// with workers while a BSP cluster's PS demand per second actually
    /// grows quadratically (iterations also get faster).
    pub fn predicted_worker_busy_fraction(&self, shape: &ClusterShape) -> f64 {
        match self.profile.sync {
            SyncMode::Bsp => {
                let t = self.t_iter(shape);
                if t <= 0.0 {
                    0.0
                } else {
                    (self.t_comp(shape) / t).min(1.0)
                }
            }
            SyncMode::Asp => {
                let cycle = shape.n_workers() as f64 / self.asp_throughput(shape);
                let comp = self.profile.w_iter_gflops / shape.min_worker_gflops();
                (comp / cycle).min(1.0)
            }
        }
    }

    /// ASP cluster throughput (global updates per second) from exact
    /// mean-value analysis of the closed queueing network each ASP worker
    /// forms: gradient computation is a *delay* station (dedicated core,
    /// think time `w_iter/c_j`), while the PS NIC and the PS CPU are
    /// *queueing* stations with per-update service demands `2·g/Σb` and
    /// `2·g·κ/Σc` (κ from the one-shot profile). MVA captures both the
    /// saturation floor and the queueing inflation near the knee that a
    /// fluid model misses — this is how "leveraging the resource
    /// consumption of workers and PS nodes" (Sec. 3) becomes a predictor
    /// that stays within a few percent across Figs. 6/8/9/10.
    ///
    /// Heterogeneous workers are folded into a single class with the
    /// harmonic-mean think time, which preserves the aggregate compute
    /// throughput `Σ 1/Z_j`.
    pub fn asp_throughput(&self, shape: &ClusterShape) -> f64 {
        let n = shape.n_workers();
        let inv_z_sum: f64 = shape
            .worker_gflops
            .iter()
            .map(|c| c / self.profile.w_iter_gflops)
            .sum();
        let z_mean = n as f64 / inv_z_sum;
        let demands = self.asp_demands(shape.ps_total_gflops, shape.ps_total_bw);
        mva::<1>(n, 1, [z_mean], demands)[0]
    }

    /// The MVA's per-update service demands `[2·g/Σb, 2·g·κ/Σc]` at the PS
    /// NIC and the PS CPU.
    fn asp_demands(&self, ps_total_gflops: f64, ps_total_bw: f64) -> [f64; 2] {
        let g2 = 2.0 * self.profile.g_param_mb;
        [
            g2 / ps_total_bw,
            g2 * self.profile.kappa() / ps_total_gflops,
        ]
    }

    /// BSP's [`PerfModel::predict_band`]. On a homogeneous shape the
    /// slowest worker is `c` itself (`min_worker_gflops` folds `min` from
    /// +∞ over copies of `c`, which is `∞.min(c)`), and the service
    /// bandwidth depends on `n_ps` only, so each candidate runs
    /// `predict_time`'s operations on the same operands.
    fn bsp_band(
        &self,
        ty: &InstanceType,
        n_ps: u32,
        first_n: u32,
        updates: &[u64],
        times: &mut [f64],
    ) {
        let (ps_gflops, ps_bw) = ps_supply(ty, n_ps);
        let bw = self.service_bw(ps_gflops, ps_bw);
        let min_c = f64::INFINITY.min(ty.core_gflops);
        for ((&u, time), n) in updates.iter().zip(times).zip(first_n..) {
            let n = n as f64;
            *time = u as f64 * self.bsp_iter(self.bsp_comp(n, min_c), self.bsp_comm(n, bw));
        }
    }

    /// Bottleneck-aware ASP's [`PerfModel::predict_band`], [`MVA_LANES`]
    /// candidates per [`mva`] pass. `asp_throughput` sums `c/w` over the
    /// workers, a fold from −0.0, so the sum for `n` workers is the sum
    /// for `n − 1` plus one addition: one running sum over the band gives
    /// every candidate's think time `n / Σ` bit for bit. The demands
    /// depend on `n_ps` only.
    fn asp_band(
        &self,
        ty: &InstanceType,
        n_ps: u32,
        first_n: u32,
        updates: &[u64],
        times: &mut [f64],
    ) {
        if updates.is_empty() {
            return;
        }
        let (ps_gflops, ps_bw) = ps_supply(ty, n_ps);
        let demands = self.asp_demands(ps_gflops, ps_bw);
        let inv_z = ty.core_gflops / self.profile.w_iter_gflops;
        let mut inv_z_sum = -0.0;
        for _ in 1..first_n {
            inv_z_sum += inv_z;
        }
        let mut n0 = first_n;
        for (updates, times) in updates.chunks(MVA_LANES).zip(times.chunks_mut(MVA_LANES)) {
            let mut z = [0.0; MVA_LANES];
            for (z_n, n) in z[..updates.len()].iter_mut().zip(n0..) {
                inv_z_sum += inv_z;
                *z_n = n as f64 / inv_z_sum;
            }
            // Unread lanes repeat the last think time, a harmless operand.
            let last = z[updates.len() - 1];
            z[updates.len()..].fill(last);
            let x = mva(n0, updates.len(), z, demands);
            for ((time, &u), x) in times.iter_mut().zip(updates).zip(x) {
                *time = u as f64 / x;
            }
            n0 += MVA_LANES as u32;
        }
    }
}

/// Candidates one ASP band pass solves side by side.
const MVA_LANES: usize = 8;

/// Exact single-class MVA of `L` closed networks side by side, each with
/// one delay station and the queueing stations of `demands`. Lane `j`
/// has think time `z[j]` and `n0 + j` customers, so it is read at
/// customer step `k = n0 + j`; lanes at and past `used` are not read, and
/// the pass stops at the last one read. Every lane runs the serial
/// recurrence's IEEE operations in its order:
///
/// `r_i = d_i·(1 + q_i)`, `x = k / (z + (r_0 + r_1))`, `q_i = x·r_i`,
///
/// so `x[j]` is the steady-state throughput of `n0 + j` customers bit for
/// bit (the serial sum's −0.0 start adds nothing). Independent lanes let
/// the CPU overlap their division chains.
fn mva<const L: usize>(n0: u32, used: usize, z: [f64; L], demands: [f64; 2]) -> [f64; L] {
    assert!(n0 >= 1, "MVA needs at least one customer");
    assert!(used <= L, "more lanes read than run");
    let [d0, d1] = demands;
    let mut q0 = [0.0f64; L];
    let mut q1 = [0.0f64; L];
    let mut x = [0.0f64; L];
    let mut out = [0.0f64; L];
    for k in 1..n0 + used as u32 {
        let kf = k as f64;
        for j in 0..L {
            let r0 = d0 * (1.0 + q0[j]);
            let r1 = d1 * (1.0 + q1[j]);
            x[j] = kf / (z[j] + (r0 + r1));
            q0[j] = x[j] * r0;
            q1[j] = x[j] * r1;
        }
        if k >= n0 {
            let j = (k - n0) as usize;
            out[j] = x[j];
        }
    }
    out
}

impl PerfModel for CynthiaModel {
    fn name(&self) -> &str {
        if self.overlap && self.bottleneck_aware {
            "Cynthia"
        } else {
            "Cynthia(ablated)"
        }
    }

    fn iter_time(&self, shape: &ClusterShape) -> f64 {
        match self.profile.sync {
            SyncMode::Bsp => self.t_iter(shape),
            SyncMode::Asp => {
                if self.bottleneck_aware {
                    // Mean per-worker cycle time in the closed network.
                    shape.n_workers() as f64 / self.asp_throughput(shape)
                } else {
                    self.t_iter(shape)
                }
            }
        }
    }

    fn predict_time(&self, shape: &ClusterShape, total_updates: u64) -> f64 {
        let s = total_updates as f64;
        match self.profile.sync {
            SyncMode::Bsp => s * self.t_iter(shape),
            SyncMode::Asp => {
                if !self.bottleneck_aware {
                    // Ablated: independent worker cycles, no PS contention.
                    let comm = self.t_comm(shape);
                    let rate: f64 = shape
                        .worker_gflops
                        .iter()
                        .map(|c| 1.0 / (self.profile.w_iter_gflops / c + comm))
                        .sum();
                    return s / rate;
                }
                s / self.asp_throughput(shape)
            }
        }
    }

    fn predict_band(
        &self,
        ty: &InstanceType,
        n_ps: u32,
        first_n: u32,
        total_updates: &[u64],
        times: &mut [f64],
    ) {
        assert!(first_n > 0 && n_ps > 0, "degenerate shape");
        assert_eq!(total_updates.len(), times.len(), "one time per candidate");
        match self.profile.sync {
            SyncMode::Bsp => self.bsp_band(ty, n_ps, first_n, total_updates, times),
            SyncMode::Asp if self.bottleneck_aware => {
                self.asp_band(ty, n_ps, first_n, total_updates, times)
            }
            SyncMode::Asp => predict_each(self, ty, n_ps, first_n, total_updates, times),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::profiler::profile_workload;
    use cynthia_cloud::default_catalog;
    use cynthia_models::Workload;
    use proptest::prelude::*;

    /// The four Table 1 workloads and their m4.xlarge profiles (seed 5),
    /// built once.
    pub(crate) fn table1_profiles() -> &'static [(Workload, ProfileData)] {
        static PROFILES: std::sync::OnceLock<Vec<(Workload, ProfileData)>> =
            std::sync::OnceLock::new();
        PROFILES.get_or_init(|| {
            let cat = default_catalog();
            [
                Workload::mnist_bsp(),
                Workload::cifar10_bsp(),
                Workload::resnet32_asp(),
                Workload::vgg19_asp(),
            ]
            .into_iter()
            .map(|w| {
                let p = profile_workload(&w, cat.expect("m4.xlarge"), 5);
                (w, p)
            })
            .collect()
        })
    }

    /// Exact single-class MVA, one customer step at a time: the serial
    /// recurrence [`mva`] runs in lanes, kept as its oracle.
    fn mva_throughput(z: f64, n: u32, demands: &[f64]) -> f64 {
        assert!(n >= 1, "MVA needs at least one customer");
        let mut queue = vec![0.0f64; demands.len()];
        let mut x = 0.0;
        for k in 1..=n {
            let residence: Vec<f64> = demands
                .iter()
                .zip(&queue)
                .map(|(d, q)| d * (1.0 + q))
                .collect();
            let total: f64 = residence.iter().sum();
            x = k as f64 / (z + total);
            for (q, r) in queue.iter_mut().zip(&residence) {
                *q = x * r;
            }
        }
        x
    }

    /// Runs `lo..=hi` through `mva::<L>` in passes of `L` lanes, each
    /// lane with its own think time, and checks every lane against the
    /// serial oracle.
    fn lanes_match_serial<const L: usize>(
        lo: u32,
        hi: u32,
        z: &[f64],
        demands: [f64; 2],
    ) -> Result<(), TestCaseError> {
        let mut n0 = lo;
        while n0 <= hi {
            let used = ((hi - n0 + 1) as usize).min(L);
            let mut zs = [1.0; L];
            for (j, zj) in zs[..used].iter_mut().enumerate() {
                *zj = z[(n0 as usize + j) % z.len()];
            }
            let x = mva::<L>(n0, used, zs, demands);
            for (j, (&x, &z)) in x.iter().zip(&zs).take(used).enumerate() {
                let n = n0 + j as u32;
                let want = mva_throughput(z, n, &demands);
                prop_assert_eq!(x.to_bits(), want.to_bits(), "L = {}, n = {}", L, n);
            }
            n0 += L as u32;
        }
        Ok(())
    }

    /// `predict_band` against one `predict_time` per candidate.
    fn band_matches_predict_time(
        model: &CynthiaModel,
        ty: &InstanceType,
        n_ps: u32,
        first_n: u32,
        updates: &[u64],
    ) -> Result<(), TestCaseError> {
        let mut times = vec![f64::NAN; updates.len()];
        model.predict_band(ty, n_ps, first_n, updates, &mut times);
        for ((&time, &u), n) in times.iter().zip(updates).zip(first_n..) {
            let want = model.predict_time(&ClusterShape::homogeneous(ty, n, n_ps), u);
            prop_assert_eq!(time.to_bits(), want.to_bits(), "n = {}", n);
        }
        Ok(())
    }

    fn mva_case(lo: u32, len: u32, z: &[f64], d0: f64, d1: f64) -> Result<(), TestCaseError> {
        let hi = (lo + len).min(200);
        lanes_match_serial::<1>(lo, hi, z, [d0, d1])?;
        lanes_match_serial::<4>(lo, hi, z, [d0, d1])?;
        lanes_match_serial::<MVA_LANES>(lo, hi, z, [d0, d1])?;
        lanes_match_serial::<16>(lo, hi, z, [d0, d1])
    }

    /// A random band of a Table 1 profile, scaled, under one ablation:
    /// `(workload, w_iter and g_param factors, ablation, catalog type,
    /// n_ps, first_n, updates)`.
    type BandCase = (usize, f64, f64, u8, usize, u32, u32, Vec<u64>);

    fn band_cases() -> impl Strategy<Value = BandCase> {
        (
            (0usize..4, 0.25f64..4.0, 0.25f64..4.0, 0u8..3),
            (0usize..6, 1u32..5, 1u32..150),
            prop::collection::vec(1u64..1 << 40, 0..60),
        )
            .prop_map(|((wl, w, g, ab), (ty, n_ps, first_n), updates)| {
                (wl, w, g, ab, ty, n_ps, first_n, updates)
            })
    }

    fn band_case(
        (workload, w_scale, g_scale, ablation, ty, n_ps, first_n, updates): BandCase,
    ) -> Result<(), TestCaseError> {
        let mut profile = table1_profiles()[workload].1.clone();
        profile.w_iter_gflops *= w_scale;
        profile.g_param_mb *= g_scale;
        let model = CynthiaModel {
            profile,
            overlap: ablation != 1,
            bottleneck_aware: ablation != 2,
        };
        let cat = default_catalog();
        band_matches_predict_time(&model, &cat.types()[ty], n_ps, first_n, &updates)
    }

    fn think_times() -> impl Strategy<Value = Vec<f64>> {
        prop::collection::vec(1e-3f64..1e3, 1..16)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        #[test]
        fn mva_lanes_match_the_serial_recurrence(
            lo in 1u32..200,
            len in 0u32..200,
            z in think_times(),
            d0 in 1e-4f64..10.0,
            d1 in 0.0f64..10.0,
        ) {
            mva_case(lo, len, &z, d0, d1)?;
        }

        #[test]
        fn band_matches_predict_time_bit_for_bit(case in band_cases()) {
            band_case(case)?;
        }
    }

    // The same properties over 4,000 cases each, drawn from their own
    // seeds. Run with `cargo test --release -p cynthia-core -- --include-ignored`.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4000))]

        #[test]
        #[ignore = "4,000 cases; run with --include-ignored"]
        fn mva_lanes_match_the_serial_recurrence_4000(
            lo in 1u32..200,
            len in 0u32..200,
            z in think_times(),
            d0 in 1e-4f64..10.0,
            d1 in 0.0f64..10.0,
        ) {
            mva_case(lo, len, &z, d0, d1)?;
        }

        #[test]
        #[ignore = "4,000 cases; run with --include-ignored"]
        fn band_matches_predict_time_bit_for_bit_4000(case in band_cases()) {
            band_case(case)?;
        }
    }

    fn m4_profile(w: &Workload) -> ProfileData {
        let cat = default_catalog();
        profile_workload(w, cat.expect("m4.xlarge"), 7)
    }

    fn m4_shape(n: u32, n_ps: u32) -> ClusterShape {
        let cat = default_catalog();
        ClusterShape::homogeneous(cat.expect("m4.xlarge"), n, n_ps)
    }

    #[test]
    fn bsp_compute_shrinks_with_workers() {
        let m = CynthiaModel::new(m4_profile(&Workload::cifar10_bsp()));
        assert!(m.t_comp(&m4_shape(8, 1)) < m.t_comp(&m4_shape(4, 1)));
        let t4 = m.t_comp(&m4_shape(4, 1));
        let t8 = m.t_comp(&m4_shape(8, 1));
        assert!((t4 / t8 - 2.0).abs() < 1e-9, "perfect 1/n split");
    }

    #[test]
    fn bsp_comm_grows_with_workers_and_shrinks_with_ps() {
        let m = CynthiaModel::new(m4_profile(&Workload::cifar10_bsp()));
        assert!(m.t_comm(&m4_shape(16, 1)) > m.t_comm(&m4_shape(8, 1)));
        assert!(m.t_comm(&m4_shape(8, 2)) < m.t_comm(&m4_shape(8, 1)));
    }

    #[test]
    fn mnist_service_bandwidth_is_cpu_bound() {
        // mnist's PS CPU ingest exhausts before the NIC (Table 2's CPU
        // hotspot): effective service bandwidth < NIC bandwidth.
        let m = CynthiaModel::new(m4_profile(&Workload::mnist_bsp()));
        let shape = m4_shape(8, 1);
        assert!(
            m.service_bandwidth(&shape) < 0.8 * shape.ps_total_bw,
            "service bw {} vs nic {}",
            m.service_bandwidth(&shape),
            shape.ps_total_bw
        );
    }

    #[test]
    fn vgg_service_bandwidth_is_nic_bound() {
        let m = CynthiaModel::new(m4_profile(&Workload::vgg19_asp()));
        let shape = m4_shape(9, 1);
        assert!((m.service_bandwidth(&shape) - shape.ps_total_bw).abs() < 1e-9);
    }

    #[test]
    fn utilization_throttles_past_the_knee() {
        let m = CynthiaModel::new(m4_profile(&Workload::mnist_bsp()));
        assert_eq!(m.worker_utilization(&m4_shape(1, 1)), 1.0);
        assert!(!m.bottleneck_occurs(&m4_shape(1, 1)));
        let u8 = m.worker_utilization(&m4_shape(8, 1));
        assert!(u8 < 0.7, "8 workers should throttle: u={u8}");
        assert!(m.bottleneck_occurs(&m4_shape(8, 1)));
        // More PS supply restores utilization.
        assert!(m.worker_utilization(&m4_shape(8, 4)) > u8);
    }

    #[test]
    fn overlap_ablation_is_additive() {
        let full = CynthiaModel::new(m4_profile(&Workload::cifar10_bsp()));
        let mut add = full.clone();
        add.overlap = false;
        let shape = m4_shape(9, 1);
        let comp = full.t_comp(&shape);
        let comm = full.t_comm(&shape);
        assert!((full.iter_time(&shape) - comp.max(comm)).abs() < 1e-12);
        assert!((add.iter_time(&shape) - (comp + comm)).abs() < 1e-12);
        assert!(add.iter_time(&shape) > full.iter_time(&shape));
    }

    #[test]
    fn asp_prediction_saturates_at_high_worker_counts() {
        let m = CynthiaModel::new(m4_profile(&Workload::vgg19_asp()));
        let updates = 300;
        let t9 = m.predict_time(&m4_shape(9, 1), updates);
        let t20 = m.predict_time(&m4_shape(20, 1), updates);
        // Past NIC saturation, extra workers yield almost nothing: the
        // prediction approaches the service asymptote instead of scaling
        // linearly (which would give t9·9/20).
        let asymptote =
            updates as f64 * 2.0 * m.profile.g_param_mb / m.service_bandwidth(&m4_shape(9, 1));
        assert!(
            t20 > 0.95 * asymptote,
            "t20 {t20} should sit at the asymptote {asymptote}"
        );
        assert!(
            t20 > 1.3 * t9 * 9.0 / 20.0,
            "t20 {t20} must not scale linearly from t9 {t9}"
        );
        // But the floor lifts with a second PS.
        let t20_2ps = m.predict_time(&m4_shape(20, 2), updates);
        assert!(
            t20_2ps < t20 * 0.7,
            "2 PS should relieve: {t20_2ps} vs {t20}"
        );
    }

    #[test]
    fn heterogeneous_bsp_paced_by_straggler() {
        let cat = default_catalog();
        let m = CynthiaModel::new(m4_profile(&Workload::mnist_bsp()));
        let homo = ClusterShape::homogeneous(cat.expect("m4.xlarge"), 2, 1);
        let spec =
            ClusterSpec::heterogeneous(cat.expect("m4.xlarge"), cat.expect("m1.xlarge"), 2, 1);
        let hetero = ClusterShape::from_spec(&spec);
        assert!(m.t_comp(&hetero) > m.t_comp(&homo) * 1.5);
    }

    #[test]
    fn predicts_the_ground_truth_simulator_within_10pct() {
        use cynthia_train::{simulate, SimConfig, TrainJob};
        let cat = default_catalog();
        let m4 = cat.expect("m4.xlarge");
        for (w, counts) in [
            (Workload::mnist_bsp(), vec![1u32, 2, 4, 8]),
            (Workload::cifar10_bsp(), vec![4, 9, 12]),
        ] {
            let model = CynthiaModel::new(m4_profile(&w));
            let mut short = w.clone();
            short.iterations = 400;
            for n in counts {
                let job = TrainJob {
                    workload: &short,
                    cluster: ClusterSpec::homogeneous(m4, n, 1),
                    config: SimConfig::fast(33),
                };
                let observed = simulate(&job).total_time;
                let predicted =
                    model.predict_time(&ClusterShape::homogeneous(m4, n, 1), short.iterations);
                let err = (predicted - observed).abs() / observed;
                assert!(
                    err < 0.12,
                    "{} n={n}: predicted {predicted:.1}, observed {observed:.1}, err {:.1}%",
                    w.id(),
                    err * 100.0
                );
            }
        }
    }
}
