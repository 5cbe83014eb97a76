//! # cynthia-core — the Cynthia framework (ICPP 2019)
//!
//! The paper's contribution, implemented against the simulated substrates:
//!
//! * [`profiler`] — one-shot 30-iteration profiling of a workload on a
//!   baseline worker, producing the Table 4 quantities (`w_iter`,
//!   `g_param`, `c_prof`, `b_prof`).
//! * [`loss_model`] — least-squares fitting of the empirical loss model
//!   (Eq. 1) and its inversion to iteration counts (Eqs. 15 and 20).
//! * [`perf_model`] — the analytical DDNN training-time model of Sec. 3
//!   (Eqs. 2–7): computation from worker CPU rates, communication from the
//!   PS's *effective service bandwidth* (NIC and CPU-ingest, both derived
//!   from the profiled demand/supply ratios), `max()` composition for BSP's
//!   compute/communication overlap, additive for ASP, with bottleneck and
//!   heterogeneity awareness. Includes the predicted worker-utilization
//!   throttle of Sec. 3 and ablation toggles.
//! * [`provisioner`] — Theorem 4.1's worker-count bounds (Eqs. 12–14) and
//!   Algorithm 1's cost-minimizing search over instance types.
//! * [`framework`] — the prototype glue of Sec. 5: profile → fit → plan →
//!   provision (via `cynthia-cloud`) → train (via `cynthia-train`) →
//!   settle the bill.

#![warn(missing_docs)]

pub mod advisor;
pub mod framework;
pub mod loss_model;
pub mod obs;
pub mod perf_model;
pub mod profiler;
pub mod provisioner;

pub use advisor::fastest_within_budget;
pub use framework::{Cynthia, ExecutionReport};
pub use loss_model::FittedLossModel;
pub use perf_model::{ClusterShape, CynthiaModel, PerfModel};
pub use profiler::{profile_workload, ProfileData};
pub use provisioner::{plan, Goal, Plan, PlannerOptions};
