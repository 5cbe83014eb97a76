//! # cynthia — cost-efficient cloud resource provisioning for predictable
//! distributed DNN training
//!
//! A from-scratch Rust reproduction of *Cynthia: Cost-Efficient Cloud
//! Resource Provisioning for Predictable Distributed Deep Neural Network
//! Training* (Zheng, Xu, Chen, Zhou, Liu — ICPP 2019), including every
//! substrate the paper's evaluation depends on:
//!
//! * [`sim`] — a discrete-event simulation core (event queue, max-min
//!   fair fluid resource sharing, metrics).
//! * [`cloud`] — an EC2-like instance catalog, billing, and provisioning.
//! * [`models`] — DNN layer algebra and the paper's four-model zoo.
//! * [`dnn`] — a real miniature neural-network library with a threaded
//!   parameter server, validating the paper's convergence assumptions.
//! * [`train`] — the ground-truth PS-training simulator (BSP/ASP,
//!   bottlenecks, stragglers, multi-PS).
//! * [`faults`] — seeded fault plans (crashes, stragglers, degraded
//!   links, PS outages) and recovery policies (checkpoints, retry
//!   budgets, PS failover); see `docs/FAULTS.md`.
//! * [`core`] — Cynthia itself: profiler, loss model, performance model,
//!   Theorem 4.1 bounds, Algorithm 1 provisioner, end-to-end framework.
//! * [`elastic`] — elastic fleets on revocable spot capacity: a
//!   deterministic spot market, an online replanner re-running the
//!   Theorem 4.1 band search at every revocation, and repair policies.
//! * [`baselines`] — the Optimus and Paleo comparison models.
//! * [`experiments`] — regeneration of every table and figure in the
//!   paper's evaluation (see the `cynthia-exp` binary).
//!
//! ## Quickstart
//!
//! ```
//! use cynthia::prelude::*;
//!
//! // Submit the paper's cifar10 workload with a goal: loss ≤ 0.8 within
//! // two hours, at minimum cost.
//! let scheduler = Cynthia::new(default_catalog());
//! let workload = Workload::cifar10_bsp();
//! let goal = Goal { deadline_secs: 7200.0, target_loss: 0.8 };
//! let report = scheduler
//!     .run_end_to_end(&workload, &goal)
//!     .expect("goal is feasible");
//! assert!(report.met_deadline && report.met_loss);
//! println!(
//!     "{} x{} + {} PS: {:.0}s, ${:.2}",
//!     report.plan.type_name, report.plan.n_workers, report.plan.n_ps,
//!     report.training.total_time, report.actual_cost
//! );
//! ```

pub use cynthia_baselines as baselines;
pub use cynthia_cloud as cloud;
pub use cynthia_core as core;
pub use cynthia_dnn as dnn;
pub use cynthia_elastic as elastic;
pub use cynthia_experiments as experiments;
pub use cynthia_faults as faults;
pub use cynthia_models as models;
pub use cynthia_obs as obs;
pub use cynthia_sim as sim;
pub use cynthia_train as train;

/// The most common imports for downstream users.
pub mod prelude {
    pub use cynthia_baselines::{OptimusModel, PaleoModel};
    pub use cynthia_cloud::{default_catalog, Catalog, InstanceType};
    pub use cynthia_core::{
        profile_workload, ClusterShape, Cynthia, CynthiaModel, FittedLossModel, Goal, PerfModel,
        Plan, PlannerOptions, ProfileData,
    };
    pub use cynthia_elastic::{
        run_elastic, run_guarded, summarize, ElasticConfig, ElasticReport, ElasticSummary,
        GuardedReport, RepairAction, RepairPolicy, Replanner, SloGuardConfig,
    };
    pub use cynthia_faults::{
        FaultEvent, FaultInjector, FaultKind, FaultPlan, InjectorConfig, LinkTarget, RecoveryPolicy,
    };
    pub use cynthia_models::{ConvergenceProfile, SyncMode, Workload};
    pub use cynthia_train::{
        simulate, simulate_faulted, ClusterSpec, SimConfig, TrainJob, TrainingReport,
    };
}
