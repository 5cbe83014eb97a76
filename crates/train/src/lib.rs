//! # cynthia-train — ground-truth distributed training simulator
//!
//! A discrete-event, flow-level simulator of parameter-server DNN training,
//! standing in for the paper's 56-docker TensorFlow-on-Kubernetes testbed.
//! It is deliberately *richer* than Cynthia's analytic model (Sec. 3), so
//! that predictions are non-trivially accurate:
//!
//! * Gradient pushes, parameter pulls, and PS update application are fluid
//!   flows over max-min fair shared NICs and a processor-sharing PS CPU
//!   ([`cynthia_sim::fluid`]).
//! * BSP overlaps computation and communication mechanically — parameters
//!   are sharded into chunks, each chunk's gradient is pushed as soon as
//!   its compute segment finishes, and next-iteration compute resumes per
//!   chunk as pulls land (mirroring TensorFlow's `SyncReplicasOptimizer`
//!   overlap, footnote 2 of the paper). `t_iter → max(t_comp, t_comm)`
//!   emerges asymptotically rather than being assumed.
//! * ASP workers run independent compute→push→apply→pull cycles; parameter
//!   staleness is an emergent, recorded quantity.
//! * Heterogeneous clusters (straggler instances) pace BSP barriers.
//! * Compute durations carry seeded log-normal jitter.
//!
//! Entry points: [`simulate`] runs a [`TrainJob`]; [`simulate_faulted`]
//! runs it under a [`FaultPlan`] and a [`RecoveryPolicy`]. A run's
//! timeline is recorded as spans of the process-wide `cynthia_obs`
//! tracer (see [`obs`]).
//!
//! ```
//! use cynthia_cloud::default_catalog;
//! use cynthia_models::Workload;
//! use cynthia_train::{simulate, ClusterSpec, SimConfig, TrainJob};
//!
//! let catalog = default_catalog();
//! let workload = Workload::mnist_bsp();
//! let cluster = ClusterSpec::homogeneous(catalog.expect("m4.xlarge"), 4, 1);
//! let job = TrainJob {
//!     workload: &workload,
//!     cluster,
//!     config: SimConfig::fast(42),
//! };
//! let report = simulate(&job);
//! assert!(report.total_time > 0.0);
//! assert!(report.final_loss < workload.convergence.initial_loss);
//! ```

pub mod cluster;
pub mod config;
pub mod engine;
pub mod obs;
pub mod report;

pub use cluster::ClusterSpec;
pub use config::{FastForward, SimConfig};
pub use cynthia_faults::{
    FaultEvent, FaultInjector, FaultKind, FaultPlan, LinkTarget, RecoveryPolicy,
};
pub use engine::{simulate, simulate_faulted, TrainJob};
pub use report::TrainingReport;
