//! # cynthia-cloud — a simulated EC2-like public cloud
//!
//! The Cynthia paper provisions Amazon EC2 instances (m4.xlarge, m1.xlarge,
//! c3.xlarge, r3.xlarge), joins them into a Kubernetes cluster, and bills
//! them at on-demand hourly prices. This crate substitutes that environment
//! with a deterministic, in-process model:
//!
//! * [`instance`] — instance-type descriptors: CPU capability (GFLOPS),
//!   NIC bandwidth (MB/s), hourly price, launch latency.
//! * [`catalog`] — the calibrated instance catalog and the static "CPU
//!   capability table" the paper looks capabilities up in (its ref. \[3\]).
//! * [`billing`] — a per-second billing meter over launch/terminate events.
//! * [`provisioner`] — a simulated provisioning API plus the
//!   kubeadm-join-style cluster assembly used by the prototype (Sec. 5).
//! * [`spot`] — a deterministic spot market: per-type price traces and
//!   seeded revocation processes for transient capacity.
//!
//! Calibration rationale lives in `DESIGN.md` §6: the catalog constants are
//! chosen once so the paper's bottleneck knees (PS NIC saturation around
//! 8–9 workers for mnist/VGG-19, straggler ratio ≈ 0.55) appear at the same
//! cluster sizes.

#![warn(missing_docs)]

pub mod billing;
pub mod catalog;
pub mod instance;
pub mod obs;
pub mod provisioner;
pub mod spot;

pub use billing::{BillingError, BillingMeter};
pub use catalog::{capability_table, default_catalog, gpu_catalog, Catalog};
pub use instance::{InstanceType, PodKind};
pub use provisioner::{CloudProvider, Instance, InstanceId, ProvisionRequest, ProvisionedCluster};
pub use spot::{RevocationModel, SpotMarket, SpotMarketConfig, SpotPriceTrace};
