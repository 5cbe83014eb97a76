//! # cynthia-faults — deterministic fault injection and recovery
//!
//! Cynthia's guarantees (Eqs. 8–14) assume the provisioned cluster stays
//! healthy; the paper's own motivation — transient cloud resources and
//! bottleneck-prone parameter servers — says it won't. This crate supplies
//! the vocabulary the ground-truth simulator uses to break clusters on
//! purpose, and the policies it uses to put them back together:
//!
//! * [`plan`] — the fault taxonomy: [`FaultKind`] (worker crash, permanent
//!   worker departure, PS crash, straggler slowdown, link degradation,
//!   transient PS stall), timed [`FaultEvent`]s, and validated
//!   [`FaultPlan`]s.
//! * [`injector`] — a seeded, deterministic [`FaultInjector`] that draws
//!   random-but-replayable fault plans from per-class rates; the chaos
//!   property suite drives it.
//! * [`recovery`] — the [`RecoveryPolicy`]: checkpoint interval (in global
//!   updates), restart retry budget with exponential backoff jittered by
//!   [`cynthia_sim::rng::Jitter`], and PS failover that re-shards parameter
//!   bandwidth across the surviving servers.
//!
//! The simulator entry point is `cynthia_train::simulate_faulted(job, plan,
//! policy)`. Spot revocations are worker crashes with environment-supplied
//! outage durations under [`RecoveryPolicy::none`]; a plain run is the
//! empty plan under that policy. See `docs/FAULTS.md` for the full
//! semantics.

#![warn(missing_docs)]

pub mod injector;
pub mod obs;
pub mod plan;
pub mod recovery;

pub use injector::{FaultInjector, InjectorConfig};
pub use plan::{FaultEvent, FaultKind, FaultPlan, LinkTarget, PlanError};
pub use recovery::RecoveryPolicy;
