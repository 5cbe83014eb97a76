//! # cynthia-elastic — predictable training on transient (spot) capacity
//!
//! Cynthia's Alg. 1 provisions a *static* cluster and trusts it to
//! survive until the deadline. This crate extends the reproduction to
//! elastic fleets on revocable spot capacity, where that trust is
//! misplaced by construction:
//!
//! * [`policy`] — fleet composition and repair policies:
//!   [`RepairPolicy::OnDemandOnly`] (the paper's baseline),
//!   [`RepairPolicy::SpotWithFallback`], and [`RepairPolicy::MixedFleet`].
//! * [`replanner`] — the online [`Replanner`]: at every revocation it
//!   restates the *remaining* job (updates left, deadline left) as a
//!   fresh Cynthia provisioning problem via a pseudo-target-loss
//!   inversion of Eq. (1), re-runs the Theorem 4.1 band search
//!   (Eqs. 13–14), and picks a [`RepairAction`] — replace on spot,
//!   fall back to on-demand, or shrink the fleet.
//! * [`scenario`] — end-to-end orchestration: pre-drawn spot price
//!   traces and reclaim schedules ([`cynthia_cloud::SpotMarket`]),
//!   a predictive event loop emitting the disruption schedule, the
//!   ground-truth engine replaying it, and spot-priced billing of what
//!   actually ran. [`run_elastic`] produces an [`ElasticReport`];
//!   [`summarize`] aggregates deadline-miss probability over seeds.
//!
//! Everything is a deterministic function of one master seed: the same
//! seed yields bit-identical reclaim schedules, repair decisions,
//! timelines, and realized cost.

pub mod obs;
pub mod policy;
pub mod replanner;
pub mod scenario;
pub mod slo;

pub use policy::{Backing, RepairAction, RepairPolicy};
pub use replanner::{RepairDecision, ReplanInput, Replanner};
pub use scenario::{
    run_elastic, summarize, ElasticConfig, ElasticReport, ElasticSummary, TimelineEvent,
    TimelineKind,
};
pub use slo::{run_guarded, GuardedReport, ReplanEvent, SloGuardConfig};
