//! Fault taxonomy: what can go wrong, when, and for how long.
//!
//! A [`FaultPlan`] is a validated schedule of [`FaultEvent`]s against a
//! cluster of known shape. Plans are plain data — deterministic by
//! construction — so a simulation driven by the same plan (and seed)
//! replays bit-for-bit. Random plans come from
//! [`FaultInjector`](crate::injector::FaultInjector), which is itself a
//! deterministic function of a master seed.

use serde::{Deserialize, Serialize};

/// Which NIC a [`FaultKind::LinkDegraded`] event throttles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LinkTarget {
    /// Worker `j`'s NIC.
    Worker(usize),
    /// PS node `k`'s NIC.
    Ps(usize),
}

/// One class of partial failure. Timing (start, optional duration) lives on
/// the enclosing [`FaultEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Worker `worker`'s instance crashes. With an event duration, the
    /// environment supplies a replacement that joins after that outage
    /// (spot-reclaim semantics); without one, the
    /// [`RecoveryPolicy`](crate::recovery::RecoveryPolicy) decides —
    /// restart after backoff while the retry budget lasts, then shrink.
    WorkerCrash {
        /// Worker slot hit by the crash.
        worker: usize,
    },
    /// Worker `worker` leaves permanently (an environment-mandated shrink,
    /// e.g. an unreplaced spot reclaim). No recovery applies.
    WorkerDeparture {
        /// Worker slot removed from the fleet.
        worker: usize,
    },
    /// PS node `ps` crashes, losing all parameter state since the last
    /// checkpoint. With a duration the node reboots after the outage;
    /// without one the crash is permanent and the recovery policy's PS
    /// failover re-shards the node's chunks across the survivors. Either
    /// way global progress rolls back to the last checkpoint.
    PsCrash {
        /// PS node hit by the crash.
        ps: usize,
    },
    /// Worker `worker` computes at `factor` of its nominal gFLOPS (e.g. a
    /// noisy neighbour or thermal throttling). Applies to compute segments
    /// *started* while the fault is active.
    Straggler {
        /// Worker slot slowed down.
        worker: usize,
        /// Multiplicative gFLOPS factor in `(0, 1]`... or above 1 for a
        /// burst of extra capacity, which the taxonomy permits.
        factor: f64,
    },
    /// The targeted NIC's capacity is scaled by `factor` (congestion,
    /// flaky cabling, a throttled virtual NIC). In-flight flows re-share
    /// immediately via the max-min fair allocator.
    LinkDegraded {
        /// Which NIC is throttled.
        link: LinkTarget,
        /// Multiplicative capacity factor in `[0, 1]`; `0` requires a
        /// finite duration.
        factor: f64,
    },
    /// PS node `ps` stops applying updates (CPU wedged at 0) but keeps its
    /// NIC and parameter state — a transient stall, not a crash. No
    /// progress is lost; requires a finite duration.
    PsStall {
        /// PS node stalled.
        ps: usize,
    },
}

impl FaultKind {
    /// Short label for tables and traces.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::WorkerCrash { .. } => "worker-crash",
            FaultKind::WorkerDeparture { .. } => "worker-departure",
            FaultKind::PsCrash { .. } => "ps-crash",
            FaultKind::Straggler { .. } => "straggler",
            FaultKind::LinkDegraded { .. } => "link-degraded",
            FaultKind::PsStall { .. } => "ps-stall",
        }
    }
}

/// A fault of some [`FaultKind`] starting at virtual time `at`, lasting
/// `duration` seconds when finite. `duration: None` means the fault is
/// permanent (crashes) or lasts for the rest of the run (degradations).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// What breaks.
    pub kind: FaultKind,
    /// Start time, seconds since job start (must be ≥ 0).
    pub at: f64,
    /// How long it lasts; `None` = permanent / rest-of-run.
    pub duration: Option<f64>,
}

impl FaultEvent {
    /// A permanent (or rest-of-run) fault at `at`.
    pub fn permanent(kind: FaultKind, at: f64) -> Self {
        FaultEvent {
            kind,
            at,
            duration: None,
        }
    }

    /// A transient fault over `[at, at + duration)`.
    pub fn transient(kind: FaultKind, at: f64, duration: f64) -> Self {
        FaultEvent {
            kind,
            at,
            duration: Some(duration),
        }
    }
}

/// Why a [`FaultPlan`] failed validation against a cluster shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlanError {
    /// An event names a worker slot outside `0..n_workers`.
    UnknownWorker {
        /// Offending worker index.
        worker: usize,
        /// Cluster worker count.
        n_workers: usize,
    },
    /// An event names a PS node outside `0..n_ps`.
    UnknownPs {
        /// Offending PS index.
        ps: usize,
        /// Cluster PS count.
        n_ps: usize,
    },
    /// An event starts at a negative time, or has NaN timing.
    BadTiming {
        /// Index of the offending event in the plan.
        event: usize,
    },
    /// A duration is negative or NaN.
    BadDuration {
        /// Index of the offending event in the plan.
        event: usize,
    },
    /// A factor is out of range (straggler ≤ 0, link outside `[0, 1]`).
    BadFactor {
        /// Index of the offending event in the plan.
        event: usize,
    },
    /// A fault that would never let the run finish: a permanent PS stall,
    /// a total link blackout with no end, or permanent departures covering
    /// every worker / every PS without failover capacity.
    Unrecoverable {
        /// Human-readable reason.
        reason: &'static str,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::UnknownWorker { worker, n_workers } => {
                write!(
                    f,
                    "fault names worker {worker} of a {n_workers}-worker fleet"
                )
            }
            PlanError::UnknownPs { ps, n_ps } => {
                write!(f, "fault names PS {ps} of a {n_ps}-PS fleet")
            }
            PlanError::BadTiming { event } => write!(f, "event {event} has invalid start time"),
            PlanError::BadDuration { event } => write!(f, "event {event} has invalid duration"),
            PlanError::BadFactor { event } => write!(f, "event {event} has out-of-range factor"),
            PlanError::Unrecoverable { reason } => write!(f, "unrecoverable plan: {reason}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// A schedule of faults to inject into one training run. Events may be in
/// any order; simultaneous events apply in plan order.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The scheduled faults.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan: `simulate_faulted` with it reproduces `simulate`
    /// bit-for-bit.
    pub fn empty() -> Self {
        FaultPlan::default()
    }

    /// A plan from a list of events.
    pub fn new(events: Vec<FaultEvent>) -> Self {
        FaultPlan { events }
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Validates the plan against a cluster of `n_workers` × `n_ps`.
    ///
    /// Beyond per-event range checks, this rejects plans that can never
    /// terminate: permanent [`FaultKind::PsStall`]s, permanent total link
    /// blackouts (`factor == 0`), permanent departures of *every* worker,
    /// and permanent crashes of *every* PS node.
    pub fn validate(&self, n_workers: usize, n_ps: usize) -> Result<(), PlanError> {
        let mut departed = vec![false; n_workers];
        let mut ps_dead = vec![false; n_ps];
        for (i, e) in self.events.iter().enumerate() {
            if !e.at.is_finite() || e.at < 0.0 {
                return Err(PlanError::BadTiming { event: i });
            }
            if let Some(d) = e.duration {
                // Zero is legal: an instantly-replaced crash still pays the
                // checkpoint restore.
                if !d.is_finite() || d < 0.0 {
                    return Err(PlanError::BadDuration { event: i });
                }
            }
            let check_worker = |w: usize| {
                if w >= n_workers {
                    Err(PlanError::UnknownWorker {
                        worker: w,
                        n_workers,
                    })
                } else {
                    Ok(())
                }
            };
            let check_ps = |p: usize| {
                if p >= n_ps {
                    Err(PlanError::UnknownPs { ps: p, n_ps })
                } else {
                    Ok(())
                }
            };
            match e.kind {
                FaultKind::WorkerCrash { worker } => check_worker(worker)?,
                FaultKind::WorkerDeparture { worker } => {
                    check_worker(worker)?;
                    departed[worker] = true;
                }
                FaultKind::PsCrash { ps } => {
                    check_ps(ps)?;
                    if e.duration.is_none() {
                        ps_dead[ps] = true;
                    }
                }
                FaultKind::Straggler { worker, factor } => {
                    check_worker(worker)?;
                    if !factor.is_finite() || factor <= 0.0 {
                        return Err(PlanError::BadFactor { event: i });
                    }
                }
                FaultKind::LinkDegraded { link, factor } => {
                    match link {
                        LinkTarget::Worker(w) => check_worker(w)?,
                        LinkTarget::Ps(p) => check_ps(p)?,
                    }
                    if !(0.0..=1.0).contains(&factor) || factor.is_nan() {
                        return Err(PlanError::BadFactor { event: i });
                    }
                    if factor == 0.0 && e.duration.is_none() {
                        return Err(PlanError::Unrecoverable {
                            reason: "permanent total link blackout",
                        });
                    }
                }
                FaultKind::PsStall { ps } => {
                    check_ps(ps)?;
                    if e.duration.is_none() {
                        return Err(PlanError::Unrecoverable {
                            reason: "permanent PS stall",
                        });
                    }
                }
            }
        }
        if departed.iter().all(|d| *d) && n_workers > 0 {
            return Err(PlanError::Unrecoverable {
                reason: "every worker departs permanently",
            });
        }
        if ps_dead.iter().all(|d| *d) && n_ps > 0 {
            return Err(PlanError::Unrecoverable {
                reason: "every PS crashes permanently",
            });
        }
        Ok(())
    }

    /// Counts of events per fault class, for summaries.
    pub fn census(&self) -> FaultCensus {
        let mut c = FaultCensus::default();
        for e in &self.events {
            match e.kind {
                FaultKind::WorkerCrash { .. } => c.worker_crashes += 1,
                FaultKind::WorkerDeparture { .. } => c.worker_departures += 1,
                FaultKind::PsCrash { .. } => c.ps_crashes += 1,
                FaultKind::Straggler { .. } => c.stragglers += 1,
                FaultKind::LinkDegraded { .. } => c.link_degradations += 1,
                FaultKind::PsStall { .. } => c.ps_stalls += 1,
            }
        }
        c
    }
}

/// Per-class event counts of a [`FaultPlan`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
#[allow(missing_docs)]
pub struct FaultCensus {
    pub worker_crashes: u32,
    pub worker_departures: u32,
    pub ps_crashes: u32,
    pub stragglers: u32,
    pub link_degradations: u32,
    pub ps_stalls: u32,
}

impl FaultCensus {
    /// Total events across all classes.
    pub fn total(&self) -> u32 {
        self.worker_crashes
            + self.worker_departures
            + self.ps_crashes
            + self.stragglers
            + self.link_degradations
            + self.ps_stalls
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_valid() {
        assert_eq!(FaultPlan::empty().validate(4, 1), Ok(()));
        assert!(FaultPlan::empty().is_empty());
    }

    #[test]
    fn out_of_range_targets_are_rejected() {
        let p = FaultPlan::new(vec![FaultEvent::permanent(
            FaultKind::WorkerCrash { worker: 4 },
            1.0,
        )]);
        assert_eq!(
            p.validate(4, 1),
            Err(PlanError::UnknownWorker {
                worker: 4,
                n_workers: 4
            })
        );
        let p = FaultPlan::new(vec![FaultEvent::transient(
            FaultKind::PsStall { ps: 2 },
            1.0,
            5.0,
        )]);
        assert_eq!(
            p.validate(4, 2),
            Err(PlanError::UnknownPs { ps: 2, n_ps: 2 })
        );
    }

    #[test]
    fn bad_timing_and_duration_are_rejected() {
        let p = FaultPlan::new(vec![FaultEvent::permanent(
            FaultKind::WorkerCrash { worker: 0 },
            -1.0,
        )]);
        assert_eq!(p.validate(2, 1), Err(PlanError::BadTiming { event: 0 }));
        let p = FaultPlan::new(vec![FaultEvent::transient(
            FaultKind::WorkerCrash { worker: 0 },
            1.0,
            -1.0,
        )]);
        assert_eq!(p.validate(2, 1), Err(PlanError::BadDuration { event: 0 }));
    }

    #[test]
    fn unrecoverable_plans_are_rejected() {
        // Permanent PS stall.
        let p = FaultPlan::new(vec![FaultEvent::permanent(
            FaultKind::PsStall { ps: 0 },
            1.0,
        )]);
        assert!(matches!(
            p.validate(2, 1),
            Err(PlanError::Unrecoverable { .. })
        ));
        // Permanent zero-capacity link.
        let p = FaultPlan::new(vec![FaultEvent::permanent(
            FaultKind::LinkDegraded {
                link: LinkTarget::Ps(0),
                factor: 0.0,
            },
            1.0,
        )]);
        assert!(matches!(
            p.validate(2, 1),
            Err(PlanError::Unrecoverable { .. })
        ));
        // All workers depart.
        let p = FaultPlan::new(vec![
            FaultEvent::permanent(FaultKind::WorkerDeparture { worker: 0 }, 1.0),
            FaultEvent::permanent(FaultKind::WorkerDeparture { worker: 1 }, 2.0),
        ]);
        assert!(matches!(
            p.validate(2, 1),
            Err(PlanError::Unrecoverable { .. })
        ));
        // All PS nodes crash permanently.
        let p = FaultPlan::new(vec![FaultEvent::permanent(
            FaultKind::PsCrash { ps: 0 },
            1.0,
        )]);
        assert!(matches!(
            p.validate(2, 1),
            Err(PlanError::Unrecoverable { .. })
        ));
        // ... but a *transient* PS crash of the only PS is fine.
        let p = FaultPlan::new(vec![FaultEvent::transient(
            FaultKind::PsCrash { ps: 0 },
            1.0,
            30.0,
        )]);
        assert_eq!(p.validate(2, 1), Ok(()));
    }

    #[test]
    fn factors_are_range_checked() {
        let p = FaultPlan::new(vec![FaultEvent::transient(
            FaultKind::Straggler {
                worker: 0,
                factor: 0.0,
            },
            1.0,
            5.0,
        )]);
        assert_eq!(p.validate(2, 1), Err(PlanError::BadFactor { event: 0 }));
        let p = FaultPlan::new(vec![FaultEvent::transient(
            FaultKind::LinkDegraded {
                link: LinkTarget::Worker(0),
                factor: 1.5,
            },
            1.0,
            5.0,
        )]);
        assert_eq!(p.validate(2, 1), Err(PlanError::BadFactor { event: 0 }));
    }

    #[test]
    fn census_counts_by_class() {
        let p = FaultPlan::new(vec![
            FaultEvent::permanent(FaultKind::WorkerCrash { worker: 0 }, 1.0),
            FaultEvent::transient(FaultKind::PsStall { ps: 0 }, 2.0, 3.0),
            FaultEvent::transient(
                FaultKind::Straggler {
                    worker: 1,
                    factor: 0.5,
                },
                3.0,
                9.0,
            ),
        ]);
        let c = p.census();
        assert_eq!(c.worker_crashes, 1);
        assert_eq!(c.ps_stalls, 1);
        assert_eq!(c.stragglers, 1);
        assert_eq!(c.total(), 3);
    }
}
