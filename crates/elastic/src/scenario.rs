//! End-to-end elastic scenarios: plan → run on a (partly) spot fleet →
//! replan at every reclaim → bill what actually ran.
//!
//! The scenario couples three deterministic machines, all driven by one
//! master seed:
//!
//! 1. the [`SpotMarket`] pre-draws a price trace and per-slot reclaim
//!    schedules for the planning horizon;
//! 2. a *predictive* event loop walks those reclaims against the Sec. 3
//!    performance model, consulting the [`Replanner`] at each one to pick
//!    a [`RepairAction`] and emitting the resulting [`FaultPlan`] (a
//!    replaced reclaim is a transient [`FaultKind::WorkerCrash`] lasting
//!    until the replacement joins, a shrink a permanent
//!    [`FaultKind::WorkerDeparture`]) plus the lease segments each
//!    decision implies;
//! 3. the ground-truth engine ([`simulate_faulted`] under
//!    [`RecoveryPolicy::none`]) replays that plan in full detail, and a
//!    [`BillingMeter`] prices the lease segments — spot leases at the
//!    traced, repriced spot rate — against the realized runtime.
//!
//! The predictive loop uses the *model's* notion of progress to decide
//! when the job is over (further reclaims can no longer matter); the
//! engine's realized timing decides whether the deadline was actually
//! met. The small disagreement between the two is exactly the prediction
//! error Cynthia lives with, and is itself deterministic per seed.

use cynthia_cloud::billing::static_cluster_cost;
use cynthia_cloud::{BillingMeter, Catalog, SpotMarket, SpotMarketConfig};
use cynthia_core::provisioner::{plan, Goal, Plan, PlannerOptions};
use cynthia_core::{profile_workload, FittedLossModel};
use cynthia_models::{SyncMode, Workload};
use cynthia_train::{
    simulate, simulate_faulted, ClusterSpec, FaultEvent, FaultKind, FaultPlan, RecoveryPolicy,
    SimConfig, TrainJob,
};
use serde::{Deserialize, Serialize};

use crate::policy::{Backing, RepairAction, RepairPolicy};
use crate::replanner::{ReplanInput, Replanner};

/// Configuration of one elastic run.
#[derive(Debug, Clone)]
pub struct ElasticConfig {
    /// The user's `(deadline, target loss)` goal, as handed to Alg. 1.
    pub goal: Goal,
    pub policy: RepairPolicy,
    pub market: SpotMarketConfig,
    pub planner: PlannerOptions,
    /// Instance type used for the profiling run.
    pub baseline_type: String,
    /// Decision latency between a reclaim and the replacement launch
    /// request, seconds (replanning + control-plane round trip).
    pub replan_latency_secs: f64,
    /// Master seed: drives profiling jitter, the spot market, and the
    /// ground-truth engine. Same seed ⇒ bit-identical run.
    pub seed: u64,
}

impl ElasticConfig {
    pub fn new(goal: Goal, policy: RepairPolicy, seed: u64) -> Self {
        ElasticConfig {
            goal,
            policy,
            market: SpotMarketConfig::default(),
            planner: PlannerOptions::default(),
            baseline_type: "m4.xlarge".to_string(),
            replan_latency_secs: 5.0,
            seed,
        }
    }
}

/// One entry in the revocation/repair timeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimelineEvent {
    /// Seconds since job start.
    pub t: f64,
    /// Worker slot concerned.
    pub slot: usize,
    pub kind: TimelineKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TimelineKind {
    /// The spot market reclaimed the slot's instance.
    Revoked,
    /// The replanner ordered a spot replacement, live at `rejoin_at`.
    RepairedWithSpot { rejoin_at: f64 },
    /// The replanner fell back to on-demand, live at `rejoin_at`.
    RepairedWithOnDemand { rejoin_at: f64 },
    /// The replanner retired the slot (Theorem 4.1 band still met).
    Shrunk,
}

/// What one elastic run cost and whether it met its objectives.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ElasticReport {
    pub policy: String,
    pub plan: Plan,
    pub goal: Goal,
    /// Ground-truth engine report of the disrupted run.
    pub training: cynthia_train::TrainingReport,
    /// Planner-side revocation/repair timeline, in time order. May extend
    /// past the realized end of training when the model's progress
    /// estimate lagged reality; billing clamps to the realized runtime.
    pub timeline: Vec<TimelineEvent>,
    /// Eq. (8) cost of what actually ran: spot leases at the traced spot
    /// price, on-demand leases and PS nodes at list price.
    pub realized_cost: f64,
    /// Cost of the same plan run undisrupted on all-on-demand capacity.
    pub on_demand_baseline_cost: f64,
    /// Runtime of the undisrupted all-on-demand reference run, seconds.
    pub baseline_time: f64,
    pub met_deadline: bool,
    pub met_loss: bool,
}

impl ElasticReport {
    /// Fractional saving of the realized cost over the all-on-demand
    /// baseline (negative when disruptions made the run *more* expensive).
    pub fn savings_vs_on_demand(&self) -> f64 {
        1.0 - self.realized_cost / self.on_demand_baseline_cost
    }

    pub fn shrinks(&self) -> usize {
        self.timeline
            .iter()
            .filter(|e| matches!(e.kind, TimelineKind::Shrunk))
            .count()
    }

    pub fn repairs(&self) -> usize {
        self.timeline
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    TimelineKind::RepairedWithSpot { .. }
                        | TimelineKind::RepairedWithOnDemand { .. }
                )
            })
            .count()
    }

    pub fn revocations(&self) -> usize {
        self.timeline
            .iter()
            .filter(|e| matches!(e.kind, TimelineKind::Revoked))
            .count()
    }
}

/// Aggregate of [`run_elastic`] over several master seeds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ElasticSummary {
    pub policy: String,
    pub runs: usize,
    /// Fraction of seeds whose realized runtime missed the deadline.
    pub deadline_miss_rate: f64,
    pub mean_realized_cost: f64,
    pub mean_on_demand_cost: f64,
    pub mean_revocations: f64,
    pub mean_repairs: f64,
    pub mean_shrinks: f64,
}

/// One worker slot's lease and reclaim bookkeeping in the predictive loop.
struct Slot {
    backing: Backing,
    /// Pre-drawn reclaim times; consumed only while the slot is
    /// spot-backed and live.
    reclaims: Vec<f64>,
    /// `(start, end, backing)` lease segments; `end = None` while open.
    leases: Vec<(f64, Option<f64>, Backing)>,
    /// Replacement boot completes at this time.
    absent_until: Option<f64>,
    departed: bool,
}

impl Slot {
    fn open_lease_start(&self) -> f64 {
        self.leases.last().expect("slot always has a lease").0
    }

    fn close_lease(&mut self, t: f64) {
        let lease = self.leases.last_mut().expect("slot always has a lease");
        debug_assert!(lease.1.is_none(), "closing a closed lease");
        lease.1 = Some(t);
    }
}

enum PendingEvent {
    Rejoin,
    Reclaim,
}

/// Runs one elastic scenario end to end. Returns `None` when Alg. 1
/// finds no feasible plan for the goal.
pub fn run_elastic(
    workload: &Workload,
    catalog: &Catalog,
    cfg: &ElasticConfig,
) -> Option<ElasticReport> {
    let baseline_ty = catalog.expect(&cfg.baseline_type);
    let profile = profile_workload(workload, baseline_ty, cfg.seed);
    let loss = FittedLossModel {
        sync: workload.sync,
        beta0: workload.convergence.beta0,
        beta1: workload.convergence.beta1,
        r_squared: 1.0,
    };
    let the_plan = plan(&profile, &loss, catalog, &cfg.goal, &cfg.planner)?;
    let ty = catalog.expect(&the_plan.type_name).clone();
    let n = the_plan.n_workers as usize;
    let replanner = Replanner::new(profile, loss, cfg.planner);

    let mut configured = workload.clone();
    configured.iterations = the_plan.total_updates;
    let sim = SimConfig::exact(cfg.seed);
    let cluster = ClusterSpec::homogeneous(&ty, the_plan.n_workers, the_plan.n_ps);

    // Undisrupted all-on-demand reference: what the static plan costs.
    let baseline = simulate(&TrainJob {
        workload: &configured,
        cluster: cluster.clone(),
        config: sim,
    });
    let on_demand_baseline_cost = static_cluster_cost(
        ty.price_per_hour,
        the_plan.n_workers,
        ty.price_per_hour,
        the_plan.n_ps,
        baseline.total_time,
    );

    // Pre-draw the market for a horizon generously past any plausible end.
    let market = SpotMarket::new(cfg.market, cfg.seed);
    let horizon = (cfg.goal.deadline_secs.max(baseline.total_time) * 4.0).max(3600.0);
    let trace = market.price_trace(&ty, horizon);

    let mut slots: Vec<Slot> = (0..n)
        .map(|j| {
            let backing = cfg.policy.initial_backing(j, n);
            let reclaims = match backing {
                Backing::Spot => market.revocation_times(&ty.name, j as u64, horizon),
                Backing::OnDemand => Vec::new(),
            };
            Slot {
                backing,
                reclaims,
                leases: vec![(0.0, None, backing)],
                absent_until: None,
                departed: false,
            }
        })
        .collect();

    // Predictive walk: advance model progress between reclaim/rejoin
    // events, replanning at each reclaim. The per-width progress rate
    // comes from the same Sec. 3 model Alg. 1 planned with.
    let repair_latency = cfg.replan_latency_secs + ty.launch_secs;
    let total = the_plan.total_updates as f64;
    let rate = |n_live: u32| -> f64 {
        total
            / replanner
                .predicted_remaining_secs(&ty, n_live, the_plan.n_ps, the_plan.total_updates)
                .max(f64::MIN_POSITIVE)
    };
    let mut t = 0.0_f64;
    let mut done = 0.0_f64;
    let mut faults: Vec<FaultEvent> = Vec::new();
    let mut timeline: Vec<TimelineEvent> = Vec::new();
    let mut guard = 0u32;
    loop {
        guard += 1;
        assert!(guard < 100_000, "elastic event loop failed to converge");

        let present = slots
            .iter()
            .filter(|s| !s.departed && s.absent_until.is_none())
            .count() as u32;
        let any_absent = slots.iter().any(|s| s.absent_until.is_some());
        // BSP makes no global progress while a barrier member is absent;
        // ASP degrades to the surviving width.
        let r = if workload.sync == SyncMode::Bsp && any_absent {
            0.0
        } else {
            rate(present)
        };

        // Earliest pending event; rejoinders before reclaims on ties so a
        // back-to-back reclaim sees the slot live again.
        let mut next: Option<(f64, u8, usize, PendingEvent)> = None;
        for (j, s) in slots.iter().enumerate() {
            if s.departed {
                continue;
            }
            let cand = if let Some(ru) = s.absent_until {
                Some((ru, 0u8, j, PendingEvent::Rejoin))
            } else if s.backing == Backing::Spot {
                s.reclaims
                    .iter()
                    .copied()
                    .find(|&rt| rt > s.open_lease_start() && rt > t)
                    .map(|rt| (rt, 1u8, j, PendingEvent::Reclaim))
            } else {
                None
            };
            if let Some(c) = cand {
                let better = match &next {
                    None => true,
                    Some(b) => (c.0, c.1, c.2) < (b.0, b.1, b.2),
                };
                if better {
                    next = Some(c);
                }
            }
        }

        let Some((te, _, j, ev)) = next else {
            break; // no further market events can reach this run
        };
        if r > 0.0 && done + r * (te - t) >= total {
            break; // the model says training finishes before the event
        }
        done += r * (te - t);
        t = te;
        if t > horizon {
            break;
        }

        match ev {
            PendingEvent::Rejoin => {
                slots[j].absent_until = None;
            }
            PendingEvent::Reclaim => {
                slots[j].close_lease(t);
                timeline.push(TimelineEvent {
                    t,
                    slot: j,
                    kind: TimelineKind::Revoked,
                });
                let input = ReplanInput {
                    now: t,
                    deadline_secs: cfg.goal.deadline_secs,
                    updates_done: (done.floor() as u64).min(the_plan.total_updates),
                    total_updates: the_plan.total_updates,
                    ty: &ty,
                    n_slots: present,
                    n_ps: the_plan.n_ps,
                    repair_latency_secs: repair_latency,
                };
                let decision = replanner.decide(&cfg.policy, &input);
                match decision.action {
                    RepairAction::Shrink => {
                        slots[j].departed = true;
                        faults.push(FaultEvent::permanent(
                            FaultKind::WorkerDeparture { worker: j },
                            t,
                        ));
                        timeline.push(TimelineEvent {
                            t,
                            slot: j,
                            kind: TimelineKind::Shrunk,
                        });
                    }
                    RepairAction::ReplaceWithSpot | RepairAction::ReplaceWithOnDemand => {
                        let backing = if decision.action == RepairAction::ReplaceWithSpot {
                            Backing::Spot
                        } else {
                            Backing::OnDemand
                        };
                        // Billing starts when the replacement launches
                        // (boot time is paid for); training resumes when
                        // it has booted.
                        let lease_start = t + cfg.replan_latency_secs;
                        let rejoin_at = t + repair_latency;
                        slots[j].backing = backing;
                        slots[j].leases.push((lease_start, None, backing));
                        slots[j].absent_until = Some(rejoin_at);
                        faults.push(FaultEvent::transient(
                            FaultKind::WorkerCrash { worker: j },
                            t,
                            rejoin_at - t,
                        ));
                        timeline.push(TimelineEvent {
                            t,
                            slot: j,
                            kind: if backing == Backing::Spot {
                                TimelineKind::RepairedWithSpot { rejoin_at }
                            } else {
                                TimelineKind::RepairedWithOnDemand { rejoin_at }
                            },
                        });
                    }
                }
            }
        }
    }

    // Ground truth: the engine replays the fault plan in full detail
    // (jitter, barrier stalls, parameter re-pulls on rejoin). A
    // replacement's outage is `rejoin_at - t`, not `repair_latency`: the
    // two differ in rounding, and the engine's timing with them.
    let training = simulate_faulted(
        &TrainJob {
            workload: &configured,
            cluster,
            config: sim,
        },
        &FaultPlan::new(faults),
        &RecoveryPolicy::none(),
    );
    let t_end = training.total_time;

    // Bill the lease segments against the realized runtime. Spot leases
    // open at the traced price and are repriced at every market epoch the
    // trace changes within the lease.
    let mut meter = BillingMeter::new();
    for slot in &slots {
        for &(start, end, backing) in &slot.leases {
            let end = end.unwrap_or(t_end).min(t_end);
            if start >= end {
                continue; // decided after the job already finished
            }
            match backing {
                Backing::OnDemand => {
                    let id = meter.launch(start, ty.price_per_hour);
                    meter
                        .terminate(id, end)
                        .expect("lease segments are well-formed");
                }
                Backing::Spot => {
                    let id = meter.launch(start, trace.price_at(start));
                    for (tc, price) in trace.changes_in(start, end) {
                        meter
                            .reprice(id, tc, price)
                            .expect("repricing a running spot lease");
                    }
                    meter
                        .terminate(id, end)
                        .expect("lease segments are well-formed");
                }
            }
        }
    }
    for _ in 0..the_plan.n_ps {
        let id = meter.launch(0.0, ty.price_per_hour);
        meter
            .terminate(id, t_end)
            .expect("PS lease spans the whole run");
    }
    let realized_cost = meter.total_cost(t_end);

    let met_deadline = t_end <= cfg.goal.deadline_secs;
    // Same tolerance the framework's ExecutionReport uses.
    let met_loss = training.final_loss <= cfg.goal.target_loss * 1.05;
    Some(ElasticReport {
        policy: cfg.policy.name(),
        plan: the_plan,
        goal: cfg.goal,
        training,
        timeline,
        realized_cost,
        on_demand_baseline_cost,
        baseline_time: baseline.total_time,
        met_deadline,
        met_loss,
    })
}

/// Runs the same scenario under each master seed and aggregates the
/// deadline-miss probability and mean costs.
pub fn summarize(
    workload: &Workload,
    catalog: &Catalog,
    cfg: &ElasticConfig,
    seeds: &[u64],
) -> Option<ElasticSummary> {
    assert!(!seeds.is_empty(), "summarize needs at least one seed");
    let mut reports = Vec::with_capacity(seeds.len());
    for &seed in seeds {
        let mut c = cfg.clone();
        c.seed = seed;
        reports.push(run_elastic(workload, catalog, &c)?);
    }
    Some(aggregate(cfg, &reports))
}

/// The summary statistics of [`summarize`]; the means fold the reports in
/// seed order.
fn aggregate(cfg: &ElasticConfig, reports: &[ElasticReport]) -> ElasticSummary {
    let runs = reports.len();
    let misses = reports.iter().filter(|r| !r.met_deadline).count();
    let mean = |f: &dyn Fn(&ElasticReport) -> f64| reports.iter().map(f).sum::<f64>() / runs as f64;
    ElasticSummary {
        policy: cfg.policy.name(),
        runs,
        deadline_miss_rate: misses as f64 / runs as f64,
        mean_realized_cost: mean(&|r| r.realized_cost),
        mean_on_demand_cost: mean(&|r| r.on_demand_baseline_cost),
        mean_revocations: mean(&|r| r.training.revocations as f64),
        mean_repairs: mean(&|r| r.training.repairs as f64),
        mean_shrinks: mean(&|r| r.shrinks() as f64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cynthia_cloud::{default_catalog, RevocationModel};

    fn cifar_goal() -> Goal {
        // cifar-10/BSP to loss 2.2 ≈ 400 iterations; a 1-hour deadline
        // leaves room for a couple of 95 s repairs.
        Goal {
            deadline_secs: 3600.0,
            target_loss: 2.2,
        }
    }

    fn config(policy: RepairPolicy, rate_per_hour: f64, seed: u64) -> ElasticConfig {
        let mut cfg = ElasticConfig::new(cifar_goal(), policy, seed);
        cfg.market.revocations = RevocationModel::Exponential { rate_per_hour };
        cfg
    }

    #[test]
    fn on_demand_only_matches_static_baseline() {
        let catalog = default_catalog();
        let w = Workload::cifar10_bsp();
        let cfg = config(RepairPolicy::OnDemandOnly, 8.0, 7);
        let report = run_elastic(&w, &catalog, &cfg).expect("feasible goal");
        // No spot capacity anywhere: no revocations, and the realized
        // cost is exactly the static Eq. (8) cost of the same fleet.
        assert_eq!(report.training.revocations, 0);
        assert!(report.timeline.is_empty());
        assert!((report.realized_cost - report.on_demand_baseline_cost).abs() < 1e-9);
        assert!(report.met_loss);
    }

    #[test]
    fn quiet_market_spot_fleet_is_strictly_cheaper() {
        let catalog = default_catalog();
        let w = Workload::cifar10_bsp();
        let cfg = config(RepairPolicy::spot_with_fallback(), 0.0, 7);
        let report = run_elastic(&w, &catalog, &cfg).expect("feasible goal");
        assert_eq!(report.training.revocations, 0);
        assert!(
            report.realized_cost < report.on_demand_baseline_cost,
            "spot fleet with no revocations must undercut on-demand: {} vs {}",
            report.realized_cost,
            report.on_demand_baseline_cost
        );
        assert!(report.met_deadline);
        assert!(report.met_loss);
    }

    #[test]
    fn revocations_are_repaired_and_job_completes() {
        let catalog = default_catalog();
        let w = Workload::cifar10_bsp();
        // High reclaim rate so the ~700 s run sees revocations.
        let cfg = config(RepairPolicy::spot_with_fallback(), 20.0, 11);
        let report = run_elastic(&w, &catalog, &cfg).expect("feasible goal");
        assert!(
            report.revocations() > 0,
            "a 20/hour reclaim rate should hit a ~15-minute run"
        );
        assert_eq!(
            report.revocations(),
            report.repairs() + report.shrinks(),
            "every reclaim gets exactly one decision"
        );
        assert!(report.met_loss, "training still converges under repair");
    }

    #[test]
    fn mixed_fleet_reclaims_only_spot_slots() {
        let catalog = default_catalog();
        let w = Workload::cifar10_bsp();
        let cfg = config(RepairPolicy::mixed(0.5), 20.0, 13);
        let report = run_elastic(&w, &catalog, &cfg).expect("feasible goal");
        let n = report.plan.n_workers as usize;
        let first_spot_slot = n - (0.5 * n as f64).round() as usize;
        for e in &report.timeline {
            if matches!(e.kind, TimelineKind::Revoked) {
                assert!(
                    e.slot >= first_spot_slot,
                    "on-demand anchor slot {} was reclaimed",
                    e.slot
                );
            }
        }
    }

    #[test]
    fn summary_aggregates_over_seeds() {
        let catalog = default_catalog();
        let w = Workload::cifar10_bsp();
        let cfg = config(RepairPolicy::spot_with_fallback(), 4.0, 0);
        let summary = summarize(&w, &catalog, &cfg, &[3, 5, 9]).expect("feasible goal");
        assert_eq!(summary.runs, 3);
        assert!((0.0..=1.0).contains(&summary.deadline_miss_rate));
        assert!(summary.mean_realized_cost > 0.0);
        assert!(summary.mean_on_demand_cost > 0.0);
    }
}
