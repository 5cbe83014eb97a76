//! Cost-efficient cloud resource provisioning (Sec. 4).
//!
//! Given an objective training time `T_g` and loss value `l_g`, minimize
//! the monetary cost (Eq. 8) subject to the deadline (Eq. 9), the loss
//! target (Eq. 10), and the worker:PS ratio bound (Eqs. 11–12). The
//! problem is a non-convex integer program, so Algorithm 1 searches the
//! band of worker counts bounded by Theorem 4.1 (Eqs. 13–14) for every
//! instance type, starting from the minimum PS count (Eqs. 18/22) — the
//! paper shows empirically that extra PS nodes reduce cost efficiency, so
//! the PS count is escalated only when no feasible plan exists at the
//! minimum (this is how the 2-PS plans of Figs. 12/13 arise).
//!
//! A headroom factor (default 0.9) tightens the deadline the planner
//! aims for: the prototype must *meet* goals despite a few percent of
//! run-to-run variance (the paper "basically meets" its goals; we prefer
//! to clear them).
//!
//! ## The band pass
//!
//! For each `(instance type, n_ps)` band, [`plan_with_model`] computes
//! every candidate's Eq. 15/20 iteration budget, asks the model for the
//! whole band's predicted times in one [`PerfModel::predict_band`] call,
//! and then runs Alg. 1's selection over the results: ascending `n`, a
//! strict `<` on cost, and the `first_feasible` and minimum-PS breaks.
//! `predict_band` returns each candidate's `predict_time` bit for bit, so
//! the plan and `candidates_evaluated` are exactly those of a scan that
//! predicts one candidate at a time, which this module's tests keep as an
//! oracle. The buffers live for one `plan` call. An ASP budget whose
//! global updates `s · n` overflow `u64` makes its candidate infeasible.

use crate::loss_model::FittedLossModel;
use crate::perf_model::{ClusterShape, CynthiaModel, PerfModel};
use crate::profiler::ProfileData;
use cynthia_cloud::catalog::Catalog;
use cynthia_cloud::instance::InstanceType;
use cynthia_models::SyncMode;
use serde::{Deserialize, Serialize};

/// The user-facing training performance goal.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Goal {
    /// Objective training time `T_g`, seconds.
    pub deadline_secs: f64,
    /// Objective training loss `l_g`.
    pub target_loss: f64,
}

/// Planner knobs (mostly for ablations; defaults follow the paper).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlannerOptions {
    /// Stop at the first feasible worker count per type (Alg. 1's
    /// `break`); when `false`, scan the whole Theorem 4.1 band and keep
    /// the cheapest feasible point.
    pub first_feasible: bool,
    /// Use the Theorem 4.1 bounds to narrow the search. When `false`,
    /// scan `1..=max_workers` (perfbench `plan-grid` and `cynthia-exp
    /// ablations` measure what the bounds buy).
    pub use_bounds: bool,
    /// Hard cap on workers considered.
    pub max_workers: u32,
    /// Plan against `deadline · headroom` to absorb run-to-run variance.
    pub headroom: f64,
    /// How many extra PS nodes beyond the Theorem 4.1 minimum may be
    /// tried when the minimum is infeasible.
    pub max_ps_escalation: u32,
}

impl Default for PlannerOptions {
    fn default() -> Self {
        PlannerOptions {
            // Scan the whole (small) Theorem 4.1 band and keep the
            // cheapest feasible point: Eq. (8) asks for the *minimum*
            // monetary cost, and the band interior (the comp/comm balance
            // point of Fig. 3) is often cheaper than the smallest
            // feasible cluster.
            first_feasible: false,
            use_bounds: true,
            max_workers: 64,
            headroom: 0.9,
            max_ps_escalation: 3,
        }
    }
}

/// A concrete provisioning decision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Plan {
    /// Catalog name of the chosen instance type.
    pub type_name: String,
    /// Worker count `n` of the chosen cluster.
    pub n_workers: u32,
    /// Parameter-server count of the chosen cluster.
    pub n_ps: u32,
    /// Iterations the plan budgets for (total for BSP, per-worker for
    /// ASP — the paper's `s`).
    pub iterations: u64,
    /// Total global updates implied (equals `iterations` for BSP,
    /// `iterations · n_workers` for ASP).
    pub total_updates: u64,
    /// Predicted duration of one iteration (Eqs. 3/7), seconds.
    pub predicted_iter_time: f64,
    /// Predicted end-to-end training time, seconds.
    pub predicted_time: f64,
    /// Eq. (8) cost at the predicted runtime, $.
    pub predicted_cost: f64,
    /// Number of candidate points Alg. 1 evaluated (complexity metric,
    /// Sec. 5.3).
    pub candidates_evaluated: u32,
}

/// Theorem 4.1 quantities for one instance type.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkerBounds {
    /// Theorem 4.1 lower worker bound (Eq. 13/21).
    pub n_lower: u32,
    /// Theorem 4.1 upper worker bound (Eq. 14/22) at the minimum PS count.
    pub n_upper: u32,
    /// Minimum PS count `ceil(n_upper / r)` (Eq. 18).
    pub n_ps: u32,
    /// Eq. (12) maximum worker:PS provisioning ratio.
    pub r: f64,
    /// Eq. (17)'s updated ratio `u` (BSP) or `r` (ASP), used when
    /// escalating the PS count.
    ratio: f64,
    /// Inputs needed to recompute the upper bound for a larger PS count.
    balance_coeff: f64,
}

impl WorkerBounds {
    /// Eq. (19)/(23): the upper bound for an escalated PS count.
    pub fn upper_for(&self, n_ps: u32) -> u32 {
        let by_ratio = self.ratio * n_ps as f64;
        let upper = if self.balance_coeff.is_finite() {
            by_ratio.min((self.balance_coeff * n_ps as f64).sqrt())
        } else {
            by_ratio
        };
        (upper.ceil() as u32).max(self.n_lower)
    }
}

/// Eq. (12): the maximum worker:PS ratio that keeps the PS un-bottlenecked
/// — `min(c_base·c_ps/(c_prof·c_wk), b_ps·c_base/(b_prof·c_wk))`.
pub fn max_provision_ratio(profile: &ProfileData, ty: &InstanceType) -> f64 {
    let cb = profile.c_base_gflops;
    let cpu = cb * ty.node_gflops / (profile.c_prof_gflops * ty.core_gflops);
    let net = ty.nic_mbps * cb / (profile.b_prof_mbps * ty.core_gflops);
    cpu.min(net).max(1.0)
}

/// Theorem 4.1: worker-count bounds and the minimum PS count for one
/// instance type under the (headroom-adjusted) goal. Returns `None` when
/// the loss target is unreachable (at or below the fitted floor β1).
///
/// ```
/// use cynthia_core::provisioner::{worker_bounds, Goal};
/// use cynthia_core::{profile_workload, FittedLossModel};
/// use cynthia_cloud::default_catalog;
/// use cynthia_models::Workload;
///
/// let catalog = default_catalog();
/// let workload = Workload::cifar10_bsp();
/// let m4 = catalog.expect("m4.xlarge");
/// let profile = profile_workload(&workload, m4, 7);
/// let loss = FittedLossModel {
///     sync: workload.sync,
///     beta0: workload.convergence.beta0,
///     beta1: workload.convergence.beta1,
///     r_squared: 1.0,
/// };
/// let goal = Goal { deadline_secs: 7200.0, target_loss: 0.8 };
/// let b = worker_bounds(&profile, &loss, m4, &goal).expect("reachable");
/// // The Theorem 4.1 band is non-empty and the PS count keeps the
/// // worker:PS ratio within Eq. (12)'s cap.
/// assert!(1 <= b.n_lower && b.n_lower <= b.n_upper);
/// assert!(b.n_upper as f64 <= b.r * b.n_ps as f64 + 1.0);
///
/// // An unreachable loss target (at the fitted floor β1) yields None.
/// let impossible = Goal { deadline_secs: 7200.0, target_loss: loss.beta1 };
/// assert!(worker_bounds(&profile, &loss, m4, &impossible).is_none());
/// ```
pub fn worker_bounds(
    profile: &ProfileData,
    loss: &FittedLossModel,
    ty: &InstanceType,
    goal: &Goal,
) -> Option<WorkerBounds> {
    let r = max_provision_ratio(profile, ty);
    let w = profile.w_iter_gflops;
    let c_wk = ty.core_gflops;
    let g = profile.g_param_mb;
    let tg = goal.deadline_secs;
    match profile.sync {
        SyncMode::Bsp => {
            // Eq. (15): iterations for the target loss.
            let s = loss.bsp_iterations_for(goal.target_loss)? as f64;
            // Eq. (13): the deadline bounds per-worker compute.
            let n_lower = (w * s / (tg * c_wk)).ceil().max(1.0);
            // Eq. (17): updated ratio u = min(r, Tg·b_ps/(2·s·g)).
            let u = r.min(tg * ty.nic_mbps / (2.0 * s * g)).max(1.0);
            // Eq. (18): minimum PS count.
            let n_ps = (n_lower / u).ceil().max(1.0);
            // Eq. (19)'s compute/communication balance coefficient
            // (squared upper bound per PS node).
            let balance_coeff = w * ty.nic_mbps / (2.0 * g * c_wk);
            let mut bounds = WorkerBounds {
                n_lower: n_lower as u32,
                n_upper: 0,
                n_ps: n_ps as u32,
                r,
                ratio: u,
                balance_coeff,
            };
            bounds.n_upper = bounds.upper_for(bounds.n_ps);
            Some(bounds)
        }
        SyncMode::Asp => {
            if goal.target_loss <= loss.beta1 {
                return None;
            }
            // Eq. (21): lower bound from the per-worker iteration share.
            let num = w * (loss.beta0 - loss.beta1);
            let n_lower = (num / (c_wk * tg * goal.target_loss))
                .powi(2)
                .ceil()
                .max(1.0);
            // Eq. (22): minimum PS count; Eq. (23): upper bound.
            let n_ps = (n_lower / r).ceil().max(1.0);
            let mut bounds = WorkerBounds {
                n_lower: n_lower as u32,
                n_upper: 0,
                n_ps: n_ps as u32,
                r,
                ratio: r,
                balance_coeff: f64::INFINITY,
            };
            bounds.n_upper = bounds.upper_for(bounds.n_ps);
            Some(bounds)
        }
    }
}

/// Eq. 15/20: the iteration budget `s` for `n` workers and the global
/// updates it implies (`s` for BSP, `s · n` for ASP). `None` when the
/// loss target is unreachable (which `worker_bounds` already screens).
/// An ASP budget whose `s · n` overflows `u64` has no updates: that
/// candidate is infeasible.
fn budget(
    profile: &ProfileData,
    loss: &FittedLossModel,
    target_loss: f64,
    n: u32,
) -> Option<(u64, Option<u64>)> {
    match profile.sync {
        SyncMode::Bsp => {
            let s = loss.bsp_iterations_for(target_loss)?;
            Some((s, Some(s)))
        }
        SyncMode::Asp => {
            let s = loss.asp_iterations_per_worker(target_loss, n)?;
            Some((s, s.checked_mul(n as u64)))
        }
    }
}

/// Algorithm 1 with the Cynthia performance model.
///
/// ```
/// use cynthia_core::provisioner::{plan, Goal, PlannerOptions};
/// use cynthia_core::{profile_workload, FittedLossModel};
/// use cynthia_cloud::default_catalog;
/// use cynthia_models::Workload;
///
/// let catalog = default_catalog();
/// let workload = Workload::cifar10_bsp();
/// let profile = profile_workload(&workload, catalog.expect("m4.xlarge"), 7);
/// let loss = FittedLossModel {
///     sync: workload.sync,
///     beta0: workload.convergence.beta0,
///     beta1: workload.convergence.beta1,
///     r_squared: 1.0,
/// };
/// let goal = Goal { deadline_secs: 7200.0, target_loss: 0.8 };
/// let plan = plan(&profile, &loss, &catalog, &goal, &PlannerOptions::default())
///     .expect("a 2-hour cifar-10 goal is feasible");
/// assert!(plan.predicted_time < goal.deadline_secs);
/// assert!(plan.n_workers >= 1 && plan.n_ps >= 1);
/// ```
pub fn plan(
    profile: &ProfileData,
    loss: &FittedLossModel,
    catalog: &Catalog,
    goal: &Goal,
    options: &PlannerOptions,
) -> Option<Plan> {
    let model = CynthiaModel::new(profile.clone());
    plan_with_model(&model, profile, loss, catalog, goal, options)
}

fn check_goal(
    profile: &ProfileData,
    loss: &FittedLossModel,
    goal: &Goal,
    options: &PlannerOptions,
) {
    assert!(goal.deadline_secs > 0.0, "deadline must be positive");
    assert_eq!(profile.sync, loss.sync, "profile/loss sync mismatch");
    assert!(
        options.headroom > 0.0 && options.headroom <= 1.0,
        "headroom must be in (0, 1]"
    );
}

/// Algorithm 1 driven by an arbitrary performance model (the "modified
/// Optimus" comparison of footnote 4 substitutes the baseline model
/// here). Returns the cheapest feasible plan, or `None`.
///
/// The scan is serial: instance types in catalog order, worker counts
/// ascending, and a candidate replaces the running best only when it is
/// strictly cheaper, so the first cheapest point wins ties. Each band's
/// times come from one [`PerfModel::predict_band`] call (see the module
/// docs).
pub fn plan_with_model(
    model: &dyn PerfModel,
    profile: &ProfileData,
    loss: &FittedLossModel,
    catalog: &Catalog,
    goal: &Goal,
    options: &PlannerOptions,
) -> Option<Plan> {
    check_goal(profile, loss, goal, options);
    let _plan_guard = crate::obs::plan_started("provision.plan");
    let effective = Goal {
        deadline_secs: goal.deadline_secs * options.headroom,
        target_loss: goal.target_loss,
    };
    let mut best: Option<Plan> = None;
    let mut evaluated = 0u32;
    // One band's global updates and predicted times, reused by every band
    // of the call. Every real budget is at least one update, so 0 updates
    // marks a budget that overflowed.
    let (mut updates, mut times) = (Vec::new(), Vec::new());

    for ty in catalog.types() {
        let bounds = match worker_bounds(profile, loss, ty, &effective) {
            Some(b) => b,
            None => continue,
        };
        let _type_span = crate::obs::type_span(&ty.name);
        crate::obs::band_computed(bounds.n_lower, bounds.upper_for(bounds.n_ps));
        let mut found_for_type = false;
        for extra_ps in 0..=options.max_ps_escalation {
            if found_for_type {
                break; // prefer the minimum PS count (Sec. 5.1).
            }
            // A PS count past `u32::MAX` comes from a band far beyond any
            // worker cap: there is nothing left to escalate to.
            let Some(n_ps) = bounds.n_ps.checked_add(extra_ps) else {
                break;
            };
            let (lo, hi) = if options.use_bounds {
                (bounds.n_lower, bounds.upper_for(n_ps))
            } else {
                (1, options.max_workers)
            };
            let band = lo..=hi.min(options.max_workers);
            updates.clear();
            updates.reserve((*band.end() as usize + 1).saturating_sub(lo as usize));
            for n in band.clone() {
                let (_, total) = budget(profile, loss, effective.target_loss, n)?;
                updates.push(total.unwrap_or(0));
            }
            times.clear();
            times.resize(updates.len(), 0.0);
            model.predict_band(ty, n_ps, lo, &updates, &mut times);
            for ((n, &total_updates), &time) in band.zip(&updates).zip(&times) {
                evaluated += 1;
                let time = if total_updates == 0 {
                    f64::INFINITY
                } else {
                    time
                };
                // Eq. (9): the predicted runtime clears the deadline.
                let feasible = time < effective.deadline_secs;
                if !feasible {
                    continue;
                }
                found_for_type = true;
                // Eq. (8).
                let cost = cynthia_cloud::billing::static_cluster_cost(
                    ty.price_per_hour,
                    n,
                    ty.price_per_hour,
                    n_ps,
                    time,
                );
                let better = best
                    .as_ref()
                    .map(|b| cost < b.predicted_cost)
                    .unwrap_or(true);
                if better {
                    best = Some(Plan {
                        type_name: ty.name.clone(),
                        n_workers: n,
                        n_ps,
                        iterations: budget(profile, loss, effective.target_loss, n)?.0,
                        total_updates,
                        predicted_iter_time: model
                            .iter_time(&ClusterShape::homogeneous(ty, n, n_ps)),
                        predicted_time: time,
                        predicted_cost: cost,
                        candidates_evaluated: 0,
                    });
                }
                if options.first_feasible {
                    break; // Alg. 1 line 11: smallest feasible n per type.
                }
            }
        }
    }
    crate::obs::plan_finished(evaluated, best.is_some());
    best.map(|mut p| {
        p.candidates_evaluated = evaluated;
        p
    })
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::profile_workload;
    use cynthia_cloud::default_catalog;
    use cynthia_models::Workload;

    fn setup(w: &Workload) -> (ProfileData, FittedLossModel) {
        let cat = default_catalog();
        let profile = profile_workload(w, cat.expect("m4.xlarge"), 5);
        let c = w.convergence;
        let loss = FittedLossModel {
            sync: w.sync,
            beta0: c.beta0,
            beta1: c.beta1,
            r_squared: 1.0,
        };
        (profile, loss)
    }

    #[test]
    fn bounds_are_ordered_and_ratio_sane() {
        let w = Workload::cifar10_bsp();
        let (p, l) = setup(&w);
        let cat = default_catalog();
        let goal = Goal {
            deadline_secs: 7200.0,
            target_loss: 0.8,
        };
        let b = worker_bounds(&p, &l, cat.expect("m4.xlarge"), &goal).unwrap();
        assert!(b.n_lower >= 1);
        assert!(b.n_upper >= b.n_lower, "{b:?}");
        assert!(b.n_ps >= 1);
        assert!(b.r >= 1.0);
        // Escalating PS count relaxes the upper bound.
        assert!(b.upper_for(b.n_ps + 1) >= b.n_upper);
    }

    #[test]
    fn unreachable_loss_yields_no_bounds() {
        let w = Workload::cifar10_bsp();
        let (p, l) = setup(&w);
        let cat = default_catalog();
        let goal = Goal {
            deadline_secs: 7200.0,
            target_loss: 0.1, // below β1 = 0.45
        };
        assert!(worker_bounds(&p, &l, cat.expect("m4.xlarge"), &goal).is_none());
        assert!(plan(&p, &l, &cat, &goal, &PlannerOptions::default()).is_none());
    }

    #[test]
    fn tighter_deadline_needs_more_workers() {
        let w = Workload::cifar10_bsp();
        let (p, l) = setup(&w);
        let cat = default_catalog();
        let opts = PlannerOptions::default();
        let relaxed = plan(
            &p,
            &l,
            &cat,
            &Goal {
                deadline_secs: 10800.0,
                target_loss: 0.8,
            },
            &opts,
        )
        .unwrap();
        let tight = plan(
            &p,
            &l,
            &cat,
            &Goal {
                deadline_secs: 5400.0,
                target_loss: 0.8,
            },
            &opts,
        )
        .unwrap();
        assert!(
            tight.n_workers >= relaxed.n_workers,
            "tight {tight:?} vs relaxed {relaxed:?}"
        );
        assert!(tight.predicted_time < 5400.0 * opts.headroom);
        assert!(relaxed.predicted_time < 10800.0 * opts.headroom);
    }

    #[test]
    fn plan_meets_deadline_by_construction() {
        for w in [Workload::cifar10_bsp(), Workload::vgg19_asp()] {
            let (p, l) = setup(&w);
            let cat = default_catalog();
            let goal = Goal {
                deadline_secs: 5400.0,
                target_loss: 0.8,
            };
            let plan = plan(&p, &l, &cat, &goal, &PlannerOptions::default())
                .unwrap_or_else(|| panic!("no plan for {}", w.id()));
            assert!(plan.predicted_time < goal.deadline_secs);
            assert!(plan.predicted_cost > 0.0);
            assert!(plan.n_workers >= 1 && plan.n_ps >= 1);
        }
    }

    #[test]
    fn asp_total_updates_account_for_staleness() {
        let w = Workload::vgg19_asp();
        let (p, l) = setup(&w);
        let cat = default_catalog();
        let goal = Goal {
            deadline_secs: 5400.0,
            target_loss: 0.8,
        };
        let plan = plan(&p, &l, &cat, &goal, &PlannerOptions::default()).unwrap();
        assert_eq!(plan.total_updates, plan.iterations * plan.n_workers as u64);
    }

    #[test]
    fn tight_asp_goal_escalates_the_ps_count() {
        // A 30-minute VGG-19 goal cannot clear the single-PS NIC
        // saturation: the planner must provision a second PS (Fig. 13's
        // "2ps" plans).
        let w = Workload::vgg19_asp();
        let (p, l) = setup(&w);
        let cat = default_catalog();
        let goal = Goal {
            deadline_secs: 1800.0,
            target_loss: 0.8,
        };
        let plan = plan(&p, &l, &cat, &goal, &PlannerOptions::default())
            .expect("tight goal should be feasible with PS escalation");
        assert!(
            plan.n_ps >= 2 || plan.n_workers <= 7,
            "tight goal should either escalate PS or stay clear of saturation: {plan:?}"
        );
        assert!(plan.predicted_time < 1800.0 * 0.9);
    }

    #[test]
    fn full_scan_never_beats_itself_with_bounds_on_cost_feasibility() {
        // The bounds prune the space; the best full-scan plan must be at
        // least as cheap, and both must be feasible.
        let w = Workload::cifar10_bsp();
        let (p, l) = setup(&w);
        let cat = default_catalog();
        let goal = Goal {
            deadline_secs: 7200.0,
            target_loss: 0.8,
        };
        let bounded = plan(&p, &l, &cat, &goal, &PlannerOptions::default()).unwrap();
        let full = plan(
            &p,
            &l,
            &cat,
            &goal,
            &PlannerOptions {
                first_feasible: false,
                use_bounds: false,
                max_workers: 40,
                ..PlannerOptions::default()
            },
        )
        .unwrap();
        assert!(full.predicted_cost <= bounded.predicted_cost * 1.001);
        // And the bounded search evaluates far fewer candidates.
        assert!(
            bounded.candidates_evaluated * 3 < full.candidates_evaluated,
            "bounded {} vs full {}",
            bounded.candidates_evaluated,
            full.candidates_evaluated
        );
    }

    #[test]
    fn ratio_prevents_ps_bottleneck_in_plans() {
        let w = Workload::mnist_bsp();
        let (p, l) = setup(&w);
        let cat = default_catalog();
        let goal = Goal {
            deadline_secs: 600.0,
            target_loss: 0.1,
        };
        if let Some(plan) = plan(&p, &l, &cat, &goal, &PlannerOptions::default()) {
            let ty = cat.expect(&plan.type_name);
            let r = max_provision_ratio(&p, ty);
            assert!(
                (plan.n_workers as f64) <= r * plan.n_ps as f64 + 1.0,
                "plan violates Eq. (11): {plan:?}, r={r}"
            );
        }
    }
}
