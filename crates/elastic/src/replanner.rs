//! Online replanning: re-running the Theorem 4.1 band search mid-flight.
//!
//! When a spot worker is reclaimed at time `t`, the job is no longer the
//! one Alg. 1 planned for: some updates are already done, some deadline is
//! already spent, and the fleet is one worker short. The [`Replanner`]
//! restates the *remainder* as a fresh Cynthia provisioning problem —
//! "reach `total − done` more updates in `deadline − t` seconds" — and
//! reuses the paper's own machinery (Eq. (1) inversion, Theorem 4.1 worker
//! bounds from Eqs. (13)–(14), the Sec. 3 performance model) to decide
//! whether the slot is worth repairing at all, and on what capacity.
//!
//! The remaining-update count is folded back into a *pseudo target loss*
//! `l*` such that inverting Eq. (1) at `l*` yields exactly the remaining
//! updates: `l* = β0·stale/rem + β1` (stale = 1 for BSP, √n for ASP). That
//! keeps `worker_bounds` — written in terms of `(deadline, loss)` goals —
//! applicable verbatim to mid-run state.

use cynthia_cloud::InstanceType;
use cynthia_core::provisioner::{worker_bounds, Goal, PlannerOptions};
use cynthia_core::{ClusterShape, CynthiaModel, FittedLossModel, PerfModel, ProfileData};
use cynthia_models::SyncMode;
use serde::{Deserialize, Serialize};

use crate::policy::{RepairAction, RepairPolicy};

/// Safety factor applied to the predicted remaining time before the
/// replanner is allowed to shrink: shrinking is irreversible (the engine
/// cannot re-grow), so it must clear the deadline with margin.
const SHRINK_MARGIN: f64 = 1.25;

/// Mid-run fleet state handed to [`Replanner::decide`] at a revocation.
#[derive(Debug, Clone, Copy)]
pub struct ReplanInput<'a> {
    /// Wall-clock time of the revocation, seconds since job start.
    pub now: f64,
    /// The original goal's deadline, seconds since job start.
    pub deadline_secs: f64,
    /// Global updates committed so far.
    pub updates_done: u64,
    /// Global updates the plan budgets in total.
    pub total_updates: u64,
    /// Instance type the fleet runs on.
    pub ty: &'a InstanceType,
    /// Worker slots alive immediately *before* the revocation (the
    /// reclaimed slot included).
    pub n_slots: u32,
    /// Parameter-server count (fixed; PS nodes stay on-demand).
    pub n_ps: u32,
    /// Decision latency + instance launch time for a replacement, secs.
    pub repair_latency_secs: f64,
}

/// What the replanner decided, with the Theorem 4.1 evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RepairDecision {
    pub action: RepairAction,
    /// Pseudo target loss `l*` encoding the remaining update count.
    pub pseudo_target_loss: f64,
    /// Eq. (13)/(14) lower worker bound for the remaining subproblem
    /// (`u32::MAX` when no worker count can meet the remaining goal).
    pub n_lower: u32,
    /// Model-predicted time to finish the remainder after the chosen
    /// action takes effect, seconds.
    pub predicted_remaining_secs: f64,
    /// Deadline slack left after that prediction, seconds (negative
    /// when the deadline is already forecast to be missed).
    pub slack_secs: f64,
}

/// Re-runs the band search of Theorem 4.1 against remaining work and
/// remaining deadline at each revocation or price-change epoch.
pub struct Replanner {
    /// The job's one-shot profile, input to the Theorem 4.1 bounds.
    profile: ProfileData,
    /// The fitted Eq. (1) model that the pseudo target loss inverts.
    loss: FittedLossModel,
    /// The Sec. 3 model, evaluated afresh at every query: the remaining
    /// update count changes at every market event, so no point recurs.
    model: CynthiaModel,
    /// Alg. 1's knobs; the replanner applies their deadline headroom.
    options: PlannerOptions,
}

impl Replanner {
    pub fn new(profile: ProfileData, loss: FittedLossModel, options: PlannerOptions) -> Self {
        let model = CynthiaModel::new(profile.clone());
        Replanner {
            profile,
            loss,
            model,
            options,
        }
    }

    /// The pseudo target loss `l*` whose Eq. (1) inversion equals
    /// `remaining_updates` at the given fleet width.
    pub fn pseudo_target_loss(&self, remaining_updates: u64, n_workers: u32) -> f64 {
        assert!(remaining_updates > 0, "no remaining work to plan for");
        let stale = match self.loss.sync {
            SyncMode::Bsp => 1.0,
            SyncMode::Asp => (n_workers.max(1) as f64).sqrt(),
        };
        self.loss.beta0 * stale / remaining_updates as f64 + self.loss.beta1
    }

    /// Model-predicted seconds to run `remaining_updates` on `n` workers.
    pub fn predicted_remaining_secs(
        &self,
        ty: &InstanceType,
        n: u32,
        n_ps: u32,
        remaining_updates: u64,
    ) -> f64 {
        let shape = ClusterShape::homogeneous(ty, n.max(1), n_ps);
        self.model.predict_time(&shape, remaining_updates)
    }

    /// The smallest fleet width that can still rescue a failing run:
    /// inside the Theorem 4.1 band of the remaining subproblem *and*
    /// predicted by the Sec. 3 model to clear `window_secs` with the
    /// planner's headroom. `None` when no width in the band can — the
    /// deadline is unsalvageable on this instance type.
    pub fn rescue_width(
        &self,
        ty: &InstanceType,
        n_now: u32,
        n_ps: u32,
        remaining_updates: u64,
        window_secs: f64,
    ) -> Option<u32> {
        if remaining_updates == 0 {
            return Some(n_now.max(1));
        }
        crate::obs::rescue_search();
        let l_star = self.pseudo_target_loss(remaining_updates, n_now.max(1));
        let goal = Goal {
            deadline_secs: window_secs.max(f64::MIN_POSITIVE),
            target_loss: l_star,
        };
        let bounds = worker_bounds(&self.profile, &self.loss, ty, &goal)?;
        let effective = window_secs * self.options.headroom;
        (bounds.n_lower.max(1)..=bounds.n_upper.max(bounds.n_lower.max(1)))
            .find(|&n| self.predicted_remaining_secs(ty, n, n_ps, remaining_updates) <= effective)
    }

    /// Decide what to do about one reclaimed worker slot.
    ///
    /// Order of preference: **shrink** when the surviving fleet sits
    /// inside the remaining subproblem's Theorem 4.1 band and clears the
    /// deadline with `SHRINK_MARGIN`; otherwise **repair**, on spot
    /// while post-repair slack exceeds the policy's fallback threshold,
    /// on-demand once it does not.
    pub fn decide(&self, policy: &RepairPolicy, input: &ReplanInput<'_>) -> RepairDecision {
        let rem = input.total_updates.saturating_sub(input.updates_done);
        let n_after = input.n_slots.saturating_sub(1);
        if rem == 0 {
            // Nothing left to do; a replacement could never pay for itself.
            return RepairDecision {
                action: RepairAction::Shrink,
                pseudo_target_loss: self.loss.beta1,
                n_lower: 0,
                predicted_remaining_secs: 0.0,
                slack_secs: input.deadline_secs - input.now,
            };
        }

        let window = (input.deadline_secs - input.now).max(f64::MIN_POSITIVE);
        // Plan the remainder against the headroom-discounted window, as
        // Alg. 1 does for the full job.
        let effective_window = window * self.options.headroom;
        let l_star = self.pseudo_target_loss(rem, input.n_slots);

        // Theorem 4.1 band for the remaining subproblem. The band's
        // deadline excludes the repair latency so that a repaired fleet —
        // which only resumes after the replacement boots — is judged on
        // the time it actually has.
        let goal = Goal {
            deadline_secs: (effective_window - input.repair_latency_secs).max(f64::MIN_POSITIVE),
            target_loss: l_star,
        };
        let n_lower = worker_bounds(&self.profile, &self.loss, input.ty, &goal)
            .map(|b| b.n_lower)
            .unwrap_or(u32::MAX);

        // Shrink: feasible iff the survivors alone clear the remaining
        // deadline (no repair latency to subtract — they keep running).
        if n_after >= 1 && n_after >= n_lower {
            let t_shrunk = self.predicted_remaining_secs(input.ty, n_after, input.n_ps, rem);
            if t_shrunk * SHRINK_MARGIN <= effective_window {
                return RepairDecision {
                    action: RepairAction::Shrink,
                    pseudo_target_loss: l_star,
                    n_lower,
                    predicted_remaining_secs: t_shrunk,
                    slack_secs: window - t_shrunk,
                };
            }
        }

        // Repair: restore the planned width after the repair latency.
        let t_repaired = input.repair_latency_secs
            + self.predicted_remaining_secs(input.ty, input.n_slots, input.n_ps, rem);
        let slack = window - t_repaired;
        let action = if matches!(policy, RepairPolicy::OnDemandOnly) {
            RepairAction::ReplaceWithOnDemand
        } else if slack > policy.fallback_slack_factor() * input.repair_latency_secs {
            RepairAction::ReplaceWithSpot
        } else {
            RepairAction::ReplaceWithOnDemand
        };
        RepairDecision {
            action,
            pseudo_target_loss: l_star,
            n_lower,
            predicted_remaining_secs: t_repaired,
            slack_secs: slack,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cynthia_cloud::default_catalog;
    use cynthia_core::profile_workload;
    use cynthia_models::Workload;

    fn replanner(w: &Workload) -> (Replanner, InstanceType) {
        let catalog = default_catalog();
        let ty = catalog.expect("m4.xlarge").clone();
        let profile = profile_workload(w, &ty, 17);
        let loss = FittedLossModel {
            sync: w.sync,
            beta0: w.convergence.beta0,
            beta1: w.convergence.beta1,
            r_squared: 1.0,
        };
        (Replanner::new(profile, loss, PlannerOptions::default()), ty)
    }

    fn input<'a>(
        ty: &'a InstanceType,
        now: f64,
        deadline: f64,
        done: u64,
        total: u64,
        n: u32,
    ) -> ReplanInput<'a> {
        ReplanInput {
            now,
            deadline_secs: deadline,
            updates_done: done,
            total_updates: total,
            ty,
            n_slots: n,
            n_ps: 1,
            repair_latency_secs: 100.0,
        }
    }

    #[test]
    fn pseudo_target_inverts_to_remaining_updates() {
        let w = Workload::cifar10_bsp();
        let (rp, _) = replanner(&w);
        for rem in [1u64, 7, 133, 4096] {
            let l = rp.pseudo_target_loss(rem, 4);
            let back = rp.loss.bsp_iterations_for(l).unwrap();
            // ceil() of an exact quotient may round one update up.
            assert!(
                back == rem || back == rem + 1,
                "rem={rem} inverted to {back}"
            );
        }
    }

    #[test]
    fn pseudo_target_inverts_for_asp() {
        let w = Workload::vgg19_asp();
        let (rp, _) = replanner(&w);
        for n in [2u32, 4, 9] {
            let rem = 900u64;
            let l = rp.pseudo_target_loss(rem, n);
            let back = rp.loss.total_updates_for(l, n).unwrap();
            assert!(
                back == rem || back == rem + 1,
                "n={n}: rem={rem} inverted to {back}"
            );
        }
    }

    /// A deadline just too tight for the two survivors to finish alone
    /// (shrink needs `t_shrunk · 1.25 ≤ window · headroom`, headroom 0.9),
    /// forcing the replanner into the repair branch.
    fn repair_forcing_deadline(rp: &Replanner, ty: &InstanceType, total: u64) -> f64 {
        rp.predicted_remaining_secs(ty, 2, 1, total) * 1.25 / 0.9 * 0.99
    }

    #[test]
    fn ample_slack_repairs_with_spot() {
        let w = Workload::cifar10_bsp();
        let (rp, ty) = replanner(&w);
        // Shrink infeasible, but restoring the third worker leaves ample
        // slack: gamble on spot.
        let deadline = repair_forcing_deadline(&rp, &ty, 400);
        let d = rp.decide(
            &RepairPolicy::spot_with_fallback(),
            &input(&ty, 0.0, deadline, 0, 400, 3),
        );
        assert!(
            d.slack_secs > 2.0 * 100.0,
            "scenario must leave post-repair slack above the fallback threshold"
        );
        assert_eq!(d.action, RepairAction::ReplaceWithSpot);
    }

    #[test]
    fn tight_deadline_falls_back_to_on_demand() {
        let w = Workload::cifar10_bsp();
        let (rp, ty) = replanner(&w);
        // Mid-run with little slack left: the policy must not gamble on
        // another revocation.
        let total = 400u64;
        let t3 = rp.predicted_remaining_secs(&ty, 3, 1, total);
        let deadline = t3 * 1.3; // feasible for 3 workers, but tight
        let d = rp.decide(
            &RepairPolicy::spot_with_fallback(),
            &input(&ty, deadline * 0.5, deadline, total / 2, total, 3),
        );
        assert_eq!(d.action, RepairAction::ReplaceWithOnDemand);
    }

    #[test]
    fn near_finish_shrinks() {
        let w = Workload::cifar10_bsp();
        let (rp, ty) = replanner(&w);
        // 98% done with most of the deadline left: survivors finish alone.
        let d = rp.decide(
            &RepairPolicy::spot_with_fallback(),
            &input(&ty, 500.0, 20_000.0, 392, 400, 3),
        );
        assert_eq!(d.action, RepairAction::Shrink);
        assert!(d.predicted_remaining_secs < 20_000.0 - 500.0);
    }

    #[test]
    fn no_remaining_work_always_shrinks() {
        let w = Workload::cifar10_bsp();
        let (rp, ty) = replanner(&w);
        let d = rp.decide(
            &RepairPolicy::OnDemandOnly,
            &input(&ty, 900.0, 1800.0, 400, 400, 3),
        );
        assert_eq!(d.action, RepairAction::Shrink);
        assert_eq!(d.predicted_remaining_secs, 0.0);
    }

    #[test]
    fn on_demand_only_never_picks_spot() {
        let w = Workload::cifar10_bsp();
        let (rp, ty) = replanner(&w);
        let deadline = repair_forcing_deadline(&rp, &ty, 400);
        let d = rp.decide(
            &RepairPolicy::OnDemandOnly,
            &input(&ty, 0.0, deadline, 0, 400, 3),
        );
        assert_eq!(d.action, RepairAction::ReplaceWithOnDemand);
    }

    #[test]
    fn last_surviving_worker_is_never_shrunk_away() {
        let w = Workload::cifar10_bsp();
        let (rp, ty) = replanner(&w);
        let d = rp.decide(
            &RepairPolicy::spot_with_fallback(),
            &input(&ty, 60.0, 200_000.0, 399, 400, 1),
        );
        assert_ne!(d.action, RepairAction::Shrink);
    }
}
