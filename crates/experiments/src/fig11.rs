//! Fig. 11 — goal attainment and monetary cost under Cynthia vs the
//! modified Optimus provisioner, for the cifar10 DNN and ResNet-32 (both
//! BSP) across deadlines of 90/120/180 minutes.
//!
//! Shapes reproduced:
//! * Cynthia meets the deadline for every goal.
//! * Optimus's additive model over-estimates BSP time, over-provisions,
//!   and therefore costs more (the paper: 0.9–9.9% extra for these
//!   goals, up to 50.6% in Fig. 12).

use crate::common::{render_table, ExpConfig};
use cynthia_baselines::{plan_with_optimus, OptimusModel};
use cynthia_cloud::billing::static_cluster_cost;
use cynthia_core::loss_model::FittedLossModel;
use cynthia_core::profiler::{profile_workload, ProfileData};
use cynthia_core::provisioner::{plan, Goal, Plan, PlannerOptions};
use cynthia_models::{SyncMode, Workload};
use cynthia_train::{simulate, ClusterSpec, TrainJob};
use serde::Serialize;

/// What one strategy did for one goal.
#[derive(Debug, Clone, Serialize)]
pub struct StrategyOutcome {
    pub strategy: String,
    /// e.g. `"9*m4.xlarge + 1ps"`; `"infeasible"` when no plan exists.
    pub plan: String,
    pub n_workers: u32,
    pub n_ps: u32,
    /// Actual (simulated) training time under the plan.
    pub actual_time_s: f64,
    /// Eq. (8) cost at the actual runtime.
    pub cost_usd: f64,
    pub met_deadline: bool,
    pub achieved_loss: f64,
}

#[derive(Debug, Clone, Serialize)]
pub struct GoalRow {
    pub workload: String,
    pub deadline_s: f64,
    pub target_loss: f64,
    pub cynthia: StrategyOutcome,
    pub optimus: StrategyOutcome,
}

#[derive(Debug, Clone, Serialize)]
pub struct Fig11 {
    pub rows: Vec<GoalRow>,
}

/// Executes plans on the ground-truth simulator and scores each against
/// its goal. `jobs` holds `(plan, goal, strategy)`; a job with no plan
/// scores `None`. A run depends only on the instance type, the cluster
/// shape and the update count, so each distinct one is simulated once and
/// shared by every goal and strategy that picked it (Cynthia and Optimus,
/// or two deadlines, often pick the same cluster). Outcomes come back in
/// input order.
pub(crate) fn execute_plans(
    cfg: &ExpConfig,
    workload: &Workload,
    jobs: &[(Option<Plan>, Goal, &str)],
) -> Vec<Option<StrategyOutcome>> {
    let same_run = |a: &Plan, b: &Plan| {
        (&a.type_name, a.n_workers, a.n_ps, a.total_updates)
            == (&b.type_name, b.n_workers, b.n_ps, b.total_updates)
    };
    let mut runs: Vec<&Plan> = Vec::new();
    let run_of: Vec<Option<usize>> = jobs
        .iter()
        .map(|(p, _, _)| {
            let p = p.as_ref()?;
            Some(runs.iter().position(|q| same_run(q, p)).unwrap_or_else(|| {
                runs.push(p);
                runs.len() - 1
            }))
        })
        .collect();
    let reports = rayon::par_map(runs, |p| {
        let ty = cfg.catalog.expect(&p.type_name);
        simulate(&TrainJob {
            workload: &workload.clone().with_iterations(p.total_updates),
            cluster: ClusterSpec::homogeneous(ty, p.n_workers, p.n_ps),
            config: cfg.sim(0),
        })
    });
    jobs.iter()
        .zip(run_of)
        .map(|((the_plan, goal, strategy), run)| {
            let (the_plan, report) = (the_plan.as_ref()?, &reports[run?]);
            let ty = cfg.catalog.expect(&the_plan.type_name);
            Some(StrategyOutcome {
                strategy: strategy.to_string(),
                plan: format!(
                    "{}*{} + {}ps",
                    the_plan.n_workers, the_plan.type_name, the_plan.n_ps
                ),
                n_workers: the_plan.n_workers,
                n_ps: the_plan.n_ps,
                actual_time_s: report.total_time,
                cost_usd: static_cluster_cost(
                    ty.price_per_hour,
                    the_plan.n_workers,
                    ty.price_per_hour,
                    the_plan.n_ps,
                    report.total_time,
                ),
                met_deadline: report.total_time <= goal.deadline_secs,
                achieved_loss: report.final_loss,
            })
        })
        .collect()
}

fn infeasible(strategy: &str) -> StrategyOutcome {
    StrategyOutcome {
        strategy: strategy.to_string(),
        plan: "infeasible".into(),
        n_workers: 0,
        n_ps: 0,
        actual_time_s: f64::NAN,
        cost_usd: f64::NAN,
        met_deadline: false,
        achieved_loss: f64::NAN,
    }
}

/// Ground-truth loss model (as if fitted from a prior production run of
/// the job, which is the paper's assumption).
pub(crate) fn oracle_loss(workload: &Workload) -> FittedLossModel {
    FittedLossModel {
        sync: workload.sync,
        beta0: workload.convergence.beta0,
        beta1: workload.convergence.beta1,
        r_squared: 1.0,
    }
}

/// Runs both strategies for each `(deadline, loss)` goal.
pub(crate) fn run_goals(
    cfg: &ExpConfig,
    workload: &Workload,
    goals: &[(f64, f64)],
) -> Vec<GoalRow> {
    let profile: ProfileData = profile_workload(workload, cfg.m4(), cfg.seed);
    let loss = oracle_loss(workload);
    let optimus_model =
        OptimusModel::fit_from_simulation(workload, cfg.m4(), &[1, 2, 3, 4], cfg.seed);
    let opts = PlannerOptions::default();
    let mut jobs = Vec::new();
    for &(deadline_secs, target_loss) in goals {
        let goal = Goal {
            deadline_secs,
            target_loss,
        };
        let cynthia = plan(&profile, &loss, &cfg.catalog, &goal, &opts);
        let optimus =
            plan_with_optimus(&optimus_model, &profile, &loss, &cfg.catalog, &goal, &opts);
        jobs.push((cynthia, goal, "Cynthia"));
        jobs.push((optimus, goal, "Optimus"));
    }
    let outcomes = execute_plans(cfg, workload, &jobs);
    let outcome =
        |o: &Option<StrategyOutcome>, strategy| o.clone().unwrap_or_else(|| infeasible(strategy));
    goals
        .iter()
        .zip(outcomes.chunks_exact(2))
        .map(|(&(deadline_s, target_loss), pair)| GoalRow {
            workload: workload.id(),
            deadline_s,
            target_loss,
            cynthia: outcome(&pair[0], "Cynthia"),
            optimus: outcome(&pair[1], "Optimus"),
        })
        .collect()
}

/// Runs the Fig. 11 goals: 90/120/180 min; cifar10 at loss 0.8, ResNet-32
/// (BSP) at loss 0.6.
pub fn run(cfg: &ExpConfig) -> Fig11 {
    let cifar = Workload::cifar10_bsp();
    let resnet = Workload::resnet32_asp().with_sync(SyncMode::Bsp);
    let mut rows = run_goals(cfg, &cifar, &[(5400.0, 0.8), (7200.0, 0.8), (10800.0, 0.8)]);
    rows.extend(run_goals(
        cfg,
        &resnet,
        &[(5400.0, 0.6), (7200.0, 0.6), (10800.0, 0.6)],
    ));
    Fig11 { rows }
}

/// Renders goal rows (shared by Figs. 11–13).
pub(crate) fn render_rows(title: &str, rows: &[GoalRow]) -> String {
    let table: Vec<Vec<String>> = rows
        .iter()
        .flat_map(|r| {
            [&r.cynthia, &r.optimus].into_iter().map(move |s| {
                vec![
                    r.workload.clone(),
                    format!("{:.0}", r.deadline_s),
                    format!("{:.2}", r.target_loss),
                    s.strategy.clone(),
                    s.plan.clone(),
                    if s.actual_time_s.is_nan() {
                        "-".into()
                    } else {
                        format!("{:.0}", s.actual_time_s)
                    },
                    if s.met_deadline { "yes" } else { "NO" }.into(),
                    if s.cost_usd.is_nan() {
                        "-".into()
                    } else {
                        format!("{:.3}", s.cost_usd)
                    },
                ]
            })
        })
        .collect();
    format!(
        "{title}\n{}",
        render_table(
            &["workload", "goal(s)", "loss", "strategy", "plan", "time(s)", "met", "cost($)"],
            &table
        )
    )
}

impl Fig11 {
    /// Renders the figure.
    pub fn render(&self) -> String {
        render_rows(
            "Fig. 11: BSP goal attainment and cost (Cynthia vs modified Optimus)",
            &self.rows,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cynthia_meets_every_bsp_goal_and_saves_money() {
        let cfg = ExpConfig::quick();
        let f = run(&cfg);
        assert_eq!(f.rows.len(), 6);
        let mut cheaper = 0;
        for r in &f.rows {
            assert!(
                r.cynthia.met_deadline,
                "Cynthia must meet {} @ {:.0}s (took {:.0}s)",
                r.workload, r.deadline_s, r.cynthia.actual_time_s
            );
            assert!(
                r.cynthia.achieved_loss <= r.target_loss * 1.1,
                "loss goal missed: {} vs {}",
                r.cynthia.achieved_loss,
                r.target_loss
            );
            if !r.optimus.cost_usd.is_nan() && r.cynthia.cost_usd <= r.optimus.cost_usd * 1.001 {
                cheaper += 1;
            }
        }
        assert!(
            cheaper >= 4,
            "Cynthia should be at least as cheap for most goals: {cheaper}/6"
        );
    }
}
