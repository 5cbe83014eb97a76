//! Fleet study — provisioning a production job stream.
//!
//! The paper's framing assumes "DDNN workloads are repeatedly executed in
//! production clusters" (Sec. 4 Remark): profiling and loss fitting are
//! amortized across many submissions of the same jobs. This experiment
//! plays that out: a synthetic stream of job submissions (the four Table 1
//! workloads with randomized deadlines and loss targets) is planned by
//! Cynthia and by the modified Optimus, every plan is executed on the
//! ground-truth simulator, and the aggregate bill and goal-attainment
//! rates are compared — the fleet-level version of Figs. 11–13.

use crate::common::{render_table, ExpConfig};
use crate::fig11::{execute_plan, oracle_loss};
use cynthia_baselines::{plan_with_optimus, OptimusModel};
use cynthia_core::profiler::{profile_workload, ProfileData};
use cynthia_core::provisioner::{plan, Goal, PlannerOptions};
use cynthia_models::Workload;
use cynthia_sim::rng::component_rng;
use rand::Rng;
use serde::Serialize;

#[derive(Debug, Clone, Serialize)]
pub struct JobOutcome {
    pub workload: String,
    pub deadline_s: f64,
    pub target_loss: f64,
    /// `(met goal, cost)` per strategy; `None` = no feasible plan.
    pub cynthia: Option<(bool, f64)>,
    pub optimus: Option<(bool, f64)>,
}

#[derive(Debug, Clone, Serialize)]
pub struct Fleet {
    pub jobs: Vec<JobOutcome>,
    pub cynthia_total_cost: f64,
    pub optimus_total_cost: f64,
    pub cynthia_attainment: f64,
    pub optimus_attainment: f64,
}

/// Draws a randomized but feasible goal for the workload.
fn draw_goal(w: &Workload, rng: &mut impl Rng) -> Goal {
    let floor = w.convergence.beta1;
    // Loss targets between 1.3x and 2.2x the floor; deadlines 1-4 hours.
    let target_loss = floor * rng.gen_range(1.3..2.2);
    let deadline_secs = rng.gen_range(3600.0..14400.0);
    Goal {
        deadline_secs,
        target_loss,
    }
}

/// Plans and executes `jobs_per_workload` randomized submissions of each
/// Table 1 workload under both strategies.
pub fn run(cfg: &ExpConfig) -> Fleet {
    let jobs_per_workload = if cfg.quick { 2 } else { 5 };
    let opts = PlannerOptions::default();
    let mut jobs = Vec::new();

    for (wi, workload) in Workload::table1().into_iter().enumerate() {
        // Amortized one-time artifacts, exactly as the paper argues.
        let profile: ProfileData = profile_workload(&workload, cfg.m4(), cfg.seed);
        let loss = oracle_loss(&workload);
        let optimus_model =
            OptimusModel::fit_from_simulation(&workload, cfg.m4(), &[1, 2, 3, 4], cfg.seed);
        let mut rng = component_rng(cfg.seed, "fleet-goals", wi as u64);

        // Goals are drawn serially (one shared RNG stream), then each
        // submission is planned and executed in parallel — planning and
        // execution are pure functions of (cfg, workload, goal).
        let goals: Vec<Goal> = (0..jobs_per_workload)
            .map(|_| draw_goal(&workload, &mut rng))
            .collect();
        jobs.extend(rayon::par_map(goals, |goal| {
            let cynthia = plan(&profile, &loss, &cfg.catalog, &goal, &opts).map(|p| {
                let o = execute_plan(cfg, &workload, &p, &goal, "Cynthia");
                (
                    o.met_deadline && o.achieved_loss <= goal.target_loss * 1.1,
                    o.cost_usd,
                )
            });
            let optimus =
                plan_with_optimus(&optimus_model, &profile, &loss, &cfg.catalog, &goal, &opts).map(
                    |p| {
                        let o = execute_plan(cfg, &workload, &p, &goal, "Optimus");
                        (
                            o.met_deadline && o.achieved_loss <= goal.target_loss * 1.1,
                            o.cost_usd,
                        )
                    },
                );
            JobOutcome {
                workload: workload.id(),
                deadline_s: goal.deadline_secs,
                target_loss: goal.target_loss,
                cynthia,
                optimus,
            }
        }));
    }

    let total = |f: &dyn Fn(&JobOutcome) -> Option<(bool, f64)>| -> (f64, f64) {
        let planned: Vec<(bool, f64)> = jobs.iter().filter_map(f).collect();
        if planned.is_empty() {
            return (0.0, 0.0);
        }
        let cost = planned.iter().map(|(_, c)| c).sum();
        let met = planned.iter().filter(|(m, _)| *m).count() as f64 / planned.len() as f64;
        (cost, met)
    };
    let (cynthia_total_cost, cynthia_attainment) = total(&|j| j.cynthia);
    let (optimus_total_cost, optimus_attainment) = total(&|j| j.optimus);

    Fleet {
        jobs,
        cynthia_total_cost,
        optimus_total_cost,
        cynthia_attainment,
        optimus_attainment,
    }
}

impl Fleet {
    /// Renders the per-job table and the aggregate.
    pub fn render(&self) -> String {
        let fmt = |o: &Option<(bool, f64)>| match o {
            Some((met, cost)) => format!("{} ${cost:.2}", if *met { "met" } else { "MISS" }),
            None => "infeasible".into(),
        };
        let rows: Vec<Vec<String>> = self
            .jobs
            .iter()
            .map(|j| {
                vec![
                    j.workload.clone(),
                    format!("{:.0}", j.deadline_s),
                    format!("{:.2}", j.target_loss),
                    fmt(&j.cynthia),
                    fmt(&j.optimus),
                ]
            })
            .collect();
        format!(
            "Fleet study: randomized production job stream\n{}\naggregate: Cynthia ${:.2} at {:.0}% attainment | Optimus ${:.2} at {:.0}% attainment\n",
            render_table(
                &["workload", "deadline(s)", "loss", "Cynthia", "Optimus"],
                &rows
            ),
            self.cynthia_total_cost,
            self.cynthia_attainment * 100.0,
            self.optimus_total_cost,
            self.optimus_attainment * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_favors_cynthia() {
        let cfg = ExpConfig::quick();
        let f = run(&cfg);
        assert_eq!(f.jobs.len(), 8);
        // Cynthia attains every goal it plans for.
        assert!(
            f.cynthia_attainment > 0.99,
            "attainment {:.0}%",
            f.cynthia_attainment * 100.0
        );
        // And the fleet bill is no worse than Optimus's (usually better).
        assert!(
            f.cynthia_total_cost <= f.optimus_total_cost * 1.02,
            "Cynthia ${} vs Optimus ${}",
            f.cynthia_total_cost,
            f.optimus_total_cost
        );
    }
}
