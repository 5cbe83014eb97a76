//! Alg. 1 one candidate at a time, kept as a test oracle for the band
//! pass of [`plan_with_model`], and the property tests that run both over
//! the same random inputs.
//!
//! Both must agree bit for bit: every [`Plan`] field, with `to_bits` on
//! each `f64`, and `candidates_evaluated`.

use super::*;
use crate::perf_model::tests::table1_profiles;
use cynthia_cloud::default_catalog;
use proptest::prelude::*;

/// One evaluated `(n_workers, n_ps)` point of the Alg. 1 band search.
#[derive(Debug, Clone, Copy)]
struct CandidateEval {
    n: u32,
    n_ps: u32,
    /// Eq. 15/20 iteration budget, and the implied global updates.
    s: u64,
    total_updates: u64,
    /// Sec. 3 model's predicted runtime, seconds.
    time: f64,
    /// Eq. (8) cost; only meaningful when `feasible`.
    cost: f64,
    /// Eq. (9): predicted runtime clears the (headroom-adjusted) deadline.
    feasible: bool,
}

/// Evaluates one candidate point through [`PerfModel::predict_time`].
/// Returns `None` when the loss target is unreachable.
fn evaluate_candidate(
    model: &dyn PerfModel,
    profile: &ProfileData,
    loss: &FittedLossModel,
    ty: &InstanceType,
    effective: &Goal,
    n: u32,
    n_ps: u32,
) -> Option<CandidateEval> {
    let (s, total_updates) = budget(profile, loss, effective.target_loss, n)?;
    let (total_updates, time) = match total_updates {
        Some(u) => (
            u,
            model.predict_time(&ClusterShape::homogeneous(ty, n, n_ps), u),
        ),
        None => (0, f64::INFINITY),
    };
    let feasible = time < effective.deadline_secs;
    let cost = if feasible {
        cynthia_cloud::billing::static_cluster_cost(
            ty.price_per_hour,
            n,
            ty.price_per_hour,
            n_ps,
            time,
        )
    } else {
        f64::INFINITY
    };
    Some(CandidateEval {
        n,
        n_ps,
        s,
        total_updates,
        time,
        cost,
        feasible,
    })
}

/// Materializes the chosen candidate as a [`Plan`].
fn plan_from(model: &dyn PerfModel, ty: &InstanceType, c: &CandidateEval) -> Plan {
    let shape = ClusterShape::homogeneous(ty, c.n, c.n_ps);
    Plan {
        type_name: ty.name.clone(),
        n_workers: c.n,
        n_ps: c.n_ps,
        iterations: c.s,
        total_updates: c.total_updates,
        predicted_iter_time: model.iter_time(&shape),
        predicted_time: c.time,
        predicted_cost: c.cost,
        candidates_evaluated: 0,
    }
}

/// [`plan_with_model`] one candidate at a time.
fn plan_one_by_one(
    model: &dyn PerfModel,
    profile: &ProfileData,
    loss: &FittedLossModel,
    catalog: &Catalog,
    goal: &Goal,
    options: &PlannerOptions,
) -> Option<Plan> {
    check_goal(profile, loss, goal, options);
    let effective = Goal {
        deadline_secs: goal.deadline_secs * options.headroom,
        target_loss: goal.target_loss,
    };
    let mut best: Option<Plan> = None;
    let mut evaluated = 0u32;

    for ty in catalog.types() {
        let bounds = match worker_bounds(profile, loss, ty, &effective) {
            Some(b) => b,
            None => continue,
        };
        let mut found_for_type = false;
        for extra_ps in 0..=options.max_ps_escalation {
            if found_for_type {
                break;
            }
            let Some(n_ps) = bounds.n_ps.checked_add(extra_ps) else {
                break;
            };
            let (lo, hi) = if options.use_bounds {
                (bounds.n_lower, bounds.upper_for(n_ps))
            } else {
                (1, options.max_workers)
            };
            for n in lo..=hi.min(options.max_workers) {
                evaluated += 1;
                let c = evaluate_candidate(model, profile, loss, ty, &effective, n, n_ps)?;
                if !c.feasible {
                    continue;
                }
                found_for_type = true;
                let better = best
                    .as_ref()
                    .map(|b| c.cost < b.predicted_cost)
                    .unwrap_or(true);
                if better {
                    best = Some(plan_from(model, ty, &c));
                }
                if options.first_feasible {
                    break;
                }
            }
        }
    }
    best.map(|mut p| {
        p.candidates_evaluated = evaluated;
        p
    })
}

/// Keeps [`PerfModel::predict_band`]'s default, one `predict_time` per
/// candidate, around any model.
struct DefaultBand<M>(M);

impl<M: PerfModel> PerfModel for DefaultBand<M> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn iter_time(&self, shape: &ClusterShape) -> f64 {
        self.0.iter_time(shape)
    }

    fn predict_time(&self, shape: &ClusterShape, total_updates: u64) -> f64 {
        self.0.predict_time(shape, total_updates)
    }
}

/// The Optimus baseline's fitted form (`cynthia-baselines`, which this
/// crate's tests cannot link): `θ0·cpu/n + θ1 + θ2·net·n/p` per BSP
/// iteration, `θ0·cpu + θ1·net·n/p + θ2/n` per ASP worker cycle.
struct OptimusForm {
    sync: SyncMode,
    theta: [f64; 3],
    ref_core_gflops: f64,
    ref_nic_mbps: f64,
}

impl PerfModel for OptimusForm {
    fn name(&self) -> &str {
        "Optimus"
    }

    fn iter_time(&self, shape: &ClusterShape) -> f64 {
        let n = shape.n_workers() as f64;
        let p = shape.n_ps as f64;
        let [t0, t1, t2] = self.theta;
        let cpu = self.ref_core_gflops / shape.min_worker_gflops();
        let net = self.ref_nic_mbps / (shape.ps_total_bw / p);
        match self.sync {
            SyncMode::Bsp => t0 * cpu / n + t1 + t2 * net * n / p,
            SyncMode::Asp => t0 * cpu + t1 * net * n / p + t2 / n,
        }
    }

    fn predict_time(&self, shape: &ClusterShape, total_updates: u64) -> f64 {
        let s = total_updates as f64;
        match self.sync {
            SyncMode::Bsp => s * self.iter_time(shape),
            SyncMode::Asp => s * self.iter_time(shape) / shape.n_workers() as f64,
        }
    }
}

/// One random planner input.
#[derive(Debug)]
struct Case {
    workload: usize,
    /// Factors on the profile's `w_iter` and `g_param`.
    scale: (f64, f64),
    /// 0–2 the Cynthia model full, without `overlap`, without
    /// `bottleneck_aware`; 3 the full model behind the default band; 4
    /// the Optimus form.
    model: u8,
    theta: [f64; 3],
    /// Bit `i` keeps the catalog's `i`-th type.
    types: u32,
    deadline_secs: f64,
    /// 0–5 a reachable loss, 6 `next_up(β1)`, 7 an unreachable one.
    target: u8,
    target_depth: f64,
    headroom: f64,
    first_feasible: bool,
    use_bounds: bool,
    max_workers: u32,
    max_ps_escalation: u32,
}

fn cases() -> impl Strategy<Value = Case> {
    (
        (0usize..4, 0.25f64..4.0, 0.25f64..4.0, 0u8..5),
        (0.0f64..2.0, 0.0f64..0.5, 0.0f64..2.0, 0u32..64),
        (1.5f64..6.5, 0u8..8, 0.0f64..5.0, 0.5f64..=1.0),
        (any::<bool>(), any::<bool>(), 0u32..=128, 0u32..=3),
    )
        .prop_map(
            |(
                (workload, w, g, model),
                (t0, t1, t2, types),
                (log_deadline, target, target_depth, headroom),
                (first_feasible, use_bounds, max_workers, max_ps_escalation),
            )| Case {
                workload,
                scale: (w, g),
                model,
                theta: [t0, t1, t2],
                types,
                deadline_secs: 10f64.powf(log_deadline),
                target,
                target_depth,
                headroom,
                first_feasible,
                use_bounds,
                max_workers,
                max_ps_escalation,
            },
        )
}

/// Plans `case` through the band pass and the oracle; both must agree
/// bit for bit.
fn check(case: &Case) -> Result<(), TestCaseError> {
    let (w, base) = &table1_profiles()[case.workload];
    let mut profile = base.clone();
    profile.w_iter_gflops *= case.scale.0;
    profile.g_param_mb *= case.scale.1;
    let c = w.convergence;
    let loss = FittedLossModel {
        sync: w.sync,
        beta0: c.beta0,
        beta1: c.beta1,
        r_squared: 1.0,
    };
    let target_loss = match case.target {
        6 => c.beta1.next_up(),
        7 => c.beta1 - case.target_depth * 0.01,
        _ => c.beta1 + c.beta0 * 10f64.powf(-case.target_depth),
    };
    let mut catalog = Catalog::new();
    for (i, ty) in default_catalog().types().iter().enumerate() {
        if case.types & (1 << i) != 0 {
            catalog.add(ty.clone());
        }
    }
    let goal = Goal {
        deadline_secs: case.deadline_secs,
        target_loss,
    };
    let options = PlannerOptions {
        first_feasible: case.first_feasible,
        use_bounds: case.use_bounds,
        max_workers: case.max_workers,
        headroom: case.headroom,
        max_ps_escalation: case.max_ps_escalation,
    };
    let cynthia = |overlap, bottleneck_aware| CynthiaModel {
        profile: profile.clone(),
        overlap,
        bottleneck_aware,
    };
    let m4 = default_catalog().expect("m4.xlarge").clone();
    let model: Box<dyn PerfModel> = match case.model {
        0 => Box::new(cynthia(true, true)),
        1 => Box::new(cynthia(false, true)),
        2 => Box::new(cynthia(true, false)),
        3 => Box::new(DefaultBand(cynthia(true, true))),
        _ => Box::new(OptimusForm {
            sync: w.sync,
            theta: case.theta,
            ref_core_gflops: m4.core_gflops,
            ref_nic_mbps: m4.nic_mbps,
        }),
    };
    let model = model.as_ref();
    let got = plan_with_model(model, &profile, &loss, &catalog, &goal, &options);
    let want = plan_one_by_one(model, &profile, &loss, &catalog, &goal, &options);
    prop_assert_eq!(got.is_some(), want.is_some(), "{:?} vs {:?}", got, want);
    if let (Some(got), Some(want)) = (got, want) {
        let bits = |p: &Plan| {
            (
                p.type_name.clone(),
                p.n_workers,
                p.n_ps,
                p.iterations,
                p.total_updates,
                p.predicted_iter_time.to_bits(),
                p.predicted_time.to_bits(),
                p.predicted_cost.to_bits(),
                p.candidates_evaluated,
            )
        };
        prop_assert_eq!(bits(&got), bits(&want));
    }
    Ok(())
}

#[test]
fn overflowing_asp_budget_is_infeasible_not_a_panic() {
    // resnet32 at next_up(β1) budgets s(n = 2) ≈ 5.7e18 iterations per
    // worker, and s · n ≈ 8.1e18·√n overflows u64 from n = 6 on.
    let (w, profile) = &table1_profiles()[2];
    let c = w.convergence;
    let loss = FittedLossModel {
        sync: w.sync,
        beta0: c.beta0,
        beta1: c.beta1,
        r_squared: 1.0,
    };
    let target_loss = c.beta1.next_up();
    let (s, total) = budget(profile, &loss, target_loss, 6).expect("reachable");
    assert!(s > u64::MAX / 6 && total.is_none(), "s = {s}");
    let goal = Goal {
        deadline_secs: 7200.0,
        target_loss,
    };
    let options = PlannerOptions {
        use_bounds: false,
        max_workers: 64,
        ..PlannerOptions::default()
    };
    let catalog = default_catalog();
    let model = CynthiaModel::new(profile.clone());
    let args = (profile, &loss, &catalog, &goal, &options);
    assert_eq!(
        plan_with_model(&model, args.0, args.1, args.2, args.3, args.4),
        None
    );
    assert_eq!(
        plan_one_by_one(&model, args.0, args.1, args.2, args.3, args.4),
        None
    );
}

#[test]
fn default_goals_match_the_oracle() {
    // The Table 1 workloads at perfbench's goal sizes, bounded and full.
    for workload in 0..4 {
        for use_bounds in [true, false] {
            for log_deadline in [3.0, 3.5, 4.0] {
                check(&Case {
                    workload,
                    scale: (1.0, 1.0),
                    model: 0,
                    theta: [0.0; 3],
                    types: u32::MAX,
                    deadline_secs: 10f64.powf(log_deadline),
                    target: 0,
                    target_depth: 0.3,
                    headroom: 0.9,
                    first_feasible: false,
                    use_bounds,
                    max_workers: 64,
                    max_ps_escalation: 3,
                })
                .unwrap();
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn band_pass_matches_the_oracle_bit_for_bit(case in cases()) {
        check(&case)?;
    }
}

// The same property over 4,000 cases, drawn from its own seed. Run with
// `cargo test --release -p cynthia-core -- --include-ignored`.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    #[test]
    #[ignore = "4,000 cases; run with --include-ignored"]
    fn band_pass_matches_the_oracle_bit_for_bit_4000(case in cases()) {
        check(&case)?;
    }
}
