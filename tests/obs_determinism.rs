//! Bit-determinism regression: observability must be a pure observer.
//!
//! `simulate_faulted`, the SLO guard on top of it, and the Alg. 1 planner
//! must produce bit-identical output whether the hooks are recording or
//! killed at runtime ([`set_enabled`]). The faulted runs are also pinned
//! by the checked-in fingerprints under
//! `tests/snapshots/faulted_fingerprints.txt`, so an engine change that
//! moves a single bit fails here too. Regenerate after an *intentional*
//! engine change with:
//!
//! ```text
//! OBS_SNAPSHOT_UPDATE=1 cargo test --test obs_determinism
//! ```

use cynthia::core::provisioner::plan;
use cynthia::obs::{set_enabled, tracer};
use cynthia::prelude::*;
use std::sync::Mutex;

/// The CI chaos seeds. Fixed so failures reproduce byte-for-byte.
const MASTER_SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 34];

/// Serializes the tests in this binary: they toggle process-global
/// observability state.
static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Serialized form: the strongest practical bit-for-bit comparison.
fn fingerprint(r: &TrainingReport) -> String {
    serde_json::to_string(r).expect("reports serialize")
}

/// FNV-1a 64-bit: a tiny, dependency-free stable digest for the goldens.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn chaos_report(seed: u64) -> TrainingReport {
    let catalog = default_catalog();
    let w = Workload::mnist_bsp().with_iterations(150);
    let plan = FaultInjector::new(InjectorConfig::chaos(12.0, 3600.0)).draw_plan(seed, 4, 2);
    simulate_faulted(
        &TrainJob {
            workload: &w,
            cluster: ClusterSpec::homogeneous(catalog.expect("m4.xlarge"), 4, 2),
            config: SimConfig::deterministic(seed),
        },
        &plan,
        &RecoveryPolicy::default(),
    )
}

#[test]
fn hooks_and_kill_switch_do_not_perturb_the_simulation() {
    let _g = OBS_LOCK.lock().unwrap();
    let mut digests = String::new();
    for seed in MASTER_SEEDS {
        // Full recording: metrics on, tracer on.
        set_enabled(true);
        tracer().set_enabled(true);
        let recorded = fingerprint(&chaos_report(seed));
        tracer().set_enabled(false);
        let _ = tracer().drain();

        // Metrics only (the default operating mode).
        let metered = fingerprint(&chaos_report(seed));

        // Kill switch: every hook reduced to one atomic load.
        set_enabled(false);
        let killed = fingerprint(&chaos_report(seed));
        set_enabled(true);

        assert_eq!(recorded, metered, "seed {seed}: tracer perturbed the run");
        assert_eq!(metered, killed, "seed {seed}: kill switch changed the run");
        digests.push_str(&format!("{seed} {:016x}\n", fnv1a(&recorded)));
    }

    // Pin the bytes themselves, so an engine change cannot move the
    // recorded and killed runs together unnoticed.
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/snapshots/faulted_fingerprints.txt"
    );
    if std::env::var_os("OBS_SNAPSHOT_UPDATE").is_some() {
        std::fs::write(golden_path, &digests).expect("rewrite fingerprints");
        return;
    }
    let golden = std::fs::read_to_string(golden_path).expect("read golden fingerprints");
    assert_eq!(
        digests, golden,
        "faulted-run fingerprints drifted from {golden_path}; if the engine \
         change is intentional, bless with OBS_SNAPSHOT_UPDATE=1"
    );
}

#[test]
fn kill_switch_does_not_perturb_the_slo_guard() {
    let _g = OBS_LOCK.lock().unwrap();
    let goal = Goal {
        deadline_secs: 3600.0,
        target_loss: 2.2,
    };
    let faults = FaultPlan::new(vec![
        FaultEvent::permanent(
            FaultKind::Straggler {
                worker: 0,
                factor: 0.05,
            },
            60.0,
        ),
        FaultEvent::transient(FaultKind::PsCrash { ps: 0 }, 120.0, 45.0),
    ]);
    let guard = || {
        run_guarded(
            &Workload::cifar10_bsp().with_iterations(800),
            &default_catalog(),
            &faults,
            &RecoveryPolicy::default(),
            &SloGuardConfig::new(goal, 17),
        )
        .expect("goal is feasible on a healthy fleet")
    };

    set_enabled(true);
    tracer().set_enabled(true);
    let recorded = guard();
    tracer().set_enabled(false);
    let _ = tracer().drain();
    set_enabled(false);
    let killed = guard();
    set_enabled(true);

    assert_eq!(
        serde_json::to_string(&recorded).expect("reports serialize"),
        serde_json::to_string(&killed).expect("reports serialize"),
        "observability changed the guard's decisions"
    );
}

/// The planner benchmark's 30 `(deadline, target loss)` goals.
fn goal_grid() -> Vec<Goal> {
    let mut goals = Vec::new();
    for deadline_secs in [1800.0, 2700.0, 3600.0, 5400.0, 7200.0, 10800.0] {
        for target_loss in [0.6, 0.8, 1.0, 1.4, 2.0] {
            goals.push(Goal {
                deadline_secs,
                target_loss,
            });
        }
    }
    goals
}

#[test]
fn hooks_and_kill_switch_do_not_perturb_the_planner() {
    let _g = OBS_LOCK.lock().unwrap();
    let catalog = default_catalog();
    let workload = Workload::cifar10_bsp();
    let profile = profile_workload(&workload, catalog.expect("m4.xlarge"), 99);
    let loss = FittedLossModel {
        sync: workload.sync,
        beta0: workload.convergence.beta0,
        beta1: workload.convergence.beta1,
        r_squared: 1.0,
    };
    let goals = goal_grid();
    let full_band = PlannerOptions {
        use_bounds: false,
        max_workers: 64,
        ..PlannerOptions::default()
    };
    for opts in [PlannerOptions::default(), full_band] {
        let plan_grid = || -> Vec<Option<Plan>> {
            goals
                .iter()
                .map(|g| plan(&profile, &loss, &catalog, g, &opts))
                .collect()
        };

        set_enabled(true);
        tracer().set_enabled(true);
        let recorded = plan_grid();
        tracer().set_enabled(false);
        let spans = tracer().drain();
        set_enabled(false);
        let killed = plan_grid();
        set_enabled(true);

        assert!(
            spans.iter().any(|s| s.name.starts_with("provision.band.")),
            "the recorded pass traced no band scans"
        );
        assert!(
            recorded.iter().any(Option::is_some),
            "no goal of the grid was feasible"
        );
        assert_eq!(
            serde_json::to_string(&recorded).expect("plans serialize"),
            serde_json::to_string(&killed).expect("plans serialize"),
            "observability changed the planner's output ({opts:?})"
        );
    }
}
