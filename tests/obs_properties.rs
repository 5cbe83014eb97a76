//! Property tests for the observability layer under chaos.
//!
//! The instrumentation shares process-global state (the metrics registry
//! and the tracer), so every test here serializes on [`OBS_LOCK`].
//! Across the CI chaos seeds the layer must satisfy:
//!
//! * **counters are monotonic** — reads taken before and after work never
//!   decrease, and instrumented work strictly increases them;
//! * **histogram bucket counts sum to the observation count** — no
//!   observation is lost or double-counted across buckets, and the
//!   cumulative rendering ends at the total;
//! * **span trees are well-nested** — every track drained from the tracer
//!   passes [`validate_well_nested`], across BSP chaos, ASP chaos, and an
//!   SLO-guarded rescue.

use cynthia::obs::registry::TIME_BUCKETS;
use cynthia::obs::span::validate_well_nested;
use cynthia::obs::{metrics, tracer};
use cynthia::prelude::*;
use std::sync::Mutex;

/// The CI chaos seeds. Fixed so failures reproduce byte-for-byte.
const MASTER_SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 34];

/// Serializes the tests in this binary: they read and toggle
/// process-global observability state.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn cluster(n: u32, n_ps: u32) -> ClusterSpec {
    let catalog = default_catalog();
    ClusterSpec::homogeneous(catalog.expect("m4.xlarge"), n, n_ps)
}

fn chaos_run(w: &Workload, n: u32, n_ps: u32, seed: u64) -> TrainingReport {
    let plan = FaultInjector::new(InjectorConfig::chaos(12.0, 3600.0)).draw_plan(
        seed,
        n as usize,
        n_ps as usize,
    );
    simulate_faulted(
        &TrainJob {
            workload: w,
            cluster: cluster(n, n_ps),
            config: SimConfig::deterministic(seed),
        },
        &plan,
        &RecoveryPolicy::default(),
    )
}

#[test]
fn counters_are_monotonic_across_chaos_runs() {
    let _g = OBS_LOCK.lock().unwrap();
    let runs = metrics().counter("cynthia_train_runs_total", "Training simulations completed");
    let updates = metrics().counter(
        "cynthia_train_updates_total",
        "Model updates simulated (BSP iterations / ASP commits)",
    );
    let events = metrics().counter("cynthia_sim_events_total", "Events popped by the queue");

    let w = Workload::mnist_bsp().with_iterations(120);
    let mut last = (runs.get(), updates.get(), events.get());
    for seed in MASTER_SEEDS {
        let report = chaos_run(&w, 4, 2, seed);
        let now = (runs.get(), updates.get(), events.get());
        assert!(
            now.0 >= last.0 && now.1 >= last.1 && now.2 >= last.2,
            "seed {seed}: a counter decreased: {last:?} -> {now:?}"
        );
        assert_eq!(now.0, last.0 + 1, "seed {seed}: run not counted");
        assert_eq!(
            now.1,
            last.1 + report.simulated_iterations,
            "seed {seed}: updates counter disagrees with the report"
        );
        assert!(now.2 > last.2, "seed {seed}: no queue events counted");
        last = now;
    }
}

#[test]
fn histogram_buckets_sum_to_observation_count() {
    let _g = OBS_LOCK.lock().unwrap();
    let w = Workload::mnist_bsp().with_iterations(120);
    for seed in MASTER_SEEDS {
        let _ = chaos_run(&w, 4, 2, seed);
    }
    for name in [
        "cynthia_train_iter_seconds",
        "cynthia_train_comp_seconds",
        "cynthia_train_comm_seconds",
        "cynthia_train_restore_seconds",
    ] {
        let h = metrics().histogram(name, TIME_BUCKETS, "");
        let total: u64 = h.bucket_counts().iter().sum();
        assert_eq!(total, h.count(), "{name}: buckets lost an observation");
        let cumulative = h.cumulative_buckets();
        assert_eq!(
            cumulative.last().expect("+Inf bucket").1,
            h.count(),
            "{name}: cumulative rendering must end at the total"
        );
        for pair in cumulative.windows(2) {
            assert!(
                pair[0].1 <= pair[1].1,
                "{name}: cumulative bucket counts must be non-decreasing"
            );
        }
        assert!(
            h.count() > 0 || name == "cynthia_train_restore_seconds",
            "{name}: chaos runs recorded no samples"
        );
    }
}

#[test]
fn span_trees_are_well_nested_across_chaos_seeds() {
    let _g = OBS_LOCK.lock().unwrap();
    tracer().set_enabled(true);
    let _ = tracer().drain(); // discard anything a prior test left open

    let bsp = Workload::mnist_bsp().with_iterations(120);
    let asp = Workload::resnet32_asp().with_iterations(100);
    for seed in MASTER_SEEDS {
        let _ = chaos_run(&bsp, 4, 2, seed);
        let _ = chaos_run(&asp, 3, 2, seed);
    }
    // An SLO-guarded rescue adds the `provision` wall track and an
    // `slo#…` virtual track on top of the engine's.
    let goal = Goal {
        deadline_secs: 3600.0,
        target_loss: 2.2,
    };
    let faults = FaultPlan::new(vec![FaultEvent::permanent(
        FaultKind::Straggler {
            worker: 0,
            factor: 0.05,
        },
        60.0,
    )]);
    let _ = run_guarded(
        &Workload::cifar10_bsp().with_iterations(800),
        &default_catalog(),
        &faults,
        &RecoveryPolicy::default(),
        &SloGuardConfig::new(goal, 17),
    )
    .expect("goal is feasible on a healthy fleet");

    tracer().set_enabled(false);
    let spans = tracer().drain();
    validate_well_nested(&spans).unwrap_or_else(|e| panic!("spans not well-nested: {e}"));
    assert_eq!(tracer().dropped(), 0, "tracer overflowed its buffer");
    for layer in ["provision", "train#", "recovery#", "slo#"] {
        assert!(
            spans.iter().any(|s| s.track.starts_with(layer)),
            "no spans on any {layer}* track"
        );
    }
}
