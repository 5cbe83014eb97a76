//! Chaos suite for the fault-injection & recovery layer: random fault
//! plans drawn from seeded Poisson processes are thrown at the
//! ground-truth engine, which must
//!
//! * **terminate** — no fault plan the injector can draw may deadlock the
//!   event loop;
//! * **be bit-deterministic per seed** — identical `(seed, plan, policy)`
//!   inputs reproduce the report bit for bit;
//! * **conserve updates** — a completed run executed exactly its target:
//!   `simulated_iterations == target` and every update lost to a
//!   checkpoint rollback was replayed exactly once
//!   (`lost_updates == replayed_updates`), so
//!   `completed + lost − replayed ≡ total` with zero remaining;
//! * **degenerate cleanly** — the empty plan under the null policy is
//!   bit-identical to plain [`simulate`].
//!
//! CI's `chaos` job runs this file in release mode across the eight
//! master seeds below.

use cynthia::prelude::*;

/// The CI chaos seeds. Fixed so failures reproduce byte-for-byte.
const MASTER_SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 34];

fn cluster(n: u32, n_ps: u32) -> ClusterSpec {
    let catalog = default_catalog();
    ClusterSpec::homogeneous(catalog.expect("m4.xlarge"), n, n_ps)
}

fn faulted(
    w: &Workload,
    n: u32,
    n_ps: u32,
    seed: u64,
    plan: &FaultPlan,
    policy: &RecoveryPolicy,
) -> TrainingReport {
    simulate_faulted(
        &TrainJob {
            workload: w,
            cluster: cluster(n, n_ps),
            config: SimConfig::deterministic(seed),
        },
        plan,
        policy,
    )
}

/// Serialized form: the strongest practical bit-for-bit comparison.
fn fingerprint(r: &TrainingReport) -> String {
    serde_json::to_string(r).expect("reports serialize")
}

/// Engine horizon comfortably past any recovered run of these workloads.
const HORIZON: f64 = 100_000.0;

fn chaos_plan(seed: u64, n: u32, n_ps: u32) -> FaultPlan {
    // ~12 events/hour of everything: crashes, departures, stragglers,
    // degraded links, PS crashes and stalls.
    FaultInjector::new(InjectorConfig::chaos(12.0, 3600.0)).draw_plan(
        seed,
        n as usize,
        n_ps as usize,
    )
}

fn assert_conservation(r: &TrainingReport, target: u64) {
    assert_eq!(
        r.simulated_iterations, target,
        "run completed short of its target"
    );
    assert_eq!(
        r.lost_updates, r.replayed_updates,
        "every lost update must be replayed exactly once"
    );
    assert!(r.total_time.is_finite() && r.total_time > 0.0);
    assert!(r.downtime_secs >= 0.0 && r.degraded_secs >= 0.0);
    assert!(
        r.downtime_secs + r.degraded_secs <= r.total_time + 1e-6,
        "impaired time {} + {} exceeds the run's {}",
        r.downtime_secs,
        r.degraded_secs,
        r.total_time
    );
}

#[test]
fn empty_plan_reproduces_simulate_bit_for_bit() {
    let w = Workload::mnist_bsp().with_iterations(120);
    for seed in MASTER_SEEDS {
        let plain = simulate(&TrainJob {
            workload: &w,
            cluster: cluster(4, 2),
            config: SimConfig::deterministic(seed),
        });
        let nulled = faulted(&w, 4, 2, seed, &FaultPlan::empty(), &RecoveryPolicy::none());
        assert_eq!(
            fingerprint(&plain),
            fingerprint(&nulled),
            "seed {seed}: empty plan diverged from plain simulate"
        );
    }
}

#[test]
fn chaos_bsp_terminates_conserves_and_is_deterministic() {
    let w = Workload::mnist_bsp().with_iterations(150);
    for seed in MASTER_SEEDS {
        let plan = chaos_plan(seed, 4, 2);
        let a = faulted(&w, 4, 2, seed, &plan, &RecoveryPolicy::default());
        assert_conservation(&a, 150);
        assert!(
            a.total_time <= HORIZON,
            "recovery ran away: {}",
            a.total_time
        );
        let b = faulted(&w, 4, 2, seed, &plan, &RecoveryPolicy::default());
        assert_eq!(
            fingerprint(&a),
            fingerprint(&b),
            "seed {seed}: chaos run not bit-deterministic"
        );
    }
}

#[test]
fn chaos_asp_terminates_conserves_and_is_deterministic() {
    let w = Workload::resnet32_asp().with_iterations(120);
    for seed in MASTER_SEEDS {
        let plan = chaos_plan(seed, 3, 2);
        let a = faulted(&w, 3, 2, seed, &plan, &RecoveryPolicy::default());
        assert_conservation(&a, 120);
        let b = faulted(&w, 3, 2, seed, &plan, &RecoveryPolicy::default());
        assert_eq!(
            fingerprint(&a),
            fingerprint(&b),
            "seed {seed}: ASP chaos run not bit-deterministic"
        );
    }
}

#[test]
fn every_recovery_policy_survives_chaos() {
    let w = Workload::mnist_bsp().with_iterations(100);
    let policies = [
        RecoveryPolicy::none(),
        RecoveryPolicy::default(),
        RecoveryPolicy::aggressive(),
    ];
    for seed in [3u64, 21] {
        let plan = chaos_plan(seed, 4, 2);
        for policy in &policies {
            let r = faulted(&w, 4, 2, seed, &plan, policy);
            assert_conservation(&r, 100);
        }
    }
}

#[test]
fn ps_crash_rolls_back_and_replays() {
    let w = Workload::mnist_bsp().with_iterations(150);
    let baseline = faulted(&w, 4, 1, 7, &FaultPlan::empty(), &RecoveryPolicy::default());
    // Crash the only PS mid-run: a transient reboot, recovered from the
    // last 50-update checkpoint.
    let mid = baseline.total_time * 0.5;
    let plan = FaultPlan::new(vec![FaultEvent::transient(
        FaultKind::PsCrash { ps: 0 },
        mid,
        30.0,
    )]);
    let policy = RecoveryPolicy {
        checkpoint_interval_updates: 50,
        ..RecoveryPolicy::default()
    };
    let r = faulted(&w, 4, 1, 7, &plan, &policy);
    assert_conservation(&r, 150);
    assert_eq!(r.failovers, 1);
    assert!(r.lost_updates > 0, "mid-run crash must lose progress");
    assert!(
        r.lost_updates < 50,
        "rollback may not cross a checkpoint: lost {}",
        r.lost_updates
    );
    assert!(r.downtime_secs >= 30.0, "outage shorter than injected");
    assert!(r.total_time > baseline.total_time);
}

#[test]
fn permanent_ps_crash_fails_over_to_survivors() {
    let w = Workload::mnist_bsp().with_iterations(150);
    let baseline = faulted(&w, 4, 2, 9, &FaultPlan::empty(), &RecoveryPolicy::default());
    let plan = FaultPlan::new(vec![FaultEvent::permanent(
        FaultKind::PsCrash { ps: 1 },
        baseline.total_time * 0.4,
    )]);
    let r = faulted(&w, 4, 2, 9, &plan, &RecoveryPolicy::default());
    assert_conservation(&r, 150);
    assert_eq!(r.failovers, 1);
    assert!(
        r.total_time > baseline.total_time,
        "losing half the PS bandwidth cannot be free"
    );
}

#[test]
fn straggler_slows_bsp_down_then_releases() {
    let w = Workload::mnist_bsp().with_iterations(120);
    let baseline = faulted(&w, 4, 1, 5, &FaultPlan::empty(), &RecoveryPolicy::default());
    let plan = FaultPlan::new(vec![FaultEvent::transient(
        FaultKind::Straggler {
            worker: 2,
            factor: 0.02,
        },
        baseline.total_time * 0.1,
        baseline.total_time * 0.8,
    )]);
    let r = faulted(&w, 4, 1, 5, &plan, &RecoveryPolicy::default());
    assert_conservation(&r, 120);
    assert!(
        r.total_time > baseline.total_time * 1.05,
        "a 50x straggler must pace the barrier: {} vs {}",
        r.total_time,
        baseline.total_time
    );
    assert!(r.degraded_secs > 0.0);
}

// ---------------------------------------------------------------------
// Spot-revocation edge cases: worker crashes with an environment-supplied
// outage under the no-recovery policy, as the elastic layer injects them.

/// Worker `worker` is revoked at `at`; its replacement joins `outage`
/// seconds later.
fn revoke(worker: usize, at: f64, outage: f64) -> FaultEvent {
    FaultEvent::transient(FaultKind::WorkerCrash { worker }, at, outage)
}

fn revoked(job: &TrainJob, events: Vec<FaultEvent>) -> TrainingReport {
    simulate_faulted(job, &FaultPlan::new(events), &RecoveryPolicy::none())
}

#[test]
fn disruption_at_time_zero_is_survivable() {
    let w = Workload::mnist_bsp().with_iterations(100);
    let r = revoked(
        &TrainJob {
            workload: &w,
            cluster: cluster(4, 1),
            config: SimConfig::deterministic(2),
        },
        vec![revoke(0, 0.0, 30.0)],
    );
    assert_eq!(r.simulated_iterations, 100);
    assert_eq!(r.revocations, 1);
    assert_eq!(r.repairs, 1);
}

#[test]
fn disruption_past_completion_is_inert() {
    let w = Workload::mnist_bsp().with_iterations(100);
    let job = TrainJob {
        workload: &w,
        cluster: cluster(4, 1),
        config: SimConfig::deterministic(2),
    };
    let plain = simulate(&job);
    let late = plain.total_time * 2.0;
    let r = revoked(&job, vec![revoke(1, late, 60.0)]);
    assert_eq!(r.revocations, 0, "a post-completion reclaim never lands");
    assert_eq!(r.total_time, plain.total_time);
    assert_eq!(r.loss_curve, plain.loss_curve);
}

#[test]
fn overlapping_disruptions_of_same_worker_coalesce() {
    let w = Workload::mnist_bsp().with_iterations(120);
    let job = TrainJob {
        workload: &w,
        cluster: cluster(4, 1),
        config: SimConfig::deterministic(2),
    };
    let plain = simulate(&job);
    let t0 = plain.total_time * 0.2;
    // The second reclaim lands while the slot is already absent from the
    // first: it must be absorbed, not crash the engine or double-count.
    let r = revoked(&job, vec![revoke(0, t0, 40.0), revoke(0, t0 + 10.0, 50.0)]);
    assert_eq!(r.simulated_iterations, 120);
    assert_eq!(r.revocations, 1, "absent slot cannot be revoked again");
    assert_eq!(r.repairs, 1);
}
