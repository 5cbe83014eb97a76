//! Observability drill: trace and meter the whole pipeline.
//!
//! Turns on the process tracer, exercises all three instrumented layers —
//! the Algorithm 1 provisioner (wall-clock spans), the training engine
//! under injected faults (virtual-clock spans), and the SLO guard
//! replanning onto a rescue fleet — then exports everything the
//! observability layer captured:
//!
//! ```text
//! cargo run --release --example observe
//! ```
//!
//! Writes `OBS_trace.json` (Chrome trace format — load it in
//! `chrome://tracing` or <https://ui.perfetto.dev>), `OBS_trace.jsonl`
//! (one span per line), `OBS_metrics.prom` (Prometheus text exposition),
//! and `OBS_metrics.json`. Finishes by re-parsing its own exports and
//! checking span well-nesting and per-layer metric coverage, so CI can
//! run it as a smoke test.

use cynthia::prelude::*;
use cynthia_obs::span::{to_chrome_trace, to_jsonl, validate_well_nested};
use cynthia_obs::{export, metrics, tracer};

const DEADLINE_SECS: f64 = 3600.0;
const N_WORKERS: u32 = 4;
const N_PS: u32 = 2;

fn main() {
    tracer().set_enabled(true);
    let catalog = default_catalog();
    let workload = Workload::cifar10_bsp().with_iterations(800);

    // ------------------------------------------------------------------
    // Layer 1+2: provision (Alg. 1 band search) and run the chosen fleet.
    let goal = Goal {
        deadline_secs: DEADLINE_SECS,
        target_loss: 2.2,
    };
    let scheduler = Cynthia::new(default_catalog());
    let report = scheduler
        .run_end_to_end(&workload, &goal)
        .expect("goal is feasible");
    println!(
        "provisioned {} x{} + {} PS -> {:.0} s, ${:.2}",
        report.plan.type_name,
        report.plan.n_workers,
        report.plan.n_ps,
        report.training.total_time,
        report.actual_cost
    );

    // ------------------------------------------------------------------
    // Layer 2+faults: the same workload on a fixed fleet under a seeded
    // chaos plan, so recovery (rollbacks, restores, failovers) shows up.
    let ty = catalog.expect("m4.xlarge").clone();
    let chaos = FaultInjector::new(InjectorConfig::chaos(8.0, DEADLINE_SECS)).draw_plan(
        13,
        N_WORKERS as usize,
        N_PS as usize,
    );
    let faulted = simulate_faulted(
        &TrainJob {
            workload: &workload,
            cluster: ClusterSpec::homogeneous(&ty, N_WORKERS, N_PS),
            config: SimConfig::deterministic(13),
        },
        &chaos,
        &RecoveryPolicy::default(),
    );
    println!(
        "faulted run: {:.0} s, {} lost updates, {:.0} s downtime",
        faulted.total_time, faulted.lost_updates, faulted.downtime_secs
    );

    // ------------------------------------------------------------------
    // Layer 3: the SLO guard rescuing a doomed run (see chaos_drill).
    let guard_goal = Goal {
        deadline_secs: DEADLINE_SECS,
        target_loss: 2.2,
    };
    let dooming = FaultPlan::new(vec![
        FaultEvent::permanent(
            FaultKind::Straggler {
                worker: 0,
                factor: 0.05,
            },
            60.0,
        ),
        FaultEvent::transient(FaultKind::PsCrash { ps: 0 }, 120.0, 45.0),
    ]);
    let guarded = run_guarded(
        &workload,
        &catalog,
        &dooming,
        &RecoveryPolicy::default(),
        &SloGuardConfig::new(guard_goal, 17),
    )
    .expect("goal is feasible on a healthy fleet");
    println!(
        "SLO guard: unguarded {:.0} s ({}), guarded {:.0} s ({}), {} replans",
        guarded.unguarded_time,
        if guarded.unguarded_met_deadline {
            "met"
        } else {
            "MISSED"
        },
        guarded.guarded_time,
        if guarded.met_deadline {
            "met"
        } else {
            "MISSED"
        },
        guarded.replans.len()
    );

    // ------------------------------------------------------------------
    // Export everything the tracer and registry captured.
    tracer().set_enabled(false);
    let spans = tracer().drain();
    validate_well_nested(&spans).expect("span trees are well-nested");

    export::write_text("OBS_trace.jsonl", &to_jsonl(&spans)).expect("write OBS_trace.jsonl");
    export::write_json_pretty("OBS_trace.json", &to_chrome_trace(&spans))
        .expect("write OBS_trace.json");
    let prom = metrics().render_prometheus();
    export::write_text("OBS_metrics.prom", &prom).expect("write OBS_metrics.prom");
    export::write_json_pretty("OBS_metrics.json", &metrics().to_json())
        .expect("write OBS_metrics.json");

    // ------------------------------------------------------------------
    // Self-validation: the exports must round-trip and cover every layer.
    let raw = std::fs::read_to_string("OBS_trace.json").expect("read OBS_trace.json back");
    let chrome: serde_json::Value = serde_json::from_str(&raw).expect("Chrome trace parses");
    let events = chrome["traceEvents"].as_array().expect("traceEvents array");
    assert_eq!(
        events.iter().filter(|e| e["ph"] == "X").count(),
        spans.len(),
        "one X event per span"
    );

    for layer in ["provision", "train#", "recovery#", "slo#"] {
        assert!(
            spans.iter().any(|s| s.track.starts_with(layer)),
            "no spans on any {layer}* track"
        );
    }
    for metric in [
        "cynthia_provision_plans_total",    // provisioner
        "cynthia_provision_band_width",     // Theorem 4.1 bands
        "cynthia_sim_events_total",         // event queue
        "cynthia_train_runs_total",         // engine
        "cynthia_train_comp_seconds_total", // paper t_comp
        "cynthia_faults_injected_total",    // injector
        "cynthia_slo_replans_total",        // guard
    ] {
        assert!(
            prom.contains(metric),
            "metric {metric} missing from exposition"
        );
    }
    println!(
        "\n{} spans on {} tracks, {} metrics -> OBS_trace.json / OBS_trace.jsonl / \
         OBS_metrics.prom / OBS_metrics.json",
        spans.len(),
        {
            let mut tracks: Vec<&str> = spans.iter().map(|s| s.track.as_str()).collect();
            tracks.sort_unstable();
            tracks.dedup();
            tracks.len()
        },
        metrics().len()
    );
}
