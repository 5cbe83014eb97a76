//! Instrumentation hooks for the SLO guard and replanner.
//!
//! Each guarded run opens its own virtual-clock span track (`slo#<id>`,
//! since every guarded clock restarts at zero) holding a
//! `slo.guarded_run` root with `slo.segment` / `slo.migration` children
//! at the segment boundaries the guard actually chose, and bumps counters
//! for replans, deadline misses, migration time, and rescue-width
//! searches. The kill switch ([`cynthia_obs::set_enabled`]) turns them
//! off. Hooks never influence the guard's decisions.

use cynthia_obs::tracer;
use std::sync::atomic::{AtomicU64, Ordering};

/// Each guarded run gets its own span track (`slo#<id>`): guarded
/// virtual clocks restart at zero per run, so spans of different runs
/// must not share a timeline.
static GUARD_SEQ: AtomicU64 = AtomicU64::new(0);

fn track(guard: u64) -> String {
    format!("slo#{guard}")
}

cynthia_obs::metric! {
    guarded_runs: counter("cynthia_slo_guarded_runs_total", "SLO-guarded training runs");
    replans: counter(
        "cynthia_slo_replans_total",
        "Guard firings that migrated to a rescue fleet"
    );
    misses: counter(
        "cynthia_slo_deadline_misses_total",
        "Guarded runs that still missed the deadline"
    );
    migration_secs: float_counter(
        "cynthia_slo_migration_seconds_total",
        "Virtual seconds spent migrating between fleets"
    );
    rescues: counter(
        "cynthia_elastic_rescue_searches_total",
        "Rescue-width band searches run by the replanner"
    );
}

/// Marks the start of a guarded run (virtual time zero). Returns the
/// run's track id (0 while spans are off) for the other span hooks.
pub fn guarded_begin() -> u64 {
    if cynthia_obs::enabled() {
        guarded_runs().inc();
    }
    if !cynthia_obs::span_recording() {
        return 0;
    }
    let guard = GUARD_SEQ.fetch_add(1, Ordering::Relaxed) + 1;
    tracer().begin_at(&track(guard), "slo.guarded_run", 0.0);
    guard
}

/// Records one observed segment `[start, end]` on `n` workers.
pub fn segment(guard: u64, start: f64, end: f64, n: u32) {
    if guard != 0 && cynthia_obs::span_recording() {
        tracer().complete(
            &track(guard),
            "slo.segment",
            start,
            end,
            &[("n_workers", n as f64)],
        );
    }
}

/// Records a guard firing: the migration window and the fleet resize.
pub fn migration(guard: u64, at: f64, secs: f64, n_before: u32, n_after: u32) {
    if !cynthia_obs::enabled() {
        return;
    }
    replans().inc();
    migration_secs().add(secs);
    if guard != 0 && cynthia_obs::span_recording() {
        tracer().complete(
            &track(guard),
            "slo.migration",
            at,
            at + secs,
            &[("n_before", n_before as f64), ("n_after", n_after as f64)],
        );
    }
}

/// Closes the guarded-run span and records the deadline outcome.
pub fn guarded_end(guard: u64, t: f64, met_deadline: bool) {
    if cynthia_obs::enabled() && !met_deadline {
        misses().inc();
    }
    if guard != 0 && cynthia_obs::span_recording() {
        tracer().end_at(
            &track(guard),
            t,
            &[("met_deadline", f64::from(u8::from(met_deadline)))],
        );
    }
}

/// Records one rescue-width band search.
#[inline]
pub fn rescue_search() {
    if cynthia_obs::enabled() {
        rescues().inc();
    }
}
