//! Instrumentation hooks for the Alg. 1 provisioner.
//!
//! Call sites invoke these unconditionally. Planning runs are wrapped in
//! wall-clock spans on the `"provision"` track (the band search is a real
//! search over instance types, so its per-type child spans nest under the
//! plan span) and counters/histograms land in the process-wide registry.
//! With the kill switch ([`cynthia_obs::set_enabled`]) and the tracer
//! off, the hooks neither allocate nor read the clock. Hooks never
//! influence which plan is chosen.

use cynthia_obs::registry::{TIME_BUCKETS, WIDTH_BUCKETS};
use cynthia_obs::{tracer, WallSpan};
use std::time::Instant;

const TRACK: &str = "provision";

cynthia_obs::metric! {
    plans: counter("cynthia_provision_plans_total", "Alg. 1 planning runs started");
    infeasible: counter(
        "cynthia_provision_infeasible_total",
        "Planning runs that found no feasible plan"
    );
    candidates: counter(
        "cynthia_provision_candidates_total",
        "Candidate (type, n, n_ps) points evaluated by the band search"
    );
    band_width: histogram(
        "cynthia_provision_band_width",
        "Theorem 4.1 worker-band width (n_upper - n_lower + 1) per instance type",
        WIDTH_BUCKETS
    );
    plan_seconds: histogram(
        "cynthia_provision_plan_seconds",
        "Wall-clock seconds per Alg. 1 planning run (Sec. 5.3 milliseconds claim)",
        TIME_BUCKETS
    );
}

/// Guard wrapping one planning run: a wall span plus the latency
/// histogram observation on drop.
pub struct PlanGuard {
    /// Start of the run; `None` when the kill switch was off at the start.
    started: Option<Instant>,
    _span: WallSpan<'static>,
}

impl Drop for PlanGuard {
    fn drop(&mut self) {
        if let Some(started) = self.started {
            if cynthia_obs::enabled() {
                plan_seconds().observe(started.elapsed().as_secs_f64());
            }
        }
    }
}

/// Marks the start of a planning run; drop the guard when it returns.
pub fn plan_started(name: &str) -> PlanGuard {
    let enabled = cynthia_obs::enabled();
    if enabled {
        plans().inc();
    }
    PlanGuard {
        started: enabled.then(Instant::now),
        _span: tracer().wall_span(TRACK, name),
    }
}

/// Wall span for one instance type's band scan, nested in the plan span.
pub fn type_span(ty_name: &str) -> WallSpan<'static> {
    tracer().wall_span(TRACK, format_args!("provision.band.{ty_name}"))
}

/// Records one instance type's Theorem 4.1 band width.
pub fn band_computed(lo: u32, hi: u32) {
    if cynthia_obs::enabled() && hi >= lo {
        band_width().observe((hi - lo + 1) as f64);
    }
}

/// Records the run's candidate count and outcome.
pub fn plan_finished(evaluated: u32, feasible: bool) {
    if !cynthia_obs::enabled() {
        return;
    }
    candidates().add(evaluated as u64);
    if !feasible {
        infeasible().inc();
    }
}
