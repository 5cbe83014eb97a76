//! Instrumentation hooks for the simulation core.
//!
//! Call sites in `events`/`fluid` invoke these thin functions
//! unconditionally. Each hook is one relaxed atomic check of the kill
//! switch ([`cynthia_obs::set_enabled`]) plus a relaxed counter bump
//! against process-wide metrics cached in `OnceLock`s (no registry lookup
//! per event). Hooks only ever *read* simulation state; they never
//! perturb it.

cynthia_obs::metric! {
    events: counter(
        "cynthia_sim_events_total",
        "Events popped from the discrete-event queue"
    );
    flows_started: counter(
        "cynthia_sim_flows_started_total",
        "Flows admitted to the fluid max-min solver"
    );
    flows_completed: counter(
        "cynthia_sim_flows_completed_total",
        "Flows that drained to zero remaining volume"
    );
    flows_cancelled: counter(
        "cynthia_sim_flows_cancelled_total",
        "Flows cancelled before completion (revocations, resets)"
    );
}

#[inline]
pub fn event_popped() {
    if cynthia_obs::enabled() {
        events().inc();
    }
}

#[inline]
pub fn flow_started() {
    if cynthia_obs::enabled() {
        flows_started().inc();
    }
}

#[inline]
pub fn flows_finished(n: usize) {
    if n > 0 && cynthia_obs::enabled() {
        flows_completed().add(n as u64);
    }
}

#[inline]
pub fn flows_dropped(n: usize) {
    if n > 0 && cynthia_obs::enabled() {
        flows_cancelled().add(n as u64);
    }
}
