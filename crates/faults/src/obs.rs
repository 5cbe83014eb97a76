//! Instrumentation hooks for fault injection.
//!
//! Drawn plans bump per-kind counters in the process-wide registry
//! (`cynthia_faults_injected_total{kind=...}`) unless the kill switch
//! ([`cynthia_obs::set_enabled`]) is off. Hooks only read the drawn
//! plan — the injector's RNG streams are untouched either way.

use crate::plan::FaultEvent;
use cynthia_obs::metrics;

/// Records one counter bump per drawn fault event, labeled by kind.
pub fn plan_drawn(events: &[FaultEvent]) {
    if !cynthia_obs::enabled() || events.is_empty() {
        return;
    }
    for e in events {
        metrics()
            .counter_with(
                "cynthia_faults_injected_total",
                &[("kind", e.kind.label())],
                "Fault events drawn by the injector, by kind",
            )
            .inc();
    }
}
