//! Instrumentation hooks for billing.
//!
//! [`BillingMeter`](crate::billing::BillingMeter) reports every lease
//! launch and every settled lease cost — the realized Eq. (8) spend —
//! so the cost side of the paper's objective is observable alongside
//! the time side (`cynthia_train_*`). Hooks never affect billing; the
//! kill switch ([`cynthia_obs::set_enabled`]) turns them off.

cynthia_obs::metric! {
    leases: counter(
        "cynthia_billing_leases_total",
        "Instance leases launched by billing meters"
    );
    settled: float_counter(
        "cynthia_billing_settled_dollars_total",
        "Settled lease cost in dollars (realized Eq. 8 spend)"
    );
}

/// Records a lease launch.
#[inline]
pub fn lease_launched() {
    if cynthia_obs::enabled() {
        leases().inc();
    }
}

/// Records a terminated lease's settled cost.
#[inline]
pub fn lease_settled(cost: f64) {
    if cynthia_obs::enabled() {
        settled().add(cost);
    }
}
