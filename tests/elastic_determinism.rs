//! Determinism properties of the elastic subsystem: every observable of
//! an elastic run — reclaim schedules, repair decisions, realized cost,
//! engine timing — is a pure function of the master seed.

use cynthia::prelude::*;
use cynthia_cloud::{default_catalog, RevocationModel, SpotMarket, SpotMarketConfig};
use proptest::prelude::*;

fn config(seed: u64, rate_per_hour: f64) -> ElasticConfig {
    let goal = Goal {
        deadline_secs: 3600.0,
        target_loss: 2.2,
    };
    let mut cfg = ElasticConfig::new(goal, RepairPolicy::spot_with_fallback(), seed);
    cfg.market.revocations = RevocationModel::Exponential { rate_per_hour };
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Same seed ⇒ bit-identical reclaim schedules and price traces,
    /// whatever the slot or horizon.
    #[test]
    fn market_is_a_pure_function_of_the_seed(seed in 0u64..1_000_000, slot in 0u64..64) {
        let mk = || SpotMarket::new(SpotMarketConfig::default(), seed);
        let catalog = default_catalog();
        let ty = catalog.expect("m4.xlarge");
        let a = mk().revocation_times(&ty.name, slot, 86_400.0);
        let b = mk().revocation_times(&ty.name, slot, 86_400.0);
        prop_assert_eq!(&a, &b);
        let pa = mk().price_trace(ty, 86_400.0);
        let pb = mk().price_trace(ty, 86_400.0);
        prop_assert_eq!(pa.points(), pb.points());
        // Slots are independent renewal processes: a different slot under
        // the same seed draws a different schedule (unless both are empty).
        let other = mk().revocation_times(&ty.name, slot + 1, 86_400.0);
        if !(a.is_empty() && other.is_empty()) {
            prop_assert_ne!(&a, &other);
        }
    }
}

proptest! {
    // Each case runs four full-detail simulations; keep the count low.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Same master seed ⇒ bit-identical timeline (revocations + repair
    /// decisions), realized cost, and engine observables.
    #[test]
    fn elastic_run_is_bit_identical_per_seed(seed in 0u64..1_000) {
        let catalog = default_catalog();
        let workload = Workload::cifar10_bsp();
        let cfg = config(seed, 12.0);
        let a = run_elastic(&workload, &catalog, &cfg).expect("goal is feasible");
        let b = run_elastic(&workload, &catalog, &cfg).expect("goal is feasible");
        prop_assert_eq!(&a.timeline, &b.timeline);
        prop_assert_eq!(a.realized_cost.to_bits(), b.realized_cost.to_bits());
        prop_assert_eq!(
            a.on_demand_baseline_cost.to_bits(),
            b.on_demand_baseline_cost.to_bits()
        );
        prop_assert_eq!(a.baseline_time.to_bits(), b.baseline_time.to_bits());
        prop_assert_eq!(a.training.total_time.to_bits(), b.training.total_time.to_bits());
        prop_assert_eq!(a.training.final_loss.to_bits(), b.training.final_loss.to_bits());
        prop_assert_eq!(a.training.revocations, b.training.revocations);
        prop_assert_eq!(a.training.repairs, b.training.repairs);
    }
}

#[test]
fn different_seeds_draw_different_markets() {
    let catalog = default_catalog();
    let workload = Workload::cifar10_bsp();
    let a = run_elastic(&workload, &catalog, &config(101, 12.0)).expect("goal is feasible");
    let b = run_elastic(&workload, &catalog, &config(202, 12.0)).expect("goal is feasible");
    // Distinct seeds must not replay the same run: either the timelines
    // differ or (vanishingly unlikely at 12/hour) the realized timings do.
    assert!(
        a.timeline != b.timeline
            || a.training.total_time.to_bits() != b.training.total_time.to_bits(),
        "seeds 101 and 202 produced identical runs"
    );
}
