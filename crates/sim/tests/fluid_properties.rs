//! Property-based tests of the max-min fair fluid allocator.

use cynthia_sim::fluid::{FlowSpec, FluidSystem, ResourceId};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Scenario {
    capacities: Vec<f64>,
    /// For each flow: (link indices, volume)
    flows: Vec<(Vec<usize>, f64)>,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    let caps = prop::collection::vec(1.0f64..1000.0, 1..5);
    caps.prop_flat_map(|capacities| {
        let n_res = capacities.len();
        let flow = (
            prop::collection::vec(0..n_res, 1..=n_res.min(3)),
            0.1f64..500.0,
        );
        let flows = prop::collection::vec(flow, 1..12);
        (Just(capacities), flows).prop_map(|(capacities, flows)| Scenario { capacities, flows })
    })
}

fn build(
    s: &Scenario,
) -> (
    FluidSystem,
    Vec<ResourceId>,
    Vec<cynthia_sim::fluid::FlowId>,
) {
    let mut sys = FluidSystem::new();
    let rids: Vec<ResourceId> = s
        .capacities
        .iter()
        .enumerate()
        .map(|(i, c)| sys.add_resource(*c, format!("r{i}")))
        .collect();
    let fids = s
        .flows
        .iter()
        .enumerate()
        .map(|(i, (links, vol))| {
            sys.start_flow(FlowSpec::new(
                links.iter().map(|l| rids[*l]).collect(),
                *vol,
                i as u64,
            ))
        })
        .collect();
    (sys, rids, fids)
}

proptest! {
    /// No resource is ever oversubscribed.
    #[test]
    fn capacity_never_exceeded(s in scenario()) {
        let (mut sys, rids, _) = build(&s);
        for (i, r) in rids.iter().enumerate() {
            let used = sys.total_rate_on(*r);
            prop_assert!(
                used <= s.capacities[i] * (1.0 + 1e-9) + 1e-9,
                "resource {i}: used {used} > cap {}", s.capacities[i]
            );
        }
    }

    /// Every flow makes progress: positive rate (capacities are positive and
    /// every flow has at least one link).
    #[test]
    fn all_flows_progress(s in scenario()) {
        let (mut sys, _, fids) = build(&s);
        for f in &fids {
            let rate = sys.flow_rate(*f).unwrap();
            prop_assert!(rate > 0.0, "flow stuck at rate {rate}");
        }
    }

    /// Max-min optimality certificate: each flow traverses at least one
    /// saturated resource on which no other flow has a higher rate.
    #[test]
    fn max_min_certificate(s in scenario()) {
        let (mut sys, rids, fids) = build(&s);
        let rates: Vec<f64> = fids.iter().map(|f| sys.flow_rate(*f).unwrap()).collect();
        let tol = 1e-6;
        for (i, (links, _)) in s.flows.iter().enumerate() {
            let mut certified = false;
            for l in links {
                let used = sys.total_rate_on(rids[*l]);
                let saturated = used >= s.capacities[*l] * (1.0 - 1e-6);
                if !saturated {
                    continue;
                }
                // This flow's rate is maximal among the flows on `l`: the
                // others on `l` are frozen at or below it.
                let max_other = s
                    .flows
                    .iter()
                    .enumerate()
                    .filter(|(j, (ls, _))| *j != i && ls.contains(l))
                    .map(|(j, _)| rates[j])
                    .fold(0.0f64, f64::max);
                if rates[i] + tol >= max_other {
                    certified = true;
                    break;
                }
            }
            prop_assert!(certified, "flow {i} has no bottleneck certificate");
        }
    }

    /// Advancing by the next-completion time completes at least one flow and
    /// conserves volume (drained = rate * dt for every flow).
    #[test]
    fn advance_conserves_volume(s in scenario()) {
        let (mut sys, _, fids) = build(&s);
        let before: Vec<f64> = fids.iter().map(|f| sys.flow_remaining(*f).unwrap()).collect();
        let rates: Vec<f64> = fids.iter().map(|f| sys.flow_rate(*f).unwrap()).collect();
        if let Some((_, dt)) = sys.next_completion() {
            let done = sys.advance(dt);
            prop_assert!(!done.is_empty(), "advance(next_completion) completed nothing");
            for (i, f) in fids.iter().enumerate() {
                if let Some(rem) = sys.flow_remaining(*f) {
                    let expect = (before[i] - rates[i] * dt).max(0.0);
                    prop_assert!((rem - expect).abs() < 1e-6 * (1.0 + before[i]),
                        "flow {i}: remaining {rem}, expected {expect}");
                }
            }
        }
    }

    /// Mid-flight capacity shrink re-shares immediately: even below the
    /// current aggregate rate, usage drops under the new cap on every
    /// resource, and `advance` stays monotone (no flow's remaining volume
    /// grows) afterwards.
    #[test]
    fn set_capacity_shrink_reshares_mid_flight(s in scenario(), frac in 0.05f64..0.9) {
        let (mut sys, rids, fids) = build(&s);
        let (ri, used) = rids
            .iter()
            .enumerate()
            .map(|(i, r)| (i, sys.total_rate_on(*r)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        prop_assert!(used > 0.0, "generator guarantees every flow progresses");
        let new_cap = used * frac;
        sys.set_capacity(rids[ri], new_cap).unwrap();
        for (i, r) in rids.iter().enumerate() {
            let u = sys.total_rate_on(*r);
            let cap = if i == ri { new_cap } else { s.capacities[i] };
            prop_assert!(
                u <= cap * (1.0 + 1e-9) + 1e-9,
                "resource {i}: used {u} > cap {cap} after shrink"
            );
        }
        let before: Vec<f64> = fids.iter().map(|f| sys.flow_remaining(*f).unwrap()).collect();
        if let Some((_, dt)) = sys.next_completion() {
            sys.advance(dt);
            for (i, f) in fids.iter().enumerate() {
                if let Some(rem) = sys.flow_remaining(*f) {
                    prop_assert!(rem <= before[i] + 1e-9, "flow {i} remaining grew: {rem} > {}", before[i]);
                }
            }
        }
    }

    /// A zero-capacity outage stalls exactly the flows crossing the dead
    /// resource; restoring the capacity lets the system drain to empty.
    #[test]
    fn zero_capacity_outage_then_recovery_drains(s in scenario()) {
        let (mut sys, rids, fids) = build(&s);
        sys.set_capacity(rids[0], 0.0).unwrap();
        for (f, (links, _)) in fids.iter().zip(&s.flows) {
            let rate = sys.flow_rate(*f).unwrap();
            if links.contains(&0) {
                prop_assert!(rate == 0.0, "flow through dead resource runs at {rate}");
            } else {
                prop_assert!(rate > 0.0, "unaffected flow stalled");
            }
        }
        sys.set_capacity(rids[0], s.capacities[0]).unwrap();
        let mut guard = 0;
        while let Some((_, dt)) = sys.next_completion() {
            sys.advance(dt);
            guard += 1;
            prop_assert!(guard < 10_000, "did not terminate after recovery");
        }
        prop_assert_eq!(sys.active_flows(), 0);
    }

    /// Running the system to completion terminates and delivers every flow
    /// exactly once.
    #[test]
    fn drains_to_empty(s in scenario()) {
        let (mut sys, _, _) = build(&s);
        let mut completed = Vec::new();
        let mut guard = 0;
        while let Some((_, dt)) = sys.next_completion() {
            completed.extend(sys.advance(dt).into_iter().map(|(_, tag)| tag));
            guard += 1;
            prop_assert!(guard < 10_000, "did not terminate");
        }
        prop_assert_eq!(sys.active_flows(), 0);
        completed.sort_unstable();
        let expect: Vec<u64> = (0..s.flows.len() as u64).collect();
        prop_assert_eq!(completed, expect);
    }
}
