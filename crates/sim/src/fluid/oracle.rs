//! The flow-by-flow progressive-filling solver, kept as a test oracle for the
//! resource-driven class solver, and the property tests that drive both
//! through the same random operation sequences.
//!
//! Both must agree bit for bit: rates, remaining volumes, per-resource
//! totals, completion times and completion order.

use super::{FlowId, FlowSpec, FluidSystem, ResourceId, RATE_EPS};
use crate::{Time, EPS};
use proptest::prelude::*;

#[derive(Debug)]
struct OracleFlow {
    links: Vec<ResourceId>,
    remaining: f64,
    rate: f64,
    tag: u64,
}

/// Max-min sharing solved flow by flow: every filling round walks every flow.
/// Slots and generations are allocated exactly as [`FluidSystem`] does, so
/// both hand out the same [`FlowId`]s.
#[derive(Debug, Default)]
struct Oracle {
    capacities: Vec<f64>,
    /// `(generation, flow)`; `None` is a vacant slot.
    slots: Vec<(u32, Option<OracleFlow>)>,
    free: Vec<u32>,
    dirty: bool,
}

impl Oracle {
    fn add_resource(&mut self, capacity: f64) {
        self.capacities.push(capacity);
        self.dirty = true;
    }

    fn set_capacity(&mut self, r: ResourceId, capacity: f64) {
        self.capacities[r.0 as usize] = capacity;
        self.dirty = true;
    }

    fn start_flow(&mut self, spec: FlowSpec) -> FlowId {
        let mut links = spec.links;
        links.sort_by_key(|r| r.0);
        links.dedup();
        let flow = OracleFlow {
            links,
            remaining: spec.volume,
            rate: 0.0,
            tag: spec.tag,
        };
        self.dirty = true;
        let idx = self.free.pop().unwrap_or_else(|| {
            self.slots.push((0, None));
            (self.slots.len() - 1) as u32
        });
        let slot = &mut self.slots[idx as usize];
        slot.1 = Some(flow);
        FlowId { idx, gen: slot.0 }
    }

    fn get(&self, id: FlowId) -> Option<&OracleFlow> {
        match self.slots.get(id.idx as usize)? {
            (gen, Some(flow)) if *gen == id.gen => Some(flow),
            _ => None,
        }
    }

    fn flows(&self) -> impl Iterator<Item = &OracleFlow> {
        self.slots.iter().filter_map(|(_, f)| f.as_ref())
    }

    fn release(&mut self, idx: u32) {
        let slot = &mut self.slots[idx as usize];
        if slot.1.take().is_some() {
            slot.0 = slot.0.wrapping_add(1);
            self.free.push(idx);
            self.dirty = true;
        }
    }

    fn cancel_flow(&mut self, id: FlowId) -> Option<f64> {
        let remaining = self.get(id)?.remaining;
        self.release(id.idx);
        Some(remaining)
    }

    fn cancel_flows_where(&mut self, mut pred: impl FnMut(u64) -> bool) -> Vec<(u64, f64)> {
        let victims: Vec<(u32, u64, f64)> = (0..self.slots.len() as u32)
            .filter_map(|i| {
                let f = self.slots[i as usize].1.as_ref()?;
                pred(f.tag).then_some((i, f.tag, f.remaining))
            })
            .collect();
        victims
            .into_iter()
            .map(|(i, tag, remaining)| {
                self.release(i);
                (tag, remaining)
            })
            .collect()
    }

    fn flow_rate(&mut self, id: FlowId) -> Option<f64> {
        self.solve();
        self.get(id).map(|f| f.rate)
    }

    fn total_rate_on(&mut self, r: ResourceId) -> f64 {
        self.solve();
        self.flows()
            .filter(|f| f.links.contains(&r))
            .map(|f| f.rate)
            .sum()
    }

    fn solve(&mut self) {
        if !self.dirty {
            return;
        }
        self.dirty = false;
        let n_res = self.capacities.len();
        let mut used = vec![0.0f64; n_res];
        let mut frozen: Vec<bool> = self.slots.iter().map(|(_, f)| f.is_none()).collect();
        for (_, f) in self.slots.iter_mut() {
            if let Some(f) = f {
                f.rate = 0.0;
            }
        }
        loop {
            let mut weight_on = vec![0.0f64; n_res];
            let mut any_unfrozen = false;
            for (i, (_, f)) in self.slots.iter().enumerate() {
                let Some(f) = f.as_ref().filter(|_| !frozen[i]) else {
                    continue;
                };
                any_unfrozen = true;
                for l in &f.links {
                    weight_on[l.0 as usize] += 1.0;
                }
            }
            if !any_unfrozen {
                break;
            }
            let mut lambda = f64::INFINITY;
            for r in 0..n_res {
                if weight_on[r] > 0.0 {
                    lambda = lambda.min((self.capacities[r] - used[r]).max(0.0) / weight_on[r]);
                }
            }
            assert!(
                lambda.is_finite(),
                "unfrozen flow with no binding constraint"
            );
            let tol = 1e-12 + lambda * 1e-12;
            let saturated: Vec<bool> = (0..n_res)
                .map(|r| {
                    weight_on[r] > 0.0
                        && (self.capacities[r] - used[r]).max(0.0) / weight_on[r] <= lambda + tol
                })
                .collect();
            let mut froze_any = false;
            for (i, (_, f)) in self.slots.iter_mut().enumerate() {
                let Some(f) = f.as_mut().filter(|_| !frozen[i]) else {
                    continue;
                };
                if f.links.iter().any(|l| saturated[l.0 as usize]) {
                    f.rate = lambda;
                    for l in &f.links {
                        used[l.0 as usize] += f.rate;
                    }
                    frozen[i] = true;
                    froze_any = true;
                }
            }
            assert!(froze_any, "progressive filling failed to make progress");
        }
    }

    fn next_completion(&mut self) -> Option<(FlowId, Time)> {
        self.solve();
        let mut best: Option<(FlowId, Time)> = None;
        for (idx, (gen, f)) in self.slots.iter().enumerate() {
            let Some(f) = f else { continue };
            let dt = if f.remaining <= EPS {
                0.0
            } else if f.rate > RATE_EPS {
                f.remaining / f.rate
            } else {
                continue;
            };
            if !matches!(best, Some((_, bdt)) if bdt <= dt) {
                let id = FlowId {
                    idx: idx as u32,
                    gen: *gen,
                };
                best = Some((id, dt));
            }
        }
        best
    }

    fn advance(&mut self, dt: Time) -> Vec<(FlowId, u64)> {
        self.solve();
        let mut done = Vec::new();
        for (idx, (gen, f)) in self.slots.iter_mut().enumerate() {
            let Some(f) = f else { continue };
            f.remaining = (f.remaining - f.rate * dt).max(0.0);
            if f.remaining <= EPS {
                let id = FlowId {
                    idx: idx as u32,
                    gen: *gen,
                };
                done.push((id, f.tag));
            }
        }
        for (id, _) in &done {
            self.release(id.idx);
        }
        done
    }
}

/// Both solvers side by side, plus the link sets new flows pick from.
struct Pair {
    sys: FluidSystem,
    oracle: Oracle,
    rids: Vec<ResourceId>,
    capacities: Vec<f64>,
    patterns: Vec<Vec<ResourceId>>,
    ids: Vec<FlowId>,
    next_tag: u64,
}

fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

impl Pair {
    fn new(capacities: &[f64]) -> Self {
        let mut pair = Pair {
            sys: FluidSystem::new(),
            oracle: Oracle::default(),
            rids: Vec::new(),
            capacities: Vec::new(),
            patterns: Vec::new(),
            ids: Vec::new(),
            next_tag: 0,
        };
        for c in capacities {
            pair.add_resource(*c);
        }
        pair
    }

    fn add_resource(&mut self, capacity: f64) -> ResourceId {
        let r = self.sys.add_resource(capacity, "r");
        self.oracle.add_resource(capacity);
        self.rids.push(r);
        self.capacities.push(capacity);
        r
    }

    fn start(&mut self, pattern: usize, volume: f64) {
        let spec = FlowSpec::new(
            self.patterns[pattern % self.patterns.len()].clone(),
            volume,
            self.next_tag,
        );
        self.next_tag += 1;
        let id = self.sys.start_flow(spec.clone());
        assert_eq!(id, self.oracle.start_flow(spec), "slot allocation diverged");
        self.ids.push(id);
    }

    /// Compares every observable: rates and remaining volumes of every id
    /// ever handed out (stale ones must be gone in both), and every total.
    fn check(&mut self) -> Result<(), TestCaseError> {
        prop_assert_eq!(self.sys.active_flows(), self.oracle.flows().count());
        for &id in &self.ids {
            let (a, b) = (self.sys.flow_rate(id), self.oracle.flow_rate(id));
            prop_assert_eq!(a.is_some(), b.is_some(), "liveness of {:?}", id);
            if let (Some(a), Some(b)) = (a, b) {
                prop_assert!(same(a, b), "rate of {:?}: {} vs {}", id, a, b);
            }
            let (a, b) = (
                self.sys.flow_remaining(id),
                self.oracle.get(id).map(|f| f.remaining),
            );
            if let (Some(a), Some(b)) = (a, b) {
                prop_assert!(same(a, b), "remaining of {:?}: {} vs {}", id, a, b);
            }
        }
        for &r in &self.rids {
            let (a, b) = (self.sys.total_rate_on(r), self.oracle.total_rate_on(r));
            prop_assert!(same(a, b), "total on {:?}: {} vs {}", r, a, b);
        }
        Ok(())
    }

    /// Advances both by `dt`, or to the next completion when `dt` is `None`.
    fn advance(&mut self, dt: Option<f64>) -> Result<(), TestCaseError> {
        let (a, b) = (self.sys.next_completion(), self.oracle.next_completion());
        prop_assert_eq!(
            a.map(|(id, dt)| (id, dt.to_bits())),
            b.map(|(id, dt)| (id, dt.to_bits()))
        );
        let Some(dt) = dt.or(a.map(|(_, dt)| dt)) else {
            return Ok(());
        };
        let done = self.sys.advance(dt);
        prop_assert_eq!(done, self.oracle.advance(dt), "completions after {}", dt);
        Ok(())
    }

    /// Replays one encoded operation on both solvers.
    fn apply(&mut self, (kind, a, x): (u8, usize, f64)) -> Result<(), TestCaseError> {
        match kind {
            0..=2 => {
                let volume = match a % 4 {
                    0 => [0.0, 8.0, 64.0][a / 4 % 3],
                    _ => 0.5 + 500.0 * x,
                };
                self.start(a / 128, volume);
            }
            3 => self.advance(None)?,
            4 => {
                let dt = self.sys.next_completion().map_or(x, |(_, dt)| dt * x);
                self.advance(Some(dt))?;
            }
            5 if !self.ids.is_empty() => {
                let id = self.ids[a % self.ids.len()];
                let (p, q) = (self.sys.cancel_flow(id), self.oracle.cancel_flow(id));
                prop_assert_eq!(p.map(f64::to_bits), q.map(f64::to_bits));
            }
            6 => {
                let m = (a % 3 + 2) as u64;
                let k = (a / 4) as u64 % m;
                let p = self.sys.cancel_flows_where(|t| t % m == k);
                let q = self.oracle.cancel_flows_where(|t| t % m == k);
                let bits = |v: Vec<(u64, f64)>| -> Vec<(u64, u64)> {
                    v.into_iter().map(|(t, r)| (t, r.to_bits())).collect()
                };
                prop_assert_eq!(bits(p), bits(q));
            }
            7 => {
                let i = a % self.rids.len();
                let cap = if x < 0.15 {
                    0.0
                } else {
                    self.capacities[i] * (0.1 + 2.0 * x)
                };
                self.sys.set_capacity(self.rids[i], cap).unwrap();
                self.oracle.set_capacity(self.rids[i], cap);
            }
            8 => {
                // A new resource joins mid-run, shared with an existing one.
                let other = self.rids[a % self.rids.len()];
                let r = self.add_resource(1.0 + 999.0 * x);
                self.patterns.push(vec![r, other]);
            }
            _ => self.check()?,
        }
        Ok(())
    }
}

fn ops() -> impl Strategy<Value = Vec<(u8, usize, f64)>> {
    prop::collection::vec((0u8..11, 0usize..1 << 12, 0.0f64..1.0), 1..80)
}

/// Drives both solvers through `ops`, checking as it goes and then until
/// every flow has completed or stalled.
fn replay(mut pair: Pair, ops: Vec<(u8, usize, f64)>) -> Result<(), TestCaseError> {
    for op in ops {
        pair.apply(op)?;
    }
    pair.check()?;
    for _ in 0..10_000 {
        if pair.sys.next_completion().is_none() {
            break;
        }
        pair.advance(None)?;
    }
    pair.check()
}

/// Resource capacities plus link sets (indices into them) for random systems.
fn random_system() -> impl Strategy<Value = (Vec<f64>, Vec<Vec<usize>>)> {
    (
        prop::collection::vec(1.0f64..1000.0, 1..6),
        prop::collection::vec(prop::collection::vec(0usize..64, 1..4), 1..8),
    )
}

fn random_pair((caps, sets): (Vec<f64>, Vec<Vec<usize>>)) -> Pair {
    let mut pair = Pair::new(&caps);
    pair.patterns = sets
        .iter()
        .map(|s| s.iter().map(|i| pair.rids[i % caps.len()]).collect())
        .collect();
    pair
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn unit_flows_match_the_oracle_bit_for_bit(system in random_system(), ops in ops()) {
        replay(random_pair(system), ops)?;
    }

    /// The engine's topology: `n` worker NICs each linked to every PS NIC
    /// (pushes and pulls), plus one CPU per PS (update applications). Each
    /// worker NIC, PS NIC and PS CPU has its own capacity, so a slow worker
    /// NIC can bind before the PS NICs, and with several PSs (`fig10`'s
    /// clusters) the PS NICs saturate in different rounds: PS NICs then
    /// carry mixed rates and later filling rounds read what earlier ones
    /// used.
    #[test]
    fn ps_star_matches_the_oracle_bit_for_bit(
        n in 1usize..9,
        n_ps in 1usize..=4,
        caps in (
            prop::collection::vec(10.0f64..200.0, 8),
            prop::collection::vec(50.0f64..500.0, 4),
            prop::collection::vec(5.0f64..100.0, 4),
        ),
        ops in ops(),
    ) {
        let (wk, nic, cpu) = caps;
        let mut c = wk[..n].to_vec();
        c.extend_from_slice(&nic[..n_ps]);
        c.extend_from_slice(&cpu[..n_ps]);
        let mut pair = Pair::new(&c);
        let r = pair.rids.clone();
        for k in 0..n_ps {
            pair.patterns.extend((0..n).map(|j| vec![r[j], r[n + k]]));
            pair.patterns.push(vec![r[n + n_ps + k]]);
        }
        replay(pair, ops)?;
    }
}
