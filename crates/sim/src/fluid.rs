//! Weighted max-min fair fluid resource sharing.
//!
//! Network links (a parameter server's NIC, a worker's NIC) and
//! processor-sharing CPUs are modelled as capacitated *resources*. Work in
//! progress (a gradient push, a parameter pull, a PS update application) is a
//! *flow* with a volume (MB, or GFLOP for CPU work) traversing one or more
//! resources. At any instant the rate of every active flow is the weighted
//! max-min fair allocation computed by progressive filling: all flows grow
//! proportionally to their weight until a resource saturates, the flows
//! crossing it freeze, and the rest keep growing.
//!
//! This is the classical fluid approximation used by flow-level network
//! simulators; it captures exactly the contention effects the Cynthia paper
//! measures (PS NIC saturation in Figs. 2 and 7, PS CPU saturation in
//! Table 2) without packet-level detail.
//!
//! # Link-set classes
//!
//! Two flows with the same sorted link set, weight and `max_rate` are
//! indistinguishable to progressive filling, so they always get the same
//! rate. The solver therefore works on *classes* keyed by
//! `(links, weight, max_rate)`: a class holds its live-flow count and one
//! rate, and a flow holds only its class index, remaining volume and tag.
//! Each filling round walks the classes, not the flows; in a PS star with
//! `n` workers and one PS that is `n + 1` classes however many chunks are
//! in flight. A class whose last flow leaves is unmapped and its entry
//! recycled, so the class table never outgrows the peak number of live link
//! sets. Solver scratch buffers live in the system and are reused across
//! solves.
//!
//! # Exact-order contract
//!
//! For unit-weight, uncapped flows (all the training engine creates) the
//! results are bit-identical to progressive filling run flow by flow:
//!
//! * per-resource weights are integer counts, which sum exactly in any order;
//! * a round that freezes `k` flows of a class adds their rate to each of
//!   their resources `k` times, one flow at a time, never `k × rate`;
//! * [`FluidSystem::total_rate_on`] sums flow rates in slot order, once per
//!   solve, and then answers in O(1);
//! * [`FluidSystem::next_completion`] and [`FluidSystem::advance`] walk the
//!   flows in slot order, so ties break as before.
//!
//! Weighted or capped classes may sum in a different order than a flow-by-flow
//! solve and agree with it to rounding (1e-9 relative is tested).
//!
//! Re-solving only the changed connected component, or event-driven
//! per-resource virtual clocks, were not taken: in a PS star every worker
//! talks to every PS, so the whole system is one component, and virtual
//! clocks change the floating-point rounding of every completion time.

use std::collections::HashMap;

use crate::{Time, EPS};

/// Rates below this are treated as stalled when searching for the next flow
/// completion.
const RATE_EPS: f64 = 1e-12;

/// The sum of no rates. `-0.0` is the exact additive identity (`x + -0.0`
/// is `x` for every `x`, `+0.0` included) and what `Iterator::sum` yields
/// for an empty sequence.
const NO_RATE: f64 = -0.0;

/// Identifies a resource within a [`FluidSystem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResourceId(pub(crate) u32);

/// Why a [`FluidSystem`] mutation was rejected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FluidError {
    /// The [`ResourceId`] does not belong to this system.
    UnknownResource {
        /// Offending resource index.
        index: u32,
        /// Number of registered resources.
        n_resources: usize,
    },
    /// A capacity was negative, NaN, or infinite.
    BadCapacity {
        /// The rejected value.
        value: f64,
    },
}

impl std::fmt::Display for FluidError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FluidError::UnknownResource { index, n_resources } => {
                write!(f, "unknown resource {index} (system has {n_resources})")
            }
            FluidError::BadCapacity { value } => {
                write!(f, "capacity must be finite and non-negative, got {value}")
            }
        }
    }
}

impl std::error::Error for FluidError {}

/// Identifies a flow within a [`FluidSystem`]. Ids are generational: once a
/// flow completes or is cancelled its id is never valid again.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowId {
    idx: u32,
    gen: u32,
}

/// A capacitated resource (link bandwidth in MB/s, CPU rate in GFLOPS, ...).
#[derive(Debug, Clone)]
struct Resource {
    capacity: f64,
    name: String,
}

#[derive(Debug, Clone)]
struct Flow {
    /// Index into [`FluidSystem::classes`]; the flow's rate is its class's.
    class: u32,
    remaining: f64,
    /// Opaque caller payload, returned on completion.
    tag: u64,
}

#[derive(Debug, Clone)]
enum Slot {
    Occupied { gen: u32, flow: Flow },
    Vacant { gen: u32 },
}

/// `(sorted links, weight bits, max_rate bits)`: flows with equal keys
/// always share one rate.
type ClassKey = (Vec<ResourceId>, u64, u64);

/// The live flows of one link-set class and their common rate.
#[derive(Debug, Clone)]
struct Class {
    links: Vec<ResourceId>,
    weight: f64,
    max_rate: f64,
    /// Live flows in the class; 0 marks a recycled entry.
    count: u32,
    rate: f64,
}

/// Parameters for starting a flow. See [`FluidSystem::start_flow`].
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// Resources the flow traverses; its rate is constrained by all of them.
    pub links: Vec<ResourceId>,
    /// Total volume to transfer/process (same unit as the link capacities
    /// per second).
    pub volume: f64,
    /// Max-min weight (1.0 = equal share).
    pub weight: f64,
    /// Optional hard rate cap (e.g. an application-level throttle).
    pub max_rate: f64,
    /// Opaque payload handed back on completion.
    pub tag: u64,
}

impl FlowSpec {
    /// A unit-weight, uncapped flow.
    pub fn new(links: Vec<ResourceId>, volume: f64, tag: u64) -> Self {
        FlowSpec {
            links,
            volume,
            weight: 1.0,
            max_rate: f64::INFINITY,
            tag,
        }
    }
}

/// A set of resources and the flows currently sharing them.
///
/// Typical driving loop (see `cynthia-train` for the real one):
///
/// ```
/// use cynthia_sim::fluid::{FluidSystem, FlowSpec};
///
/// let mut sys = FluidSystem::new();
/// let link = sys.add_resource(100.0, "ps-nic");
/// let a = sys.start_flow(FlowSpec::new(vec![link], 50.0, 1));
/// let _b = sys.start_flow(FlowSpec::new(vec![link], 200.0, 2));
/// // Two equal flows share 100 MB/s -> 50 each.
/// assert!((sys.flow_rate(a).unwrap() - 50.0).abs() < 1e-9);
/// let (first, dt) = sys.next_completion().unwrap();
/// assert_eq!(first, a);             // 50 MB at 50 MB/s
/// assert!((dt - 1.0).abs() < 1e-9);
/// let done = sys.advance(dt);
/// assert_eq!(done, vec![(a, 1)]);
/// // The survivor now gets the full link.
/// assert!((sys.total_rate_on(link) - 100.0).abs() < 1e-9);
/// ```
#[derive(Debug, Default)]
pub struct FluidSystem {
    resources: Vec<Resource>,
    slots: Vec<Slot>,
    free: Vec<u32>,
    active: usize,
    classes: Vec<Class>,
    class_of: HashMap<ClassKey, u32>,
    /// Recycled entries, reused by new link sets.
    free_classes: Vec<u32>,
    /// Rates must be re-solved before the next query.
    dirty: bool,
    /// Per-resource rate totals, valid while `!totals_stale`.
    totals: Vec<f64>,
    totals_stale: bool,
    // Solver scratch, reused across solves.
    used: Vec<f64>,
    weight_on: Vec<f64>,
    saturated: Vec<bool>,
    frozen: Vec<bool>,
}

impl FluidSystem {
    /// Creates an empty system.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a resource with the given capacity (per-second units).
    pub fn add_resource(&mut self, capacity: f64, name: impl Into<String>) -> ResourceId {
        assert!(
            capacity >= 0.0 && capacity.is_finite(),
            "capacity must be finite and non-negative"
        );
        let id = ResourceId(self.resources.len() as u32);
        self.resources.push(Resource {
            capacity,
            name: name.into(),
        });
        self.dirty = true;
        id
    }

    /// Changes a resource's capacity (modelling background interference, a
    /// degraded link, or a downed node). In-flight flows re-share on the
    /// next query; shrinking below the current total rate is legal and
    /// simply slows the flows crossing `r`.
    pub fn set_capacity(&mut self, r: ResourceId, capacity: f64) -> Result<(), FluidError> {
        if !capacity.is_finite() || capacity < 0.0 {
            return Err(FluidError::BadCapacity { value: capacity });
        }
        let n_resources = self.resources.len();
        let res = self
            .resources
            .get_mut(r.0 as usize)
            .ok_or(FluidError::UnknownResource {
                index: r.0,
                n_resources,
            })?;
        res.capacity = capacity;
        self.dirty = true;
        Ok(())
    }

    /// The configured capacity of `r` (0 for a foreign id).
    pub fn capacity(&self, r: ResourceId) -> f64 {
        self.resources.get(r.0 as usize).map_or(0.0, |x| x.capacity)
    }

    /// The resource's diagnostic name, or `None` for a foreign id.
    pub fn resource_name(&self, r: ResourceId) -> Option<&str> {
        self.resources.get(r.0 as usize).map(|x| x.name.as_str())
    }

    /// Number of flows currently in the system.
    pub fn active_flows(&self) -> usize {
        self.active
    }

    /// Starts a flow and returns its id. Rates of all flows are recomputed
    /// lazily on the next query.
    ///
    /// A zero-volume flow is legal and completes on the next [`advance`] of
    /// any duration (including 0).
    ///
    /// # Panics
    ///
    /// If the volume is negative or not finite, the weight is not positive
    /// and finite, `max_rate` is negative or NaN (`INFINITY` means
    /// uncapped), a link is foreign, or the flow has neither a link nor a
    /// finite `max_rate`.
    ///
    /// [`advance`]: FluidSystem::advance
    pub fn start_flow(&mut self, spec: FlowSpec) -> FlowId {
        assert!(
            spec.volume >= 0.0 && spec.volume.is_finite(),
            "flow volume must be finite and non-negative"
        );
        assert!(
            spec.weight > 0.0 && spec.weight.is_finite(),
            "flow weight must be positive and finite"
        );
        assert!(
            spec.max_rate >= 0.0,
            "flow max_rate must be non-negative (INFINITY = uncapped)"
        );
        assert!(
            !spec.links.is_empty() || spec.max_rate.is_finite(),
            "a flow needs at least one link or a finite max_rate"
        );
        crate::obs::flow_started();
        let mut links = spec.links;
        links.sort_by_key(|r| r.0);
        links.dedup();
        for l in &links {
            assert!(
                (l.0 as usize) < self.resources.len(),
                "unknown resource {l:?}"
            );
        }
        let class = self.class_for((links, spec.weight.to_bits(), spec.max_rate.to_bits()));
        self.classes[class as usize].count += 1;
        let flow = Flow {
            class,
            remaining: spec.volume,
            tag: spec.tag,
        };
        self.active += 1;
        self.dirty = true;
        if let Some(idx) = self.free.pop() {
            let gen = match self.slots[idx as usize] {
                Slot::Vacant { gen } => gen,
                Slot::Occupied { .. } => unreachable!("free list held an occupied slot"),
            };
            self.slots[idx as usize] = Slot::Occupied { gen, flow };
            FlowId { idx, gen }
        } else {
            let idx = self.slots.len() as u32;
            self.slots.push(Slot::Occupied { gen: 0, flow });
            FlowId { idx, gen: 0 }
        }
    }

    /// The class for `key`, registering it (in a recycled entry if one is
    /// free) on first use.
    fn class_for(&mut self, key: ClassKey) -> u32 {
        if let Some(&c) = self.class_of.get(&key) {
            return c;
        }
        let class = Class {
            links: key.0.clone(),
            weight: f64::from_bits(key.1),
            max_rate: f64::from_bits(key.2),
            count: 0,
            rate: 0.0,
        };
        let c = match self.free_classes.pop() {
            Some(c) => {
                self.classes[c as usize] = class;
                c
            }
            None => {
                self.classes.push(class);
                (self.classes.len() - 1) as u32
            }
        };
        self.class_of.insert(key, c);
        c
    }

    fn get(&self, id: FlowId) -> Option<&Flow> {
        match self.slots.get(id.idx as usize)? {
            Slot::Occupied { gen, flow } if *gen == id.gen => Some(flow),
            _ => None,
        }
    }

    fn rate_of(&self, flow: &Flow) -> f64 {
        self.classes[flow.class as usize].rate
    }

    /// Removes a flow before completion. Returns its remaining volume, or
    /// `None` if the id is stale.
    pub fn cancel_flow(&mut self, id: FlowId) -> Option<f64> {
        let remaining = self.get(id)?.remaining;
        self.release(id.idx);
        crate::obs::flows_dropped(1);
        Some(remaining)
    }

    /// Cancels every active flow whose tag satisfies `pred` (the revocation
    /// path: a revoked worker's in-flight pushes and pulls vanish with the
    /// instance). Returns the `(tag, remaining volume)` of cancelled flows
    /// in slot order, which is deterministic.
    pub fn cancel_flows_where(&mut self, mut pred: impl FnMut(u64) -> bool) -> Vec<(u64, f64)> {
        let mut cancelled = Vec::new();
        for idx in 0..self.slots.len() as u32 {
            if let Slot::Occupied { flow, .. } = &self.slots[idx as usize] {
                if pred(flow.tag) {
                    cancelled.push((flow.tag, flow.remaining));
                    self.release(idx);
                }
            }
        }
        crate::obs::flows_dropped(cancelled.len());
        cancelled
    }

    fn release(&mut self, idx: u32) {
        let slot = &mut self.slots[idx as usize];
        if let Slot::Occupied { gen, flow } = slot {
            let c = flow.class;
            *slot = Slot::Vacant {
                gen: gen.wrapping_add(1),
            };
            self.free.push(idx);
            self.active -= 1;
            self.dirty = true;
            let class = &mut self.classes[c as usize];
            class.count -= 1;
            if class.count == 0 {
                let key = (
                    std::mem::take(&mut class.links),
                    class.weight.to_bits(),
                    class.max_rate.to_bits(),
                );
                self.class_of.remove(&key);
                self.free_classes.push(c);
            }
        }
    }

    /// Current max-min rate of `id`, or `None` if the flow is gone.
    pub fn flow_rate(&mut self, id: FlowId) -> Option<f64> {
        self.ensure_rates();
        self.get(id).map(|f| self.rate_of(f))
    }

    /// Remaining volume of `id`, or `None` if the flow is gone.
    pub fn flow_remaining(&self, id: FlowId) -> Option<f64> {
        self.get(id).map(|f| f.remaining)
    }

    /// Sum of current flow rates through `r` (≤ capacity).
    pub fn total_rate_on(&mut self, r: ResourceId) -> f64 {
        self.ensure_rates();
        if self.totals_stale {
            self.totals_stale = false;
            self.totals.clear();
            self.totals.resize(self.resources.len(), NO_RATE);
            for slot in &self.slots {
                if let Slot::Occupied { flow, .. } = slot {
                    let class = &self.classes[flow.class as usize];
                    for l in &class.links {
                        self.totals[l.0 as usize] += class.rate;
                    }
                }
            }
        }
        self.totals.get(r.0 as usize).copied().unwrap_or(NO_RATE)
    }

    /// Instantaneous utilization of `r` in `[0, 1]` (0 for zero-capacity
    /// resources).
    pub fn utilization(&mut self, r: ResourceId) -> f64 {
        let cap = self.capacity(r);
        if cap <= 0.0 {
            0.0
        } else {
            (self.total_rate_on(r) / cap).min(1.0)
        }
    }

    /// Recomputes every class rate by weighted progressive filling.
    ///
    /// Each round, every unfrozen flow `f` grows at rate `weight_f · λ`. The
    /// smallest `λ` at which either (a) a resource saturates or (b) a flow
    /// hits its `max_rate` freezes the affected classes, and the remaining
    /// classes keep growing. Terminates in at most `resources + classes`
    /// rounds.
    fn ensure_rates(&mut self) {
        if !self.dirty {
            return;
        }
        self.dirty = false;
        self.totals_stale = true;

        let n_res = self.resources.len();
        self.used.clear();
        self.used.resize(n_res, 0.0); // rate already frozen on each resource
        self.weight_on.resize(n_res, 0.0);
        self.saturated.resize(n_res, false);
        self.frozen.clear();
        self.frozen
            .extend(self.classes.iter().map(|c| c.count == 0));

        loop {
            // Aggregate unfrozen weight per resource.
            self.weight_on.fill(0.0);
            let mut any_unfrozen = false;
            for (c, _) in self.classes.iter().zip(&self.frozen).filter(|(_, f)| !**f) {
                any_unfrozen = true;
                // For unit weights this is the integer count, exactly what
                // adding 1.0 per flow gives.
                let w = f64::from(c.count) * c.weight;
                for l in &c.links {
                    self.weight_on[l.0 as usize] += w;
                }
            }
            if !any_unfrozen {
                break;
            }

            // Bottleneck level over resources and flow caps.
            let mut lambda = f64::INFINITY;
            for ((res, used), w) in self.resources.iter().zip(&self.used).zip(&self.weight_on) {
                if *w > 0.0 {
                    lambda = lambda.min((res.capacity - used).max(0.0) / w);
                }
            }
            for (c, _) in self.classes.iter().zip(&self.frozen).filter(|(_, f)| !**f) {
                if c.max_rate.is_finite() {
                    lambda = lambda.min(c.max_rate / c.weight);
                }
            }
            assert!(
                lambda.is_finite(),
                "unfrozen flow with no binding constraint (flow without links?)"
            );

            // Freeze every class touching a resource saturated at `lambda`,
            // and every class whose cap equals `lambda`.
            let tol = 1e-12 + lambda * 1e-12;
            for r in 0..n_res {
                let w = self.weight_on[r];
                self.saturated[r] = w > 0.0
                    && (self.resources[r].capacity - self.used[r]).max(0.0) / w <= lambda + tol;
            }
            let mut froze_any = false;
            for (c, frozen) in self.classes.iter_mut().zip(self.frozen.iter_mut()) {
                if *frozen {
                    continue;
                }
                let hits_saturated = c.links.iter().any(|l| self.saturated[l.0 as usize]);
                let capped = c.max_rate.is_finite() && c.max_rate / c.weight <= lambda + tol;
                if hits_saturated || capped {
                    c.rate = if capped && !hits_saturated {
                        c.max_rate
                    } else {
                        c.weight * lambda
                    };
                    // One addition per flow, as a flow-by-flow solve does.
                    for l in &c.links {
                        let used = &mut self.used[l.0 as usize];
                        for _ in 0..c.count {
                            *used += c.rate;
                        }
                    }
                    *frozen = true;
                    froze_any = true;
                }
            }
            assert!(froze_any, "progressive filling failed to make progress");
        }
    }

    /// Time until the next flow completes at current rates, as
    /// `(flow, dt)`, or `None` if no flow can make progress (either the
    /// system is empty or every active flow is stalled at rate ≈ 0; use
    /// [`FluidSystem::is_stalled`] to distinguish).
    pub fn next_completion(&mut self) -> Option<(FlowId, Time)> {
        self.ensure_rates();
        let mut best: Option<(FlowId, Time)> = None;
        for (idx, slot) in self.slots.iter().enumerate() {
            let Slot::Occupied { gen, flow } = slot else {
                continue;
            };
            let rate = self.rate_of(flow);
            let dt = if flow.remaining <= EPS {
                0.0
            } else if rate > RATE_EPS {
                flow.remaining / rate
            } else {
                continue;
            };
            match best {
                Some((_, bdt)) if bdt <= dt => {}
                _ => {
                    let id = FlowId {
                        idx: idx as u32,
                        gen: *gen,
                    };
                    best = Some((id, dt));
                }
            }
        }
        best
    }

    /// True if there are active flows but none can progress.
    pub fn is_stalled(&mut self) -> bool {
        self.active > 0 && self.next_completion().is_none()
    }

    /// Advances time by `dt`, draining every flow at its current rate.
    /// Returns the `(id, tag)` of flows that completed, in slot order
    /// (deterministic).
    pub fn advance(&mut self, dt: Time) -> Vec<(FlowId, u64)> {
        assert!(dt >= 0.0, "cannot advance by negative time");
        self.ensure_rates();
        let mut done = Vec::new();
        for (idx, slot) in self.slots.iter_mut().enumerate() {
            let Slot::Occupied { gen, flow } = slot else {
                continue;
            };
            let rate = self.classes[flow.class as usize].rate;
            flow.remaining = (flow.remaining - rate * dt).max(0.0);
            if flow.remaining <= EPS {
                let id = FlowId {
                    idx: idx as u32,
                    gen: *gen,
                };
                done.push((id, flow.tag));
            }
        }
        for (id, _) in &done {
            self.release(id.idx);
        }
        crate::obs::flows_finished(done.len());
        done
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9 * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn single_flow_gets_full_capacity() {
        let mut sys = FluidSystem::new();
        let r = sys.add_resource(10.0, "link");
        let f = sys.start_flow(FlowSpec::new(vec![r], 100.0, 0));
        assert!(approx(sys.flow_rate(f).unwrap(), 10.0));
        let (id, dt) = sys.next_completion().unwrap();
        assert_eq!(id, f);
        assert!(approx(dt, 10.0));
    }

    #[test]
    fn equal_flows_share_equally() {
        let mut sys = FluidSystem::new();
        let r = sys.add_resource(90.0, "link");
        let flows: Vec<_> = (0..3)
            .map(|i| sys.start_flow(FlowSpec::new(vec![r], 100.0, i)))
            .collect();
        for f in &flows {
            assert!(approx(sys.flow_rate(*f).unwrap(), 30.0));
        }
    }

    #[test]
    fn weights_bias_the_shares() {
        let mut sys = FluidSystem::new();
        let r = sys.add_resource(90.0, "link");
        let heavy = sys.start_flow(FlowSpec {
            links: vec![r],
            volume: 1.0,
            weight: 2.0,
            max_rate: f64::INFINITY,
            tag: 0,
        });
        let light = sys.start_flow(FlowSpec::new(vec![r], 1.0, 1));
        assert!(approx(sys.flow_rate(heavy).unwrap(), 60.0));
        assert!(approx(sys.flow_rate(light).unwrap(), 30.0));
    }

    #[test]
    fn max_rate_caps_redistribute_to_others() {
        let mut sys = FluidSystem::new();
        let r = sys.add_resource(100.0, "link");
        let capped = sys.start_flow(FlowSpec {
            links: vec![r],
            volume: 1.0,
            weight: 1.0,
            max_rate: 10.0,
            tag: 0,
        });
        let free = sys.start_flow(FlowSpec::new(vec![r], 1.0, 1));
        assert!(approx(sys.flow_rate(capped).unwrap(), 10.0));
        assert!(approx(sys.flow_rate(free).unwrap(), 90.0));
    }

    #[test]
    fn two_link_flow_limited_by_narrow_link() {
        let mut sys = FluidSystem::new();
        let wide = sys.add_resource(100.0, "worker-nic");
        let narrow = sys.add_resource(10.0, "ps-nic");
        let f = sys.start_flow(FlowSpec::new(vec![wide, narrow], 1.0, 0));
        assert!(approx(sys.flow_rate(f).unwrap(), 10.0));
    }

    #[test]
    fn classic_max_min_example() {
        // Three flows: A on link1 only, B on link1+link2, C on link2 only.
        // link1 cap 10, link2 cap 4. Progressive filling: B and C freeze at
        // 2 when link2 saturates; A then takes the rest of link1 (8).
        let mut sys = FluidSystem::new();
        let l1 = sys.add_resource(10.0, "l1");
        let l2 = sys.add_resource(4.0, "l2");
        let a = sys.start_flow(FlowSpec::new(vec![l1], 1.0, 0));
        let b = sys.start_flow(FlowSpec::new(vec![l1, l2], 1.0, 1));
        let c = sys.start_flow(FlowSpec::new(vec![l2], 1.0, 2));
        assert!(approx(sys.flow_rate(b).unwrap(), 2.0));
        assert!(approx(sys.flow_rate(c).unwrap(), 2.0));
        assert!(approx(sys.flow_rate(a).unwrap(), 8.0));
    }

    #[test]
    fn completion_frees_capacity_for_survivors() {
        let mut sys = FluidSystem::new();
        let r = sys.add_resource(100.0, "link");
        let short = sys.start_flow(FlowSpec::new(vec![r], 50.0, 7));
        let long = sys.start_flow(FlowSpec::new(vec![r], 500.0, 8));
        let (id, dt) = sys.next_completion().unwrap();
        assert_eq!(id, short);
        assert!(approx(dt, 1.0));
        let done = sys.advance(dt);
        assert_eq!(done, vec![(short, 7)]);
        assert!(approx(sys.flow_rate(long).unwrap(), 100.0));
        // 500 - 50 already moved = 450 left at 100/s.
        let (_, dt2) = sys.next_completion().unwrap();
        assert!(approx(dt2, 4.5));
    }

    #[test]
    fn zero_volume_flow_completes_immediately() {
        let mut sys = FluidSystem::new();
        let r = sys.add_resource(1.0, "link");
        let f = sys.start_flow(FlowSpec::new(vec![r], 0.0, 3));
        let (id, dt) = sys.next_completion().unwrap();
        assert_eq!(id, f);
        assert_eq!(dt, 0.0);
        let done = sys.advance(0.0);
        assert_eq!(done, vec![(f, 3)]);
    }

    #[test]
    fn cancel_returns_remaining() {
        let mut sys = FluidSystem::new();
        let r = sys.add_resource(10.0, "link");
        let f = sys.start_flow(FlowSpec::new(vec![r], 30.0, 0));
        sys.advance(1.0);
        let rem = sys.cancel_flow(f).unwrap();
        assert!(approx(rem, 20.0));
        assert_eq!(sys.active_flows(), 0);
        assert_eq!(sys.cancel_flow(f), None, "stale id must not resolve");
    }

    #[test]
    fn cancel_where_takes_matching_flows_only() {
        let mut sys = FluidSystem::new();
        let r = sys.add_resource(10.0, "link");
        sys.start_flow(FlowSpec::new(vec![r], 30.0, 10));
        sys.start_flow(FlowSpec::new(vec![r], 30.0, 21));
        sys.start_flow(FlowSpec::new(vec![r], 30.0, 12));
        sys.advance(1.0);
        // Even tags belong to the "revoked worker".
        let gone = sys.cancel_flows_where(|t| t % 2 == 0);
        let tags: Vec<u64> = gone.iter().map(|(t, _)| *t).collect();
        assert_eq!(tags, vec![10, 12], "slot order, matching only");
        for (_, rem) in &gone {
            assert!((rem - (30.0 - 10.0 / 3.0)).abs() < 1e-9);
        }
        assert_eq!(sys.active_flows(), 1);
        // The survivor now gets the whole link.
        let (_, dt) = sys.next_completion().unwrap();
        assert!((dt - (30.0 - 10.0 / 3.0) / 10.0).abs() < 1e-9);
    }

    #[test]
    fn stale_ids_after_slot_reuse_do_not_resolve() {
        let mut sys = FluidSystem::new();
        let r = sys.add_resource(10.0, "link");
        let f1 = sys.start_flow(FlowSpec::new(vec![r], 1.0, 0));
        sys.cancel_flow(f1);
        let f2 = sys.start_flow(FlowSpec::new(vec![r], 1.0, 1));
        assert_eq!(f1.idx, f2.idx, "slot should be reused");
        assert!(sys.flow_rate(f1).is_none());
        assert!(sys.flow_rate(f2).is_some());
    }

    #[test]
    fn utilization_reflects_load() {
        let mut sys = FluidSystem::new();
        let r = sys.add_resource(100.0, "link");
        assert_eq!(sys.utilization(r), 0.0);
        sys.start_flow(FlowSpec {
            links: vec![r],
            volume: 1.0,
            weight: 1.0,
            max_rate: 25.0,
            tag: 0,
        });
        assert!(approx(sys.utilization(r), 0.25));
    }

    #[test]
    fn set_capacity_reshapes_rates_mid_flight() {
        let mut sys = FluidSystem::new();
        let r = sys.add_resource(100.0, "link");
        let f = sys.start_flow(FlowSpec::new(vec![r], 100.0, 0));
        sys.advance(0.5); // 50 MB left at 100 MB/s
        sys.set_capacity(r, 25.0).unwrap();
        assert!(approx(sys.flow_rate(f).unwrap(), 25.0));
        let (_, dt) = sys.next_completion().unwrap();
        assert!(approx(dt, 2.0));
        // Capacity 0 stalls the flow without dropping it.
        sys.set_capacity(r, 0.0).unwrap();
        assert!(sys.is_stalled());
        sys.set_capacity(r, 50.0).unwrap();
        assert!(approx(sys.flow_rate(f).unwrap(), 50.0));
    }

    #[test]
    fn set_capacity_rejects_bad_inputs() {
        let mut sys = FluidSystem::new();
        let r = sys.add_resource(10.0, "link");
        assert_eq!(
            sys.set_capacity(r, -1.0),
            Err(FluidError::BadCapacity { value: -1.0 })
        );
        assert!(matches!(
            sys.set_capacity(r, f64::NAN),
            Err(FluidError::BadCapacity { .. })
        ));
        let foreign = ResourceId(7);
        assert_eq!(
            sys.set_capacity(foreign, 5.0),
            Err(FluidError::UnknownResource {
                index: 7,
                n_resources: 1
            })
        );
        // Failed mutations leave the capacity untouched.
        assert!(approx(sys.capacity(r), 10.0));
        assert_eq!(sys.capacity(foreign), 0.0);
        assert_eq!(sys.resource_name(foreign), None);
        assert_eq!(sys.resource_name(r), Some("link"));
    }

    #[test]
    #[should_panic(expected = "flow max_rate must be non-negative")]
    fn negative_max_rate_is_rejected() {
        let mut sys = FluidSystem::new();
        let r = sys.add_resource(10.0, "link");
        sys.start_flow(FlowSpec {
            max_rate: -4.0,
            ..FlowSpec::new(vec![r], 1.0, 0)
        });
    }

    #[test]
    #[should_panic(expected = "flow max_rate must be non-negative")]
    fn nan_max_rate_is_rejected() {
        let mut sys = FluidSystem::new();
        let r = sys.add_resource(10.0, "link");
        sys.start_flow(FlowSpec {
            max_rate: f64::NAN,
            ..FlowSpec::new(vec![r], 1.0, 0)
        });
    }

    #[test]
    #[should_panic(expected = "flow volume must be finite and non-negative")]
    fn infinite_volume_is_rejected() {
        let mut sys = FluidSystem::new();
        let r = sys.add_resource(10.0, "link");
        sys.start_flow(FlowSpec::new(vec![r], f64::INFINITY, 0));
    }

    #[test]
    #[should_panic(expected = "flow volume must be finite and non-negative")]
    fn nan_volume_is_rejected() {
        let mut sys = FluidSystem::new();
        let r = sys.add_resource(10.0, "link");
        sys.start_flow(FlowSpec::new(vec![r], f64::NAN, 0));
    }

    #[test]
    #[should_panic(expected = "flow weight must be positive and finite")]
    fn infinite_weight_is_rejected() {
        let mut sys = FluidSystem::new();
        let r = sys.add_resource(10.0, "link");
        sys.start_flow(FlowSpec {
            weight: f64::INFINITY,
            ..FlowSpec::new(vec![r], 1.0, 0)
        });
    }

    /// `wide` (100) carries a long flow alone and a short one shared with
    /// `narrow` (30): the short flow gets 30 and the long one the other 70.
    /// Rates and totals are queried, so both are cached before each test
    /// mutates the system.
    fn cached_pair() -> (FluidSystem, [ResourceId; 2], [FlowId; 2]) {
        let mut sys = FluidSystem::new();
        let wide = sys.add_resource(100.0, "wide");
        let narrow = sys.add_resource(30.0, "narrow");
        let long = sys.start_flow(FlowSpec::new(vec![wide], 1e6, 1));
        let short = sys.start_flow(FlowSpec::new(vec![wide, narrow], 3.0, 2));
        assert_eq!(sys.flow_rate(long), Some(70.0));
        assert_eq!(sys.flow_rate(short), Some(30.0));
        assert_eq!(sys.total_rate_on(wide), 100.0);
        assert_eq!(sys.total_rate_on(narrow), 30.0);
        (sys, [wide, narrow], [long, short])
    }

    /// After the short flow is gone the long one owns `wide` and `narrow`
    /// is idle.
    fn assert_short_flow_gone(
        sys: &mut FluidSystem,
        [wide, narrow]: [ResourceId; 2],
        long: FlowId,
    ) {
        assert_eq!(sys.flow_rate(long), Some(100.0));
        assert_eq!(sys.total_rate_on(wide), 100.0);
        assert_eq!(sys.total_rate_on(narrow), 0.0);
        assert_eq!(sys.utilization(narrow), 0.0);
    }

    #[test]
    fn set_capacity_invalidates_cached_rates_and_totals() {
        let (mut sys, [wide, narrow], [long, short]) = cached_pair();
        sys.set_capacity(narrow, 10.0).unwrap();
        assert_eq!(sys.flow_rate(short), Some(10.0));
        assert_eq!(sys.flow_rate(long), Some(90.0));
        assert_eq!(sys.total_rate_on(narrow), 10.0);
        sys.set_capacity(wide, 50.0).unwrap();
        assert_eq!(sys.total_rate_on(wide), 50.0);
        assert_eq!(sys.flow_rate(long), Some(40.0));
    }

    #[test]
    fn cancel_flow_invalidates_cached_rates_and_totals() {
        let (mut sys, rids, [long, short]) = cached_pair();
        assert_eq!(sys.cancel_flow(short), Some(3.0));
        assert_short_flow_gone(&mut sys, rids, long);
    }

    #[test]
    fn cancel_flows_where_invalidates_cached_rates_and_totals() {
        let (mut sys, rids, [long, _]) = cached_pair();
        assert_eq!(sys.cancel_flows_where(|t| t == 2), vec![(2, 3.0)]);
        assert_short_flow_gone(&mut sys, rids, long);
    }

    #[test]
    fn completing_advance_invalidates_cached_rates_and_totals() {
        let (mut sys, rids, [long, short]) = cached_pair();
        // A partial advance completes nothing and keeps the rates.
        assert!(sys.advance(0.05).is_empty());
        assert_eq!(sys.flow_rate(short), Some(30.0));
        let (next, dt) = sys.next_completion().unwrap();
        assert_eq!(next, short);
        assert_eq!(sys.advance(dt), vec![(short, 2)]);
        assert_short_flow_gone(&mut sys, rids, long);
    }

    #[test]
    fn add_resource_mid_run_invalidates_cached_totals() {
        let (mut sys, [wide, _], [long, short]) = cached_pair();
        let extra = sys.add_resource(20.0, "extra");
        assert_eq!(sys.total_rate_on(extra), 0.0);
        assert_eq!(sys.total_rate_on(wide), 100.0);
        let f = sys.start_flow(FlowSpec::new(vec![wide, extra], 1.0, 3));
        assert_eq!(sys.flow_rate(f), Some(20.0));
        assert_eq!(sys.flow_rate(short), Some(30.0));
        assert_eq!(sys.flow_rate(long), Some(50.0));
        assert_eq!(sys.total_rate_on(extra), 20.0);
    }

    #[test]
    fn emptied_class_gets_its_rate_back_when_refilled() {
        let (mut sys, [wide, narrow], [long, short]) = cached_pair();
        sys.cancel_flow(short);
        assert_eq!(sys.flow_rate(long), Some(100.0));
        // A flow of another link set may take the recycled class entry.
        let alone = sys.start_flow(FlowSpec::new(vec![narrow], 1e6, 3));
        assert_eq!(sys.flow_rate(alone), Some(30.0));
        // Refill the emptied link set: three flows cross `wide`, and the
        // refilled class and `alone` split `narrow`.
        let again = sys.start_flow(FlowSpec::new(vec![wide, narrow], 1e6, 4));
        let twin = sys.start_flow(FlowSpec::new(vec![wide], 1e6, 5));
        assert_eq!(sys.flow_rate(again), Some(15.0));
        assert_eq!(sys.flow_rate(alone), Some(15.0));
        assert_eq!(sys.flow_rate(long), Some(42.5));
        assert_eq!(sys.flow_rate(twin), Some(42.5));
        assert_eq!(sys.total_rate_on(wide), 100.0);
        assert_eq!(sys.total_rate_on(narrow), 30.0);
    }

    #[test]
    fn class_table_stays_bounded_under_churn() {
        let mut sys = FluidSystem::new();
        let rids: Vec<_> = (0..64)
            .map(|i| sys.add_resource(10.0, format!("r{i}")))
            .collect();
        let keep = sys.start_flow(FlowSpec::new(vec![rids[0]], 1e9, 0));
        // 63 link sets, each used once: every emptied class's entry is
        // reused instead of growing the table.
        for (i, r) in rids.iter().enumerate().skip(1) {
            let f = sys.start_flow(FlowSpec::new(vec![*r], 1.0, i as u64));
            assert_eq!(sys.flow_rate(f), Some(10.0));
            sys.cancel_flow(f);
        }
        assert!(
            sys.classes.len() <= 2,
            "{} class entries",
            sys.classes.len()
        );
        assert_eq!(sys.flow_rate(keep), Some(10.0));
        assert_eq!(sys.total_rate_on(rids[63]), 0.0);
    }

    #[test]
    fn stall_detection() {
        let mut sys = FluidSystem::new();
        let r = sys.add_resource(0.0, "dead-link");
        sys.start_flow(FlowSpec::new(vec![r], 1.0, 0));
        assert!(sys.is_stalled());
    }
}
