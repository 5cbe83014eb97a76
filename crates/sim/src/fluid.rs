//! Max-min fair fluid resource sharing.
//!
//! Network links (a parameter server's NIC, a worker's NIC) and
//! processor-sharing CPUs are modelled as capacitated *resources*. Work in
//! progress (a gradient push, a parameter pull, a PS update application) is a
//! *flow* with a volume (MB, or GFLOP for CPU work) traversing one or more
//! resources. Every flow has unit weight and no rate cap. At any instant the
//! rates are the max-min fair allocation computed by progressive filling: all
//! flows grow at the same rate until a resource saturates, the flows crossing
//! it freeze, and the rest keep growing.
//!
//! This is the classical fluid approximation used by flow-level network
//! simulators; it captures exactly the contention effects the Cynthia paper
//! measures (PS NIC saturation in Figs. 2 and 7, PS CPU saturation in
//! Table 2) without packet-level detail.
//!
//! # Link-set classes
//!
//! Two flows with the same sorted link set are indistinguishable to
//! progressive filling, so they always get the same rate. The solver
//! therefore works on *classes* keyed by the link set. A class stores its
//! flows' remaining volumes and slot indices in two parallel vectors, plus the
//! smallest remaining volume and one rate. A flow's slot holds only its class,
//! its position in the class and its tag; releasing a flow swap-removes it
//! from its class, and slots and the free list are allocated as a
//! flow-by-flow solver would, so every [`FlowId`] is the same.
//!
//! Link sets are *interned*: [`FluidSystem::link_set`] sorts, deduplicates
//! and validates a set once and returns a [`LinkSet`] handle, the index of
//! the set's class, and [`FluidSystem::start_flow_on`] starts a flow on a
//! handle without allocating, sorting or hashing. A class entry lives for
//! the whole run, so the table holds one entry per distinct link set ever
//! used: in the engine's PS star with `n` workers and `p` PSs, at most
//! `n·p + p`. A dense list of live classes, and per resource the live
//! classes crossing it, drive every walk. A class whose last flow leaves
//! drops out of both lists, so every walk covers only classes with flows
//! (`n + 1` of them in a one-PS star however many chunks are in flight); it
//! keeps its links, its map entry and its vectors' capacity, and when it is
//! refilled it rejoins the walks with rate 0 and an infinite minimum, as a
//! new class does.
//!
//! # Resource-driven filling
//!
//! Each resource's *load*, the number of live flows crossing it, is kept up
//! to date as flows start and end, together with a dense list of the loaded
//! resources. A solve starts from the loaded list, with each resource's level
//! `capacity / load`. Each round takes the lowest level `λ`, freezes at `λ`
//! every class listed on a resource saturated at `λ`, retires the saturated
//! resources, subtracts the frozen flows from the loads of their other links,
//! charges `λ` once per frozen flow to the links that still carry unfrozen
//! flows, and recomputes only those links' levels. A round costs O(loaded
//! resources + newly frozen classes); the rest of an engine event is the
//! drain over the remaining volumes.
//! Solver scratch buffers live in the system and are reused across solves.
//!
//! # Exact-order contract
//!
//! The results are bit-identical to progressive filling run flow by flow
//! (the `#[cfg(test)]` oracle), which walks every flow every round:
//!
//! * per-resource weights are integer flow counts, so the maintained `u32`
//!   loads equal the float sums a flow walk builds, in any order;
//! * every level is `(capacity − used).max(0) / unfrozen count`, the same
//!   expression on the same operands; a level whose operands did not change
//!   is not recomputed and keeps its bits; the minimum of non-NaN levels does
//!   not depend on scan order;
//! * an unfrozen class has all of its links still loaded, so the classes
//!   listed on the saturated resources are exactly the unfrozen classes with
//!   a saturated link, the set a flow walk freezes;
//! * every class frozen in one round has the same rate, `λ`, so the order of
//!   their `used += λ` additions does not matter; each class adds `λ` once
//!   per flow, never `k × λ`, and only to resources a later round still
//!   reads. A resource that saturates carries no unfrozen flow afterwards, so
//!   it is retired in that round and never charged: what it has used would
//!   never be read again;
//! * [`FluidSystem::advance`] computes `d = rate × dt` once per class, the
//!   same product every flow computed, and drains each volume with
//!   `r = (r − d).max(0)`;
//! * subtracting one `d` and dividing by one positive rate are both monotone,
//!   so a class's smallest volume stays its smallest through a drain and
//!   gives its earliest completion. The solve computes that completion as it
//!   freezes each class (every class with flows is frozen exactly once per
//!   solve) and keeps the earliest time and the classes that reach it.
//!   [`FluidSystem::next_completion_time`] returns that time, or `None` when
//!   no class reaches it, and searches no slot: the minimum over classes of
//!   each class's minimum is the minimum a slot walk finds.
//!   [`FluidSystem::next_completion`] also picks, among those classes, the
//!   lowest slot whose own quotient equals it, which is what a slot walk
//!   picks. When that time is a normal float, each quotient is within
//!   2^-53 of the exact one, so a volume above `min × (1 + 2^-49)` cannot
//!   round to it and is not divided; a zero, subnormal or infinite time
//!   takes the full scan. A drain moves the volumes, so
//!   [`FluidSystem::advance`] marks the rates stale and the next query
//!   re-solves: equal loads and capacities give the same rates and bits,
//!   and neither class index nor class order enters the arithmetic;
//! * the walk in [`FluidSystem::advance`] that collects a class's completed
//!   flows also folds the smallest volume of the flows that remain, and
//!   stores it once they are released. `f64::min` over the same positive
//!   volumes gives the same bits in any order, so it is the fold a rescan
//!   would make; a class rescans only after its smallest flow is cancelled;
//! * a zero-length [`FluidSystem::advance`] drains nothing and needs no
//!   rates: `(r − 0).max(0)` is `r` and the smallest volume does not move,
//!   so it skips the solve and the drain and completes only the flows
//!   already at ≤ [`EPS`], which depend on volumes alone. The rates stay
//!   stale, and the next query solves from the same loads and capacities
//!   the skipped solve would have used;
//! * [`FluidSystem::total_rate_on`] equals the sum over the resource's flows
//!   in slot order from `-0.0`. When every class on the resource has the
//!   same rate bits, that sum is `k` sequential additions of the rate and no
//!   slot order is needed; a memo keyed by `(rate bits, k)` returns the bits
//!   of that fold, computed on a miss. Otherwise it sorts the resource's
//!   flows by slot.
//!
//! Re-solving only the changed connected component, or event-driven
//! per-resource virtual clocks, were not taken: in a PS star every worker
//! talks to every PS, so the whole system is one component, and virtual
//! clocks change the floating-point rounding of every completion time.

use crate::hash::KeyMap;
use crate::{Time, EPS};

/// Rates below this are treated as stalled when searching for the next flow
/// completion.
const RATE_EPS: f64 = 1e-12;

/// The sum of no rates. `-0.0` is the exact additive identity (`x + -0.0`
/// is `x` for every `x`, `+0.0` included) and what `Iterator::sum` yields
/// for an empty sequence.
const NO_RATE: f64 = -0.0;

/// A volume more than this relative step above a class's smallest cannot
/// tie its completion time when that time is normal: two roundings of
/// 2^-53 each stay far inside it.
const TIE_SPAN: f64 = 1.0 / (1u64 << 49) as f64;

/// Entries in [`RepeatSums`]; a power of two. With 64 entries only 74–89%
/// of the lookups in `cynthia-exp` fig2, fig3, fig10 and fig12 hit; with
/// 1024 (24 KB) 96–99.9% do.
const REPEAT_SUMS: usize = 1024;

/// `k` sequential additions of `rate`, from `NO_RATE`: the slot-order sum
/// over `k` flows of one rate.
fn repeat_sum(rate: f64, k: usize) -> f64 {
    (0..k).fold(NO_RATE, |total, _| total + rate)
}

/// Memo of [`repeat_sum`]: a direct-mapped table keyed by `(rate bits, k)`
/// with a full-key compare. A hit returns what the fold returned when the
/// entry was filled, so the memo has the fold's bits. In an engine run the
/// same few `(rate, k)` pairs recur on every event.
#[derive(Debug)]
struct RepeatSums {
    /// `(rate bits, k, sum)`; a fresh entry holds the sum of no `+0.0`s.
    entries: Box<[(u64, usize, f64)]>,
}

impl Default for RepeatSums {
    fn default() -> Self {
        RepeatSums {
            entries: vec![(0, 0, NO_RATE); REPEAT_SUMS].into_boxed_slice(),
        }
    }
}

impl RepeatSums {
    fn sum(&mut self, rate: f64, k: usize) -> f64 {
        let bits = rate.to_bits();
        let entry = &mut self.entries[Self::slot(bits, k)];
        if entry.0 != bits || entry.1 != k {
            *entry = (bits, k, repeat_sum(rate, k));
        }
        entry.2
    }

    /// The entry for a key: the top bits of a multiplicative hash.
    fn slot(bits: u64, k: usize) -> usize {
        let h = (bits ^ (k as u64).rotate_left(32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> (64 - REPEAT_SUMS.trailing_zeros())) as usize
    }
}

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

#[derive(Debug, Clone, Copy)]
enum Slot {
    Occupied {
        gen: u32,
        /// Index into [`FluidSystem::classes`]; the flow's rate is its class's.
        class: u32,
        /// Position in the class's `remaining` and `slots`.
        pos: u32,
        /// Opaque caller payload, returned on completion.
        tag: u64,
    },
    Vacant {
        gen: u32,
    },
}

/// An interned link set, from [`FluidSystem::link_set`]: a handle that
/// starts flows with [`FluidSystem::start_flow_on`] without sorting,
/// hashing or allocating. It is valid for the whole life of the system
/// that made it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkSet(u32);

/// The flows of one link-set class and their common rate. A class lives for
/// the whole run; it is in the walks only while it has flows.
#[derive(Debug, Clone, Default)]
struct Class {
    /// The sorted, deduplicated link set.
    links: Vec<ResourceId>,
    rate: f64,
    /// Remaining volume of each flow, parallel to `slots`.
    remaining: Vec<f64>,
    /// Slot index of each flow.
    slots: Vec<u32>,
    /// The smallest of `remaining`; `None` until rescanned after the flow
    /// holding it was cancelled.
    min_remaining: Option<f64>,
    /// Position in [`FluidSystem::live`] while the class has flows.
    live_pos: u32,
    /// The solve that last froze this class (see [`FluidSystem::epoch`]).
    frozen_in: u64,
}

impl Class {
    /// When the class's first flow completes, or `None` if it is stalled:
    /// [`completion_time`] is monotone in the volume, so this is the time of
    /// the smallest remaining volume.
    fn first_completion(&mut self) -> Option<Time> {
        let remaining = &self.remaining;
        let min = *self
            .min_remaining
            .get_or_insert_with(|| remaining.iter().copied().fold(f64::INFINITY, f64::min));
        completion_time(min, self.rate)
    }
}

/// When a flow with `remaining` volume at `rate` completes, or `None` if it
/// is stalled.
fn completion_time(remaining: f64, rate: f64) -> Option<Time> {
    if remaining <= EPS {
        Some(0.0)
    } else if rate > RATE_EPS {
        Some(remaining / rate)
    } else {
        None
    }
}

/// Parameters for starting a flow. See [`FluidSystem::start_flow`].
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// Resources the flow traverses; its rate is constrained by all of them.
    pub links: Vec<ResourceId>,
    /// Total volume to transfer/process (same unit as the link capacities
    /// per second).
    pub volume: f64,
    /// Opaque payload handed back on completion.
    pub tag: u64,
}

impl FlowSpec {
    /// A flow of `volume` across `links`, handing back `tag` on completion.
    pub fn new(links: Vec<ResourceId>, volume: f64, tag: u64) -> Self {
        FlowSpec { links, volume, tag }
    }
}

/// A set of resources, the link sets interned over them and the flows
/// currently sharing them.
///
/// Typical driving loop (see `cynthia-train` for the real one, which
/// interns every link set it uses up front and starts flows on handles):
///
/// ```
/// use cynthia_sim::fluid::{FluidSystem, FlowSpec};
///
/// let mut sys = FluidSystem::new();
/// let link = sys.add_resource(100.0, "ps-nic");
/// let a = sys.start_flow(FlowSpec::new(vec![link], 50.0, 1));
/// let on_link = sys.link_set(&[link]);
/// let _b = sys.start_flow_on(on_link, 200.0, 2);
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
    /// One entry per link set ever interned, indexed by [`LinkSet`].
    classes: Vec<Class>,
    /// Sorted link set → class.
    class_of: KeyMap<Vec<ResourceId>, u32>,
    /// Indices of the classes with flows.
    live: Vec<u32>,
    /// Per resource, the classes with flows crossing it.
    classes_on: Vec<Vec<u32>>,
    loads: Loads,
    /// Rates must be re-solved before the next query.
    dirty: bool,
    /// Number of solves so far; a class whose `frozen_in` equals it is
    /// frozen in the current solve.
    epoch: u64,
    // Scratch, reused across calls.
    /// Per resource during a solve: capacity used by frozen flows, unfrozen
    /// flows crossing it, and its level (fair share per unfrozen flow).
    used: Vec<f64>,
    unfrozen_on: Vec<u32>,
    level: Vec<f64>,
    /// The resources that still carry unfrozen flows.
    filling: Vec<u32>,
    /// The classes frozen in the current round.
    frozen: Vec<u32>,
    /// The earliest first completion the last solve found, and the classes
    /// that reach it.
    best: Time,
    tied: Vec<u32>,
    /// The classes an advance walked, with their survivors' smallest volume.
    survivors: Vec<(u32, f64)>,
    crossing: Vec<(u32, f64)>,
    repeat_sums: RepeatSums,
}

/// Per-resource flow counts and the dense list of loaded resources, kept up
/// to date as flows start and end. Solves walk the list rather than every
/// resource: in an ASP run most worker NICs are idle at any moment.
#[derive(Debug, Default)]
struct Loads {
    /// Per resource, the number of live flows crossing it.
    count: Vec<u32>,
    /// The resources with a positive count, in no particular order.
    list: Vec<u32>,
    /// Per resource, its position in `list` while loaded.
    pos: Vec<u32>,
}

impl Loads {
    fn add_resource(&mut self) {
        self.count.push(0);
        self.pos.push(0);
    }

    /// One more flow crosses each of `links`.
    fn add(&mut self, links: &[ResourceId]) {
        for l in links {
            let r = l.0 as usize;
            if self.count[r] == 0 {
                self.pos[r] = self.list.len() as u32;
                self.list.push(l.0);
            }
            self.count[r] += 1;
        }
    }

    /// One flow fewer crosses each of `links`.
    fn remove(&mut self, links: &[ResourceId]) {
        for l in links {
            let r = l.0 as usize;
            self.count[r] -= 1;
            if self.count[r] == 0 {
                let pos = self.pos[r] as usize;
                self.list.swap_remove(pos);
                if let Some(&moved) = self.list.get(pos) {
                    self.pos[moved as usize] = pos as u32;
                }
            }
        }
    }
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
        self.classes_on.push(Vec::new());
        self.loads.add_resource();
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

    /// Interns a link set and returns its handle; the same set, in any
    /// order and with any repeats, always gets the same handle. Interning
    /// sorts, deduplicates and validates the links once, so
    /// [`start_flow_on`] does none of that per flow.
    ///
    /// # Panics
    ///
    /// If `links` is empty or names a foreign resource.
    ///
    /// [`start_flow_on`]: FluidSystem::start_flow_on
    pub fn link_set(&mut self, links: &[ResourceId]) -> LinkSet {
        self.intern(links.to_vec())
    }

    /// [`FluidSystem::link_set`] on an owned vector, sorted in place: a set
    /// already interned allocates nothing more.
    fn intern(&mut self, mut links: Vec<ResourceId>) -> LinkSet {
        assert!(!links.is_empty(), "a flow needs at least one link");
        links.sort_unstable_by_key(|r| r.0);
        links.dedup();
        if let Some(&c) = self.class_of.get(links.as_slice()) {
            return LinkSet(c);
        }
        for l in &links {
            assert!(
                (l.0 as usize) < self.resources.len(),
                "unknown resource {l:?}"
            );
        }
        let c = self.classes.len() as u32;
        self.classes.push(Class {
            links: links.clone(),
            ..Class::default()
        });
        self.class_of.insert(links, c);
        LinkSet(c)
    }

    /// Starts a flow on `spec.links` and returns its id: interning plus
    /// [`FluidSystem::start_flow_on`]. Rates of all flows are recomputed
    /// lazily on the next query.
    ///
    /// A zero-volume flow is legal and completes on the next [`advance`] of
    /// any duration (including 0).
    ///
    /// # Panics
    ///
    /// If the volume is negative or not finite, the flow has no link, or a
    /// link is foreign.
    ///
    /// [`advance`]: FluidSystem::advance
    pub fn start_flow(&mut self, spec: FlowSpec) -> FlowId {
        let set = self.intern(spec.links);
        self.start_flow_on(set, spec.volume, spec.tag)
    }

    /// Starts a flow of `volume` on an interned link set, handing back
    /// `tag` on completion, and returns its id. It allocates only when a
    /// slot or class vector has to grow.
    ///
    /// # Panics
    ///
    /// If the volume is negative or not finite, or `set` was not made by
    /// this system.
    pub fn start_flow_on(&mut self, set: LinkSet, volume: f64, tag: u64) -> FlowId {
        assert!(
            volume >= 0.0 && volume.is_finite(),
            "flow volume must be finite and non-negative"
        );
        let class = set.0;
        assert!(
            (class as usize) < self.classes.len(),
            "unknown link set {class} (system has {})",
            self.classes.len()
        );
        crate::obs::flow_started();
        let (idx, gen) = match self.free.pop() {
            Some(idx) => match self.slots[idx as usize] {
                Slot::Vacant { gen } => (idx, gen),
                Slot::Occupied { .. } => unreachable!("free list held an occupied slot"),
            },
            None => {
                self.slots.push(Slot::Vacant { gen: 0 });
                ((self.slots.len() - 1) as u32, 0)
            }
        };
        let c = &mut self.classes[class as usize];
        self.loads.add(&c.links);
        if c.slots.is_empty() {
            // The class (re)joins the walks as a new class would.
            c.rate = 0.0;
            c.min_remaining = Some(f64::INFINITY);
            c.live_pos = self.live.len() as u32;
            self.live.push(class);
            for l in &c.links {
                self.classes_on[l.0 as usize].push(class);
            }
        }
        self.slots[idx as usize] = Slot::Occupied {
            gen,
            class,
            pos: c.remaining.len() as u32,
            tag,
        };
        c.remaining.push(volume);
        c.slots.push(idx);
        if let Some(m) = &mut c.min_remaining {
            *m = m.min(volume);
        }
        self.active += 1;
        self.dirty = true;
        FlowId { idx, gen }
    }

    /// `(class, position)` of a live flow.
    fn get(&self, id: FlowId) -> Option<(usize, usize)> {
        match *self.slots.get(id.idx as usize)? {
            Slot::Occupied {
                gen, class, pos, ..
            } if gen == id.gen => Some((class as usize, pos as usize)),
            _ => None,
        }
    }

    /// Removes a flow before completion. Returns its remaining volume, or
    /// `None` if the id is stale.
    pub fn cancel_flow(&mut self, id: FlowId) -> Option<f64> {
        let remaining = self.flow_remaining(id)?;
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
            if let Slot::Occupied {
                class, pos, tag, ..
            } = self.slots[idx as usize]
            {
                if pred(tag) {
                    cancelled.push((tag, self.classes[class as usize].remaining[pos as usize]));
                    self.release(idx);
                }
            }
        }
        crate::obs::flows_dropped(cancelled.len());
        cancelled
    }

    fn release(&mut self, idx: u32) {
        let Slot::Occupied {
            gen, class: c, pos, ..
        } = self.slots[idx as usize]
        else {
            return;
        };
        self.slots[idx as usize] = Slot::Vacant {
            gen: gen.wrapping_add(1),
        };
        self.free.push(idx);
        self.active -= 1;
        self.dirty = true;
        let class = &mut self.classes[c as usize];
        self.loads.remove(&class.links);
        let r = class.remaining.swap_remove(pos as usize);
        class.slots.swap_remove(pos as usize);
        if class.min_remaining.is_some_and(|m| r <= m) {
            class.min_remaining = None;
        }
        if let Some(&moved) = class.slots.get(pos as usize) {
            if let Slot::Occupied { pos: p, .. } = &mut self.slots[moved as usize] {
                *p = pos;
            }
        } else if class.slots.is_empty() {
            // The emptied class leaves the walks but keeps its entry.
            let live_pos = class.live_pos as usize;
            for l in &class.links {
                let on = &mut self.classes_on[l.0 as usize];
                if let Some(i) = on.iter().position(|&x| x == c) {
                    on.swap_remove(i);
                }
            }
            self.live.swap_remove(live_pos);
            if let Some(&moved) = self.live.get(live_pos) {
                self.classes[moved as usize].live_pos = live_pos as u32;
            }
        }
    }

    /// Current max-min rate of `id`, or `None` if the flow is gone.
    pub fn flow_rate(&mut self, id: FlowId) -> Option<f64> {
        self.ensure_rates();
        self.get(id).map(|(c, _)| self.classes[c].rate)
    }

    /// Remaining volume of `id`, or `None` if the flow is gone.
    pub fn flow_remaining(&self, id: FlowId) -> Option<f64> {
        self.get(id).map(|(c, pos)| self.classes[c].remaining[pos])
    }

    /// Sum of current flow rates through `r`: its capacity at most, up to
    /// rounding (`k` additions of `capacity / k` may exceed it by an ulp).
    pub fn total_rate_on(&mut self, r: ResourceId) -> f64 {
        self.ensure_rates();
        let on: &[u32] = self.classes_on.get(r.0 as usize).map_or(&[], |v| v);
        let mut k = 0;
        let mut rate: Option<f64> = None;
        let mut mixed = false;
        for &c in on {
            let class = &self.classes[c as usize];
            k += class.slots.len();
            mixed |= rate.is_some_and(|x| x.to_bits() != class.rate.to_bits());
            rate = Some(class.rate);
        }
        if !mixed {
            // The slot-order sum of `k` equal rates.
            return self.repeat_sums.sum(rate.unwrap_or(NO_RATE), k);
        }
        self.crossing.clear();
        for &c in on {
            let class = &self.classes[c as usize];
            self.crossing
                .extend(class.slots.iter().map(|&s| (s, class.rate)));
        }
        self.crossing.sort_unstable_by_key(|&(s, _)| s);
        self.crossing
            .iter()
            .fold(NO_RATE, |total, &(_, rate)| total + rate)
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

    /// Recomputes every class rate by progressive filling over the loaded
    /// resources (see the module docs). Each round freezes every class on
    /// the resources with the lowest level, at that level, and leaves at
    /// least one resource with no unfrozen flow, so a solve takes at most
    /// as many rounds as there are loaded resources.
    fn ensure_rates(&mut self) {
        if !self.dirty {
            return;
        }
        self.dirty = false;
        self.epoch += 1;
        self.best = f64::INFINITY;
        self.tied.clear();

        let n_res = self.resources.len();
        self.used.resize(n_res, 0.0);
        self.unfrozen_on.resize(n_res, 0);
        self.level.resize(n_res, f64::INFINITY);
        let level = |capacity: f64, used: f64, unfrozen: u32| {
            (capacity - used).max(0.0) / f64::from(unfrozen)
        };
        for &r in &self.loads.list {
            let r = r as usize;
            self.used[r] = 0.0;
            self.unfrozen_on[r] = self.loads.count[r];
            self.level[r] = level(self.resources[r].capacity, 0.0, self.loads.count[r]);
        }
        self.filling.clone_from(&self.loads.list);

        while !self.filling.is_empty() {
            let mut lambda = f64::INFINITY;
            for &r in &self.filling {
                let level = self.level[r as usize];
                if level < lambda {
                    lambda = level;
                }
            }
            // Freeze every class on a resource saturated at `lambda`. An
            // unfrozen class has all its links still filling, so this finds
            // every unfrozen class with a saturated link. A saturated
            // resource is retired at once: none of its flows stays unfrozen.
            let tol = 1e-12 + lambda * 1e-12;
            self.frozen.clear();
            for &r in &self.filling {
                if self.level[r as usize] > lambda + tol {
                    continue;
                }
                self.unfrozen_on[r as usize] = 0;
                for &c in &self.classes_on[r as usize] {
                    let class = &mut self.classes[c as usize];
                    if class.frozen_in != self.epoch {
                        class.frozen_in = self.epoch;
                        class.rate = lambda;
                        self.frozen.push(c);
                        match class.first_completion() {
                            Some(dt) if dt < self.best => {
                                self.best = dt;
                                self.tied.clear();
                                self.tied.push(c);
                            }
                            Some(dt) if dt == self.best => self.tied.push(c),
                            _ => {}
                        }
                    }
                }
            }
            assert!(
                !self.frozen.is_empty(),
                "progressive filling failed to make progress"
            );

            // Charge the freezes to the links a later round still reads,
            // one addition per flow as a flow-by-flow solve does. Retired
            // links are skipped; loads only fall, so a link still filling
            // after the last class is charged was charged by every class
            // before it too.
            for &c in &self.frozen {
                let class = &self.classes[c as usize];
                let k = class.slots.len() as u32;
                for l in &class.links {
                    let r = l.0 as usize;
                    if self.unfrozen_on[r] == 0 {
                        continue;
                    }
                    self.unfrozen_on[r] -= k;
                    if self.unfrozen_on[r] > 0 {
                        let used = &mut self.used[r];
                        for _ in 0..k {
                            *used += lambda;
                        }
                        self.level[r] =
                            level(self.resources[r].capacity, *used, self.unfrozen_on[r]);
                    }
                }
            }
            let unfrozen_on = &self.unfrozen_on;
            self.filling.retain(|&r| unfrozen_on[r as usize] > 0);
        }
    }

    /// Time until the next flow completes at current rates, as
    /// `(flow, dt)`, or `None` if no flow can make progress (either the
    /// system is empty or every active flow is stalled at rate ≈ 0; use
    /// [`FluidSystem::is_stalled`] to distinguish).
    pub fn next_completion(&mut self) -> Option<(FlowId, Time)> {
        self.ensure_rates();
        let best = self.best;
        // The lowest slot whose own completion time is `best`, among the
        // classes that reach it. A normal quotient is within 2^-53 of the
        // exact one, so when `best` is normal only volumes within `TIE_SPAN`
        // of the class's smallest can round to it; the rest are not divided.
        let mut idx = u32::MAX;
        for &c in &self.tied {
            let class = &self.classes[c as usize];
            let cut = match class.min_remaining {
                Some(min) if best.is_normal() => min * (1.0 + TIE_SPAN),
                _ => f64::INFINITY,
            };
            for (&r, &s) in class.remaining.iter().zip(&class.slots) {
                if r <= cut && s < idx && completion_time(r, class.rate) == Some(best) {
                    idx = s;
                }
            }
        }
        match *self.slots.get(idx as usize)? {
            Slot::Occupied { gen, .. } => Some((FlowId { idx, gen }, best)),
            Slot::Vacant { .. } => unreachable!("the earliest completion belongs to a live flow"),
        }
    }

    /// The time of [`FluidSystem::next_completion`] without picking the
    /// flow: the solve's earliest completion, if a class reaches it.
    pub fn next_completion_time(&mut self) -> Option<Time> {
        self.ensure_rates();
        (!self.tied.is_empty()).then_some(self.best)
    }

    /// True if there are active flows but none can progress.
    pub fn is_stalled(&mut self) -> bool {
        self.active > 0 && self.next_completion_time().is_none()
    }

    /// Advances time by `dt`, draining every flow at its current rate.
    /// Returns the `(id, tag)` of flows that completed, in slot order
    /// (deterministic). At `dt = 0` nothing drains and no rates are
    /// solved: only the flows already at ≤ [`EPS`] complete.
    ///
    /// # Panics
    ///
    /// If `dt` is negative, NaN or infinite.
    pub fn advance(&mut self, dt: Time) -> Vec<(FlowId, u64)> {
        let mut done = Vec::new();
        self.advance_into(dt, &mut done);
        done
    }

    /// [`FluidSystem::advance`] into a caller's buffer: clears `done`,
    /// then fills it with the completed flows in slot order. A driving
    /// loop that keeps one buffer for the whole run allocates nothing per
    /// event once the buffer has grown.
    ///
    /// # Panics
    ///
    /// If `dt` is negative, NaN or infinite.
    pub fn advance_into(&mut self, dt: Time, done: &mut Vec<(FlowId, u64)>) {
        assert!(
            dt >= 0.0 && dt.is_finite(),
            "advance needs a finite, non-negative dt, got {dt}"
        );
        done.clear();
        self.survivors.clear();
        // A zero-length advance drains nothing (`(r − 0).max(0)` is `r`), so
        // it needs no rates: it only completes the flows already at ≤ `EPS`.
        let drain = dt > 0.0;
        if drain {
            self.ensure_rates();
        }
        for &c in &self.live {
            let class = &mut self.classes[c as usize];
            if drain {
                let d = class.rate * dt;
                for r in &mut class.remaining {
                    *r = (*r - d).max(0.0);
                }
                // The drain is monotone, so the smallest volume stays smallest.
                class.min_remaining = class.min_remaining.map(|m| (m - d).max(0.0));
            }
            if class.min_remaining.is_some_and(|m| m > EPS) {
                continue;
            }
            // The walk that collects the completions also folds the
            // survivors' smallest volume, so the releases below, which take
            // the class's minimum, need no rescan.
            let mut min = f64::INFINITY;
            for (&r, &s) in class.remaining.iter().zip(&class.slots) {
                if r <= EPS {
                    let Slot::Occupied { gen, tag, .. } = self.slots[s as usize] else {
                        unreachable!("a class holds only live slots");
                    };
                    done.push((FlowId { idx: s, gen }, tag));
                } else {
                    min = min.min(r);
                }
            }
            self.survivors.push((c, min));
        }
        done.sort_unstable_by_key(|(id, _)| id.idx);
        for (id, _) in done.iter() {
            self.release(id.idx);
        }
        for &(c, min) in &self.survivors {
            self.classes[c as usize].min_remaining = Some(min);
        }
        // The volumes moved, so the completion search is stale: the next
        // query re-solves, and equal loads and capacities give equal rates.
        self.dirty = true;
        crate::obs::flows_finished(done.len());
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
    fn a_completion_leaves_the_survivors_minimum_known() {
        let mut sys = FluidSystem::new();
        let r = sys.add_resource(10.0, "link");
        for (tag, volume) in [(0, 30.0), (1, 10.0), (2, 20.0)] {
            sys.start_flow(FlowSpec::new(vec![r], volume, tag));
        }
        let dt = sys.next_completion_time().unwrap();
        assert_eq!(sys.advance(dt).len(), 1);
        let class = &sys.classes[sys.live[0] as usize];
        let fresh = class
            .remaining
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        assert_eq!(class.min_remaining.map(f64::to_bits), Some(fresh.to_bits()));
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
        let narrow = sys.add_resource(25.0, "narrow");
        assert_eq!(sys.utilization(r), 0.0);
        sys.start_flow(FlowSpec::new(vec![r, narrow], 1.0, 0));
        assert!(approx(sys.utilization(r), 0.25));
        assert!(approx(sys.utilization(narrow), 1.0));
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
    #[should_panic(expected = "a flow needs at least one link")]
    fn linkless_flow_is_rejected() {
        let mut sys = FluidSystem::new();
        sys.add_resource(10.0, "link");
        sys.start_flow(FlowSpec::new(Vec::new(), 1.0, 0));
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
    fn class_table_grows_only_with_distinct_link_sets() {
        let mut sys = FluidSystem::new();
        let r: Vec<_> = (0..3)
            .map(|i| sys.add_resource(10.0, format!("r{i}")))
            .collect();
        let sets = [vec![r[0]], vec![r[1], r[0]], vec![r[2], r[1], r[2]]];
        let handles: Vec<LinkSet> = sets.iter().map(|s| sys.link_set(s)).collect();
        // Every cycle empties its class again; half of them start by
        // handle, half through a `FlowSpec`.
        for i in 0..10_000u64 {
            let k = i as usize % 3;
            let f = if i % 2 == 0 {
                sys.start_flow_on(handles[k], 1.0, i)
            } else {
                sys.start_flow(FlowSpec::new(sets[k].clone(), 1.0, i))
            };
            assert_eq!(sys.flow_rate(f), Some(10.0));
            sys.cancel_flow(f);
        }
        assert_eq!(sys.classes.len(), 3);
        assert_eq!(sys.class_of.len(), 3);
        assert_walks_hold_only_filled_classes(&sys);
    }

    /// `live` and every resource's `classes_on` list hold exactly the
    /// classes with flows, and each live class knows its position.
    pub(super) fn assert_walks_hold_only_filled_classes(sys: &FluidSystem) {
        let filled: Vec<u32> = (0..sys.classes.len() as u32)
            .filter(|&c| !sys.classes[c as usize].slots.is_empty())
            .collect();
        let mut live = sys.live.clone();
        live.sort_unstable();
        assert_eq!(live, filled, "live classes");
        for (i, &c) in sys.live.iter().enumerate() {
            assert_eq!(sys.classes[c as usize].live_pos as usize, i);
        }
        for (r, on) in sys.classes_on.iter().enumerate() {
            let mut on = on.clone();
            on.sort_unstable();
            let crossing: Vec<u32> = filled
                .iter()
                .copied()
                .filter(|&c| {
                    sys.classes[c as usize]
                        .links
                        .contains(&ResourceId(r as u32))
                })
                .collect();
            assert_eq!(on, crossing, "classes on resource {r}");
        }
    }

    #[test]
    fn emptied_classes_leave_every_walk() {
        let mut sys = FluidSystem::new();
        let r: Vec<_> = (0..4)
            .map(|i| sys.add_resource(10.0 + i as f64, format!("r{i}")))
            .collect();
        for tag in 0..12u64 {
            let links = vec![r[tag as usize % 4], r[tag as usize / 3]];
            sys.start_flow(FlowSpec::new(links, 1.0 + tag as f64, tag));
            assert_walks_hold_only_filled_classes(&sys);
        }
        // Classes empty by cancellation, then by completion.
        sys.cancel_flows_where(|t| t % 4 < 2);
        assert_walks_hold_only_filled_classes(&sys);
        while let Some((_, dt)) = sys.next_completion() {
            sys.advance(dt);
            assert_walks_hold_only_filled_classes(&sys);
        }
        assert!(sys.live.is_empty());
        assert_eq!(sys.classes.len(), 8, "every link set keeps its entry");
    }

    #[test]
    fn unsorted_and_repeated_links_land_in_the_sorted_sets_class() {
        let mut sys = FluidSystem::new();
        let a = sys.add_resource(10.0, "a");
        let b = sys.add_resource(20.0, "b");
        let set = sys.link_set(&[a, b]);
        assert_eq!(sys.link_set(&[b, a, b]), set);
        let f = sys.start_flow(FlowSpec::new(vec![b, a, a], 1.0, 0));
        let g = sys.start_flow_on(set, 1.0, 1);
        assert_eq!(sys.classes.len(), 1);
        assert_eq!(sys.get(f).map(|(c, _)| c), Some(set.0 as usize));
        assert_eq!(sys.get(g).map(|(c, _)| c), Some(set.0 as usize));
        // Each link is counted once per flow.
        assert_eq!(sys.loads.count, vec![2, 2]);
        assert_eq!(sys.flow_rate(f), Some(5.0));
    }

    #[test]
    #[should_panic(expected = "unknown link set 1 (system has 1)")]
    fn foreign_link_set_is_rejected() {
        let mut other = FluidSystem::new();
        let r = other.add_resource(10.0, "r");
        let s = other.add_resource(10.0, "s");
        other.link_set(&[r]);
        let foreign = other.link_set(&[s]);
        let mut sys = FluidSystem::new();
        let r = sys.add_resource(10.0, "r");
        sys.link_set(&[r]);
        sys.start_flow_on(foreign, 1.0, 0);
    }

    #[test]
    #[should_panic(expected = "unknown resource")]
    fn link_set_with_a_foreign_resource_is_rejected() {
        let mut sys = FluidSystem::new();
        let r = sys.add_resource(10.0, "r");
        sys.link_set(&[r, ResourceId(1)]);
    }

    #[test]
    fn completion_ties_across_classes_go_to_the_lowest_slot() {
        let mut sys = FluidSystem::new();
        let a = sys.add_resource(10.0, "a");
        let b = sys.start_flow(FlowSpec::new(vec![a], 100.0, 0));
        let narrow = sys.add_resource(5.0, "narrow");
        // `a`'s class is live first but its tying flow has the higher slot.
        let low = sys.start_flow(FlowSpec::new(vec![narrow], 30.0, 1));
        let high = sys.start_flow(FlowSpec::new(vec![a], 30.0, 2));
        assert_eq!(sys.flow_rate(b), Some(5.0));
        assert_eq!(sys.flow_rate(low), Some(5.0));
        assert_eq!(sys.next_completion(), Some((low, 6.0)));
        assert_eq!(sys.advance(6.0), vec![(low, 1), (high, 2)]);
    }

    #[test]
    fn cancelling_a_class_minimum_rescans_the_class() {
        let mut sys = FluidSystem::new();
        let r = sys.add_resource(10.0, "link");
        let long = sys.start_flow(FlowSpec::new(vec![r], 40.0, 0));
        let short = sys.start_flow(FlowSpec::new(vec![r], 10.0, 1));
        let mid = sys.start_flow(FlowSpec::new(vec![r], 20.0, 2));
        assert_eq!(sys.next_completion().map(|(id, _)| id), Some(short));
        assert_eq!(sys.cancel_flow(short), Some(10.0));
        // Two flows at 5 each: the 20 MB one is next, 4 s out.
        assert_eq!(sys.next_completion(), Some((mid, 4.0)));
        // Cancelling a flow above the minimum keeps it.
        assert_eq!(sys.cancel_flow(long), Some(40.0));
        assert_eq!(sys.next_completion(), Some((mid, 2.0)));
    }

    #[test]
    fn zero_volume_flow_joining_a_busy_class_completes_alone() {
        let mut sys = FluidSystem::new();
        let r = sys.add_resource(10.0, "link");
        let busy = sys.start_flow(FlowSpec::new(vec![r], 100.0, 0));
        assert!(sys.advance(2.0).is_empty());
        let empty = sys.start_flow(FlowSpec::new(vec![r], 0.0, 1));
        assert_eq!(sys.next_completion(), Some((empty, 0.0)));
        assert_eq!(sys.advance(0.0), vec![(empty, 1)]);
        assert_eq!(sys.flow_remaining(busy), Some(80.0));
        assert_eq!(sys.next_completion(), Some((busy, 8.0)));
    }

    #[test]
    fn a_zero_length_advance_completes_only_the_zero_volume_flows() {
        let mut sys = FluidSystem::new();
        let ps = sys.add_resource(150.0, "ps nic");
        let mut sets: Vec<LinkSet> = (0..3)
            .map(|j| {
                let w = sys.add_resource(90.0 + 7.0 * j as f64, "worker nic");
                sys.link_set(&[w, ps])
            })
            .collect();
        let cpu = sys.add_resource(40.0, "ps cpu");
        sets.push(sys.link_set(&[cpu]));
        let flows: Vec<FlowId> = (0..12)
            .map(|i| sys.start_flow_on(sets[i % 4], 20.0 + 3.5 * i as f64, i as u64))
            .collect();
        // Freed slots make the zero-volume flows land out of start order.
        sys.cancel_flow(flows[2]);
        sys.cancel_flow(flows[7]);
        assert!(sys.advance(0.37).is_empty());
        let live: Vec<FlowId> = flows
            .iter()
            .copied()
            .filter(|&f| sys.flow_remaining(f).is_some())
            .collect();
        let bits = |sys: &mut FluidSystem| -> Vec<(u64, u64)> {
            live.iter()
                .map(|&f| {
                    let rate = sys.flow_rate(f).unwrap();
                    (rate.to_bits(), sys.flow_remaining(f).unwrap().to_bits())
                })
                .collect()
        };
        let before = bits(&mut sys);
        let next = sys.next_completion().unwrap();

        // No query between the starts and the advance: the rates are stale.
        let zeros: Vec<(FlowId, u64)> = [(1, 100), (3, 101), (0, 102)]
            .into_iter()
            .map(|(set, tag)| (sys.start_flow_on(sets[set], 0.0, tag), tag))
            .collect();
        let mut expect = zeros.clone();
        expect.sort_unstable_by_key(|(id, _)| id.idx);
        assert_ne!(expect, zeros, "slot order differs from start order");
        assert_eq!(sys.advance(0.0), expect);
        assert_eq!(sys.active_flows(), live.len());
        assert_eq!(bits(&mut sys), before);
        assert_eq!(
            sys.next_completion().map(|(id, dt)| (id, dt.to_bits())),
            Some((next.0, next.1.to_bits()))
        );
    }

    #[test]
    fn mixed_rate_totals_sum_in_slot_order() {
        let mut sys = FluidSystem::new();
        let big = 2f64.powi(53);
        let shared = sys.add_resource(2.0 * big, "shared");
        let two = sys.add_resource(2.0, "two");
        let huge = sys.add_resource(big, "huge");
        // Slots 0 and 2 share one class at rate 1; slot 1 runs at 2^53.
        let ids = [
            sys.start_flow(FlowSpec::new(vec![shared, two], 1.0, 0)),
            sys.start_flow(FlowSpec::new(vec![shared, huge], 1.0, 1)),
            sys.start_flow(FlowSpec::new(vec![shared, two], 1.0, 2)),
        ];
        let rates: Vec<f64> = ids.iter().map(|&f| sys.flow_rate(f).unwrap()).collect();
        assert_eq!(rates, [1.0, big, 1.0]);
        // 1 + 2^53 rounds back to 2^53 twice; summing the class first
        // would give 2 + 2^53 exactly.
        assert_eq!(sys.total_rate_on(shared), big);
        assert_eq!(sys.total_rate_on(two), 2.0);
        assert_eq!(sys.total_rate_on(huge), big);
    }

    #[test]
    fn later_rounds_see_one_addition_per_frozen_flow() {
        let mut sys = FluidSystem::new();
        let shared = sys.add_resource(2.0, "shared");
        let narrow = sys.add_resource(1.0, "narrow");
        // Seven flows freeze at 1/7 on `narrow` in the first round; the
        // lone flow then gets what they left of `shared`.
        for tag in 0..7 {
            sys.start_flow(FlowSpec::new(vec![shared, narrow], 1.0, tag));
        }
        let alone = sys.start_flow(FlowSpec::new(vec![shared], 1.0, 7));
        let used = (0..7).fold(0.0, |used, _| used + 1.0 / 7.0);
        assert_ne!(used, 7.0 * (1.0 / 7.0));
        assert_eq!(sys.flow_rate(alone), Some(2.0 - used));
    }

    #[test]
    fn a_saturated_resource_is_never_charged() {
        let mut sys = FluidSystem::new();
        let ps = sys.add_resource(30.0, "ps-nic");
        let workers: Vec<_> = (0..4)
            .map(|i| sys.add_resource(100.0, format!("worker-nic{i}")))
            .collect();
        // Three pushes per worker bind the PS NIC at 30/12 in the first
        // round; a local flow per worker keeps every worker NIC filling.
        for (i, &w) in workers.iter().enumerate() {
            for j in 0..3 {
                sys.start_flow(FlowSpec::new(vec![w, ps], 1e3, (4 * i + j) as u64));
            }
        }
        let locals: Vec<_> = workers
            .iter()
            .map(|&w| sys.start_flow(FlowSpec::new(vec![w], 1e3, 99)))
            .collect();
        let lambda = 30.0 / 12.0;
        let charged = (0..3).fold(0.0, |used, _| used + lambda);
        for (&w, &f) in workers.iter().zip(&locals) {
            assert_eq!(sys.flow_rate(f), Some(100.0 - charged));
            assert_eq!(sys.used[w.0 as usize], charged);
        }
        assert_eq!(sys.used[ps.0 as usize].to_bits(), 0.0f64.to_bits());
        assert_eq!(sys.total_rate_on(ps), 30.0);
    }

    #[test]
    fn repeat_sums_equal_the_fold_through_evictions() {
        let mut memo = RepeatSums::default();
        let ks = [0, 1, 7, 8, 9, 300];
        let rates: Vec<f64> = std::iter::once(0.0)
            .chain((1..200).map(|i| (i as f64 + 0.1) / 7.0))
            .collect();
        assert!(ks.len() * rates.len() > REPEAT_SUMS);
        for _ in 0..3 {
            for &k in &ks {
                for &rate in &rates {
                    assert_eq!(
                        memo.sum(rate, k).to_bits(),
                        repeat_sum(rate, k).to_bits(),
                        "{k} × {rate}"
                    );
                }
            }
        }
        // Two counts of one rate that share an entry evict each other.
        let rate = 0.1f64;
        let bits = rate.to_bits();
        let twin = (301..)
            .find(|&k| RepeatSums::slot(bits, k) == RepeatSums::slot(bits, 300))
            .unwrap();
        assert_ne!(repeat_sum(rate, 300), repeat_sum(rate, twin));
        for k in [300, twin, 300, twin] {
            assert_eq!(memo.sum(rate, k).to_bits(), repeat_sum(rate, k).to_bits());
        }
    }

    /// One class on a link of capacity `2 × rate` holding `next_up(m)` in
    /// slot 0 and `m` in slot 1: the next completion.
    fn next_of_adjacent_pair(m: f64, rate: f64) -> (u32, Time) {
        let mut sys = FluidSystem::new();
        let r = sys.add_resource(2.0 * rate, "link");
        sys.start_flow(FlowSpec::new(vec![r], m.next_up(), 0));
        sys.start_flow(FlowSpec::new(vec![r], m, 1));
        let (id, dt) = sys.next_completion().unwrap();
        (id.idx, dt)
    }

    #[test]
    fn tie_cut_keeps_a_larger_volume_that_rounds_to_the_same_time() {
        assert_eq!(100.0 / 3.0, 100f64.next_up() / 3.0);
        assert_eq!(next_of_adjacent_pair(100.0, 3.0), (0, 100.0 / 3.0));
    }

    #[test]
    fn tie_cut_skips_a_larger_volume_that_finishes_later() {
        assert!(100.0 / 5.0 < 100f64.next_up() / 5.0);
        assert_eq!(next_of_adjacent_pair(100.0, 5.0), (1, 20.0));
    }

    #[test]
    fn overflowing_completion_times_take_the_full_tie_scan() {
        let mut sys = FluidSystem::new();
        let r = sys.add_resource(1.0, "link");
        // At rate 0.5 both quotients overflow to infinity, so they tie and
        // the larger volume's lower slot wins.
        let low = sys.start_flow(FlowSpec::new(vec![r], f64::MAX, 0));
        sys.start_flow(FlowSpec::new(vec![r], 0.75 * f64::MAX, 1));
        assert_eq!(sys.next_completion(), Some((low, f64::INFINITY)));
    }

    #[test]
    #[should_panic(expected = "advance needs a finite, non-negative dt")]
    fn infinite_advance_is_rejected() {
        let mut sys = FluidSystem::new();
        let dead = sys.add_resource(0.0, "dead-link");
        sys.start_flow(FlowSpec::new(vec![dead], 5.0, 0));
        sys.advance(f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "advance needs a finite, non-negative dt")]
    fn nan_advance_is_rejected() {
        let mut sys = FluidSystem::new();
        let r = sys.add_resource(10.0, "link");
        sys.start_flow(FlowSpec::new(vec![r], 5.0, 0));
        sys.advance(f64::NAN);
    }

    #[test]
    fn stall_detection() {
        let mut sys = FluidSystem::new();
        let r = sys.add_resource(0.0, "dead-link");
        sys.start_flow(FlowSpec::new(vec![r], 1.0, 0));
        assert!(sys.is_stalled());
    }

    /// The maintained loads equal a recount over the live classes, the
    /// loaded list holds exactly the resources with a positive load, and
    /// every position points back at its resource.
    fn assert_loads_consistent(sys: &FluidSystem) {
        let mut count = vec![0u32; sys.resources.len()];
        for &c in &sys.live {
            let class = &sys.classes[c as usize];
            for l in &class.links {
                count[l.0 as usize] += class.slots.len() as u32;
            }
        }
        assert_eq!(sys.loads.count, count);
        let mut listed = sys.loads.list.clone();
        listed.sort_unstable();
        let loaded: Vec<u32> = (0..count.len() as u32)
            .filter(|&r| count[r as usize] > 0)
            .collect();
        assert_eq!(listed, loaded);
        for (i, &r) in sys.loads.list.iter().enumerate() {
            assert_eq!(sys.loads.pos[r as usize] as usize, i);
        }
    }

    #[test]
    fn class_on_two_resources_saturating_together_is_frozen_once() {
        let mut sys = FluidSystem::new();
        let a = sys.add_resource(10.0, "a");
        let b = sys.add_resource(10.0, "b");
        let c = sys.add_resource(100.0, "c");
        // `a` and `b` both saturate at 5 in the first round, and both list
        // the class of `both`. Frozen once, it charges `c` 5 once.
        let both = sys.start_flow(FlowSpec::new(vec![a, b, c], 1.0, 0));
        sys.start_flow(FlowSpec::new(vec![a], 1.0, 1));
        sys.start_flow(FlowSpec::new(vec![b], 1.0, 2));
        let rest = sys.start_flow(FlowSpec::new(vec![c], 1.0, 3));
        assert_eq!(sys.flow_rate(both), Some(5.0));
        assert_eq!(sys.flow_rate(rest), Some(95.0));
        assert_eq!(sys.total_rate_on(c), 100.0);
        assert_eq!(sys.total_rate_on(a), 10.0);
        assert_eq!(sys.total_rate_on(b), 10.0);
    }

    #[test]
    fn loads_empty_after_cancellation_and_after_completion() {
        let mut sys = FluidSystem::new();
        let rids: Vec<_> = (0..5)
            .map(|i| sys.add_resource(10.0 + i as f64, format!("r{i}")))
            .collect();
        for tag in 0..12u64 {
            let links = vec![rids[tag as usize % 5], rids[(tag as usize * 3 + 1) % 5]];
            sys.start_flow(FlowSpec::new(links, 1.0 + tag as f64, tag));
            assert_loads_consistent(&sys);
        }
        sys.cancel_flows_where(|t| t % 3 == 0);
        assert_loads_consistent(&sys);
        sys.cancel_flows_where(|_| true);
        assert_loads_consistent(&sys);
        assert!(sys.loads.list.is_empty());

        for tag in 0..12u64 {
            let links = vec![rids[tag as usize % 5], rids[(tag as usize * 2) % 5]];
            sys.start_flow(FlowSpec::new(links, 1.0 + tag as f64, tag));
        }
        while let Some((_, dt)) = sys.next_completion() {
            sys.advance(dt);
            assert_loads_consistent(&sys);
        }
        assert_eq!(sys.active_flows(), 0);
        assert!(sys.loads.list.is_empty());
        assert!(sys.loads.count.iter().all(|&n| n == 0));
    }

    #[test]
    fn idle_resource_loaded_again_shares_afresh() {
        let mut sys = FluidSystem::new();
        let a = sys.add_resource(10.0, "a");
        let b = sys.add_resource(30.0, "b");
        let long = sys.start_flow(FlowSpec::new(vec![b], 1e6, 0));
        let first = sys.start_flow(FlowSpec::new(vec![a, b], 20.0, 1));
        assert_eq!(sys.flow_rate(first), Some(10.0));
        assert_eq!(sys.advance(2.0), vec![(first, 1)]);
        // `a` is idle: the long flow takes all of `b`.
        assert_loads_consistent(&sys);
        assert_eq!(sys.loads.list, vec![b.0]);
        assert_eq!(sys.flow_rate(long), Some(30.0));
        assert_eq!(sys.total_rate_on(a), 0.0);
        // Loaded again, `a` binds its flows as before.
        let again = sys.start_flow(FlowSpec::new(vec![a, b], 20.0, 2));
        let twin = sys.start_flow(FlowSpec::new(vec![a], 20.0, 3));
        assert_loads_consistent(&sys);
        assert_eq!(sys.flow_rate(again), Some(5.0));
        assert_eq!(sys.flow_rate(twin), Some(5.0));
        assert_eq!(sys.flow_rate(long), Some(25.0));
        assert_eq!(sys.total_rate_on(a), 10.0);
    }

    #[test]
    fn zero_capacity_resource_stalls_only_its_flows() {
        let mut sys = FluidSystem::new();
        let dead = sys.add_resource(0.0, "dead");
        let shared = sys.add_resource(10.0, "shared");
        let stuck = sys.start_flow(FlowSpec::new(vec![dead, shared], 5.0, 0));
        let live = sys.start_flow(FlowSpec::new(vec![shared], 5.0, 1));
        // The dead resource saturates first at level 0; the live flow then
        // gets all of `shared`.
        assert_eq!(sys.flow_rate(stuck), Some(0.0));
        assert_eq!(sys.flow_rate(live), Some(10.0));
        assert!(!sys.is_stalled());
        assert_eq!(sys.next_completion(), Some((live, 0.5)));
        assert_eq!(sys.advance(0.5), vec![(live, 1)]);
        assert!(sys.is_stalled());
        assert_eq!(sys.flow_remaining(stuck), Some(5.0));
        sys.set_capacity(dead, 1.0).unwrap();
        assert!(!sys.is_stalled());
        assert_eq!(sys.next_completion(), Some((stuck, 5.0)));
    }
}
