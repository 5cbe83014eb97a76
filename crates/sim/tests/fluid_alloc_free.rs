//! A driving loop that keeps one completion buffer must not touch the heap
//! per event: once the solver's tables have grown, cycles of
//! `start_flow_on`, `next_completion` and `advance_into`, zero-length
//! advances included, allocate nothing.
//!
//! A counting global allocator keeps a per-thread tally, so allocations
//! made by other threads of the test harness do not disturb the count.

use cynthia_sim::fluid::{FlowId, FluidSystem, LinkSet};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every allocation on the calling thread.
struct CountingAlloc;

impl CountingAlloc {
    fn count() {
        // `try_with`: the allocator also runs while thread-locals are torn down.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call forwards to `System` unchanged; counting touches only
// a const-initialised thread-local `Cell` and never allocates itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const WORKERS: usize = 8;
const PS: usize = 2;

/// A PS star in the engine's shape: every worker pushes a chunk to each
/// PS over its NIC pair, the PS CPU applies it, and the worker pulls it
/// back before pushing again.
struct Star {
    sys: FluidSystem,
    /// `{worker NIC j, PS NIC k}` at `j · PS + k`.
    pairs: Vec<LinkSet>,
    /// `{PS CPU k}`.
    cpus: Vec<LinkSet>,
    done: Vec<(FlowId, u64)>,
}

/// The tag of the zero-volume flow each event starts and completes at once.
const MARKER: u64 = u64::MAX;

/// Tags encode `(stage, worker, ps)`: stage 0 push, 1 apply, 2 pull.
fn tag(stage: u64, j: usize, k: usize) -> u64 {
    (stage << 16) | ((j as u64) << 8) | k as u64
}

impl Star {
    fn new() -> Star {
        let mut sys = FluidSystem::new();
        let wk: Vec<_> = (0..WORKERS)
            .map(|j| sys.add_resource(100.0 + 7.0 * j as f64, "worker nic"))
            .collect();
        let nic: Vec<_> = (0..PS).map(|_| sys.add_resource(250.0, "ps nic")).collect();
        let cpu: Vec<_> = (0..PS).map(|_| sys.add_resource(40.0, "ps cpu")).collect();
        let pairs = (0..WORKERS * PS)
            .map(|i| sys.link_set(&[wk[i / PS], nic[i % PS]]))
            .collect();
        let cpus = cpu.iter().map(|&c| sys.link_set(&[c])).collect();
        let mut star = Star {
            sys,
            pairs,
            cpus,
            done: Vec::new(),
        };
        for j in 0..WORKERS {
            for k in 0..PS {
                star.start(0, j, k);
            }
        }
        star
    }

    fn start(&mut self, stage: u64, j: usize, k: usize) {
        let (set, volume) = match stage {
            0 | 2 => (self.pairs[j * PS + k], 12.5 + j as f64),
            _ => (self.cpus[k], 1.25),
        };
        self.sys.start_flow_on(set, volume, tag(stage, j, k));
    }

    /// Runs `events` completion events, starting each finished flow's
    /// next stage.
    fn run(&mut self, events: usize) {
        for _ in 0..events {
            let (_, dt) = self.sys.next_completion().expect("the star never drains");
            let mut done = std::mem::take(&mut self.done);
            self.sys.advance_into(dt, &mut done);
            assert!(!done.is_empty(), "the earliest completion completes");
            for &(_, t) in &done {
                let (stage, j, k) = (t >> 16, (t >> 8) as usize & 0xff, t as usize & 0xff);
                self.start((stage + 1) % 3, j, k);
            }
            // A same-instant step on the rates the starts left stale: a
            // zero-length advance completes just the zero-volume marker.
            self.sys.start_flow_on(self.cpus[0], 0.0, MARKER);
            self.sys.advance_into(0.0, &mut done);
            assert_eq!(done.len(), 1, "only the marker is at zero");
            assert_eq!(done[0].1, MARKER);
            self.done = done;
        }
    }
}

#[test]
fn warm_advance_into_cycles_do_not_allocate() {
    let mut star = Star::new();
    star.run(2_000);
    let before = ALLOCATIONS.with(Cell::get);
    star.run(5_000);
    let allocated = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(
        allocated, 0,
        "5,000 warm events allocated {allocated} times"
    );

    // The counter itself works: `advance` returns a fresh vector.
    let before = ALLOCATIONS.with(Cell::get);
    let (_, dt) = star.sys.next_completion().expect("the star never drains");
    let done = star.sys.advance(dt);
    assert!(!done.is_empty());
    assert!(ALLOCATIONS.with(Cell::get) > before);
}
