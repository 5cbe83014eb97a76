//! A run's heap must not grow with its event count: the engine keeps a
//! few numbers per iteration (iteration, compute and communication
//! samples) and one sum per PS NIC throughput window, not one record per
//! fluid step. mnist BSP on 8 workers makes many fluid steps per
//! iteration, so a per-step record shows as kilobytes per iteration.
//!
//! A counting global allocator keeps a per-thread tally of bytes asked
//! for, so allocations made by other threads of the test harness do not
//! disturb the count.

use cynthia_cloud::default_catalog;
use cynthia_models::Workload;
use cynthia_train::{simulate, ClusterSpec, SimConfig, TrainJob};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every byte allocated on the calling
/// thread (a `realloc` counts its new size).
struct CountingAlloc;

impl CountingAlloc {
    fn count(bytes: usize) {
        // `try_with`: the allocator also runs while thread-locals are torn down.
        let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
    }
}

// SAFETY: every call forwards to `System` unchanged; counting touches only
// a const-initialised thread-local `Cell` and never allocates itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes allocated by one full-detail mnist BSP run, 8 workers and 1 PS.
fn bytes_allocated(iterations: u64) -> u64 {
    let mut w = Workload::mnist_bsp();
    w.iterations = iterations;
    let job = TrainJob {
        workload: &w,
        cluster: ClusterSpec::homogeneous(default_catalog().expect("m4.xlarge"), 8, 1),
        config: SimConfig::exact(5),
    };
    let before = BYTES.with(Cell::get);
    let report = simulate(&job);
    let bytes = BYTES.with(Cell::get) - before;
    assert_eq!(report.simulated_iterations, iterations);
    bytes
}

#[test]
fn heap_allocated_per_iteration_stays_under_a_kilobyte() {
    const SHORT: u64 = 200;
    const LONG: u64 = 800;
    let short = bytes_allocated(SHORT);
    let long = bytes_allocated(LONG);
    let per_iteration = long.saturating_sub(short) / (LONG - SHORT);
    assert!(
        per_iteration < 1024,
        "{per_iteration} B allocated per extra iteration ({short} B for {SHORT}, {long} B for {LONG})"
    );
}
