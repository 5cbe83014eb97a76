//! Disabled instrumentation must be free: with the master kill switch
//! ([`set_enabled`]) and the tracer both off, no hook in any of the six
//! hook modules may touch the heap.
//!
//! A counting global allocator keeps a per-thread tally, so allocations
//! made by other threads of the test harness do not disturb the count.

use cynthia::obs::{metrics, set_enabled, tracer};
use cynthia::prelude::{FaultEvent, FaultKind};
use cynthia::train::obs::RunTotals;
use cynthia::{cloud, core, elastic, faults, sim, train};
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

/// Heap allocations `f` makes on this thread.
fn allocations(f: &dyn Fn()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn disabled_hooks_do_not_allocate() {
    set_enabled(false);
    tracer().set_enabled(false);
    let _ = metrics(); // build the lazy globals outside the count

    let events = [FaultEvent::permanent(
        FaultKind::Straggler {
            worker: 0,
            factor: 0.5,
        },
        1.0,
    )];
    let samples = [0.5, 0.25];
    let totals = RunTotals {
        updates: 2,
        iter_samples: &samples,
        comp_samples: &samples,
        comm_samples: &samples,
        revocations: 1,
        repairs: 1,
        retries: 1,
        failovers: 1,
        lost_updates: 1,
        replayed_updates: 1,
        downtime_secs: 1.0,
        degraded_secs: 1.0,
    };

    let hooks: &[(&str, &dyn Fn())] = &[
        ("sim::event_popped", &sim::obs::event_popped),
        ("sim::flow_started", &sim::obs::flow_started),
        ("sim::flows_finished", &|| sim::obs::flows_finished(3)),
        ("sim::flows_dropped", &|| sim::obs::flows_dropped(3)),
        ("cloud::lease_launched", &cloud::obs::lease_launched),
        ("cloud::lease_settled", &|| cloud::obs::lease_settled(1.5)),
        ("faults::plan_drawn", &|| faults::obs::plan_drawn(&events)),
        ("train::run_begin", &|| {
            train::obs::run_begin(0.0);
        }),
        ("train::run_end", &|| train::obs::run_end(1, 2.0, 2)),
        ("train::iteration (BSP)", &|| {
            train::obs::iteration(1, None, 0.0, 1.0, 0.5, 0.25)
        }),
        ("train::iteration (ASP)", &|| {
            train::obs::iteration(1, Some(0), 0.0, 1.0, 0.5, 0.25)
        }),
        ("train::rollback", &|| train::obs::rollback(1, 1.0, 1)),
        ("train::restore", &|| train::obs::restore(1, 1.0, 2.0, 0)),
        ("train::record_run", &|| train::obs::record_run(&totals)),
        ("core::plan_started", &|| {
            drop(core::obs::plan_started("plan"))
        }),
        ("core::type_span", &|| {
            drop(core::obs::type_span("m4.xlarge"))
        }),
        ("core::band_computed", &|| core::obs::band_computed(2, 8)),
        ("core::plan_finished", &|| {
            core::obs::plan_finished(7, false)
        }),
        ("elastic::guarded_begin", &|| {
            elastic::obs::guarded_begin();
        }),
        ("elastic::segment", &|| {
            elastic::obs::segment(1, 0.0, 1.0, 4)
        }),
        ("elastic::migration", &|| {
            elastic::obs::migration(1, 1.0, 30.0, 4, 6)
        }),
        ("elastic::guarded_end", &|| {
            elastic::obs::guarded_end(1, 2.0, false)
        }),
        ("elastic::rescue_search", &elastic::obs::rescue_search),
    ];

    let allocating: Vec<String> = hooks
        .iter()
        .filter_map(|(name, hook)| {
            let n = allocations(*hook);
            (n > 0).then(|| format!("{name} ({n})"))
        })
        .collect();
    assert!(
        allocating.is_empty(),
        "disabled hooks allocated: {}",
        allocating.join(", ")
    );

    // The counter itself works: an allocation on this thread is seen.
    assert!(allocations(&|| drop(std::hint::black_box(vec![0u8; 64]))) > 0);
}
