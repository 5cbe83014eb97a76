//! # cynthia-obs — observability for the provision–train–recover pipeline
//!
//! Cynthia's premise is *predictability*: the profiler feeds the
//! performance model (Eqs. 2–7), which feeds the provisioner (Alg. 1),
//! which feeds the engine and the recovery layer. This crate gives every
//! stage first-class instrumentation so its hot paths can be observed at
//! runtime instead of trusted blindly:
//!
//! * [`registry::MetricsRegistry`] — typed counters, float counters,
//!   gauges, and fixed-bucket histograms with deterministic
//!   Prometheus-style text exposition and JSON export.
//! * [`span::Tracer`] — hierarchical tracing spans on named tracks, with
//!   a *virtual-clock* backend (the caller supplies simulated timestamps)
//!   and a *wall-clock* backend (RAII guards measured against a process
//!   epoch), exported as JSONL and as a Chrome trace-event file
//!   (`chrome://tracing` / Perfetto).
//! * [`export`] — the one JSON-artifact writer the repo's examples and
//!   CLIs share.
//! * [`metric!`] — declares the cached metric accessors the hook modules
//!   of the other crates record through.
//!
//! The crate itself is dependency-light (vendored shims only) and
//! `#![forbid(unsafe_code)]`. Instrumentation *call sites* in the other
//! crates live in one `obs` hook module per crate. They are always
//! compiled in, and are required never to perturb simulation results —
//! they only record.
//!
//! ## Globals
//!
//! Process-wide instrumentation writes to [`metrics()`] and [`tracer()`].
//! [`set_enabled`] is the master kill switch and the only way to turn
//! the hooks off (perfbench's `obs.trace_overhead_pct` measures hooks
//! plus tracer against both off); the tracer
//! additionally starts *disabled* and must be switched on per session
//! ([`span::Tracer::set_enabled`]) because span recording is only
//! meaningful while one simulation at a time is being observed. Metric
//! counters, by contrast, aggregate correctly under concurrency.
//!
//! See `docs/OBSERVABILITY.md` for the full metric and span catalog.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod registry;
pub mod span;

pub use registry::{Counter, FloatCounter, Gauge, Histogram, MetricsRegistry};
pub use span::{SpanRecord, Tracer, WallSpan};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Master kill switch for all instrumentation hooks. Hooks check this
/// before recording; flipping it off makes every hook a near-free atomic
/// load that neither allocates nor reads the clock.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether instrumentation hooks should record (see [`set_enabled`]).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The process-wide metrics registry all instrumentation writes to.
pub fn metrics() -> &'static MetricsRegistry {
    static REGISTRY: OnceLock<MetricsRegistry> = OnceLock::new();
    REGISTRY.get_or_init(MetricsRegistry::new)
}

/// The process-wide tracer. Starts *disabled*; a session that wants spans
/// (e.g. `examples/observe.rs`) enables it, runs, and drains.
pub fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(|| Tracer::new(1 << 18))
}

/// Declares lazily registered, cached accessors for process-wide
/// metrics: one `fn name() -> &'static Handle` per line, registered in
/// [`metrics()`] on first use, so an export lists only the metrics a run
/// actually touched. Kinds are `counter`, `float_counter` and `histogram`
/// (which takes its bucket bounds last).
///
/// ```
/// cynthia_obs::metric! {
///     runs: counter("doc_runs_total", "Runs completed");
///     spend: float_counter("doc_spend_dollars_total", "Dollars spent");
///     latency: histogram("doc_run_seconds", "Seconds per run", cynthia_obs::registry::TIME_BUCKETS);
/// }
///
/// runs().inc();
/// spend().add(0.5);
/// latency().observe(0.01);
/// assert!(std::ptr::eq(runs(), runs()));
/// assert_eq!(cynthia_obs::metrics().counter("doc_runs_total", "").get(), 1);
/// ```
#[macro_export]
macro_rules! metric {
    (@cached $fn_name:ident, $ty:ty, $ctor:ident($($arg:expr),+)) => {
        fn $fn_name() -> &'static $ty {
            static M: ::std::sync::OnceLock<$ty> = ::std::sync::OnceLock::new();
            M.get_or_init(|| $crate::metrics().$ctor($($arg),+))
        }
    };
    (@one $fn_name:ident, counter, $name:literal, $help:literal) => {
        $crate::metric!(@cached $fn_name, $crate::Counter, counter($name, $help));
    };
    (@one $fn_name:ident, float_counter, $name:literal, $help:literal) => {
        $crate::metric!(@cached $fn_name, $crate::FloatCounter, float_counter($name, $help));
    };
    (@one $fn_name:ident, histogram, $name:literal, $help:literal, $buckets:expr) => {
        $crate::metric!(@cached $fn_name, $crate::Histogram, histogram($name, $buckets, $help));
    };
    ($($fn_name:ident: $kind:ident($name:literal, $help:literal $(, $buckets:expr)?);)+) => {
        $($crate::metric!(@one $fn_name, $kind, $name, $help $(, $buckets)?);)+
    };
}

/// Whether span recording is active right now: the master switch is on
/// *and* the global tracer has been enabled. Engine hot loops cache this
/// at construction so per-event checks stay off the fast path.
#[inline]
pub fn span_recording() -> bool {
    enabled() && tracer().is_enabled()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_switch_round_trips() {
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        assert!(!span_recording(), "disabled master gates the tracer too");
        set_enabled(true);
        assert!(enabled());
    }

    #[test]
    fn globals_are_singletons() {
        let a = metrics() as *const MetricsRegistry;
        let b = metrics() as *const MetricsRegistry;
        assert_eq!(a, b);
        let t1 = tracer() as *const Tracer;
        let t2 = tracer() as *const Tracer;
        assert_eq!(t1, t2);
    }
}
