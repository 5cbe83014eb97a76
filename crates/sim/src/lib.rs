//! # cynthia-sim — discrete-event simulation core
//!
//! Foundation for the Cynthia reproduction's ground-truth cluster simulator:
//!
//! * [`events::EventQueue`] — a virtual-time event queue with deterministic
//!   FIFO tie-breaking for simultaneous events.
//! * [`fluid::FluidSystem`] — max-min fair sharing of capacitated
//!   resources (NIC links, processor-sharing CPUs) among concurrent flows,
//!   solved by progressive filling (water-filling).
//! * [`hash::KeyMap`] — a hash map on a fast multiply-rotate hasher for the
//!   simulator's integer-keyed hot maps.
//! * [`metrics`] — throughput time series summed per window, and summary
//!   statistics.
//! * [`rng`] — deterministic seed derivation and log-normal jitter so every
//!   simulation is reproducible from a single master seed.
//!
//! Time is represented as `f64` seconds ([`Time`]). All components are
//! deterministic: two runs with the same inputs produce bit-identical event
//! orderings and metrics.

pub mod events;
pub mod fluid;
pub mod hash;
pub mod metrics;
pub mod obs;
pub mod rng;

/// Virtual time, in seconds since the start of the simulation.
pub type Time = f64;

/// Tolerance used when comparing remaining work/bytes against zero.
pub const EPS: f64 = 1e-9;
