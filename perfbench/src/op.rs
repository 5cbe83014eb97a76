//! The unit of measurement: one call into a layer of the library, timed
//! from outside, with its output serialized for digesting and checked.

use cynthia::obs::tracer;
use cynthia::prelude::TrainingReport;
use std::time::{Duration, Instant};

/// Tracer track the benchmark's own spans are recorded on.
pub const TRACK: &str = "perfbench";

/// Which layer an op calls into. Decides which per-layer metrics the op
/// feeds and whether it is the workload's unit of work.
#[derive(Debug, Clone, PartialEq)]
pub enum Kind {
    /// `train::simulate` on one sweep configuration (`cifar10_bsp_n8`, …).
    Simulate { cfg: String },
    /// A direct `sim::fluid` replay: `n` worker NICs → PS NIC → PS CPU.
    FluidStar { n: usize },
    /// One Alg. 1 call (`core::provisioner::plan`).
    Plan {
        wl: &'static str,
        mode: &'static str,
    },
    /// One `baselines::plan_with_optimus` call.
    OptimusPlan,
    /// `core::profiler::profile_workload`.
    Profile { wl: &'static str },
    /// `core::loss_model::FittedLossModel::fit` on a setup-generated curve.
    FitLoss { wl: &'static str },
    /// A batch of `CynthiaModel::predict_time` calls.
    PredictCynthia { calls: u64 },
    /// A batch of `PaleoModel::predict_time` calls.
    PredictPaleo { calls: u64 },
    /// `elastic::run_elastic` on one sweep seed.
    Elastic,
    /// `train::simulate_faulted` on one chaos seed of a run set.
    Faulted { set: &'static str },
    /// `elastic::run_guarded` on one seed.
    Guarded,
    /// `faults::FaultInjector::draw_plan`.
    DrawPlan,
    /// `cloud::SpotMarket::price_trace`.
    SpotTrace,
    /// One `experiments::<name>::run(&ExpConfig::quick())`.
    Experiment { name: &'static str },
}

impl Kind {
    /// Whether the op is the workload's unit of work, whose best times
    /// `op_p50_us` takes the median of.
    pub fn scored(&self) -> bool {
        matches!(
            self,
            Kind::Simulate { .. }
                | Kind::Plan { .. }
                | Kind::Elastic
                | Kind::Faulted { .. }
                | Kind::Guarded
                | Kind::Experiment { .. }
        )
    }
}

/// What one op produced.
pub struct Outcome {
    /// Serialized output: digested, compared pass to pass and, on the
    /// default seed, against the committed digests.
    pub text: String,
    /// Units of work completed: flows for a fluid replay (the divisor of
    /// its µs per flow), 1 otherwise.
    pub units: u64,
    /// Invariant check on the output.
    pub check: Result<(), String>,
}

impl Outcome {
    /// One unit of work with the given serialized output and check.
    pub fn one(text: String, check: Result<(), String>) -> Self {
        Outcome {
            text,
            units: 1,
            check,
        }
    }
}

/// Times the library calls an op makes, and wraps each in a wall-clock
/// span on [`TRACK`] (inert unless the tracer is on).
pub struct Timer<'a> {
    name: &'a str,
    elapsed: Duration,
}

impl<'a> Timer<'a> {
    pub fn new(name: &'a str) -> Self {
        Timer {
            name,
            elapsed: Duration::ZERO,
        }
    }

    /// Runs `f`, adding its wall time to the op's elapsed time.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let _span = tracer().wall_span(TRACK, self.name);
        let start = Instant::now();
        let r = std::hint::black_box(f());
        self.elapsed += start.elapsed();
        r
    }

    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }
}

/// One timed call (or small fixed batch of calls) into a layer.
pub struct Op {
    /// Unique within the workload; also the span name.
    pub name: String,
    pub kind: Kind,
    /// Ops sharing a key fold into one committed digest.
    pub digest_key: String,
    pub run: Box<dyn Fn(&mut Timer) -> Outcome>,
}

/// FNV-1a 64-bit, the digest of `tests/obs_determinism.rs`.
pub fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `Ok` when `cond` holds, else the message.
pub fn ensure(cond: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(msg())
    }
}

/// Whether `x` is a finite, strictly positive number.
pub fn positive(x: f64) -> bool {
    x.is_finite() && x > 0.0
}

/// Invariants every completed training run satisfies, whatever its seed:
/// it reached its update target and replayed exactly what it lost.
pub fn check_training(r: &TrainingReport) -> Result<(), String> {
    ensure(r.simulated_iterations == r.iterations, || {
        format!(
            "{}: simulated {} of {} updates",
            r.workload, r.simulated_iterations, r.iterations
        )
    })?;
    ensure(r.lost_updates == r.replayed_updates, || {
        format!(
            "{}: lost {} updates but replayed {}",
            r.workload, r.lost_updates, r.replayed_updates
        )
    })?;
    ensure(positive(r.total_time), || {
        format!("{}: total time {}", r.workload, r.total_time)
    })
}

/// Serializes a library output for digesting.
pub fn to_text<T: serde::Serialize + ?Sized>(value: &T) -> String {
    serde_json::to_string(value).expect("library outputs serialize")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
    }
}
