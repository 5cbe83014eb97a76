//! # cynthia-dnn — a real miniature neural-network library
//!
//! The Cynthia reproduction's ground-truth *cluster* behaviour comes from
//! a discrete-event simulator (`cynthia-train`); this crate exists to
//! validate the *statistical* premises that simulator bakes in:
//!
//! 1. **Eq. (1)'s form** — under SGD, training loss decays ≈ `β0/s + β1`
//!    (Summary 2 of the paper). [`trainer`] really trains MLPs with SGD on
//!    synthetic data and the integration tests fit the hyperbola to the
//!    measured curve.
//! 2. **ASP staleness slows convergence** — [`parallel`] implements an
//!    actual in-memory parameter server whose workers run on seeded
//!    virtual clocks in one loop, in BSP (aggregated apply per round) and
//!    ASP (pushes applied in virtual-time order, real staleness) modes,
//!    demonstrating the √n degradation Eq. (1) models. Staleness is a
//!    function of the worker count and the seed.
//!
//! Everything is dependency-light and CPU-only: [`tensor::Matrix`] is a
//! row-major `f32` matrix with the handful of BLAS-like kernels a
//! multilayer perceptron needs.

pub mod conv;
pub mod data;
pub mod network;
pub mod optimizer;
pub mod parallel;
pub mod tensor;
pub mod trainer;

pub use conv::Conv2d;
pub use data::Blobs;
pub use network::Mlp;
pub use optimizer::{Adam, Optimizer, Sgd};
pub use parallel::{train_parameter_server, PsMode, PsOutcome, PsTrainConfig};
pub use tensor::Matrix;
pub use trainer::{train_single_node, TrainOutcome};
