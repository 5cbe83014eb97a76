//! A real in-memory parameter server whose workers run on virtual clocks.
//!
//! This is the statistical companion to the discrete-event simulator: an
//! actual data-parallel SGD implementation over one shared parameter
//! vector, run as a single loop so that every output is a pure function of
//! `(dims, data, cfg)`:
//!
//! * **BSP** — each round, all workers compute gradients on disjoint
//!   minibatch shards of the same parameters, and the averaged gradient is
//!   applied in worker order: one global update per round.
//! * **ASP** — each worker pulls the current parameters, computes its
//!   gradient and pushes it after a virtual compute time drawn from its own
//!   seeded clock. The server applies pushes in virtual-time order and
//!   records the *real* parameter staleness of every update, so staleness
//!   is a function of `(n, seed)`. This is the mechanism behind the paper's
//!   √n convergence penalty (Summary 2 / Eq. 1).

use crate::data::Blobs;
use crate::network::Mlp;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// Synchronization mode of the parameter-server trainer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PsMode {
    Bsp,
    Asp,
}

/// Configuration for [`train_parameter_server`].
#[derive(Debug, Clone, Copy)]
pub struct PsTrainConfig {
    pub mode: PsMode,
    pub n_workers: usize,
    /// Global updates to perform (BSP rounds, or ASP commits).
    pub iterations: u64,
    /// Per-worker minibatch size.
    pub batch: usize,
    pub lr: f32,
    pub seed: u64,
}

/// Outcome of a parameter-server run.
#[derive(Debug, Clone)]
pub struct PsOutcome {
    /// `(global update, minibatch loss at that update)` in commit order.
    pub loss_curve: Vec<(u64, f64)>,
    /// Staleness (missed updates) per ASP commit; empty for BSP.
    pub staleness: Vec<u64>,
    /// Final parameters.
    pub params: Vec<f32>,
}

impl PsOutcome {
    /// Mean staleness across commits (0 for BSP).
    pub fn mean_staleness(&self) -> f64 {
        if self.staleness.is_empty() {
            0.0
        } else {
            self.staleness.iter().sum::<u64>() as f64 / self.staleness.len() as f64
        }
    }

    /// Mean loss over the last `k` commits (tail average tames minibatch
    /// noise).
    pub fn tail_loss(&self, k: usize) -> f64 {
        let n = self.loss_curve.len();
        let k = k.min(n).max(1);
        self.loss_curve[n - k..].iter().map(|(_, l)| l).sum::<f64>() / k as f64
    }
}

/// Trains an MLP with the given layer `dims` on `data` using `cfg.n_workers`
/// workers against one parameter server.
pub fn train_parameter_server(dims: &[usize], data: &Blobs, cfg: &PsTrainConfig) -> PsOutcome {
    assert!(cfg.n_workers >= 1, "need at least one worker");
    assert!(cfg.iterations >= 1);
    let net = Mlp::new(dims, cfg.seed);
    match cfg.mode {
        PsMode::Bsp => train_bsp(net, data, cfg),
        PsMode::Asp => train_asp(net, data, cfg),
    }
}

fn train_bsp(mut net: Mlp, data: &Blobs, cfg: &PsTrainConfig) -> PsOutcome {
    let n = cfg.n_workers;
    let mut params = net.params().to_vec();
    let mut loss_curve = Vec::with_capacity(cfg.iterations as usize);
    for step in 0..cfg.iterations {
        // Every worker computes on the round's parameters (held by `net`);
        // the gradients are aggregated into `params` in worker order.
        net.set_params(&params);
        let mut mean_loss = 0.0f64;
        for j in 0..n {
            let (x, y) = data.worker_batch(j, n, step as usize, cfg.batch);
            let (loss, g) = net.loss_and_grad(&x, &y);
            for (p, gi) in params.iter_mut().zip(&g) {
                *p -= cfg.lr * gi / n as f32;
            }
            mean_loss += loss as f64 / n as f64;
        }
        loss_curve.push((step + 1, mean_loss));
    }
    PsOutcome {
        loss_curve,
        staleness: Vec::new(),
        params,
    }
}

/// Virtual compute time of one ASP step, drawn uniformly per step. Equal
/// means model a homogeneous cluster; the spread lets workers drift out of
/// lockstep, so pushes interleave as they do on real machines and a push
/// misses about `n - 1` others. A constant would keep the workers in
/// lockstep and make the commit order a pure round-robin.
const STEP_TIME: Range<f64> = 0.5..1.5;

/// An ASP worker and the gradient it holds until its virtual finish.
struct Worker {
    /// Step-time source, keyed by `(seed, worker index)`.
    clock: SmallRng,
    /// Minibatches consumed so far.
    step: usize,
    /// Virtual time at which the held gradient is pushed.
    finish: f64,
    /// Parameter version the held gradient was computed on.
    pulled: u64,
    loss: f32,
    grad: Vec<f32>,
}

fn train_asp(mut net: Mlp, data: &Blobs, cfg: &PsTrainConfig) -> PsOutcome {
    let n = cfg.n_workers;
    let mut params = net.params().to_vec();
    let mut loss_curve = Vec::with_capacity(cfg.iterations as usize);
    let mut staleness = Vec::with_capacity(cfg.iterations as usize);
    // Worker `j` pulls `params` (version `version`) at virtual time `now`
    // and computes its next gradient on them.
    let mut pull = |j: usize, w: &mut Worker, now: f64, params: &[f32], version: u64| {
        net.set_params(params);
        let (x, y) = data.worker_batch(j, n, w.step, cfg.batch);
        (w.loss, w.grad) = net.loss_and_grad(&x, &y);
        w.step += 1;
        w.pulled = version;
        w.finish = now + w.clock.gen_range(STEP_TIME);
    };
    let mut workers: Vec<Worker> = (0..n)
        .map(|j| {
            let key = (j as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let mut w = Worker {
                clock: SmallRng::seed_from_u64(cfg.seed ^ key),
                step: 0,
                finish: 0.0,
                pulled: 0,
                loss: 0.0,
                grad: Vec::new(),
            };
            pull(j, &mut w, 0.0, &params, 0);
            w
        })
        .collect();
    for version in 1..=cfg.iterations {
        // Earliest finish first; `min_by` keeps the lowest index on ties.
        let (j, w) = workers
            .iter_mut()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.finish.total_cmp(&b.finish))
            .expect("at least one worker");
        for (p, gi) in params.iter_mut().zip(&w.grad) {
            *p -= cfg.lr * gi;
        }
        staleness.push(version - 1 - w.pulled);
        loss_curve.push((version, w.loss as f64));
        if version < cfg.iterations {
            let now = w.finish;
            pull(j, w, now, &params, version);
        }
    }
    PsOutcome {
        loss_curve,
        staleness,
        params,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> Blobs {
        Blobs::generate(512, 12, 4, 0.5, 21)
    }

    fn cfg(mode: PsMode, n: usize, iters: u64) -> PsTrainConfig {
        PsTrainConfig {
            mode,
            n_workers: n,
            iterations: iters,
            batch: 32,
            lr: 0.15,
            seed: 77,
        }
    }

    /// FNV-1a over the little-endian bits of `params`.
    fn digest(params: &[f32]) -> u64 {
        params
            .iter()
            .flat_map(|p| p.to_bits().to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    #[test]
    fn bsp_converges_and_is_deterministic() {
        let data = blobs();
        let a = train_parameter_server(&[12, 24, 4], &data, &cfg(PsMode::Bsp, 4, 150));
        // Pinned to the bits of the earlier threaded implementation, which
        // the single loop reproduces exactly.
        assert_eq!(digest(&a.params), 0x4118_0164_fd13_be75);
        assert_eq!(a.loss_curve.len(), 150);
        assert!(a.tail_loss(20) < a.loss_curve[0].1 * 0.5);
        assert!(a.staleness.is_empty());
    }

    #[test]
    fn bsp_loss_trajectory_is_worker_count_invariant_in_shape() {
        // Same number of global updates, same per-worker batch: more
        // workers = bigger effective batch, still converging to a similar
        // tail loss (the paper's Fig. 4(a) observation).
        let data = blobs();
        let a = train_parameter_server(&[12, 24, 4], &data, &cfg(PsMode::Bsp, 2, 200));
        let b = train_parameter_server(&[12, 24, 4], &data, &cfg(PsMode::Bsp, 6, 200));
        let (ta, tb) = (a.tail_loss(30), b.tail_loss(30));
        assert!(
            (ta - tb).abs() < 0.25,
            "BSP tails should be close: {ta} vs {tb}"
        );
    }

    #[test]
    fn asp_commits_exactly_the_target_and_records_staleness() {
        let data = blobs();
        let out = train_parameter_server(&[12, 24, 4], &data, &cfg(PsMode::Asp, 4, 200));
        assert_eq!(out.loss_curve.len(), 200);
        assert_eq!(out.staleness.len(), 200);
        assert!(out.tail_loss(30) < out.loss_curve[0].1, "still converges");
        let again = train_parameter_server(&[12, 24, 4], &data, &cfg(PsMode::Asp, 4, 200));
        assert_eq!(out.params, again.params, "ASP must be deterministic");
        assert_eq!(out.staleness, again.staleness);
        assert_eq!(out.loss_curve, again.loss_curve);
    }

    #[test]
    fn asp_with_one_worker_is_bsp() {
        // One worker never misses an update, and dividing its gradient by
        // `1.0` is exact, so both modes take the same steps bit for bit.
        let data = blobs();
        let asp = train_parameter_server(&[12, 24, 4], &data, &cfg(PsMode::Asp, 1, 120));
        let bsp = train_parameter_server(&[12, 24, 4], &data, &cfg(PsMode::Bsp, 1, 120));
        assert_eq!(asp.params, bsp.params);
        assert_eq!(asp.loss_curve, bsp.loss_curve);
        assert_eq!(asp.staleness, vec![0; 120]);
    }

    #[test]
    fn asp_staleness_grows_with_worker_count() {
        let data = blobs();
        let s2 =
            train_parameter_server(&[12, 24, 4], &data, &cfg(PsMode::Asp, 2, 300)).mean_staleness();
        let s8 =
            train_parameter_server(&[12, 24, 4], &data, &cfg(PsMode::Asp, 8, 300)).mean_staleness();
        assert!(
            s8 > s2,
            "more workers must mean more missed updates: {s2} vs {s8}"
        );
        assert!(
            s8 > 0.5,
            "8 ASP workers should observe real staleness: {s8}"
        );
    }
}
