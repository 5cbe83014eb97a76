//! Validates the paper's statistical premises (Summary 2 / Eq. 1) against
//! *real* SGD: the `cynthia-dnn` parameter server trains actual MLPs, and
//! the measured loss curves are fitted with the same `FittedLossModel` the
//! provisioner uses.

use cynthia::dnn::{train_parameter_server, Blobs, PsMode, PsTrainConfig};
use cynthia::prelude::*;

fn dataset() -> Blobs {
    Blobs::generate(1024, 16, 4, 0.6, 33)
}

/// Smooths a noisy minibatch loss curve into (iteration, loss) samples.
fn smooth(curve: &[(u64, f64)], window: usize) -> Vec<(u64, f64)> {
    curve
        .windows(window)
        .step_by(window)
        .map(|w| {
            let s = w[w.len() / 2].0;
            let l = w.iter().map(|(_, l)| l).sum::<f64>() / w.len() as f64;
            (s, l)
        })
        .collect()
}

#[test]
fn real_bsp_sgd_fits_eq1_well() {
    let data = dataset();
    let out = train_parameter_server(
        &[16, 32, 4],
        &data,
        &PsTrainConfig {
            mode: PsMode::Bsp,
            n_workers: 4,
            iterations: 600,
            batch: 32,
            lr: 0.15,
            seed: 5,
        },
    );
    let samples = smooth(&out.loss_curve, 12);
    let fit = FittedLossModel::fit(SyncMode::Bsp, &samples, 4);
    assert!(fit.beta0 > 0.0, "decay constant positive: {fit:?}");
    assert!(
        fit.r_squared > 0.6,
        "Eq. (1) should explain a real SGD curve: R²={}",
        fit.r_squared
    );
    // The fitted model's iteration estimate is in the right ballpark:
    // predicted loss at the end of training matches the observed tail.
    let predicted_end = fit.predict(600, 4);
    let observed_end = out.tail_loss(50);
    assert!(
        (predicted_end - observed_end).abs() < 0.3,
        "fit extrapolates: predicted {predicted_end}, observed {observed_end}"
    );
}

#[test]
fn real_asp_staleness_slows_convergence_per_update() {
    // The √n factor of Eq. (1): at the same global update count, more
    // ASP workers (hence more staleness) reach a given update with a
    // higher loss. The comparison must happen *mid-descent*: by the time
    // both configurations have fully converged, their tail losses differ
    // only by minibatch noise and the staleness penalty is invisible. Run
    // several seeds and require the ordering to hold on average: each
    // seed fixes one commit order (staleness is a function of the worker
    // count and the seed), and a single order's minibatch noise can
    // outweigh the penalty.
    let data = dataset();
    let run = |n: usize, seed: u64| {
        train_parameter_server(
            &[16, 32, 4],
            &data,
            &PsTrainConfig {
                mode: PsMode::Asp,
                n_workers: n,
                iterations: 400,
                batch: 16,
                lr: 0.35,
                seed,
            },
        )
    };
    // Mean loss over the global-update window [lo, hi): the descent phase.
    let window_loss = |curve: &[(u64, f64)], lo: u64, hi: u64| {
        let w: Vec<f64> = curve
            .iter()
            .filter(|(u, _)| (lo..hi).contains(u))
            .map(|(_, l)| *l)
            .collect();
        assert!(!w.is_empty(), "no updates in window {lo}..{hi}");
        w.iter().sum::<f64>() / w.len() as f64
    };
    let mut few_total = 0.0;
    let mut many_total = 0.0;
    let mut stale_few = 0.0;
    let mut stale_many = 0.0;
    for seed in 0..5 {
        let few = run(2, seed);
        let many = run(10, seed);
        few_total += window_loss(&few.loss_curve, 20, 120);
        many_total += window_loss(&many.loss_curve, 20, 120);
        stale_few += few.mean_staleness();
        stale_many += many.mean_staleness();
    }
    assert!(
        stale_many > stale_few,
        "staleness grows with workers: {stale_few} vs {stale_many}"
    );
    assert!(
        many_total > few_total * 0.98,
        "more stale workers should not converge faster per update: {few_total} vs {many_total}"
    );
}

#[test]
fn adam_curves_also_fit_eq1() {
    // Sec. 2: "we can use our method above to fit the training loss
    // achieved by the other optimization methods (e.g., Adam)".
    use cynthia::dnn::{train_single_node, Adam, Mlp};
    let data = dataset();
    let mut net = Mlp::new(&[16, 32, 4], 7);
    let mut opt = Adam::new(0.01);
    let out = train_single_node(&mut net, &data, &mut opt, 600, 32);
    assert!(
        out.final_accuracy > 0.8,
        "Adam should learn: {}",
        out.final_accuracy
    );
    let samples = smooth(&out.loss_curve, 12);
    let fit = FittedLossModel::fit(SyncMode::Bsp, &samples, 1);
    assert!(fit.beta0 > 0.0);
    assert!(
        fit.r_squared > 0.5,
        "Eq. (1) should fit an Adam curve: R²={}",
        fit.r_squared
    );
}

#[test]
fn analytic_convergence_profile_matches_real_sgd_shape() {
    // The simulator's loss generator uses ConvergenceProfile; check the
    // same functional family fits a real curve, tying the two worlds
    // together.
    let data = dataset();
    let out = train_parameter_server(
        &[16, 32, 4],
        &data,
        &PsTrainConfig {
            mode: PsMode::Bsp,
            n_workers: 2,
            iterations: 500,
            batch: 32,
            lr: 0.15,
            seed: 9,
        },
    );
    let samples = smooth(&out.loss_curve, 10);
    let fit = FittedLossModel::fit(SyncMode::Bsp, &samples, 2);
    // Build the equivalent analytic profile and compare mid-curve.
    let profile = ConvergenceProfile {
        beta0: fit.beta0,
        beta1: fit.beta1.max(0.0),
        initial_loss: samples.first().unwrap().1,
        noise_sd: 0.0,
    };
    for s in [100u64, 250, 450] {
        let analytic = profile.expected_loss(SyncMode::Bsp, s, 2);
        let nearest = samples.iter().min_by_key(|(x, _)| x.abs_diff(s)).unwrap().1;
        assert!(
            (analytic - nearest).abs() < 0.45,
            "s={s}: analytic {analytic} vs measured {nearest}"
        );
    }
}
