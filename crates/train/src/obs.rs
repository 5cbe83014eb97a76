//! Instrumentation hooks for the training engine.
//!
//! The engine is the hottest code in the repo, so the hooks follow two
//! rules. Rare events (rollbacks, restores) record live; per-iteration
//! breakdowns record live only as *spans*, and only while the process
//! tracer is enabled ([`cynthia_obs::span_recording`] is one relaxed
//! atomic load when it is not); everything else is bulk-recorded once per
//! run from the engine's existing accounting in `finish()`. Hooks read
//! engine state, never mutate it — `simulate_faulted` must return a
//! bit-identical `TrainingReport` whether the hooks record or the kill
//! switch is thrown (`tests/obs_determinism.rs` enforces this).
//!
//! Spans live on per-run virtual-clock tracks — `train#<id>` for the
//! `train.run` root and its BSP `train.iteration` children (with
//! comp/comm/stall args), `train#<id>/w<j>` lanes for ASP cycles,
//! `recovery#<id>` for rollbacks and `recovery#<id>/w<j>` for restores —
//! because each engine's virtual clock restarts at zero and per-worker
//! events genuinely overlap in time.

use cynthia_obs::registry::TIME_BUCKETS;
use cynthia_obs::tracer;
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-run totals handed to [`record_run`] from the engine's `finish()`.
pub struct RunTotals<'a> {
    /// Updates actually simulated (BSP iterations / ASP commits).
    pub updates: u64,
    /// Per-iteration wall seconds over the measured window.
    pub iter_samples: &'a [f64],
    /// Per-iteration compute seconds.
    pub comp_samples: &'a [f64],
    /// Per-iteration communication seconds.
    pub comm_samples: &'a [f64],
    /// Worker instances lost (spot reclaims, crashes, departures).
    pub revocations: u32,
    /// Workers that rejoined after an outage.
    pub repairs: u32,
    /// Restart attempts consumed by the recovery policy.
    pub retries: u32,
    /// PS failovers (chunks re-sharded onto survivors).
    pub failovers: u32,
    /// Updates rolled back to a checkpoint (to be replayed).
    pub lost_updates: u64,
    /// Updates recomputed after rollbacks.
    pub replayed_updates: u64,
    /// Seconds with zero fleet-wide progress.
    pub downtime_secs: f64,
    /// Seconds degraded (stragglers, link faults) but progressing.
    pub degraded_secs: f64,
}

/// Every engine run gets its own span track (`train#<id>`): virtual
/// clocks restart at zero per run, so spans of different runs must
/// not share a timeline. ASP cycles and concurrent restores likewise
/// get per-worker lanes (`…/w<j>`) because they genuinely overlap.
static RUN_SEQ: AtomicU64 = AtomicU64::new(0);

fn train_track(run: u64) -> String {
    format!("train#{run}")
}

fn recovery_track(run: u64) -> String {
    format!("recovery#{run}")
}

cynthia_obs::metric! {
    runs: counter("cynthia_train_runs_total", "Training simulations completed");
    updates: counter(
        "cynthia_train_updates_total",
        "Model updates simulated (BSP iterations / ASP commits)"
    );
    rollbacks: counter(
        "cynthia_train_rollbacks_total",
        "Checkpoint rollbacks after PS loss"
    );
    lost: counter(
        "cynthia_train_lost_updates_total",
        "Updates rolled back to a checkpoint"
    );
    replayed: counter(
        "cynthia_train_replayed_updates_total",
        "Updates recomputed after rollbacks"
    );
    restores: counter(
        "cynthia_train_restores_total",
        "Checkpoint restores (full parameter re-pulls)"
    );
    revocations: counter(
        "cynthia_train_revocations_total",
        "Worker instances lost (spot reclaims, crashes, departures)"
    );
    repairs: counter("cynthia_train_repairs_total", "Workers rejoined after an outage");
    retries: counter(
        "cynthia_train_retries_total",
        "Recovery-policy restart attempts"
    );
    failovers: counter(
        "cynthia_train_failovers_total",
        "PS failovers re-sharding chunks onto survivors"
    );
    comp_total: float_counter(
        "cynthia_train_comp_seconds_total",
        "Measured-window compute seconds (paper t_comp)"
    );
    comm_total: float_counter(
        "cynthia_train_comm_seconds_total",
        "Measured-window communication seconds (paper t_comm)"
    );
    stall_total: float_counter(
        "cynthia_train_stall_seconds_total",
        "Measured-window stall seconds (iteration minus comp/comm overlap)"
    );
    downtime: float_counter(
        "cynthia_train_downtime_seconds_total",
        "Seconds with zero fleet-wide progress"
    );
    degraded: float_counter(
        "cynthia_train_degraded_seconds_total",
        "Seconds degraded but progressing"
    );
    iter_hist: histogram(
        "cynthia_train_iter_seconds",
        "Per-iteration wall seconds over the measured window",
        TIME_BUCKETS
    );
    comp_hist: histogram(
        "cynthia_train_comp_seconds",
        "Per-iteration compute seconds",
        TIME_BUCKETS
    );
    comm_hist: histogram(
        "cynthia_train_comm_seconds",
        "Per-iteration communication seconds",
        TIME_BUCKETS
    );
    restore_hist: histogram(
        "cynthia_train_restore_seconds",
        "Virtual seconds per checkpoint restore",
        TIME_BUCKETS
    );
}

/// Opens the `train.run` root span at virtual time `t0`. Returns the
/// run's track id (0 while spans are off) for the other span hooks.
pub fn run_begin(t0: f64) -> u64 {
    if !cynthia_obs::span_recording() {
        return 0;
    }
    let run = RUN_SEQ.fetch_add(1, Ordering::Relaxed) + 1;
    tracer().begin_at(&train_track(run), "train.run", t0);
    run
}

/// Closes the `train.run` root span at virtual time `t1`.
pub fn run_end(run: u64, t1: f64, updates: u64) {
    if run != 0 && cynthia_obs::span_recording() {
        tracer().end_at(&train_track(run), t1, &[("updates", updates as f64)]);
    }
}

/// Records one finished iteration/cycle as a `train.iteration` span
/// with its comp/comm/stall breakdown. BSP iterations are fleet-wide
/// (`lane: None`, nested in `train.run`); ASP cycles overlap across
/// workers and go to per-worker lane tracks (`lane: Some(j)`).
pub fn iteration(run: u64, lane: Option<usize>, start: f64, end: f64, comp: f64, comm: f64) {
    if run == 0 || !cynthia_obs::span_recording() {
        return;
    }
    let track = match lane {
        None => train_track(run),
        Some(j) => format!("train#{run}/w{j}"),
    };
    let stall = ((end - start) - comp - comm).max(0.0);
    tracer().complete(
        &track,
        "train.iteration",
        start,
        end,
        &[
            ("comp_secs", comp),
            ("comm_secs", comm),
            ("stall_secs", stall),
        ],
    );
}

/// Records a checkpoint rollback at virtual time `at`.
pub fn rollback(run: u64, at: f64, lost_updates: u64) {
    if !cynthia_obs::enabled() {
        return;
    }
    rollbacks().inc();
    if run != 0 && cynthia_obs::span_recording() {
        tracer().complete(
            &recovery_track(run),
            "recover.rollback",
            at,
            at,
            &[("lost_updates", lost_updates as f64)],
        );
    }
}

/// Records a finished checkpoint restore for worker `j`. Restores of
/// different workers overlap (a fleet-wide resume restores everyone at
/// once), so each goes to its worker's recovery lane.
pub fn restore(run: u64, start: f64, end: f64, j: usize) {
    if !cynthia_obs::enabled() {
        return;
    }
    restores().inc();
    restore_hist().observe(end - start);
    if run != 0 && cynthia_obs::span_recording() {
        tracer().complete(
            &format!("recovery#{run}/w{j}"),
            "recover.restore",
            start,
            end,
            &[("worker", j as f64)],
        );
    }
}

/// Bulk-records a completed run's totals and per-iteration samples.
pub fn record_run(t: &RunTotals<'_>) {
    if !cynthia_obs::enabled() {
        return;
    }
    runs().inc();
    updates().add(t.updates);
    lost().add(t.lost_updates);
    replayed().add(t.replayed_updates);
    revocations().add(t.revocations as u64);
    repairs().add(t.repairs as u64);
    retries().add(t.retries as u64);
    failovers().add(t.failovers as u64);
    downtime().add(t.downtime_secs);
    degraded().add(t.degraded_secs);
    let mut iter_sum = 0.0;
    for &v in t.iter_samples {
        iter_hist().observe(v);
        iter_sum += v;
    }
    let mut comp_sum = 0.0;
    for &v in t.comp_samples {
        comp_hist().observe(v);
        comp_sum += v;
    }
    let mut comm_sum = 0.0;
    for &v in t.comm_samples {
        comm_hist().observe(v);
        comm_sum += v;
    }
    comp_total().add(comp_sum);
    comm_total().add(comm_sum);
    stall_total().add((iter_sum - comp_sum - comm_sum).max(0.0));
}
