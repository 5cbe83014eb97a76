//! The discrete-event training engine.
//!
//! One engine handles both synchronization modes:
//!
//! **BSP** — parameters are sharded into `L` chunks assigned round-robin to
//! PS nodes. A worker computes iteration `i` in `L` segments; segment `l`
//! may start once the worker holds chunk `l` of parameter version `i`.
//! Finishing segment `l` immediately pushes that chunk's gradient (flow:
//! worker NIC → PS NIC), the PS ingests it (flow: PS CPU), and once all
//! `n` workers' chunk-`l` gradients are applied the PS broadcasts the new
//! chunk to every worker (flow: PS NIC → worker NIC). The worker meanwhile
//! continues with segment `l+1`: computation and communication overlap
//! mechanically, and the barrier is enforced by data availability, not by
//! an explicit synchronization primitive. Iteration `i` completes when all
//! of its gradients are applied (parameter version `i+1` exists on the PS).
//!
//! **ASP** — each worker runs an independent cycle: compute a full batch,
//! push all chunks, wait for its applies to commit, pull fresh parameters,
//! repeat. Training ends when the global commit count reaches the target.
//! The staleness of each commit (updates by other workers between this
//! worker's pull and its commit) is recorded.
//!
//! **Revocations** — [`simulate_disrupted`] additionally injects a schedule
//! of [`Disruption`]s (spot-instance revocations from the elastic layer).
//! When a worker is revoked its in-flight flows are cancelled and its
//! partial iteration is lost. BSP stalls at the barrier until the worker
//! is repaired; ASP degrades gracefully (the surviving workers keep
//! committing). A repaired worker pays a checkpoint-restore cost before
//! resuming: it re-pulls the full parameter set from the PS fleet. A
//! disruption without a rejoin time shrinks the fleet permanently — the
//! barrier re-forms over the survivors and the global batch is re-split
//! across them.
//!
//! **Faults & recovery** — [`simulate_faulted`] generalizes this to the
//! full `cynthia-faults` taxonomy: policy-driven worker crash restarts
//! (retry budget, exponential backoff), straggler slowdowns, degraded
//! links, transient PS stalls, and PS crashes that roll global progress
//! back to the last checkpoint — permanently-dead PS nodes fail their
//! parameter chunks over to the survivors. [`simulate_disrupted`] is a
//! thin wrapper over it (crash-with-replacement / permanent departure,
//! no recovery policy). See `docs/FAULTS.md` for the full semantics.

use crate::cluster::ClusterSpec;
use crate::config::SimConfig;
use crate::report::TrainingReport;
use crate::trace::{Activity, TraceRecorder};
use cynthia_faults::{FaultEvent, FaultKind, FaultPlan, LinkTarget, RecoveryPolicy};
use cynthia_models::{SyncMode, Workload};
use cynthia_sim::events::EventQueue;
use cynthia_sim::fluid::{FlowSpec, FluidSystem, ResourceId};
use cynthia_sim::hash::KeyMap;
use cynthia_sim::metrics::{Stats, ThroughputRecorder};
use cynthia_sim::rng::Jitter;

/// A training job to simulate.
#[derive(Debug)]
pub struct TrainJob<'a> {
    pub workload: &'a Workload,
    pub cluster: ClusterSpec,
    pub config: SimConfig,
}

/// A revocation event injected into a training run: worker `worker` is
/// revoked at virtual time `at` and, if `rejoin_at` is set, a replacement
/// instance joins the cluster (and restores from the PS checkpoint) at that
/// time. `rejoin_at: None` removes the worker permanently (fleet shrink).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Disruption {
    pub worker: usize,
    pub at: f64,
    pub rejoin_at: Option<f64>,
}

/// Runs the job to completion and reports every observable the paper
/// measures.
pub fn simulate(job: &TrainJob) -> TrainingReport {
    Engine::new(job).run().0
}

/// Like [`simulate`], with a schedule of worker revocations injected (see
/// the module docs). Disruptions may arrive in any order; events at the
/// same instant apply in schedule order.
///
/// # Panics
/// Panics if a disruption names a worker outside the cluster, rejoins
/// before it revokes, or if the config requests fast-forward extrapolation
/// (revocations break the steady-state assumption it relies on).
pub fn simulate_disrupted(job: &TrainJob, disruptions: &[Disruption]) -> TrainingReport {
    let n = job.cluster.workers.len();
    for d in disruptions {
        assert!(
            d.worker < n,
            "disruption names worker {} of {}",
            d.worker,
            n
        );
        assert!(d.at >= 0.0, "disruption at negative time");
        if let Some(r) = d.rejoin_at {
            assert!(
                r >= d.at,
                "worker {} rejoins before it is revoked",
                d.worker
            );
        }
    }
    // A revocation with a rejoin time is a worker crash whose replacement
    // the environment supplies after the outage; one without is a
    // permanent departure. No recovery policy applies: zero retry budget,
    // no PS failover, continuous checkpointing.
    let plan = FaultPlan::new(
        disruptions
            .iter()
            .map(|d| match d.rejoin_at {
                Some(r) => FaultEvent::transient(
                    FaultKind::WorkerCrash { worker: d.worker },
                    d.at,
                    r - d.at,
                ),
                None => {
                    FaultEvent::permanent(FaultKind::WorkerDeparture { worker: d.worker }, d.at)
                }
            })
            .collect(),
    );
    simulate_faulted(job, &plan, &RecoveryPolicy::none())
}

/// Like [`simulate`], with a [`FaultPlan`] injected and a [`RecoveryPolicy`]
/// governing how the cluster heals (see the module docs and
/// `docs/FAULTS.md`). An empty plan reproduces [`simulate`] bit-for-bit.
///
/// # Panics
/// Panics if the plan fails [`FaultPlan::validate`] against the cluster
/// shape, the policy fails [`RecoveryPolicy::validate`], or the config
/// requests fast-forward extrapolation alongside a non-empty plan (faults
/// break the steady-state assumption extrapolation relies on).
pub fn simulate_faulted(
    job: &TrainJob,
    plan: &FaultPlan,
    policy: &RecoveryPolicy,
) -> TrainingReport {
    assert!(
        plan.is_empty() || job.config.fast_forward.is_none(),
        "fault plans require full-detail simulation (no fast_forward)"
    );
    plan.validate(job.cluster.workers.len(), job.cluster.ps.len())
        .unwrap_or_else(|e| panic!("invalid fault plan: {e}"));
    policy
        .validate()
        .unwrap_or_else(|e| panic!("invalid recovery policy: {e}"));
    let mut engine = Engine::new(job);
    engine.policy = *policy;
    engine.backoff_jitter = Jitter::new(
        job.config.seed,
        "restart-backoff",
        0,
        policy.backoff_jitter_cv,
    );
    engine.fault_plan = plan.events.clone();
    engine.will_depart = {
        let mut wd = vec![false; engine.n];
        for e in &plan.events {
            if let FaultKind::WorkerDeparture { worker } = e.kind {
                wd[worker] = true;
            }
        }
        wd
    };
    for (idx, e) in plan.events.iter().enumerate() {
        engine.queue.schedule_at(e.at, Ev::Fault { idx });
    }
    engine.run().0
}

/// Like [`simulate`], additionally recording an execution trace of up to
/// `max_spans` activity intervals (compute segments, pushes, applies,
/// pulls) for timeline inspection — export with
/// [`TraceRecorder::to_chrome_trace`].
pub fn simulate_traced(job: &TrainJob, max_spans: usize) -> (TrainingReport, TraceRecorder) {
    let mut engine = Engine::new(job);
    engine.trace = Some(TraceRecorder::new(max_spans));
    let (report, trace) = engine.run();
    (report, trace.expect("trace was enabled"))
}

// ---------------------------------------------------------------------
// Flow tags: kind(2) | worker(14) | chunk(8) | iter(40)

const KIND_PUSH: u64 = 0;
const KIND_APPLY: u64 = 1;
const KIND_PULL: u64 = 2;
/// Checkpoint restore: full parameter re-pull paid by a repaired worker.
const KIND_RESTORE: u64 = 3;

fn tag(kind: u64, worker: usize, chunk: usize, iter: u64) -> u64 {
    debug_assert!(worker < (1 << 14) && chunk < (1 << 8) && iter < (1 << 40));
    (kind << 62) | ((worker as u64) << 48) | ((chunk as u64) << 40) | iter
}

fn untag(t: u64) -> (u64, usize, usize, u64) {
    (
        t >> 62,
        ((t >> 48) & 0x3fff) as usize,
        ((t >> 40) & 0xff) as usize,
        t & 0xff_ffff_ffff,
    )
}

/// Queue events: compute-segment completions and fleet disruptions.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// A worker finished a compute segment. `inc` is the worker
    /// incarnation the segment belongs to: a revocation bumps the
    /// incarnation, so segments of the lost instance are discarded when
    /// they fire.
    Seg { worker: usize, inc: u32 },
    /// A replacement instance for the worker slot joins the cluster
    /// (environment-supplied, or a policy-driven restart after backoff).
    Rejoin { worker: usize },
    /// Fault `idx` of the plan begins.
    Fault { idx: usize },
    /// Transient fault `idx` of the plan ends.
    FaultEnd { idx: usize },
    /// A permanently-crashed PS node's chunks finish failing over to the
    /// surviving servers.
    PsFailover { ps: usize },
    /// A crashed PS node finishes rebooting from the durable checkpoint.
    PsRecover { ps: usize },
}

/// What happens to a worker slot after its instance crashes.
#[derive(Debug, Clone, Copy)]
enum CrashOutcome {
    /// The environment supplies a replacement at the given time.
    RejoinAt(f64),
    /// Permanent departure: the fleet shrinks.
    Depart,
    /// The recovery policy decides: restart after backoff while the retry
    /// budget lasts, then retire the slot.
    Policy,
}

/// Per-iteration BSP barrier progress.
#[derive(Debug, Default, Clone)]
struct IterProgress {
    /// Per-chunk bitmask of workers whose gradient has been applied.
    /// Idempotent under the re-pushes a restored worker performs.
    applied: Vec<u128>,
    /// Whether the chunk's updated parameters have been broadcast.
    broadcast: Vec<bool>,
}

#[derive(Debug)]
struct WorkerState {
    /// BSP: iteration currently being computed. ASP: local cycle index.
    iter: u64,
    /// BSP: next segment to compute (0..L).
    seg: usize,
    computing: bool,
    done: bool,
    /// Instance revoked, replacement not yet joined.
    absent: bool,
    /// Permanently removed from the fleet (shrink repair).
    departed: bool,
    /// Rejoined and currently re-pulling the parameter checkpoint.
    restoring: bool,
    /// When the current restore's pulls were launched (observability only).
    restore_start: f64,
    /// Bumped on every revocation; stale compute events are discarded.
    inc: u32,
    /// BSP: parameter version available per chunk (segment `l` of
    /// iteration `i` requires `chunk_version[l] >= i`).
    chunk_version: Vec<u64>,
    /// Cumulative compute-busy seconds.
    compute_busy: f64,
    /// Compute time spent on the current iteration (folded into the
    /// per-iteration maximum when the iteration's compute finishes).
    cur_iter_comp: f64,
    jitter: Jitter,
    // --- ASP cycle bookkeeping ---
    pending_applies: usize,
    pending_pulls: usize,
    /// Global commit count last observed (at pull completion).
    v_seen: u64,
    cycle_start: f64,
    compute_end: f64,
}

struct Engine<'a> {
    w: &'a Workload,
    cluster: &'a ClusterSpec,
    cfg: &'a SimConfig,
    sync: SyncMode,
    n: usize,
    n_ps: usize,
    target: u64,
    /// Detailed-simulation horizon (min(target, warmup+measure)).
    horizon: u64,
    warmup: u64,

    chunk_mb: Vec<f64>,
    chunk_ps: Vec<usize>,
    /// Latest broadcast parameter version per chunk — the version a
    /// checkpoint restore hands a repaired worker.
    chunk_latest: Vec<u64>,

    queue: EventQueue<Ev>,
    fluid: FluidSystem,
    wk_nic: Vec<ResourceId>,
    ps_nic: Vec<ResourceId>,
    ps_cpu: Vec<ResourceId>,

    workers: Vec<WorkerState>,
    /// Bitmask of workers still in the fleet (departed workers cleared).
    active_mask: u128,
    /// Popcount of `active_mask`.
    n_active: usize,
    revocations: u32,
    repairs: u32,

    // --- fault injection & recovery ---
    policy: RecoveryPolicy,
    fault_plan: Vec<FaultEvent>,
    /// Workers with a scheduled permanent departure: retiring a slot on
    /// retry-budget exhaustion must always leave one worker that no
    /// pending departure can take, so the run terminates.
    will_depart: Vec<bool>,
    /// Active straggler episodes per worker: `(plan index, gFLOPS factor)`.
    /// The empty product is exactly 1.0, preserving fault-free timing.
    stragglers: Vec<Vec<(usize, f64)>>,
    /// Active link degradations per worker NIC / PS NIC.
    wk_nic_degs: Vec<Vec<(usize, f64)>>,
    ps_nic_degs: Vec<Vec<(usize, f64)>>,
    /// Base capacities (after configured interference) the degradation
    /// products apply to.
    wk_nic_base: Vec<f64>,
    ps_nic_base: Vec<f64>,
    ps_cpu_base: Vec<f64>,
    /// Concurrent outages per PS node (a reboot overlapping a reboot).
    ps_down: Vec<u32>,
    /// Permanently dead PS nodes (chunks failed over to survivors).
    ps_dead: Vec<bool>,
    /// Active transient stalls per PS node.
    ps_stall: Vec<u32>,
    /// Total PS outage tokens; the fleet is paused while this is nonzero.
    ps_down_count: u32,
    /// Active degradation faults (stragglers, links, stalls).
    deg_active: u32,
    /// Restart attempts consumed per worker slot.
    crash_attempts: Vec<u32>,
    backoff_jitter: Jitter,
    /// Highest progress ever committed (for replay accounting).
    hwm: u64,
    lost_updates: u64,
    replayed_updates: u64,
    retries: u32,
    failovers: u32,
    downtime_secs: f64,
    degraded_secs: f64,
    progress_curve: Vec<(f64, u64)>,
    progress_stride: u64,

    // BSP progress
    applied: KeyMap<u64, IterProgress>,
    iterations_done: u64,
    last_completion: f64,
    warmup_time: f64,

    // ASP progress
    commits: u64,
    started: u64,

    // samples over the measured window
    iter_samples: Vec<f64>,
    comp_samples: Vec<f64>,
    comm_samples: Vec<f64>,
    staleness_samples: Vec<f64>,

    // per-iteration accounting
    comp_per_iter: KeyMap<u64, f64>,
    comm_active: KeyMap<u64, u32>,
    comm_accum: KeyMap<u64, f64>,

    // resource metrics
    ps_cpu_busy: Vec<f64>,
    ps_nic_rec: Vec<ThroughputRecorder>,

    // loss generation
    loss_rng: Jitter,
    loss_stride: u64,
    loss_curve: Vec<(u64, f64)>,

    done_time: Option<f64>,
    total_time: f64,
    extrapolated: bool,

    // optional execution tracing
    trace: Option<TraceRecorder>,
    flow_starts: KeyMap<u64, f64>,

    // running SSP staleness accumulator (drives the convergence penalty)
    ssp_stale_sum: f64,
    ssp_stale_count: u64,

    /// Span-track id from `obs::run_begin` (0 when spans are off);
    /// observability only, never read by the simulation.
    obs_run: u64,
}

impl<'a> Engine<'a> {
    fn new(job: &'a TrainJob<'a>) -> Self {
        let w = job.workload;
        let cluster = &job.cluster;
        let cfg = &job.config;
        let n = cluster.workers.len();
        let n_ps = cluster.ps.len();
        assert!(n > 0 && n_ps > 0, "degenerate cluster");
        assert!(n <= 128, "the engine tracks barrier membership in a u128");

        // Parameter shards: equal split (real PS implementations shard
        // large tensors across servers). Multi-PS clusters get at least
        // four shards per server so each PS's apply pipeline stays fed
        // across the BSP barrier (with one coarse shard per PS, servers
        // drain and idle between gradient waves — an artifact real
        // fine-grained sharding does not have; eight shards per PS keeps
        // multi-PS utilization at the fluid limit).
        let l = cfg.chunks.max(n_ps * 8).clamp(1, 32);
        let total_mb = w.param_mb();
        assert!(total_mb > 0.0, "model has no parameters to synchronize");
        let chunk_mb = vec![total_mb / l as f64; l];
        let chunk_ps: Vec<usize> = (0..l).map(|c| c % n_ps).collect();

        let mut fluid = FluidSystem::new();
        let wk_nic_base: Vec<f64> = cluster.workers.iter().map(|t| t.nic_mbps).collect();
        let wk_nic: Vec<ResourceId> = wk_nic_base
            .iter()
            .enumerate()
            .map(|(j, cap)| fluid.add_resource(*cap, format!("wk{j}-nic")))
            .collect();
        assert!(
            (0.0..1.0).contains(&cfg.nic_interference),
            "nic_interference must be in [0, 1)"
        );
        let nic_scale = 1.0 - cfg.nic_interference;
        let ps_nic_base: Vec<f64> = cluster.ps.iter().map(|t| t.nic_mbps * nic_scale).collect();
        let ps_nic: Vec<ResourceId> = ps_nic_base
            .iter()
            .enumerate()
            .map(|(k, cap)| fluid.add_resource(*cap, format!("ps{k}-nic")))
            .collect();
        let ps_cpu_base: Vec<f64> = cluster.ps.iter().map(|t| t.node_gflops).collect();
        let ps_cpu: Vec<ResourceId> = ps_cpu_base
            .iter()
            .enumerate()
            .map(|(k, cap)| fluid.add_resource(*cap, format!("ps{k}-cpu")))
            .collect();

        let workers = (0..n)
            .map(|j| WorkerState {
                iter: 0,
                seg: 0,
                computing: false,
                done: false,
                absent: false,
                departed: false,
                restoring: false,
                restore_start: 0.0,
                inc: 0,
                chunk_version: vec![0; l],
                compute_busy: 0.0,
                cur_iter_comp: 0.0,
                jitter: Jitter::new(cfg.seed, "worker-compute", j as u64, cfg.jitter_cv),
                pending_applies: 0,
                pending_pulls: 0,
                v_seen: 0,
                cycle_start: 0.0,
                compute_end: 0.0,
            })
            .collect();

        let target = w.iterations;
        let (horizon, warmup) = match cfg.fast_forward {
            Some(ff) if ff.horizon() < target => (ff.horizon(), ff.warmup),
            _ => (target, 0),
        };

        Engine {
            w,
            cluster,
            cfg,
            sync: w.sync,
            n,
            n_ps,
            target,
            horizon,
            warmup,
            chunk_mb,
            chunk_ps,
            chunk_latest: vec![0; l],
            queue: EventQueue::new(),
            fluid,
            wk_nic,
            ps_nic,
            ps_cpu,
            workers,
            active_mask: if n == 128 {
                u128::MAX
            } else {
                (1u128 << n) - 1
            },
            n_active: n,
            revocations: 0,
            repairs: 0,
            policy: RecoveryPolicy::none(),
            fault_plan: Vec::new(),
            will_depart: vec![false; n],
            stragglers: vec![Vec::new(); n],
            wk_nic_degs: vec![Vec::new(); n],
            ps_nic_degs: vec![Vec::new(); n_ps],
            wk_nic_base,
            ps_nic_base,
            ps_cpu_base,
            ps_down: vec![0; n_ps],
            ps_dead: vec![false; n_ps],
            ps_stall: vec![0; n_ps],
            ps_down_count: 0,
            deg_active: 0,
            crash_attempts: vec![0; n],
            backoff_jitter: Jitter::new(cfg.seed, "restart-backoff", 0, 0.0),
            hwm: 0,
            lost_updates: 0,
            replayed_updates: 0,
            retries: 0,
            failovers: 0,
            downtime_secs: 0.0,
            degraded_secs: 0.0,
            progress_curve: Vec::new(),
            progress_stride: (target / 256).max(1),
            applied: KeyMap::default(),
            iterations_done: 0,
            last_completion: 0.0,
            warmup_time: 0.0,
            commits: 0,
            started: 0,
            iter_samples: Vec::new(),
            comp_samples: Vec::new(),
            comm_samples: Vec::new(),
            staleness_samples: Vec::new(),
            comp_per_iter: KeyMap::default(),
            comm_active: KeyMap::default(),
            comm_accum: KeyMap::default(),
            ps_cpu_busy: vec![0.0; n_ps],
            ps_nic_rec: vec![ThroughputRecorder::new(); n_ps],
            loss_rng: Jitter::new(cfg.seed, "loss-noise", n as u64, w.convergence.noise_sd),
            loss_stride: (target / cfg.loss_samples.max(1) as u64).max(1),
            loss_curve: Vec::new(),
            done_time: None,
            total_time: 0.0,
            extrapolated: false,
            trace: None,
            flow_starts: KeyMap::default(),
            ssp_stale_sum: 0.0,
            ssp_stale_count: 0,
            obs_run: 0,
        }
    }

    /// Starts a flow, recording its start time when tracing is enabled.
    fn launch_flow(&mut self, links: Vec<ResourceId>, volume: f64, t: u64) {
        if self.trace.is_some() {
            self.flow_starts.insert(t, self.queue.now());
        }
        self.fluid.start_flow(FlowSpec::new(links, volume, t));
    }

    /// Records a completed flow span when tracing is enabled.
    fn trace_flow_done(&mut self, t: u64) {
        let Some(trace) = self.trace.as_mut() else {
            return;
        };
        let Some(start) = self.flow_starts.remove(&t) else {
            return;
        };
        let (kind, j, l, iter) = untag(t);
        let (lane, activity) = match kind {
            KIND_PUSH => (format!("worker-{j}"), Activity::Push),
            KIND_APPLY => (format!("ps-{}", self.chunk_ps[l]), Activity::Apply),
            _ => (format!("worker-{j}"), Activity::Pull),
        };
        trace.record(lane, activity, iter, start, self.queue.now());
    }

    /// Records a compute span when tracing is enabled.
    fn trace_compute(&mut self, j: usize, iter: u64, start: f64, end: f64) {
        if let Some(trace) = self.trace.as_mut() {
            trace.record(format!("worker-{j}"), Activity::Compute, iter, start, end);
        }
    }

    /// Per-iteration compute work for one worker, GFLOP (Eq. 4's numerator
    /// split: BSP divides the global batch across the workers *currently in
    /// the fleet* — after a shrink the survivors re-split the global batch —
    /// ASP computes a full batch per worker-iteration).
    fn compute_gflops_per_worker(&self) -> f64 {
        match self.sync {
            SyncMode::Bsp => self.w.w_iter_gflops / self.n_active as f64,
            SyncMode::Asp => self.w.w_iter_gflops,
        }
    }

    fn worker_rate(&self, j: usize) -> f64 {
        self.cluster.workers[j].core_gflops
    }

    /// Product of active straggler factors on worker `j`. The empty product
    /// is exactly 1.0, so fault-free runs keep bit-identical timing.
    /// Applies to compute segments *started* while the episode is active.
    fn speed_factor(&self, j: usize) -> f64 {
        self.stragglers[j].iter().map(|(_, f)| *f).product()
    }

    // ------------------------------------------------------------------
    // Driving loop

    fn run(mut self) -> (TrainingReport, Option<TraceRecorder>) {
        self.obs_run = crate::obs::run_begin(self.queue.now());
        match self.sync {
            SyncMode::Bsp => {
                for j in 0..self.n {
                    self.try_start_segment(j);
                }
            }
            SyncMode::Asp => {
                for j in 0..self.n {
                    if self.started < self.target {
                        self.started += 1;
                        // Stagger first cycles across the compute period:
                        // real ASP workers desynchronize immediately (data
                        // loading, pod startup); without this, zero-jitter
                        // runs stay phase-locked and serialize all pushes —
                        // an artifact no real cluster exhibits.
                        let base = self.compute_gflops_per_worker() / self.worker_rate(j);
                        let stagger = base * j as f64 / self.n as f64;
                        self.start_asp_compute(j, stagger);
                    } else {
                        self.workers[j].done = true;
                    }
                }
            }
        }

        let mut guard: u64 = 0;
        while self.done_time.is_none() {
            guard += 1;
            assert!(
                guard < 500_000_000,
                "simulation exceeded event budget (suspected livelock)"
            );
            let now = self.queue.now();
            let tq = self.queue.peek_time();
            let fc = self.fluid.next_completion();
            match (tq, fc) {
                (None, None) => panic!(
                    "simulation stalled at t={now}: {} iterations of {} done",
                    self.progress(),
                    self.target
                ),
                (Some(tq), fc) => {
                    let fluid_first = match fc {
                        Some((_, dt)) => now + dt < tq - cynthia_sim::EPS,
                        None => false,
                    };
                    if fluid_first {
                        let dt = fc.unwrap().1;
                        self.step_fluid(dt);
                    } else {
                        let dt = tq - now;
                        self.accrue(dt);
                        let done = self.fluid.advance(dt);
                        self.queue.advance_to(tq);
                        for (_, t) in done {
                            self.on_flow_done(t);
                        }
                        if let Some((_, ev)) = self.queue.pop() {
                            self.on_event(ev);
                        }
                    }
                }
                (None, Some((_, dt))) => {
                    self.step_fluid(dt);
                }
            }
        }
        let end = self.done_time.unwrap_or_else(|| self.queue.now());
        crate::obs::run_end(self.obs_run, end, self.progress());
        let trace = self.trace.take();
        (self.finish(), trace)
    }

    fn progress(&self) -> u64 {
        match self.sync {
            SyncMode::Bsp => self.iterations_done,
            SyncMode::Asp => self.commits,
        }
    }

    fn step_fluid(&mut self, dt: f64) {
        self.accrue(dt);
        let now = self.queue.now();
        let done = self.fluid.advance(dt);
        self.queue.advance_to(now + dt);
        for (_, t) in done {
            self.on_flow_done(t);
        }
    }

    /// Integrates resource metrics and communication-union accounting over
    /// a `dt` slice with constant rates.
    fn accrue(&mut self, dt: f64) {
        if dt <= 0.0 {
            return;
        }
        let t_end = self.queue.now() + dt;
        for k in 0..self.n_ps {
            let cap = self.fluid.capacity(self.ps_cpu[k]);
            let cpu_rate = self.fluid.total_rate_on(self.ps_cpu[k]);
            if cap > 0.0 {
                self.ps_cpu_busy[k] += (cpu_rate / cap).min(1.0) * dt;
            }
            let nic_rate = self.fluid.total_rate_on(self.ps_nic[k]);
            if nic_rate > 0.0 {
                self.ps_nic_rec[k].record_interval(t_end, dt, nic_rate * dt);
            }
        }
        for (iter, count) in self.comm_active.iter() {
            if *count > 0 {
                *self.comm_accum.entry(*iter).or_insert(0.0) += dt;
            }
        }
        // Fault-state accounting: full-fleet pauses (PS outages) count as
        // downtime; any other active impairment counts as degraded time.
        if self.ps_down_count > 0 {
            self.downtime_secs += dt;
        } else if self.deg_active > 0
            || self
                .workers
                .iter()
                .any(|w| !w.departed && (w.absent || w.restoring))
        {
            self.degraded_secs += dt;
        }
    }

    fn comm_begin(&mut self, iter: u64) {
        *self.comm_active.entry(iter).or_insert(0) += 1;
    }

    fn comm_end(&mut self, iter: u64) {
        // A rollback clears the accounting wholesale; a straggling flow of
        // the old epoch must not underflow it.
        if let Some(c) = self.comm_active.get_mut(&iter) {
            *c -= 1;
            if *c == 0 {
                self.comm_active.remove(&iter);
            }
        }
    }

    // ------------------------------------------------------------------
    // BSP mechanics

    fn try_start_segment(&mut self, j: usize) {
        let l = self.workers[j].seg;
        let needed_version = self.workers[j].iter;
        if self.workers[j].absent || self.workers[j].restoring || self.ps_down_count > 0 {
            return;
        }
        if self.workers[j].done
            || self.workers[j].computing
            || needed_version >= self.horizon && self.sync == SyncMode::Bsp && l == 0
        {
            // A worker whose next iteration lies beyond the detailed
            // horizon idles; extrapolation covers the rest.
            if needed_version >= self.horizon && l == 0 {
                self.workers[j].done = true;
            }
            return;
        }
        let slack = self.cfg.ssp_slack as u64;
        if self.workers[j].chunk_version[l] + slack < needed_version {
            return; // blocked on a pull (strict barrier when slack = 0)
        }
        if slack > 0 && l == 0 {
            // Parameter staleness this iteration computes against
            // (bounded by the slack; strict BSP does not record).
            let stale = needed_version.saturating_sub(self.workers[j].chunk_version[0]);
            self.ssp_stale_sum += stale as f64;
            self.ssp_stale_count += 1;
            if self.progress() >= self.warmup {
                self.staleness_samples.push(stale as f64);
            }
        }
        let chunks = self.chunk_mb.len() as f64;
        let base = self.compute_gflops_per_worker()
            / (self.worker_rate(j) * self.speed_factor(j))
            / chunks;
        let dur = self.workers[j].jitter.perturb(base).max(1e-12);
        self.workers[j].computing = true;
        self.workers[j].compute_busy += dur;
        self.workers[j].cur_iter_comp += dur;
        let now = self.queue.now();
        self.trace_compute(j, needed_version, now, now + dur);
        let inc = self.workers[j].inc;
        self.queue.schedule_after(dur, Ev::Seg { worker: j, inc });
    }

    fn on_event(&mut self, ev: Ev) {
        match ev {
            Ev::Seg { worker, inc } => {
                // A segment of a revoked incarnation: the work is lost.
                if self.workers[worker].inc != inc {
                    return;
                }
                match self.sync {
                    SyncMode::Bsp => self.on_bsp_seg_done(worker),
                    SyncMode::Asp => self.on_asp_compute_done(worker),
                }
            }
            Ev::Rejoin { worker } => self.on_rejoin(worker),
            Ev::Fault { idx } => self.on_fault(idx),
            Ev::FaultEnd { idx } => self.on_fault_end(idx),
            Ev::PsFailover { ps } => self.on_ps_failover(ps),
            Ev::PsRecover { ps } => self.on_ps_recovered(ps),
        }
    }

    fn on_bsp_seg_done(&mut self, j: usize) {
        let (iter, l) = {
            let w = &mut self.workers[j];
            w.computing = false;
            let out = (w.iter, w.seg);
            w.seg += 1;
            if w.seg == self.chunk_mb.len() {
                // Iteration's compute finished: fold the per-iteration
                // compute sample (slowest worker wins).
                let comp = w.cur_iter_comp;
                w.cur_iter_comp = 0.0;
                w.seg = 0;
                w.iter += 1;
                let e = self.comp_per_iter.entry(out.0).or_insert(0.0);
                *e = e.max(comp);
            }
            out
        };
        // Push this chunk's gradient.
        self.comm_begin(iter);
        let k = self.chunk_ps[l];
        self.launch_flow(
            vec![self.wk_nic[j], self.ps_nic[k]],
            self.chunk_mb[l],
            tag(KIND_PUSH, j, l, iter),
        );
        self.try_start_segment(j);
    }

    fn on_flow_done(&mut self, t: u64) {
        self.trace_flow_done(t);
        let (kind, j, l, iter) = untag(t);
        match (self.sync, kind) {
            (SyncMode::Bsp, KIND_PUSH) => {
                // Gradient arrived: PS ingests/applies it (CPU work).
                let k = self.chunk_ps[l];
                let work = self.w.ps_apply_gflops_per_mb * self.chunk_mb[l];
                self.launch_flow(vec![self.ps_cpu[k]], work, tag(KIND_APPLY, j, l, iter));
            }
            (SyncMode::Bsp, KIND_APPLY) => {
                self.comm_end(iter);
                let l_total = self.chunk_mb.len();
                let mask = self.active_mask;
                let prog = self.applied.entry(iter).or_insert_with(|| IterProgress {
                    applied: vec![0; l_total],
                    broadcast: vec![false; l_total],
                });
                // Idempotent: a restored worker re-pushes chunks it already
                // delivered before the revocation.
                prog.applied[l] |= 1u128 << j;
                let chunk_complete = !prog.broadcast[l] && (prog.applied[l] & mask) == mask;
                if chunk_complete {
                    prog.broadcast[l] = true;
                }
                let iter_complete = prog.broadcast.iter().all(|b| *b);
                if chunk_complete {
                    // Broadcast parameter version iter+1, chunk l.
                    self.broadcast_chunk(iter, l);
                }
                if iter_complete {
                    self.applied.remove(&iter);
                    self.on_bsp_iteration_complete(iter);
                }
            }
            (SyncMode::Bsp, KIND_PULL) => {
                self.comm_end(iter);
                let v = &mut self.workers[j].chunk_version[l];
                *v = (*v).max(iter + 1);
                self.try_start_segment(j);
            }
            (SyncMode::Asp, KIND_PUSH) => {
                let k = self.chunk_ps[l];
                let work = self.w.ps_apply_gflops_per_mb * self.chunk_mb[l];
                self.launch_flow(vec![self.ps_cpu[k]], work, tag(KIND_APPLY, j, l, iter));
            }
            (SyncMode::Asp, KIND_APPLY) => {
                // Guarded: a rollback zeroes the counter while a stale
                // flow of the old epoch may still complete.
                let w = &mut self.workers[j];
                if w.pending_applies > 0 {
                    w.pending_applies -= 1;
                    if w.pending_applies == 0 {
                        self.on_asp_commit(j);
                    }
                }
            }
            (SyncMode::Asp, KIND_PULL) => {
                let w = &mut self.workers[j];
                if w.pending_pulls > 0 {
                    w.pending_pulls -= 1;
                    if w.pending_pulls == 0 {
                        self.on_asp_pulled(j);
                    }
                }
            }
            (_, KIND_RESTORE) => {
                let w = &mut self.workers[j];
                if w.restoring && w.pending_pulls > 0 {
                    w.pending_pulls -= 1;
                    if w.pending_pulls == 0 {
                        self.on_restored(j);
                    }
                }
            }
            _ => {} // unknown kind: drop rather than crash the run
        }
    }

    /// Ships the freshly-updated chunk `l` of parameter version `iter + 1`
    /// to every worker currently in the cluster.
    fn broadcast_chunk(&mut self, iter: u64, l: usize) {
        self.chunk_latest[l] = self.chunk_latest[l].max(iter + 1);
        let k = self.chunk_ps[l];
        for dst in 0..self.n {
            if self.workers[dst].absent || self.workers[dst].departed {
                continue;
            }
            self.comm_begin(iter);
            self.launch_flow(
                vec![self.ps_nic[k], self.wk_nic[dst]],
                self.chunk_mb[l],
                tag(KIND_PULL, dst, l, iter),
            );
        }
    }

    fn on_bsp_iteration_complete(&mut self, iter: u64) {
        let now = self.queue.now();
        debug_assert_eq!(iter, self.iterations_done, "iterations complete in order");
        self.iterations_done += 1;
        let s = self.iterations_done;
        self.note_progress(s, now);

        if s == self.warmup {
            self.warmup_time = now;
        }
        if s > self.warmup {
            self.iter_samples.push(now - self.last_completion);
            let mut comp = 0.0;
            let mut comm = 0.0;
            if let Some(c) = self.comp_per_iter.remove(&iter) {
                self.comp_samples.push(c);
                comp = c;
            }
            if let Some(c) = self.comm_accum.remove(&iter) {
                self.comm_samples.push(c);
                comm = c;
            }
            crate::obs::iteration(self.obs_run, None, self.last_completion, now, comp, comm);
        } else {
            self.comp_per_iter.remove(&iter);
            self.comm_accum.remove(&iter);
        }
        self.last_completion = now;
        self.record_loss(s);

        if s >= self.horizon {
            if self.horizon < self.target {
                let measured = (now - self.warmup_time) / (self.horizon - self.warmup) as f64;
                self.total_time = now + (self.target - self.horizon) as f64 * measured;
                self.extrapolated = true;
                self.fill_extrapolated_loss();
            } else {
                self.total_time = now;
            }
            self.done_time = Some(now);
        }
    }

    // ------------------------------------------------------------------
    // Fleet disruptions (spot revocations, repairs, shrinks)

    /// A worker's instance is lost (spot reclaim, crash, or departure);
    /// `outcome` decides whether and how the slot comes back.
    fn crash_worker(&mut self, j: usize, outcome: CrashOutcome) {
        if self.done_time.is_some() {
            return;
        }
        let w = &self.workers[j];
        if w.absent || w.departed || w.done {
            // Already lost, or already finished its share of the work:
            // revoking the instance no longer affects the computation.
            return;
        }
        self.revocations += 1;
        let was_computing = self.workers[j].computing;
        {
            let w = &mut self.workers[j];
            // Stale compute events of the lost instance are discarded when
            // they fire.
            w.inc += 1;
            w.computing = false;
            w.restoring = false;
            w.cur_iter_comp = 0.0;
        }
        if self.sync == SyncMode::Asp {
            let w = &mut self.workers[j];
            if was_computing || w.pending_applies > 0 {
                // The started-but-uncommitted cycle is lost; hand it back
                // so the update target stays reachable.
                self.started -= 1;
            }
            w.pending_applies = 0;
            w.pending_pulls = 0;
        } else {
            self.workers[j].pending_pulls = 0;
        }
        // Cancel the worker's in-flight flows. Under BSP, gradients already
        // delivered to a PS keep applying (PS-side work survives the worker
        // and the barrier bits are idempotent), so KIND_APPLY flows are
        // spared even though they carry the worker id. Under ASP the whole
        // uncommitted cycle was handed back above, so its applies go too.
        let is_asp = self.sync == SyncMode::Asp;
        let cancelled = self.fluid.cancel_flows_where(|t| {
            let (kind, wj, _, _) = untag(t);
            wj == j && (is_asp || kind != KIND_APPLY)
        });
        for (t, _remaining) in cancelled {
            self.flow_starts.remove(&t);
            let (kind, _, _, iter) = untag(t);
            // BSP accounting: a push's comm interval normally closes at
            // apply completion, a broadcast's at pull completion; close
            // them here instead. Restores never opened one.
            if self.sync == SyncMode::Bsp && (kind == KIND_PUSH || kind == KIND_PULL) {
                self.comm_end(iter);
            }
        }
        match outcome {
            CrashOutcome::RejoinAt(r) => {
                self.workers[j].absent = true;
                self.queue.schedule_at(r, Ev::Rejoin { worker: j });
            }
            CrashOutcome::Depart => self.retire_worker(j),
            CrashOutcome::Policy => {
                let attempt = self.crash_attempts[j];
                // A slot may retire only while a worker with no pending
                // permanent departure survives it — otherwise the restart
                // is forced past the budget so the run always terminates.
                let safe_survivors = (0..self.n)
                    .filter(|&k| k != j && !self.workers[k].departed && !self.will_depart[k])
                    .count();
                if attempt >= self.policy.retry_budget && safe_survivors >= 1 {
                    self.retire_worker(j);
                } else {
                    self.crash_attempts[j] = attempt.saturating_add(1);
                    self.retries += 1;
                    let mut delay = self.policy.backoff_secs(attempt);
                    if self.policy.backoff_jitter_cv > 0.0 {
                        delay *= self.backoff_jitter.factor();
                    }
                    self.workers[j].absent = true;
                    self.queue
                        .schedule_after(delay.max(0.0), Ev::Rejoin { worker: j });
                }
            }
        }
    }

    /// Permanent shrink: the barrier re-forms over the survivors and the
    /// global batch is re-split across them.
    fn retire_worker(&mut self, j: usize) {
        let w = &mut self.workers[j];
        w.departed = true;
        w.done = true;
        self.active_mask &= !(1u128 << j);
        self.n_active -= 1;
        assert!(self.n_active > 0, "fleet shrunk to zero workers");
        match self.sync {
            SyncMode::Bsp => self.recheck_bsp_barrier(),
            SyncMode::Asp => self.restart_idle_asp_workers(),
        }
    }

    /// A replacement instance joins the cluster: the worker slot comes
    /// back, but must first restore the checkpoint — a full parameter
    /// re-pull from the PS fleet — before computing again.
    fn on_rejoin(&mut self, j: usize) {
        if self.done_time.is_some() || self.workers[j].departed || !self.workers[j].absent {
            return;
        }
        self.repairs += 1;
        self.workers[j].absent = false;
        if self.ps_down_count > 0 {
            // The PS fleet is down: nothing to restore from yet. The
            // fleet-wide restore at recovery picks this worker up.
            return;
        }
        self.begin_restore(j);
    }

    /// Launches the checkpoint-restore pulls (full parameter re-pull from
    /// the chunk owners) for a present, non-restoring worker.
    fn begin_restore(&mut self, j: usize) {
        let restore_uid = self.workers[j].inc as u64;
        let now = self.queue.now();
        {
            let w = &mut self.workers[j];
            w.restoring = true;
            w.restore_start = now;
            w.pending_pulls = self.chunk_mb.len();
        }
        for l in 0..self.chunk_mb.len() {
            let k = self.chunk_ps[l];
            self.launch_flow(
                vec![self.ps_nic[k], self.wk_nic[j]],
                self.chunk_mb[l],
                tag(KIND_RESTORE, j, l, restore_uid),
            );
        }
    }

    /// The checkpoint restore finished: the worker resumes from the
    /// freshest parameters the PS fleet holds.
    fn on_restored(&mut self, j: usize) {
        self.workers[j].restoring = false;
        crate::obs::restore(
            self.obs_run,
            self.workers[j].restore_start,
            self.queue.now(),
            j,
        );
        match self.sync {
            SyncMode::Bsp => {
                let iterations_done = self.iterations_done;
                let w = &mut self.workers[j];
                w.iter = iterations_done;
                w.seg = 0;
                w.cur_iter_comp = 0.0;
                w.done = false;
                for (l, v) in w.chunk_version.iter_mut().enumerate() {
                    *v = (*v).max(self.chunk_latest[l]);
                }
                self.try_start_segment(j);
            }
            SyncMode::Asp => {
                let commits = self.commits;
                let w = &mut self.workers[j];
                w.v_seen = commits;
                w.iter += 1;
                if self.started < self.target {
                    self.started += 1;
                    w.done = false;
                    self.start_asp_compute(j, 0.0);
                } else {
                    w.done = true;
                }
            }
        }
    }

    /// After a shrink, chunks the departed worker never delivered may now
    /// satisfy the (smaller) barrier: sweep outstanding iterations in
    /// ascending order and release any that completed.
    fn recheck_bsp_barrier(&mut self) {
        let mut iters: Vec<u64> = self.applied.keys().copied().collect();
        iters.sort_unstable();
        for iter in iters {
            let mask = self.active_mask;
            let newly: Vec<usize> = match self.applied.get_mut(&iter) {
                Some(prog) => (0..prog.broadcast.len())
                    .filter(|&l| !prog.broadcast[l] && (prog.applied[l] & mask) == mask)
                    .collect(),
                None => continue,
            };
            for &l in &newly {
                if let Some(prog) = self.applied.get_mut(&iter) {
                    prog.broadcast[l] = true;
                }
                self.broadcast_chunk(iter, l);
            }
            let complete = self
                .applied
                .get(&iter)
                .is_some_and(|p| p.broadcast.iter().all(|b| *b));
            if complete {
                self.applied.remove(&iter);
                self.on_bsp_iteration_complete(iter);
                if self.done_time.is_some() {
                    return;
                }
            }
        }
    }

    /// After an ASP shrink hands cycles back (`started` dropped), idle
    /// finished workers must pick them up or the run would stall.
    fn restart_idle_asp_workers(&mut self) {
        if self.ps_down_count > 0 {
            return; // the fleet-wide restore at recovery restarts them
        }
        for k in 0..self.n {
            if self.started >= self.target {
                return;
            }
            let w = &self.workers[k];
            if w.done && !w.departed && !w.absent && !w.restoring && !w.computing {
                self.workers[k].done = false;
                self.started += 1;
                self.start_asp_compute(k, 0.0);
            }
        }
    }

    // ------------------------------------------------------------------
    // Fault injection & recovery (see docs/FAULTS.md)

    fn on_fault(&mut self, idx: usize) {
        if self.done_time.is_some() {
            return;
        }
        let e = self.fault_plan[idx];
        let now = self.queue.now();
        match e.kind {
            FaultKind::WorkerCrash { worker } => match e.duration {
                Some(d) => self.crash_worker(worker, CrashOutcome::RejoinAt(now + d)),
                None => self.crash_worker(worker, CrashOutcome::Policy),
            },
            FaultKind::WorkerDeparture { worker } => {
                self.crash_worker(worker, CrashOutcome::Depart)
            }
            FaultKind::PsCrash { ps } => self.on_ps_crash(idx, ps),
            FaultKind::Straggler { worker, factor } => {
                self.stragglers[worker].push((idx, factor));
                self.deg_active += 1;
                if let Some(d) = e.duration {
                    self.queue.schedule_at(now + d, Ev::FaultEnd { idx });
                }
            }
            FaultKind::LinkDegraded { link, factor } => {
                self.deg_active += 1;
                match link {
                    LinkTarget::Worker(j) => {
                        self.wk_nic_degs[j].push((idx, factor));
                        self.refresh_wk_nic(j);
                    }
                    LinkTarget::Ps(k) => {
                        self.ps_nic_degs[k].push((idx, factor));
                        self.refresh_ps(k);
                    }
                }
                if let Some(d) = e.duration {
                    self.queue.schedule_at(now + d, Ev::FaultEnd { idx });
                }
            }
            FaultKind::PsStall { ps } => {
                self.deg_active += 1;
                self.ps_stall[ps] += 1;
                self.refresh_ps(ps);
                if let Some(d) = e.duration {
                    self.queue.schedule_at(now + d, Ev::FaultEnd { idx });
                }
            }
        }
    }

    fn on_fault_end(&mut self, idx: usize) {
        if self.done_time.is_some() {
            return;
        }
        let e = self.fault_plan[idx];
        match e.kind {
            FaultKind::Straggler { worker, .. } => {
                // In-flight segments keep their start-time duration; only
                // newly started segments see the restored speed.
                self.stragglers[worker].retain(|(i, _)| *i != idx);
                self.deg_active = self.deg_active.saturating_sub(1);
            }
            FaultKind::LinkDegraded { link, .. } => {
                self.deg_active = self.deg_active.saturating_sub(1);
                match link {
                    LinkTarget::Worker(j) => {
                        self.wk_nic_degs[j].retain(|(i, _)| *i != idx);
                        self.refresh_wk_nic(j);
                    }
                    LinkTarget::Ps(k) => {
                        self.ps_nic_degs[k].retain(|(i, _)| *i != idx);
                        self.refresh_ps(k);
                    }
                }
            }
            FaultKind::PsStall { ps } => {
                self.deg_active = self.deg_active.saturating_sub(1);
                self.ps_stall[ps] = self.ps_stall[ps].saturating_sub(1);
                self.refresh_ps(ps);
            }
            // A transient PS crash's end is the reboot completing.
            FaultKind::PsCrash { ps } => self.on_ps_recovered(ps),
            _ => {}
        }
    }

    /// A PS node crashes: all parameter state since the last checkpoint is
    /// gone. Global progress rolls back, every in-flight flow dies, and the
    /// fleet pauses until the node reboots (transient) or its chunks fail
    /// over to the survivors (permanent).
    fn on_ps_crash(&mut self, idx: usize, ps: usize) {
        if self.ps_dead[ps] {
            return; // a dead node cannot crash again
        }
        let e = self.fault_plan[idx];
        let now = self.queue.now();
        self.failovers += 1;
        self.rollback_to_checkpoint();
        self.ps_down[ps] += 1;
        self.ps_down_count += 1;
        self.refresh_ps(ps);
        match e.duration {
            Some(d) => self.queue.schedule_at(now + d, Ev::FaultEnd { idx }),
            None => {
                let survivors = (0..self.n_ps)
                    .filter(|&k| k != ps && !self.ps_dead[k])
                    .count();
                if self.policy.ps_failover && survivors >= 1 {
                    self.ps_dead[ps] = true;
                    self.refresh_ps(ps);
                    self.queue
                        .schedule_after(self.policy.ps_failover_secs, Ev::PsFailover { ps });
                } else {
                    // No failover capacity: the node reboots from the
                    // durable checkpoint after the same latency.
                    self.queue
                        .schedule_after(self.policy.ps_failover_secs, Ev::PsRecover { ps });
                }
            }
        }
    }

    /// A crashed PS node is back (reboot finished). When it was the last
    /// outstanding outage the whole fleet restores and resumes.
    fn on_ps_recovered(&mut self, ps: usize) {
        if self.done_time.is_some() {
            return;
        }
        self.ps_down[ps] = self.ps_down[ps].saturating_sub(1);
        self.ps_down_count = self.ps_down_count.saturating_sub(1);
        self.refresh_ps(ps);
        if self.ps_down_count == 0 {
            self.resume_fleet();
        }
    }

    /// A permanently-dead PS node's chunks finish re-sharding round-robin
    /// onto the surviving servers — its share of parameter bandwidth moves
    /// with them. The node itself stays dead.
    fn on_ps_failover(&mut self, ps: usize) {
        if self.done_time.is_some() {
            return;
        }
        let survivors: Vec<usize> = (0..self.n_ps).filter(|&k| !self.ps_dead[k]).collect();
        if !survivors.is_empty() {
            let mut i = 0usize;
            for owner in self.chunk_ps.iter_mut() {
                if *owner == ps {
                    *owner = survivors[i % survivors.len()];
                    i += 1;
                }
            }
        }
        self.ps_down[ps] = self.ps_down[ps].saturating_sub(1);
        self.ps_down_count = self.ps_down_count.saturating_sub(1);
        if self.ps_down_count == 0 {
            self.resume_fleet();
        }
    }

    /// Rolls global progress back to the last checkpoint boundary: the
    /// rolled-back updates are *lost* (they will be *replayed*), every
    /// in-flight flow is cancelled, and all progress bookkeeping resets to
    /// the checkpoint.
    fn rollback_to_checkpoint(&mut self) {
        let now = self.queue.now();
        let progress = self.progress();
        let ckpt = self.policy.checkpoint_floor(progress);
        self.hwm = self.hwm.max(progress);
        self.lost_updates += progress - ckpt;
        crate::obs::rollback(self.obs_run, now, progress - ckpt);
        self.progress_curve.push((now, ckpt));

        // Everything in flight dies with the parameter state.
        self.fluid.cancel_flows_where(|_| true);
        self.flow_starts.clear();
        self.comm_active.clear();
        self.comm_accum.clear();
        self.comp_per_iter.clear();
        self.applied.clear();
        self.loss_curve.retain(|(s, _)| *s <= ckpt);
        match self.sync {
            SyncMode::Bsp => self.iterations_done = ckpt,
            SyncMode::Asp => {
                // In-flight cycles are lost; hand them back so the update
                // target stays reachable.
                self.commits = ckpt;
                self.started = ckpt;
            }
        }
        for v in self.chunk_latest.iter_mut() {
            *v = ckpt;
        }
        for j in 0..self.n {
            let w = &mut self.workers[j];
            if w.departed {
                continue;
            }
            w.inc += 1; // in-flight compute events are stale now
            w.computing = false;
            w.restoring = false;
            w.done = false;
            w.seg = 0;
            w.cur_iter_comp = 0.0;
            w.pending_applies = 0;
            w.pending_pulls = 0;
            w.iter = ckpt;
            w.v_seen = w.v_seen.min(ckpt);
            for v in w.chunk_version.iter_mut() {
                *v = (*v).min(ckpt);
            }
            // `absent` survives: the slot is still waiting for its
            // replacement/restart, which restores on arrival.
        }
    }

    /// The PS fleet is whole again: every present worker re-pulls the
    /// checkpoint (a full parameter restore) and resumes from it.
    fn resume_fleet(&mut self) {
        if self.done_time.is_some() {
            return;
        }
        self.last_completion = self.queue.now();
        for j in 0..self.n {
            let w = &self.workers[j];
            if w.departed || w.absent || w.restoring {
                continue;
            }
            self.begin_restore(j);
        }
    }

    fn refresh_wk_nic(&mut self, j: usize) {
        let f: f64 = self.wk_nic_degs[j].iter().map(|(_, x)| *x).product();
        self.fluid
            .set_capacity(self.wk_nic[j], self.wk_nic_base[j] * f)
            .expect("worker NIC belongs to this system");
    }

    /// Reapplies PS node `k`'s effective NIC/CPU capacities from its base
    /// capacity, active degradations, stalls, and down/dead state.
    fn refresh_ps(&mut self, k: usize) {
        let down = self.ps_down[k] > 0 || self.ps_dead[k];
        let f: f64 = self.ps_nic_degs[k].iter().map(|(_, x)| *x).product();
        let nic = if down { 0.0 } else { self.ps_nic_base[k] * f };
        let cpu = if down || self.ps_stall[k] > 0 {
            0.0
        } else {
            self.ps_cpu_base[k]
        };
        self.fluid
            .set_capacity(self.ps_nic[k], nic)
            .expect("PS NIC belongs to this system");
        self.fluid
            .set_capacity(self.ps_cpu[k], cpu)
            .expect("PS CPU belongs to this system");
    }

    /// Replay/high-water-mark accounting and progress-curve sampling on
    /// every committed update `s`.
    fn note_progress(&mut self, s: u64, now: f64) {
        if s <= self.hwm {
            self.replayed_updates += 1;
        } else {
            self.hwm = s;
        }
        if s.is_multiple_of(self.progress_stride) || s >= self.target {
            self.progress_curve.push((now, s));
        }
    }

    // ------------------------------------------------------------------
    // ASP mechanics

    /// Begins an ASP compute cycle after `extra_delay` seconds (used only
    /// to stagger initial cycles; the delay does not count as busy time).
    fn start_asp_compute(&mut self, j: usize, extra_delay: f64) {
        let base = self.compute_gflops_per_worker() / (self.worker_rate(j) * self.speed_factor(j));
        let dur = self.workers[j].jitter.perturb(base).max(1e-12);
        let now = self.queue.now();
        let iter = self.workers[j].iter;
        let w = &mut self.workers[j];
        w.computing = true;
        w.cycle_start = now + extra_delay;
        w.compute_busy += dur;
        w.cur_iter_comp = dur;
        self.trace_compute(j, iter, now + extra_delay, now + extra_delay + dur);
        let inc = self.workers[j].inc;
        self.queue
            .schedule_after(extra_delay + dur, Ev::Seg { worker: j, inc });
    }

    fn on_asp_compute_done(&mut self, j: usize) {
        let now = self.queue.now();
        let uid = self.asp_uid(j);
        {
            let w = &mut self.workers[j];
            w.computing = false;
            w.compute_end = now;
            w.pending_applies = self.chunk_mb.len();
        }
        for l in 0..self.chunk_mb.len() {
            let k = self.chunk_ps[l];
            self.launch_flow(
                vec![self.wk_nic[j], self.ps_nic[k]],
                self.chunk_mb[l],
                tag(KIND_PUSH, j, l, uid),
            );
        }
    }

    fn asp_uid(&self, j: usize) -> u64 {
        ((j as u64) << 26) | (self.workers[j].iter & 0x3ff_ffff)
    }

    fn on_asp_commit(&mut self, j: usize) {
        let now = self.queue.now();
        let staleness = (self.commits - self.workers[j].v_seen) as f64;
        self.commits += 1;
        let s = self.commits;
        self.note_progress(s, now);

        if s == self.warmup {
            self.warmup_time = now;
        }
        if s > self.warmup {
            let w = &self.workers[j];
            self.staleness_samples.push(staleness);
            self.comp_samples.push(w.cur_iter_comp);
            // Communication so far: push + apply (pull adds later; ASP's
            // cycle time sample uses commit-to-commit cadence instead).
            self.comm_samples.push(now - w.compute_end);
            self.iter_samples.push(now - w.cycle_start);
            crate::obs::iteration(
                self.obs_run,
                Some(j),
                w.cycle_start,
                now,
                w.cur_iter_comp,
                now - w.compute_end,
            );
        }
        self.record_loss(s);

        if s >= self.horizon {
            if self.horizon < self.target {
                let rate = (self.horizon - self.warmup) as f64 / (now - self.warmup_time);
                self.total_time = now + (self.target - self.horizon) as f64 / rate;
                self.extrapolated = true;
                self.fill_extrapolated_loss();
            } else {
                self.total_time = now;
            }
            self.done_time = Some(now);
            return;
        }

        // Refresh local parameters.
        let uid = self.asp_uid(j);
        self.workers[j].pending_pulls = self.chunk_mb.len();
        for l in 0..self.chunk_mb.len() {
            let k = self.chunk_ps[l];
            self.launch_flow(
                vec![self.ps_nic[k], self.wk_nic[j]],
                self.chunk_mb[l],
                tag(KIND_PULL, j, l, uid),
            );
        }
    }

    fn on_asp_pulled(&mut self, j: usize) {
        self.workers[j].v_seen = self.commits;
        self.workers[j].iter += 1;
        if self.started < self.target {
            self.started += 1;
            self.start_asp_compute(j, 0.0);
        } else {
            self.workers[j].done = true;
        }
    }

    // ------------------------------------------------------------------
    // Loss generation

    fn record_loss(&mut self, s: u64) {
        if s.is_multiple_of(self.loss_stride) || s == self.target || s == 1 {
            let loss = self.noisy_loss(s);
            self.loss_curve.push((s, loss));
        }
    }

    fn noisy_loss(&mut self, s: u64) -> f64 {
        let conv = &self.w.convergence;
        let expected = if self.sync == SyncMode::Bsp && self.cfg.ssp_slack > 0 && s > 0 {
            // Bounded staleness degrades convergence like √(1+τ̄) on the
            // *realized* mean staleness (the bound itself is rarely hit —
            // same reasoning as Eq. (1)'s ASP factor).
            let tau = if self.ssp_stale_count > 0 {
                self.ssp_stale_sum / self.ssp_stale_count as f64
            } else {
                0.0
            };
            (conv.beta0 * (1.0 + tau).sqrt() / s as f64 + conv.beta1).min(conv.initial_loss)
        } else {
            conv.expected_loss(self.sync, s, self.n as u32)
        };
        let floor = conv.beta1;
        floor + (expected - floor).max(0.0) * self.loss_rng.factor()
    }

    fn fill_extrapolated_loss(&mut self) {
        let mut s = self.progress();
        loop {
            s = (s + self.loss_stride).min(self.target);
            let loss = self.noisy_loss(s);
            self.loss_curve.push((s, loss));
            if s == self.target {
                break;
            }
        }
    }

    // ------------------------------------------------------------------

    fn finish(self) -> TrainingReport {
        let sim_time = self.done_time.expect("finish called before completion");
        let sim_time = sim_time.max(1e-12);
        crate::obs::record_run(&crate::obs::RunTotals {
            updates: self.progress(),
            iter_samples: &self.iter_samples,
            comp_samples: &self.comp_samples,
            comm_samples: &self.comm_samples,
            revocations: self.revocations,
            repairs: self.repairs,
            retries: self.retries,
            failovers: self.failovers,
            lost_updates: self.lost_updates,
            replayed_updates: self.replayed_updates,
            downtime_secs: self.downtime_secs,
            degraded_secs: self.degraded_secs,
        });
        let final_loss = self
            .loss_curve
            .last()
            .map(|(_, l)| *l)
            .unwrap_or(self.w.convergence.initial_loss);
        let worker_cpu_util: Vec<f64> = self
            .workers
            .iter()
            .map(|w| (w.compute_busy / sim_time).min(1.0))
            .collect();
        let ps_cpu_util: Vec<f64> = self
            .ps_cpu_busy
            .iter()
            .map(|b| (b / sim_time).min(1.0))
            .collect();
        let ps_nic_mean_mbps: Vec<f64> = self
            .ps_nic_rec
            .iter()
            .map(|r| r.mean_rate(sim_time))
            .collect();
        let window = self.cfg.throughput_window;
        let ps_nic_series: Vec<Vec<(f64, f64)>> = self
            .ps_nic_rec
            .iter()
            .map(|r| r.series(window, sim_time))
            .collect();

        let comp_time = Stats::of(&self.comp_samples);
        let comm_time = Stats::of(&self.comm_samples);
        let per_iter_scale = match self.sync {
            SyncMode::Bsp => self.target as f64,
            // ASP cycles run n-wide in parallel; per-update wall share.
            SyncMode::Asp => self.target as f64 / self.n as f64,
        };

        TrainingReport {
            workload: self.w.id(),
            sync: self.sync,
            n_workers: self.n as u32,
            n_ps: self.n_ps as u32,
            iterations: self.target,
            total_time: self.total_time,
            simulated_iterations: self.progress(),
            simulated_time: sim_time,
            extrapolated: self.extrapolated,
            iter_time: Stats::of(&self.iter_samples),
            comp_time,
            comm_time,
            total_comp_time: comp_time.mean * per_iter_scale,
            total_comm_time: comm_time.mean * per_iter_scale,
            worker_cpu_util,
            ps_cpu_util,
            ps_nic_mean_mbps,
            ps_nic_series,
            loss_curve: self.loss_curve,
            final_loss,
            staleness: Stats::of(&self.staleness_samples),
            revocations: self.revocations,
            repairs: self.repairs,
            downtime_secs: self.downtime_secs,
            degraded_secs: self.degraded_secs,
            lost_updates: self.lost_updates,
            replayed_updates: self.replayed_updates,
            retries: self.retries,
            failovers: self.failovers,
            progress_curve: self.progress_curve,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cynthia_cloud::default_catalog;

    fn m4_cluster(n_workers: u32, n_ps: u32) -> ClusterSpec {
        let cat = default_catalog();
        ClusterSpec::homogeneous(cat.expect("m4.xlarge"), n_workers, n_ps)
    }

    fn run(workload: &Workload, cluster: ClusterSpec, cfg: SimConfig) -> TrainingReport {
        simulate(&TrainJob {
            workload,
            cluster,
            config: cfg,
        })
    }

    #[test]
    fn tag_roundtrip() {
        let t = tag(KIND_PULL, 1234, 200, 0xdead_beef);
        assert_eq!(untag(t), (KIND_PULL, 1234, 200, 0xdead_beef));
    }

    #[test]
    fn single_worker_bsp_is_compute_bound() {
        let mut w = Workload::mnist_bsp();
        w.iterations = 200;
        let r = run(&w, m4_cluster(1, 1), SimConfig::deterministic(1));
        // t_base = 0.0356/0.9 ≈ 0.0396 s; communication hides under compute.
        let expect = 200.0 * (0.0356 / 0.9);
        assert!(
            (r.total_time - expect).abs() / expect < 0.15,
            "total {} vs expected ≈{expect}",
            r.total_time
        );
        assert!(r.worker_cpu_util[0] > 0.85, "worker should be busy");
        assert!(!r.extrapolated);
        assert_eq!(r.simulated_iterations, 200);
    }

    #[test]
    fn bsp_scales_then_degrades_like_fig1b() {
        let mut w = Workload::mnist_bsp();
        w.iterations = 300;
        let cfg = SimConfig::deterministic(7);
        let t: Vec<f64> = [1u32, 2, 4, 8]
            .iter()
            .map(|n| run(&w, m4_cluster(*n, 1), cfg).total_time)
            .collect();
        assert!(t[1] < t[0], "2 workers should beat 1: {t:?}");
        // The U-shape: 8 workers slower than the best point.
        let best = t.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            t[3] > best * 1.3,
            "8 workers should sit past the knee: {t:?}"
        );
    }

    #[test]
    fn ps_saturates_under_bsp_scaleout_like_table2() {
        let mut w = Workload::mnist_bsp();
        w.iterations = 300;
        let cfg = SimConfig::deterministic(3);
        let r1 = run(&w, m4_cluster(1, 1), cfg);
        let r8 = run(&w, m4_cluster(8, 1), cfg);
        assert!(
            r1.ps_cpu_util[0] < 0.5,
            "PS lightly loaded with 1 worker: {}",
            r1.ps_cpu_util[0]
        );
        assert!(
            r8.ps_cpu_util[0] > 0.9,
            "PS saturated with 8 workers: {}",
            r8.ps_cpu_util[0]
        );
        assert!(
            r8.worker_cpu_util[0] < 0.5,
            "workers throttled at 8: {}",
            r8.worker_cpu_util[0]
        );
    }

    #[test]
    fn asp_time_improves_with_workers() {
        let mut w = Workload::resnet32_asp();
        w.iterations = 60;
        let cfg = SimConfig::deterministic(5);
        let t4 = run(&w, m4_cluster(4, 1), cfg).total_time;
        let t9 = run(&w, m4_cluster(9, 1), cfg).total_time;
        assert!(
            t9 < t4 * 0.65,
            "ResNet-32 ASP should keep scaling: t4={t4} t9={t9}"
        );
    }

    #[test]
    fn asp_records_staleness_and_bsp_does_not() {
        let mut w = Workload::resnet32_asp();
        w.iterations = 80;
        let r = run(&w, m4_cluster(4, 1), SimConfig::deterministic(2));
        assert!(r.staleness.n > 0);
        assert!(
            r.staleness.mean > 1.0,
            "4 ASP workers should miss updates: {}",
            r.staleness.mean
        );

        let mut b = Workload::mnist_bsp();
        b.iterations = 50;
        let rb = run(&b, m4_cluster(4, 1), SimConfig::deterministic(2));
        assert_eq!(rb.staleness.n, 0);
    }

    #[test]
    fn stragglers_slow_bsp_down() {
        let cat = default_catalog();
        let mut w = Workload::mnist_bsp();
        w.iterations = 200;
        let cfg = SimConfig::deterministic(4);
        let homo = run(&w, m4_cluster(2, 1), cfg).total_time;
        let hetero = run(
            &w,
            ClusterSpec::heterogeneous(cat.expect("m4.xlarge"), cat.expect("m1.xlarge"), 2, 1),
            cfg,
        )
        .total_time;
        assert!(
            hetero > homo * 1.4,
            "straggler should pace the barrier: homo={homo} hetero={hetero}"
        );
    }

    #[test]
    fn more_ps_relieves_the_bottleneck() {
        let mut w = Workload::mnist_bsp();
        w.iterations = 300;
        let cfg = SimConfig::deterministic(6);
        let t1 = run(&w, m4_cluster(8, 1), cfg).total_time;
        let t4 = run(&w, m4_cluster(8, 4), cfg).total_time;
        assert!(
            t4 < t1 * 0.6,
            "4 PS nodes should relieve the mnist bottleneck: 1ps={t1} 4ps={t4}"
        );
    }

    #[test]
    fn loss_curve_is_monotone_decreasing_in_trend() {
        let mut w = Workload::cifar10_bsp();
        w.iterations = 2000;
        let r = run(&w, m4_cluster(4, 1), SimConfig::fast(9));
        assert!(r.loss_curve.len() > 10);
        let first = r.loss_curve.first().unwrap().1;
        let last = r.loss_curve.last().unwrap().1;
        assert!(last < first * 0.5, "loss should drop: {first} -> {last}");
        assert_eq!(r.loss_curve.last().unwrap().0, 2000);
    }

    #[test]
    fn fast_forward_matches_exact_run_within_tolerance() {
        let mut w = Workload::mnist_bsp();
        w.iterations = 400;
        let exact = run(&w, m4_cluster(4, 1), SimConfig::deterministic(11));
        let mut fast_cfg = SimConfig::deterministic(11);
        fast_cfg.fast_forward = Some(crate::config::FastForward {
            warmup: 20,
            measure: 80,
        });
        let fast = run(&w, m4_cluster(4, 1), fast_cfg);
        assert!(fast.extrapolated);
        assert!(fast.simulated_iterations < 400);
        let err = (fast.total_time - exact.total_time).abs() / exact.total_time;
        assert!(
            err < 0.05,
            "extrapolation error {err}: {} vs {}",
            fast.total_time,
            exact.total_time
        );
    }

    #[test]
    fn deterministic_runs_are_identical() {
        let mut w = Workload::vgg19_asp();
        w.iterations = 40;
        let a = run(&w, m4_cluster(3, 1), SimConfig::exact(21));
        let b = run(&w, m4_cluster(3, 1), SimConfig::exact(21));
        assert_eq!(a.total_time, b.total_time);
        assert_eq!(a.loss_curve, b.loss_curve);
        assert_eq!(a.ps_cpu_util, b.ps_cpu_util);
    }

    #[test]
    fn vgg_asp_saturates_ps_nic_like_fig7() {
        let mut w = Workload::vgg19_asp();
        w.iterations = 150;
        let cfg = SimConfig::deterministic(13);
        let r4 = run(&w, m4_cluster(4, 1), cfg);
        let r9 = run(&w, m4_cluster(9, 1), cfg);
        let nic = 118.0;
        assert!(
            r4.total_ps_nic_mbps() < 0.7 * nic,
            "4 workers should not saturate: {}",
            r4.total_ps_nic_mbps()
        );
        assert!(
            r9.total_ps_nic_mbps() > 0.75 * nic,
            "9 workers should approach saturation: {}",
            r9.total_ps_nic_mbps()
        );
        // And the peak (bucketed) rate should actually touch the capacity.
        let peak = r9.ps_nic_series[0]
            .iter()
            .map(|(_, r)| *r)
            .fold(0.0f64, f64::max);
        assert!(peak > 0.9 * nic, "peak should reach the NIC cap: {peak}");
    }

    #[test]
    fn traced_run_matches_untraced_and_accounts_busy_time() {
        use crate::trace::Activity;
        let mut w = Workload::mnist_bsp();
        w.iterations = 60;
        let job = TrainJob {
            workload: &w,
            cluster: m4_cluster(2, 1),
            config: SimConfig::deterministic(8),
        };
        let plain = simulate(&job);
        let (traced, trace) = simulate_traced(&job, 1_000_000);
        assert_eq!(
            plain.total_time, traced.total_time,
            "tracing must not perturb"
        );
        // The traced compute time matches the report's busy accounting.
        let busy0 = trace.busy_time("worker-0", Activity::Compute);
        let expect0 = traced.worker_cpu_util[0] * traced.simulated_time;
        assert!(
            (busy0 - expect0).abs() / expect0 < 0.02,
            "trace busy {busy0} vs report {expect0}"
        );
        // All four activity kinds appear, and the export is parseable.
        for act in [
            Activity::Compute,
            Activity::Push,
            Activity::Apply,
            Activity::Pull,
        ] {
            assert!(
                trace.spans().iter().any(|sp| sp.activity == act),
                "{act:?} missing from trace"
            );
        }
        let json = trace.to_chrome_trace();
        assert!(json.contains("traceEvents"));
    }

    #[test]
    fn empty_disruption_schedule_matches_plain_simulation() {
        let mut w = Workload::mnist_bsp();
        w.iterations = 100;
        let job = TrainJob {
            workload: &w,
            cluster: m4_cluster(3, 1),
            config: SimConfig::deterministic(31),
        };
        let plain = simulate(&job);
        let disrupted = simulate_disrupted(&job, &[]);
        assert_eq!(plain.total_time, disrupted.total_time);
        assert_eq!(disrupted.revocations, 0);
        assert_eq!(disrupted.repairs, 0);
    }

    #[test]
    fn bsp_stalls_through_revocation_then_completes() {
        let mut w = Workload::mnist_bsp();
        w.iterations = 200;
        let job = TrainJob {
            workload: &w,
            cluster: m4_cluster(4, 1),
            config: SimConfig::deterministic(33),
        };
        let base = simulate(&job);
        // Revoke worker 2 mid-run; a replacement joins 20 s later.
        let d = [Disruption {
            worker: 2,
            at: base.total_time * 0.4,
            rejoin_at: Some(base.total_time * 0.4 + 20.0),
        }];
        let r = simulate_disrupted(&job, &d);
        assert_eq!(r.revocations, 1);
        assert_eq!(r.repairs, 1);
        assert_eq!(r.simulated_iterations, 200, "the barrier must release");
        assert!(
            r.total_time > base.total_time + 15.0,
            "BSP stalls for most of the outage: base={} disrupted={}",
            base.total_time,
            r.total_time
        );
    }

    #[test]
    fn asp_degrades_gracefully_under_revocation() {
        let mut w = Workload::resnet32_asp();
        w.iterations = 60;
        let job = TrainJob {
            workload: &w,
            cluster: m4_cluster(4, 1),
            config: SimConfig::deterministic(35),
        };
        let base = simulate(&job);
        let outage = base.total_time * 0.5;
        let d = [Disruption {
            worker: 1,
            at: base.total_time * 0.25,
            rejoin_at: Some(base.total_time * 0.25 + outage),
        }];
        let r = simulate_disrupted(&job, &d);
        assert_eq!(r.simulated_iterations, 60);
        assert_eq!(r.revocations, 1);
        // Survivors keep committing: the slowdown is far smaller than the
        // outage itself (BSP would stall for all of it).
        assert!(
            r.total_time - base.total_time < outage * 0.8,
            "ASP should absorb most of the outage: base={} disrupted={} outage={outage}",
            base.total_time,
            r.total_time
        );
    }

    #[test]
    fn permanent_shrink_completes_on_survivors() {
        for workload in [Workload::mnist_bsp(), Workload::resnet32_asp()] {
            let mut w = workload;
            w.iterations = 80;
            let job = TrainJob {
                workload: &w,
                cluster: m4_cluster(2, 1),
                config: SimConfig::deterministic(37),
            };
            let base = simulate(&job);
            let d = [Disruption {
                worker: 0,
                at: base.total_time * 0.3,
                rejoin_at: None,
            }];
            let r = simulate_disrupted(&job, &d);
            assert_eq!(
                r.simulated_iterations,
                80,
                "{}: survivors must finish the job",
                w.id()
            );
            assert_eq!(r.revocations, 1);
            assert_eq!(r.repairs, 0, "a shrink is not a repair");
            assert!(
                r.total_time > base.total_time,
                "{}: fewer workers, slower",
                w.id()
            );
        }
    }

    #[test]
    fn back_to_back_revocations_of_same_slot() {
        let mut w = Workload::mnist_bsp();
        w.iterations = 120;
        let job = TrainJob {
            workload: &w,
            cluster: m4_cluster(3, 1),
            config: SimConfig::deterministic(39),
        };
        let base = simulate(&job);
        let t = base.total_time;
        let d = [
            Disruption {
                worker: 1,
                at: t * 0.2,
                rejoin_at: Some(t * 0.2 + 10.0),
            },
            // Second reclaim lands while the first repair may still be
            // restoring; the slot must survive both.
            Disruption {
                worker: 1,
                at: t * 0.2 + 12.0,
                rejoin_at: Some(t * 0.2 + 30.0),
            },
        ];
        let r = simulate_disrupted(&job, &d);
        assert_eq!(r.simulated_iterations, 120);
        assert_eq!(r.revocations, 2);
        assert_eq!(r.repairs, 2);
    }

    #[test]
    fn disrupted_runs_are_deterministic() {
        let mut w = Workload::vgg19_asp();
        w.iterations = 40;
        let job = TrainJob {
            workload: &w,
            cluster: m4_cluster(3, 1),
            config: SimConfig::exact(41),
        };
        let d = [
            Disruption {
                worker: 0,
                at: 30.0,
                rejoin_at: Some(55.0),
            },
            Disruption {
                worker: 2,
                at: 60.0,
                rejoin_at: None,
            },
        ];
        let a = simulate_disrupted(&job, &d);
        let b = simulate_disrupted(&job, &d);
        assert_eq!(a.total_time, b.total_time);
        assert_eq!(a.loss_curve, b.loss_curve);
        assert_eq!(a.revocations, b.revocations);
        assert_eq!(a.repairs, b.repairs);
    }

    #[test]
    fn comm_grows_and_comp_shrinks_with_workers_bsp() {
        let mut w = Workload::cifar10_bsp();
        w.iterations = 60;
        let cfg = SimConfig::deterministic(17);
        let r9 = run(&w, m4_cluster(9, 1), cfg);
        let r17 = run(&w, m4_cluster(17, 1), cfg);
        assert!(r17.comp_time.mean < r9.comp_time.mean);
        assert!(r17.comm_time.mean > r9.comm_time.mean);
    }
}
