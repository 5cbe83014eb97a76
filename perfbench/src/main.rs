//! `perfbench` — the layer-by-layer benchmark of the Cynthia reproduction.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!           [--smoke] [--out FILE|-]
//! perfbench compare OLD.jsonl NEW.jsonl
//! perfbench digests
//! ```
//!
//! A run sets up, then repeats its workload's fixed op list for about
//! `--seconds`, timing every call into the library from outside. With
//! `--trace 0` the hooks are switched off (`obs::set_enabled(false)`) and
//! the run reports the end-to-end metrics; with `--trace 1` it measures
//! half the time untraced and half with the hooks and tracer on, and
//! reports the per-layer metrics. Every op's output is checked: invariants
//! on any seed, committed digests on the default seed 0. The last stdout
//! line is `{"correct", "attempted", "failed", "metrics"}`; the full record
//! (environment, samples) is appended to `--out` as one JSON line, which
//! `compare` reads. `digests` prints the seed-0 digest table of every
//! workload (`digests.txt`). See `README.md`.

mod compare;
mod metrics;
mod op;
mod reference;
mod workloads;

use metrics::{CounterSet, Metric, Pass, Sample};
use op::{fnv1a, Op, Timer, TRACK};
use reference::Reference;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::rc::Rc;
use std::time::Instant;
use workloads::{Fixture, Size};

/// Digests of every op's output on the default seed, per digest key.
const DIGESTS: &str = include_str!("../digests.txt");

/// Seconds between two set-up repetitions during the timed passes.
const SETUP_EVERY_S: f64 = 1.0;

/// Where run records go unless `--out` says otherwise.
const DEFAULT_OUT: &str = "perfbench/out/results.jsonl";

/// The environment a result was measured in.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Env {
    /// Worker threads of the library's parallel helper (`RAYON_NUM_THREADS`).
    pub threads: u64,
    pub nproc: u64,
    /// Whether the library's instrumentation hooks are compiled in, probed
    /// at start-up (the runner refuses to measure without them).
    pub obs_compiled: bool,
    /// The kill switch (`obs::enabled()`) as read after the untraced passes.
    pub obs_enabled_untraced: bool,
    pub git_rev: String,
    pub rustc: String,
}

/// One run, as appended to the results file.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunRecord {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub smoke: bool,
    pub seconds: f64,
    pub passes: u64,
    pub env: Env,
    /// Summed reference-kernel times of each sample, seconds.
    pub reference_s: Vec<f64>,
    /// The factor that scaled the end-to-end times to nominal machine speed
    /// (see `reference`); dividing by it recovers the measured times.
    pub scale: f64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<String>,
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The pinned worker-thread count of the library's parallel helper. One
/// thread: the reference kernels measure one core, and with a second core
/// shared with other tenants the median experiment's time spread by about
/// 20 % over ten runs.
const THREADS: usize = 1;

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        smoke: false,
        out: Some(DEFAULT_OUT.to_string()),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--out" => args.out = (value != "-").then(|| value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workloads::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            workloads::WORKLOADS.join(", ")
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Peak resident set size (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the checkout, when it is a git work tree.
fn git_rev() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Correctness bookkeeping across all passes of a run.
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// Each op's output digest in the first pass; later passes must match.
    first: Vec<Option<u64>>,
    /// Concatenated op digests per digest key, from the first pass.
    keys: BTreeMap<String, String>,
    /// `VmHWM` at the end of the first pass, MB.
    peak_rss_mb: f64,
    reference: Reference,
    last_reference: Option<Instant>,
    /// The set-up repeated every `SETUP_EVERY_S` during the passes, if any.
    setup: Option<Box<dyn Fn()>>,
    last_setup: Option<Instant>,
    /// Time of each set-up repetition, seconds.
    setup_s: Vec<f64>,
}

impl Tally {
    fn new(ops: usize) -> Self {
        Tally {
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            first: vec![None; ops],
            keys: BTreeMap::new(),
            peak_rss_mb: 0.0,
            reference: Reference::new(),
            last_reference: None,
            setup: None,
            last_setup: None,
            setup_s: Vec::new(),
        }
    }

    /// Repeats the set-up if `SETUP_EVERY_S` has passed since the last
    /// repetition, so that the repetitions spread over the whole run.
    fn maybe_setup(&mut self) {
        let Some(setup) = &self.setup else { return };
        if self
            .last_setup
            .is_some_and(|t| t.elapsed().as_secs_f64() < SETUP_EVERY_S)
        {
            return;
        }
        let start = Instant::now();
        setup();
        self.setup_s.push(start.elapsed().as_secs_f64());
        self.last_setup = Some(Instant::now());
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(msg);
        }
    }

    /// Runs op `i` once, checks its output, and returns its sample.
    fn run(&mut self, i: usize, op: &Op, counters: Option<&CounterSet>) -> Sample {
        self.maybe_setup();
        // A reference sample at least every quarter second tracks the
        // machine's speed through the run.
        if self
            .last_reference
            .is_none_or(|t| t.elapsed().as_secs_f64() > 0.25)
        {
            self.reference.sample();
            self.last_reference = Some(Instant::now());
        }
        let before = counters.map(CounterSet::read);
        let mut timer = Timer::new(&op.name);
        let result = catch_unwind(AssertUnwindSafe(|| (op.run)(&mut timer)));
        let elapsed = timer.elapsed();
        let mut sample = Sample {
            elapsed,
            units: 0,
            span_s: elapsed.as_secs_f64(),
            counts: Default::default(),
            spans: 0,
        };
        if let (Some(before), Some(c)) = (before, counters) {
            for ((d, a), b) in sample.counts.iter_mut().zip(c.read()).zip(before) {
                *d = a - b;
            }
            let spans = cynthia::obs::tracer().drain();
            if let Some(span) = spans.iter().find(|s| s.track == TRACK) {
                sample.span_s = span.duration();
            }
            sample.spans = spans.iter().filter(|s| s.track != TRACK).count() as u64;
        }
        self.attempted += 1;
        let out = match result {
            Ok(out) => out,
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                self.fail(format!("{}: panicked: {msg}", op.name));
                return sample;
            }
        };
        sample.units = out.units;
        let digest = fnv1a(&out.text);
        if let Err(msg) = out.check {
            self.fail(format!("{}: {msg}", op.name));
        } else if self.first[i].is_some_and(|d| d != digest) {
            self.fail(format!("{}: output differs from the first pass", op.name));
        }
        if self.first[i].is_none() {
            self.first[i] = Some(digest);
            let key = self.keys.entry(op.digest_key.clone()).or_default();
            key.push_str(&format!("{digest:016x}\n"));
        }
        sample
    }

    /// Folded digest per key: `(key, digest)` in key order.
    fn key_digests(&self) -> Vec<(String, u64)> {
        self.keys
            .iter()
            .map(|(k, v)| (k.clone(), fnv1a(v)))
            .collect()
    }

    /// Checks the first pass against the committed seed-0 digests.
    fn check_committed(&mut self, workload: &str, ops: &[Op]) {
        let committed: BTreeMap<&str, &str> = DIGESTS
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let mut f = l.split_whitespace();
                let (w, k, d) = (f.next()?, f.next()?, f.next()?);
                (w == workload).then_some((k, d))
            })
            .collect();
        for (key, digest) in self.key_digests() {
            let got = format!("{digest:016x}");
            if committed.get(key.as_str()) != Some(&got.as_str()) {
                let n = ops.iter().filter(|o| o.digest_key == key).count();
                for _ in 0..n {
                    self.fail(format!(
                        "{key}: digest {got}, digests.txt has {}",
                        committed.get(key.as_str()).unwrap_or(&"none")
                    ));
                }
            }
        }
    }
}

/// Repeats the op list at least `min_passes` times, and then while
/// another pass fits in `budget` seconds.
fn run_passes(
    ops: &[Op],
    budget: f64,
    min_passes: usize,
    counters: Option<&CounterSet>,
    tally: &mut Tally,
) -> Vec<Pass> {
    let start = Instant::now();
    let mut passes = Vec::new();
    loop {
        let pass: Pass = ops
            .iter()
            .enumerate()
            .map(|(i, op)| tally.run(i, op, counters))
            .collect();
        passes.push(pass);
        if passes.len() == 1 {
            // Read after one pass: later passes repeat the same inputs, and
            // the samples stored per pass would otherwise tie memory to speed.
            tally.peak_rss_mb = peak_rss_mb();
        }
        // Start another pass only if it should end within the budget.
        let elapsed = start.elapsed().as_secs_f64();
        let next_end = elapsed * (passes.len() + 1) as f64 / passes.len() as f64;
        if passes.len() >= min_passes && next_end > budget {
            return passes;
        }
    }
}

/// The set-up: builds the fixture and the op list. The fixture's own
/// simulations warm the engine up.
fn setup(workload: &str, seed: u64, size: Size) -> Vec<Op> {
    let fx = Rc::new(Fixture::build(seed));
    workloads::build(workload, &fx, seed, size).expect("workload was validated")
}

/// Whether the library's instrumentation hooks are compiled in: with the
/// kill switch on, starting one flow must move the engine's flow counter.
fn hooks_compiled() -> bool {
    let counter = cynthia::obs::metrics().counter("cynthia_sim_flows_started_total", "");
    let before = counter.get();
    cynthia::obs::set_enabled(true);
    let mut sys = cynthia::sim::fluid::FluidSystem::new();
    let r = sys.add_resource(1.0, "probe");
    sys.start_flow(cynthia::sim::fluid::FlowSpec::new(vec![r], 1.0, 0));
    cynthia::obs::set_enabled(false);
    counter.get() > before
}

fn record(
    args: &Args,
    passes: usize,
    tally: &Tally,
    metrics: &[Metric],
    obs_enabled_untraced: bool,
) -> RunRecord {
    RunRecord {
        workload: args.workload.clone(),
        seed: args.seed,
        trace: args.trace,
        smoke: args.smoke,
        seconds: args.seconds,
        passes: passes as u64,
        env: Env {
            threads: THREADS as u64,
            nproc: nproc() as u64,
            obs_compiled: true,
            obs_enabled_untraced,
            git_rev: git_rev(),
            rustc: env!("PERFBENCH_RUSTC_VERSION").to_string(),
        },
        reference_s: tally.reference.totals(),
        scale: tally.reference.scale(),
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: metrics.to_vec(),
    }
}

fn append_record(path: &str, rec: &RunRecord) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(
        f,
        "{}",
        serde_json::to_string(rec).expect("records serialize")
    )
}

/// The result line: the last line of standard output.
fn result_line(rec: &RunRecord) -> String {
    use serde_json::{Number, Value};
    let metrics = rec
        .metrics
        .iter()
        .map(|m| {
            let v = Value::Object(vec![
                ("value".into(), Value::Number(Number::Float(m.value))),
                ("unit".into(), Value::Str(m.unit.clone())),
            ]);
            (m.name.clone(), v)
        })
        .collect();
    Value::Object(vec![
        ("correct".into(), Value::Bool(rec.correct)),
        (
            "attempted".into(),
            Value::Number(Number::Int(rec.attempted as i64)),
        ),
        (
            "failed".into(),
            Value::Number(Number::Int(rec.failed as i64)),
        ),
        ("metrics".into(), Value::Object(metrics)),
    ])
    .to_json_compact()
}

fn run(args: Args) -> ExitCode {
    let size = if args.smoke { Size::SMOKE } else { Size::FULL };
    let ops = setup(&args.workload, args.seed, size);
    let mut tally = Tally::new(ops.len());
    if !args.trace {
        let (workload, seed) = (args.workload.clone(), args.seed);
        tally.setup = Some(Box::new(move || drop(setup(&workload, seed, size))));
    }
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    // The end-to-end metrics take each op's best time over the passes.
    let min_passes = if args.trace { 1 } else { 3 };
    let plain = run_passes(&ops, budget, min_passes, None, &mut tally);
    let obs_enabled_untraced = cynthia::obs::enabled();
    if args.seed == 0 && !args.smoke {
        tally.check_committed(&args.workload, &ops);
    }
    let (metrics, passes) = if args.trace {
        let counters = CounterSet::new();
        cynthia::obs::set_enabled(true);
        let tracer = cynthia::obs::tracer();
        tracer.set_enabled(true);
        let _ = tracer.drain();
        let traced = run_passes(&ops, budget, 1, Some(&counters), &mut tally);
        tracer.set_enabled(false);
        cynthia::obs::set_enabled(false);
        let wall = |passes: &[Pass]| metrics::best_times(&ops, passes).iter().sum::<f64>();
        let overhead = (wall(&traced) / wall(&plain) - 1.0) * 100.0;
        let spans: Vec<f64> = traced
            .iter()
            .map(|p| p.iter().map(|s| s.spans).sum::<u64>() as f64)
            .collect();
        (
            metrics::per_layer(&ops, &traced, overhead, &spans),
            plain.len() + traced.len(),
        )
    } else {
        let scale = tally.reference.scale();
        let m = metrics::end_to_end(&ops, &plain, &tally.setup_s, tally.peak_rss_mb, scale);
        (m, plain.len())
    };
    for e in &tally.errors {
        eprintln!("perfbench: FAILED {e}");
    }
    let rec = record(&args, passes, &tally, &metrics, obs_enabled_untraced);
    for m in &metrics {
        eprintln!("perfbench: {:<52} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if let Some(path) = &args.out {
        if let Err(e) = append_record(path, &rec) {
            eprintln!("perfbench: cannot append to {path}: {e}");
        }
    }
    println!("{}", result_line(&rec));
    ExitCode::SUCCESS
}

/// Prints the seed-0 digest table of every workload (`digests.txt`).
/// Fails when an op fails its invariant checks.
fn digests() -> ExitCode {
    let mut failed = 0;
    println!("# perfbench output digests on seed 0: <workload> <digest key> <FNV-1a>");
    println!("# Regenerate with `perfbench digests > perfbench/digests.txt` after an");
    println!("# intentional change to a library output.");
    for workload in workloads::WORKLOADS {
        let fx = Rc::new(Fixture::build(0));
        let ops = workloads::build(workload, &fx, 0, Size::FULL).expect("known workload");
        let mut tally = Tally::new(ops.len());
        run_passes(&ops, 0.0, 1, None, &mut tally);
        failed += tally.failed;
        for e in &tally.errors {
            eprintln!("perfbench: FAILED {e}");
        }
        for (key, digest) in tally.key_digests() {
            println!("{workload} {key} {digest:016x}");
        }
    }
    if failed > 0 {
        eprintln!("perfbench: {failed} op(s) failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return compare::main(&argv[1..]);
    }
    // Pinned before the library's parallel helper first reads it.
    std::env::set_var("RAYON_NUM_THREADS", THREADS.to_string());
    if !hooks_compiled() {
        eprintln!("perfbench: the library was built without its obs hooks");
        return ExitCode::FAILURE;
    }
    // End-to-end timing runs with the hooks off; traced passes switch them on.
    cynthia::obs::set_enabled(false);
    if argv.first().map(String::as_str) == Some("digests") {
        return digests();
    }
    match parse_args(&argv) {
        Ok(args) => run(args),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
