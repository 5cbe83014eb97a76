//! `cynthia` — the provisioning CLI.
//!
//! ```text
//! cynthia plan     --workload cifar10 --deadline 90m --loss 0.8 [--gpu]
//! cynthia advise   --workload cifar10 --budget 2.50 --loss 0.7 [--gpu]
//! cynthia predict  --workload vgg19 --workers 9 [--ps 1] [--type m4.xlarge]
//! cynthia simulate --workload mnist --workers 8 [--ps 2] [--iterations 2000]
//!                  [--trace out.json]
//! cynthia profile  --workload resnet32
//! cynthia catalog  [--gpu]
//! ```
//!
//! Workloads: `mnist`, `cifar10`, `resnet32`, `vgg19`, `resnet50`
//! (`--sync bsp|asp` overrides each one's Table 1 default).

use cynthia::prelude::*;
use std::collections::HashMap;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(output) => println!("{output}"),
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            std::process::exit(2);
        }
    }
}

fn usage() -> &'static str {
    "usage:\n  cynthia plan     --workload <w> --deadline <dur> --loss <f> [--gpu] [--sync bsp|asp]\n  cynthia advise   --workload <w> --budget <usd> --loss <f> [--gpu] [--sync ..]\n  cynthia predict  --workload <w> --workers <n> [--ps <k>] [--type <instance>] [--sync ..]\n  cynthia simulate --workload <w> --workers <n> [--ps <k>] [--type <instance>]\n                   [--iterations <n>] [--trace <file.json>] [--sync ..]\n  cynthia profile  --workload <w> [--sync ..]\n  cynthia catalog  [--gpu]\n\nworkloads: mnist cifar10 resnet32 vgg19 resnet50"
}

/// Parses `--key value` pairs (flags without values map to "true").
fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        let key = a
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {a:?}"))?;
        let takes_value = i + 1 < args.len() && !args[i + 1].starts_with("--");
        if takes_value {
            flags.insert(key.to_string(), args[i + 1].clone());
            i += 2;
        } else {
            flags.insert(key.to_string(), "true".to_string());
            i += 1;
        }
    }
    Ok(flags)
}

/// Parses durations like `5400s`, `90m`, `2h`, `1.5h`, or bare seconds.
fn parse_duration(s: &str) -> Result<f64, String> {
    let (num, unit) = match s.chars().last() {
        Some('s') => (&s[..s.len() - 1], 1.0),
        Some('m') => (&s[..s.len() - 1], 60.0),
        Some('h') => (&s[..s.len() - 1], 3600.0),
        _ => (s, 1.0),
    };
    let v: f64 = num
        .parse()
        .map_err(|_| format!("cannot parse duration {s:?}"))?;
    if v <= 0.0 {
        return Err(format!("duration must be positive: {s:?}"));
    }
    Ok(v * unit)
}

fn parse_workload(flags: &HashMap<String, String>) -> Result<Workload, String> {
    let name = flags
        .get("workload")
        .ok_or("missing --workload")?
        .to_lowercase();
    let mut w = match name.as_str() {
        "mnist" => Workload::mnist_bsp(),
        "cifar10" => Workload::cifar10_bsp(),
        "resnet32" => Workload::resnet32_asp(),
        "vgg19" => Workload::vgg19_asp(),
        "resnet50" => Workload::resnet50_bsp(),
        other => return Err(format!("unknown workload {other:?}")),
    };
    if let Some(sync) = flags.get("sync") {
        w = w.with_sync(match sync.to_lowercase().as_str() {
            "bsp" => SyncMode::Bsp,
            "asp" => SyncMode::Asp,
            other => return Err(format!("unknown sync mode {other:?}")),
        });
    }
    if let Some(iters) = flags.get("iterations") {
        let n: u64 = iters
            .parse()
            .map_err(|_| format!("bad --iterations {iters:?}"))?;
        w = w.with_iterations(n);
    }
    Ok(w)
}

fn catalog_for(flags: &HashMap<String, String>) -> Catalog {
    if flags.contains_key("gpu") {
        cynthia::cloud::gpu_catalog()
    } else {
        default_catalog()
    }
}

fn run(args: &[String]) -> Result<String, String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err("missing subcommand".into());
    };
    let flags = parse_flags(rest)?;
    match cmd.as_str() {
        "plan" => cmd_plan(&flags),
        "advise" => cmd_advise(&flags),
        "predict" => cmd_predict(&flags),
        "simulate" => cmd_simulate(&flags),
        "profile" => cmd_profile(&flags),
        "catalog" => Ok(cmd_catalog(&flags)),
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

fn baseline<'c>(catalog: &'c Catalog, workload: &Workload) -> &'c InstanceType {
    // GPU-scale workloads profile on the GPU baseline.
    if workload.w_iter_gflops > 100.0 && catalog.get("p2.xlarge").is_some() {
        catalog.expect("p2.xlarge")
    } else {
        catalog.expect("m4.xlarge")
    }
}

fn cmd_plan(flags: &HashMap<String, String>) -> Result<String, String> {
    let workload = parse_workload(flags)?;
    let deadline = parse_duration(flags.get("deadline").ok_or("missing --deadline")?)?;
    let target_loss: f64 = flags
        .get("loss")
        .ok_or("missing --loss")?
        .parse()
        .map_err(|_| "bad --loss")?;
    let catalog = catalog_for(flags);
    let profile = profile_workload(&workload, baseline(&catalog, &workload), 42);
    let loss = FittedLossModel {
        sync: workload.sync,
        beta0: workload.convergence.beta0,
        beta1: workload.convergence.beta1,
        r_squared: 1.0,
    };
    let goal = Goal {
        deadline_secs: deadline,
        target_loss,
    };
    match cynthia::core::provisioner::plan(
        &profile,
        &loss,
        &catalog,
        &goal,
        &PlannerOptions::default(),
    ) {
        Some(p) => Ok(format!(
            "plan for {} (loss ≤ {target_loss} within {deadline:.0}s):\n  \
             {} × {} workers + {} PS\n  \
             {} iterations ({} total updates)\n  \
             predicted time {:.0}s, predicted cost ${:.3}\n  \
             ({} candidates evaluated)",
            workload.id(),
            p.n_workers,
            p.type_name,
            p.n_ps,
            p.iterations,
            p.total_updates,
            p.predicted_time,
            p.predicted_cost,
            p.candidates_evaluated
        )),
        None => Ok(format!(
            "no feasible plan: loss ≤ {target_loss} within {deadline:.0}s is \
             unreachable with this catalog (loss floor β1 = {:.3})",
            loss.beta1
        )),
    }
}

fn cmd_advise(flags: &HashMap<String, String>) -> Result<String, String> {
    let workload = parse_workload(flags)?;
    let budget: f64 = flags
        .get("budget")
        .ok_or("missing --budget")?
        .parse()
        .map_err(|_| "bad --budget")?;
    let target_loss: f64 = flags
        .get("loss")
        .ok_or("missing --loss")?
        .parse()
        .map_err(|_| "bad --loss")?;
    let catalog = catalog_for(flags);
    let profile = profile_workload(&workload, baseline(&catalog, &workload), 42);
    let loss = FittedLossModel {
        sync: workload.sync,
        beta0: workload.convergence.beta0,
        beta1: workload.convergence.beta1,
        r_squared: 1.0,
    };
    match cynthia::core::advisor::fastest_within_budget(
        &profile,
        &loss,
        &catalog,
        target_loss,
        budget,
        &PlannerOptions::default(),
    ) {
        Some(p) => Ok(format!(
            "fastest plan for {} within ${budget:.2} (loss ≤ {target_loss}):\n  \
             {} × {} workers + {} PS\n  \
             predicted time {:.0}s at ${:.3}",
            workload.id(),
            p.n_workers,
            p.type_name,
            p.n_ps,
            p.predicted_time,
            p.predicted_cost
        )),
        None => Ok(format!(
            "no plan fits ${budget:.2}: either the loss target is below the \
             floor or the budget is under the compute cost floor"
        )),
    }
}

fn shape_args(
    flags: &HashMap<String, String>,
    catalog: &Catalog,
) -> Result<(InstanceType, u32, u32), String> {
    let n: u32 = flags
        .get("workers")
        .ok_or("missing --workers")?
        .parse()
        .map_err(|_| "bad --workers")?;
    let n_ps: u32 = flags
        .get("ps")
        .map(|s| s.parse().map_err(|_| "bad --ps"))
        .transpose()?
        .unwrap_or(1);
    let ty = flags
        .get("type")
        .map(|t| {
            catalog
                .get(t)
                .cloned()
                .ok_or_else(|| format!("unknown instance type {t:?}"))
        })
        .transpose()?
        .unwrap_or_else(|| catalog.expect("m4.xlarge").clone());
    if n == 0 || n_ps == 0 {
        return Err("--workers and --ps must be positive".into());
    }
    Ok((ty, n, n_ps))
}

fn cmd_predict(flags: &HashMap<String, String>) -> Result<String, String> {
    let workload = parse_workload(flags)?;
    let catalog = cynthia::cloud::gpu_catalog(); // superset for lookups
    let (ty, n, n_ps) = shape_args(flags, &catalog)?;
    let profile = profile_workload(&workload, baseline(&catalog, &workload), 42);
    let model = CynthiaModel::new(profile);
    let shape = ClusterShape::homogeneous(&ty, n, n_ps);
    let t = model.predict_time(&shape, workload.iterations);
    Ok(format!(
        "{} on {n}×{} + {n_ps} PS:\n  \
         t_comp {:.3}s, t_comm {:.3}s per iteration\n  \
         predicted training time {:.0}s for {} updates\n  \
         predicted worker busy fraction {:.0}%  (PS bottleneck: {})",
        workload.id(),
        ty.name,
        model.t_comp(&shape),
        model.t_comm(&shape),
        t,
        workload.iterations,
        model.predicted_worker_busy_fraction(&shape) * 100.0,
        if model.bottleneck_occurs(&shape) {
            "yes"
        } else {
            "no"
        }
    ))
}

fn cmd_simulate(flags: &HashMap<String, String>) -> Result<String, String> {
    let workload = parse_workload(flags)?;
    let catalog = cynthia::cloud::gpu_catalog();
    let (ty, n, n_ps) = shape_args(flags, &catalog)?;
    let job = TrainJob {
        workload: &workload,
        cluster: ClusterSpec::homogeneous(&ty, n, n_ps),
        config: SimConfig::fast(42),
    };
    // `--trace` records the run on the process-wide obs tracer: the
    // `train.run` span and its `train.iteration` spans (BSP iterations
    // with comp/comm/stall seconds, ASP cycles on per-worker lanes).
    let trace_path = flags.get("trace");
    let tracer = cynthia::obs::tracer();
    tracer.set_enabled(trace_path.is_some());
    let report = simulate(&job);
    tracer.set_enabled(false);
    let note = match trace_path {
        Some(path) => {
            let dropped = tracer.dropped();
            let spans = tracer.drain();
            let chrome = cynthia::obs::span::to_chrome_trace(&spans);
            cynthia::obs::export::write_json_pretty(path, &chrome)
                .map_err(|e| format!("cannot write trace to {path:?}: {e}"))?;
            trace_note(path, spans.len(), dropped)
        }
        None => String::new(),
    };
    Ok(format!(
        "{} on {n}×{} + {n_ps} PS ({} updates):\n  \
         training time {:.0}s{}\n  \
         mean iteration {:.4}s (comp {:.4}s, comm {:.4}s)\n  \
         final loss {:.3}\n  \
         worker CPU {:.0}%, PS CPU {:.0}%, PS NIC {:.1} MB/s{note}",
        workload.id(),
        ty.name,
        report.iterations,
        report.total_time,
        if report.extrapolated {
            " (steady-state extrapolated)"
        } else {
            ""
        },
        report.iter_time.mean,
        report.comp_time.mean,
        report.comm_time.mean,
        report.final_loss,
        report.mean_worker_util() * 100.0,
        report.mean_ps_util() * 100.0,
        report.total_ps_nic_mbps(),
    ))
}

/// The `--trace` line of `cynthia simulate`: how many spans went to
/// `path`, and how many the full span buffer dropped.
fn trace_note(path: &str, written: usize, dropped: u64) -> String {
    let dropped = if dropped > 0 {
        format!(" ({dropped} more dropped: span buffer full)")
    } else {
        String::new()
    };
    format!("\ntrace: {written} spans{dropped} written to {path} (open in chrome://tracing)")
}

fn cmd_profile(flags: &HashMap<String, String>) -> Result<String, String> {
    let workload = parse_workload(flags)?;
    let catalog = cynthia::cloud::gpu_catalog();
    let base = baseline(&catalog, &workload);
    let p = profile_workload(&workload, base, 42);
    Ok(format!(
        "30-iteration profile of {} on {}:\n  \
         w_iter  = {:.3} GFLOP (capability units)\n  \
         g_param = {:.2} MB\n  \
         c_prof  = {:.3} GFLOPS\n  \
         b_prof  = {:.2} MB/s\n  \
         t_base  = {:.3} s/iteration; profiling wall-clock {:.1}s",
        workload.id(),
        p.baseline_type,
        p.w_iter_gflops,
        p.g_param_mb,
        p.c_prof_gflops,
        p.b_prof_mbps,
        p.t_base(),
        p.profiling_wallclock
    ))
}

fn cmd_catalog(flags: &HashMap<String, String>) -> String {
    let catalog = catalog_for(flags);
    let mut out =
        String::from("type          cores  GFLOPS/core  node GFLOPS   NIC MB/s    $/hour\n");
    for t in catalog.types() {
        out.push_str(&format!(
            "{:<13} {:>5} {:>12.2} {:>12.2} {:>10.0} {:>9.3}\n",
            t.name, t.physical_cores, t.core_gflops, t.node_gflops, t.nic_mbps, t.price_per_hour
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(pairs: &[(&str, &str)]) -> HashMap<String, String> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn duration_parsing() {
        assert_eq!(parse_duration("5400s").unwrap(), 5400.0);
        assert_eq!(parse_duration("90m").unwrap(), 5400.0);
        assert_eq!(parse_duration("1.5h").unwrap(), 5400.0);
        assert_eq!(parse_duration("5400").unwrap(), 5400.0);
        assert!(parse_duration("abc").is_err());
        assert!(parse_duration("-3h").is_err());
    }

    #[test]
    fn flag_parsing() {
        let args: Vec<String> = ["--workload", "mnist", "--gpu", "--workers", "4"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let f = parse_flags(&args).unwrap();
        assert_eq!(f["workload"], "mnist");
        assert_eq!(f["gpu"], "true");
        assert_eq!(f["workers"], "4");
        assert!(parse_flags(&["oops".to_string()]).is_err());
    }

    #[test]
    fn workload_parsing_with_overrides() {
        let w = parse_workload(&flags(&[
            ("workload", "resnet32"),
            ("sync", "bsp"),
            ("iterations", "500"),
        ]))
        .unwrap();
        assert_eq!(w.sync, SyncMode::Bsp);
        assert_eq!(w.iterations, 500);
        assert!(parse_workload(&flags(&[("workload", "alexnet")])).is_err());
        assert!(parse_workload(&flags(&[])).is_err());
    }

    #[test]
    fn plan_command_produces_a_plan() {
        let out = run(&[
            "plan".into(),
            "--workload".into(),
            "cifar10".into(),
            "--deadline".into(),
            "2h".into(),
            "--loss".into(),
            "0.8".into(),
        ])
        .unwrap();
        assert!(out.contains("workers"), "{out}");
        assert!(out.contains("predicted cost"), "{out}");
    }

    #[test]
    fn infeasible_plan_reports_why() {
        let out = run(&[
            "plan".into(),
            "--workload".into(),
            "cifar10".into(),
            "--deadline".into(),
            "2h".into(),
            "--loss".into(),
            "0.01".into(),
        ])
        .unwrap();
        assert!(out.contains("no feasible plan"), "{out}");
    }

    #[test]
    fn predict_and_catalog_commands_work() {
        let out = run(&[
            "predict".into(),
            "--workload".into(),
            "mnist".into(),
            "--workers".into(),
            "8".into(),
        ])
        .unwrap();
        assert!(out.contains("predicted training time"), "{out}");
        assert!(out.contains("PS bottleneck: yes"), "{out}");

        let cat = run(&["catalog".into(), "--gpu".into()]).unwrap();
        assert!(cat.contains("p3.2xlarge"));
    }

    #[test]
    fn advise_command_respects_the_budget() {
        let out = run(&[
            "advise".into(),
            "--workload".into(),
            "cifar10".into(),
            "--budget".into(),
            "2.5".into(),
            "--loss".into(),
            "0.7".into(),
        ])
        .unwrap();
        assert!(out.contains("fastest plan"), "{out}");
        let starve = run(&[
            "advise".into(),
            "--workload".into(),
            "cifar10".into(),
            "--budget".into(),
            "0.05".into(),
            "--loss".into(),
            "0.7".into(),
        ])
        .unwrap();
        assert!(starve.contains("no plan fits"), "{starve}");
    }

    #[test]
    fn trace_note_reports_dropped_spans() {
        let full = trace_note("t.json", 262_144, 17);
        assert!(full.contains("262144 spans (17 more dropped"), "{full}");
        let whole = trace_note("t.json", 61, 0);
        assert!(whole.contains("61 spans written to t.json"), "{whole}");
        assert!(!whole.contains("dropped"), "{whole}");
    }

    #[test]
    fn unknown_subcommand_errors() {
        assert!(run(&["frobnicate".into()]).is_err());
        assert!(run(&[]).is_err());
    }
}
