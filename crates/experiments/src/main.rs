//! `cynthia-exp` — regenerate any table or figure of the Cynthia paper.
//!
//! ```text
//! cynthia-exp <experiment|all> [--quick] [--json]
//! ```
//!
//! Experiments, in the order `all` runs them: table1, fig1, table2, fig2,
//! fig3, fig4, table4, fig6, fig7, fig8, fig9, fig10, fig11, fig12, fig13,
//! overhead, ablations, gpu, fleet, sensitivity, ssp. `all --json` prints
//! one JSON object keyed by experiment name.

use cynthia_experiments::*;
use serde_json::Value;

/// An experiment's result, rendered as text and lowered to JSON.
struct Output {
    text: String,
    json: Value,
}

/// Runs one experiment on a configuration.
type Run = fn(&ExpConfig) -> Output;

/// `(name, run)` pairs, each `run` rendering and lowering its result.
macro_rules! experiments {
    ($($name:literal => $run:expr),* $(,)?) => {
        [$(($name, |cfg| {
            let result = $run(cfg);
            Output {
                text: result.render(),
                json: serde_json::to_value(&result).expect("experiment results serialize"),
            }
        })),*]
    };
}

/// Every experiment by name, in the order `all` runs them.
const EXPERIMENTS: [(&str, Run); 21] = experiments! {
    "table1" => |_| table1::run(),
    "fig1" => fig1::run,
    "table2" => table2::run,
    "fig2" => fig2::run,
    "fig3" => fig3::run,
    "fig4" => fig4::run,
    "table4" => table4::run,
    "fig6" => fig6::run,
    "fig7" => fig7::run,
    "fig8" => fig8::run,
    "fig9" => fig9::run,
    "fig10" => fig10::run,
    "fig11" => fig11::run,
    "fig12" => fig12::run,
    "fig13" => fig13::run,
    "overhead" => overhead::run,
    "ablations" => ablations::run,
    "gpu" => extension_gpu::run,
    "fleet" => fleet::run,
    "sensitivity" => sensitivity::run,
    "ssp" => ssp::run,
};

fn usage() -> ! {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    eprintln!(
        "usage: cynthia-exp <experiment|all> [--quick] [--json]\nexperiments: {}",
        names.join(" ")
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(name) = args.first() else { usage() };
    let json = args.iter().any(|a| a == "--json");
    let cfg = if args.iter().any(|a| a == "--quick") {
        ExpConfig::quick()
    } else {
        ExpConfig::default()
    };

    if name == "all" {
        let mut results = Vec::new();
        for (exp, run) in EXPERIMENTS {
            eprintln!("== running {exp} ==");
            let out = run(&cfg);
            if json {
                results.push((exp.to_string(), out.json));
            } else {
                println!("{}", out.text);
            }
        }
        if json {
            println!("{}", pretty(&Value::Object(results)));
        }
        return;
    }

    let Some((_, run)) = EXPERIMENTS.iter().find(|(exp, _)| exp == name) else {
        usage()
    };
    let out = run(&cfg);
    if json {
        println!("{}", pretty(&out.json));
    } else {
        println!("{}", out.text);
    }
}

fn pretty(value: &Value) -> String {
    serde_json::to_string_pretty(value).expect("JSON values serialize")
}
