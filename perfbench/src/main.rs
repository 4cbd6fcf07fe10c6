//! Command line of the benchmark.
//!
//! ```text
//! perfbench --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints a diagnostics line per workload, then, as the last line of
//! standard output, one JSON result object.

use perfbench::{harness, run, sys, Mode, Size, DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS};
use pm_serve::Json;

const USAGE: &str = "usage: perfbench --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    mode: Mode,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        mode: Mode::Untraced,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if args.seconds.is_nan() || args.seconds < 0.0 {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.mode = match value.as_str() {
                    "0" => Mode::Untraced,
                    "1" => Mode::Traced,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\n{USAGE}\ndefault seed {DEFAULT_SEED}; seed {HELD_OUT_SEED} is held out \
                 for confirming claims"
            );
            std::process::exit(2);
        }
    };
    let forbidden = sys::forbidden_env(std::env::vars().map(|(k, _)| k));
    if !forbidden.is_empty() {
        eprintln!(
            "perfbench: unset {} first: the program reads these into process-wide settings, \
             which would change what is measured",
            forbidden.join(", ")
        );
        std::process::exit(2);
    }
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut outcomes = Vec::new();
    for name in names {
        let outcome = run(name, args.seed, args.seconds, args.mode, Size::Full)
            .expect("workload names are validated");
        println!("{}", outcome.diagnostics_json().emit());
        outcomes.push(outcome);
    }
    if args.mode == Mode::Traced {
        eprintln!(
            "perfbench: spans written under {}",
            harness::results_dir().display()
        );
    }
    match outcomes.as_slice() {
        [one] => println!("{}", one.result_json().emit()),
        all => {
            // `all`: every workload's result, then one line merging them
            // with metrics keyed `<workload>/<metric>`.
            for o in all {
                println!("{}", o.result_json().emit());
            }
            let metrics = all
                .iter()
                .flat_map(|o| {
                    o.metrics.iter().map(move |(n, v, u)| {
                        (format!("{}/{n}", o.workload), harness::metric(*v, u))
                    })
                })
                .collect();
            let merged = Json::obj(vec![
                ("correct", Json::Bool(all.iter().all(|o| o.correct))),
                (
                    "attempted",
                    Json::num(all.iter().map(|o| o.attempted).sum::<u64>() as f64),
                ),
                (
                    "failed",
                    Json::num(all.iter().map(|o| o.failed).sum::<u64>() as f64),
                ),
                ("metrics", Json::Obj(metrics)),
            ]);
            println!("{}", merged.emit());
        }
    }
}
