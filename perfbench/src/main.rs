//! Command line of the benchmark.
//!
//! ```text
//! perfbench --workload <name|all|a,b,..> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a table per workload, then one JSON line per workload; the last
//! line of standard output is the last workload's JSON object.

use std::process::ExitCode;

use sbx_perfbench::clock::reset_peak_rss;
use sbx_perfbench::measure::{bench, Outcome};
use sbx_perfbench::workload::{Scale, Workload};

const USAGE: &str = "usage: perfbench --workload <ysb_sort|ysb_hash|sum_ckpt|join|all|a,b,..> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workloads, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let list = if val == "all" {
                    Workload::ALL.to_vec()
                } else {
                    val.split(',')
                        .map(|n| Workload::parse(n).ok_or(format!("unknown workload {n}")))
                        .collect::<Result<Vec<_>, _>>()?
                };
                workloads = Some(list);
            }
            "--seed" => seed = val.parse().map_err(|_| format!("bad seed {val}"))?,
            "--seconds" => {
                seconds = val.parse().map_err(|_| format!("bad seconds {val}"))?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err(format!("bad seconds {val}"));
                }
            }
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {val}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    for (i, &w) in args.workloads.iter().enumerate() {
        if i > 0 {
            reset_peak_rss();
        }
        let out = bench(w, Scale::FULL, args.seed, args.seconds, args.trace);
        let mode = if args.trace { "traced" } else { "untraced" };
        println!("== {} (seed {}, {mode})", w.name(), args.seed);
        for (name, value, unit) in &out.metrics {
            println!("  {name:<36} {value:>20} {unit}");
        }
        for note in &out.notes {
            println!("  # {note}");
        }
        for f in &out.failures {
            println!("  ! {f}");
        }
        println!(
            "  failed_frac {:.4} ({} of {} runs)",
            out.failed as f64 / out.attempted.max(1) as f64,
            out.failed,
            out.attempted
        );
        println!("{}", json(&out));
    }
    ExitCode::SUCCESS
}
