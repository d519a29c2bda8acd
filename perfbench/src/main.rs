//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` runs the workload through `harness::run_sharded` for about
//! `S` seconds and prints the end-to-end metrics; `--trace 1` runs the
//! traced assembly (every actor in a timing shim) and prints the per-layer
//! metrics. Every run's output is checked. Human-readable lines come
//! first; the last line is one JSON object. `perfbench/README.md` has the
//! workloads, the metrics and how they interact.

mod assemble;
mod checks;
mod layers;
mod measure;
mod report;
mod spans;
#[cfg(test)]
mod tests;
mod workloads;

use std::process::ExitCode;

use layers::CountingAlloc;
use report::Summary;
use workloads::Workload;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

struct Args {
    workloads: Vec<Workload>,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <crash_openloop|crash_paced_failover|byz_pipelined|all> \
     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: None,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                let w =
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?;
                args.workloads = vec![w];
            }
            "--seed" => args.seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| "bad --seconds")?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let prefixed = args.workloads.len() > 1;
    let seconds = args.seconds / args.workloads.len() as f64;
    let mut summary = Summary::default();
    for &w in &args.workloads {
        let seed = args.seed.unwrap_or(w.default_seed());
        println!(
            "# {} seed {seed} ({})",
            w.name(),
            if args.trace { "traced" } else { "untraced" }
        );
        let sc = w.scenario(seed);
        let result = if args.trace {
            measure::traced(&sc, seconds)
        } else {
            measure::untraced(&sc, seconds)
        };
        for failure in &result.failures {
            println!("CHECK FAILED {}: {failure}", w.name());
        }
        for m in &result.metrics {
            println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
        }
        summary.absorb(prefixed.then(|| w.name()), result);
    }
    println!("{}", summary.to_json());
    ExitCode::SUCCESS
}
