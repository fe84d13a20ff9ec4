//! The repo's benchmark. One invocation runs one workload once:
//!
//! ```text
//! abd-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! runs the per-layer probes and a traced window of the same workload. The
//! metrics are printed as `name unit value [samples]` lines and, as the last
//! line of stdout, as one JSON object. See `README.md` beside `Cargo.toml`.

mod check;
mod fifo;
mod kv;
mod ops;
mod probes;
mod simcamp;
mod stats;
mod traced;

use stats::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

const KV_SHAPES: [kv::Shape; 3] = [kv::READ_HEAVY, kv::WRITE_CONTENDED, kv::CRASH_RECOVER];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Where the trace files go.
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20,
        trace: false,
        out_dir: ["benchmark", "out"].iter().collect(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => args.out_dir = value()?.into(),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let known = KV_SHAPES.iter().map(|s| s.name).chain([simcamp::NAME]);
    if !known.clone().any(|name| name == args.workload) {
        return Err(format!(
            "--workload must be one of {:?}, not {:?}",
            known.collect::<Vec<_>>(),
            args.workload
        ));
    }
    if !(1..=60).contains(&args.seconds) {
        return Err("--seconds must be between 1 and 60".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("abd-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = Report::default();
    // Not a kv shape means `sim-campaign`: `parse_args` admits nothing else.
    let shape = KV_SHAPES.into_iter().find(|s| s.name == args.workload);
    if args.trace {
        // The probes take a few seconds whatever `--seconds` says; the two
        // windows of the traced run share a quarter of it each.
        let window = Duration::from_millis(args.seconds * 250);
        let trace_file = args.out_dir.join(format!("trace-{}.jsonl", args.workload));
        probes::report(args.seed, &mut out);
        match shape {
            Some(shape) => kv::run_traced(&shape, args.seed, window, &trace_file, &mut out),
            None => simcamp::run_traced(args.seed, &trace_file, &mut out),
        }
    } else {
        let window = Duration::from_secs(args.seconds);
        match shape {
            Some(shape) => kv::run(&shape, args.seed, window, &mut out),
            None => simcamp::run(args.seed, window, &mut out),
        }
    }
    if out.failed > 0 {
        out.problem(format!(
            "{} of {} operations failed",
            out.failed, out.attempted
        ));
    }
    print!("{}", out.human());
    println!("{}", out.json());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
