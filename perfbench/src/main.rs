//! `bmf-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for `--seconds` and prints readable notes followed by
//! one JSON result line: end-to-end metrics with `--trace 0`, per-layer
//! metrics (and a Perfetto trace under `out/`) with `--trace 1`.

use bmf_perfbench::harness;
use bmf_perfbench::workloads::NAMES;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag} has unusable value '{value}'");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (expected one of {})",
            NAMES.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: bmf-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    // T = min(2, cores): the same worker count on every machine with two
    // or more cores.
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    let result = if args.trace {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-{}.json", args.workload, args.seed));
        harness::run_traced(&args.workload, args.seed, args.seconds, threads, &path)
    } else {
        harness::run_untraced(&args.workload, args.seed, args.seconds, threads)
    };
    match result {
        Ok(report) => {
            for note in &report.notes {
                println!("# {note}");
            }
            for m in &report.metrics {
                println!("# {} = {} {}", m.name, m.value, m.unit);
            }
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}
