//! The repository benchmark: `ftrace analyze` on `.ftb` and `ftrace serve`
//! sessions, driven through the library's public entry points on generated
//! inputs.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See `README.md`
//! next to this package for the workloads and metric definitions.

mod inputs;
mod phases;
mod report;
#[cfg(test)]
mod selftest;
mod spans;
mod stats;

use std::time::Duration;

use inputs::{Size, Workload};

const USAGE: &str =
    "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <file>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut spans = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds out of range: {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            "--spans" => spans = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        spans,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let out = report::run(
        args.workload,
        args.seed,
        Duration::from_secs_f64(args.seconds),
        args.trace,
        Size::Full,
    );
    for note in &out.notes {
        println!("{note}");
    }
    if let (Some(path), Some(spans)) = (&args.spans, &out.spans) {
        let written = std::fs::File::create(path)
            .map(std::io::BufWriter::new)
            .and_then(|mut f| spans.write_jsonl(&mut f));
        match written {
            Ok(()) => println!("spans: {} written to {path}", spans.list().len()),
            Err(e) => {
                eprintln!("perfbench: writing spans to {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    println!("{}", out.to_json());
}
