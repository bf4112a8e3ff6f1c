//! The repository benchmark.
//!
//! ```text
//! kcore-benchmark --workload <paper-stream|ingest-churn|ingest-window>
//!                 --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, runs whole rounds of
//! it for the given time, checks every output against an independent
//! peel, and prints one JSON object as its last line: the end-to-end
//! metrics with `--trace 0`, the per-layer ledger with `--trace 1`.
//! The traced run also writes its spans to
//! `.bench_trace/<workload>-seed<seed>.jsonl`. See `README.md`.

mod affinity;
mod check;
mod inputs;
mod ledger;
mod service;
mod trace;
mod util;
mod workloads;

use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kcore-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    const WORKLOADS: [&str; 3] = ["paper-stream", "ingest-churn", "ingest-window"];
    let Some(index) = WORKLOADS.iter().position(|w| *w == args.workload) else {
        eprintln!("kcore-benchmark: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    // One trace id per run: the seed mixed with the workload.
    let mut tr = trace::Tracer::new(args.trace, util::subseed(args.seed, index as u64));
    let outcome = match args.workload.as_str() {
        "paper-stream" => {
            let (inp, stream) = inputs::paper_stream(args.seed);
            print_lines(&inp.makeup);
            workloads::paper(&inp, &stream, args.seconds, &mut tr)
        }
        "ingest-churn" => {
            let inp = inputs::ingest_churn(args.seed);
            print_lines(&inp.makeup);
            workloads::ingest(&inp, true, args.seconds, &mut tr)
        }
        "ingest-window" => {
            let inp = inputs::ingest_window(args.seed);
            print_lines(&inp.makeup);
            workloads::ingest(&inp, false, args.seconds, &mut tr)
        }
        _ => unreachable!("workload names are checked above"),
    };
    print_lines(&outcome.notes);
    if args.trace {
        let path = std::path::PathBuf::from(".bench_trace")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match tr.write_jsonl(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("kcore-benchmark: cannot write spans: {e}"),
        }
        println!("span self time (name: spans, calls, total s, self s):");
        for (name, (spans, calls, total, own)) in tr.summary() {
            println!(
                "  {name}: {spans}, {calls}, {:.6}, {:.6}",
                total as f64 / 1e9,
                own as f64 / 1e9
            );
        }
    }
    for (name, value, unit) in &outcome.metrics {
        println!("metric {name} = {value} {unit}");
    }
    println!(
        "operations: {} attempted, {} failed",
        outcome.attempted, outcome.failed
    );
    for m in &outcome.mismatches {
        println!("MISMATCH: {m}");
    }
    let correct = outcome.mismatches.is_empty();
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_lines(lines: &[String]) {
    for l in lines {
        println!("{l}");
    }
}
