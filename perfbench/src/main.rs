//! perfbench: one command that generates seeded inputs, runs a workload
//! through the public API of the frontier-xpath crates, checks the
//! outputs, and prints every metric by name with its unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <feeds|bank-1024|dissemination|hostile> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics untraced; `--trace 1` is
//! the separate traced run that gives the per-layer metrics. The last
//! line of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. A failed correctness check exits
//! with code 1, bad arguments with code 2.

mod check;
mod dissem;
mod inputs;
mod layers;
mod pipeline;
mod stats;
mod trace;

use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !inputs::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            inputs::WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                inputs::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let inputs = inputs::generate(&args.workload, args.seed).expect("workload validated");
    println!(
        "perfbench workload={} seed={} seconds={} trace={} available_parallelism={nproc}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("{}", inputs.describe());

    let mut rep = if args.trace {
        let (rep, tracer) = layers::run(&inputs, args.seed, args.seconds);
        let path = std::path::PathBuf::from(format!(
            "perfbench/out/trace-{}-seed{}.tsv",
            args.workload, args.seed
        ));
        match tracer.write_tsv(&path) {
            Ok(()) => println!(
                "trace: {} spans written to {}",
                tracer.len(),
                path.display()
            ),
            Err(e) => println!("trace: {} spans not written ({e})", tracer.len()),
        }
        rep
    } else if inputs.dissem.is_some() {
        dissem::run(&inputs, args.seconds)
    } else {
        pipeline::run(&inputs, args.seconds)
    };
    rep.validate();

    for note in &rep.notes {
        println!("{note}");
    }
    for m in &rep.metrics {
        println!(
            "{:<28} {:>16.4} {:<8} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    if !args.trace {
        // A traced-run row; printed here too so every run shows it.
        println!(
            "{:<28} {:>16.6} {:<8} (failed {} of {} attempted)",
            "fail_ratio",
            rep.failed as f64 / rep.attempted.max(1) as f64,
            "ratio",
            rep.failed,
            rep.attempted
        );
    }
    println!("{}", rep.to_json());
    if rep.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
