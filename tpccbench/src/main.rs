//! `tpccbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload in this process, pinned to one core where the
//! workload asks for it, and prints a text report, then, as the last
//! line of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Exits 1 when a correctness check fails and 2
//! on a bad argument.

use std::process::ExitCode;

use tpccbench::{pin_to_one_core, run, Workload};

const USAGE: &str = "usage: tpccbench --workload <disk-serial|log-contended|cluster-2pc> \
                     --seed <u64> --seconds <positive number> --trace <0|1>";

struct Args {
    workload: Workload,
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
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    // before the system is set up: the group-commit flusher starts there
    let pinned = args
        .workload
        .spec()
        .one_core
        .then(pin_to_one_core)
        .flatten();
    let core = pinned.map_or("unpinned".into(), |c| format!("pinned to core {c}"));
    println!(
        "workload {} seed {} seconds {} trace {} ({threads} cores available, {core})",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let report = run(args.workload, args.seed, args.seconds, args.trace);
    for m in &report.metrics {
        println!("{:<34} {:>16.4} {:<6} {}", m.name, m.value, m.unit, m.note);
    }
    for f in &report.failures {
        println!("FAILED: {f}");
    }
    println!("{}", report.to_json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
