//! `perfbench`: runs one workload of the MoVR benchmark, prints a
//! human-readable report and ends with one JSON result line.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload align --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--workload all` runs `align`, `session` and `fleet` one after the
//! other, each in a process of its own, and repeats their reports.

use movr_perfbench::{report_lines, result_json, run, Options, Workload};
use std::path::Path;
use std::process::{Command, ExitCode};

const USAGE: &str =
    "usage: perfbench --workload <align|session|fleet|all> [--seed <n>] [--seconds <n>] [--trace <0|1>]";

/// Longest run a caller may ask for, seconds.
const MAX_SECONDS: f64 = 120.0;

struct Args {
    workload: Option<Workload>,
    opts: Options,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut all = false;
    let mut opts = Options::new(1, 20.0);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => all = true,
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => opts.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(0.0..=MAX_SECONDS).contains(&opts.seconds) {
                    return Err(format!("seconds must lie in 0..={MAX_SECONDS}"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if workload.is_none() && !all {
        return Err("--workload is required".to_string());
    }
    Ok(Args { workload, opts })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = parsed.workload else {
        return run_all(&args);
    };
    let mut opts = parsed.opts;
    if opts.trace {
        let name = format!("{}-seed{}.spans.jsonl", workload.name(), opts.seed);
        opts.spans_out = Some(Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join(name));
    }
    let out = run(workload, &opts);
    for line in report_lines(workload, &opts, &out) {
        println!("{line}");
    }
    println!("{}", result_json(&out));
    ExitCode::SUCCESS
}

/// Runs every workload in a child process of its own (peak memory is a
/// per-process figure) and prints each report, then a summary.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut forwarded: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().cloned().unwrap_or_default();
        if flag != "--workload" {
            forwarded.extend([flag.clone(), value]);
        }
    }
    let mut summary = Vec::new();
    let mut ok = true;
    for w in Workload::ALL {
        let child = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(&forwarded)
            .output();
        let output = match child {
            Ok(o) if o.status.success() => o,
            Ok(o) => {
                eprintln!("perfbench: {} exited with {}", w.name(), o.status);
                ok = false;
                continue;
            }
            Err(e) => {
                eprintln!("perfbench: cannot run {}: {e}", w.name());
                ok = false;
                continue;
            }
        };
        let text = String::from_utf8_lossy(&output.stdout);
        print!("{text}");
        let last = text.lines().last().unwrap_or_default().to_string();
        let doc = movr_obs::Json::parse(&last).ok();
        let get = |k: &str| doc.as_ref().and_then(|d| d.get(k));
        let count = |k: &str| {
            get(k)
                .and_then(movr_obs::Json::as_u64)
                .map_or("?".to_string(), |n| n.to_string())
        };
        let correct = get("correct").and_then(movr_obs::Json::as_bool);
        ok &= correct == Some(true);
        summary.push(format!(
            "  {:<8} correct={} attempted={} failed={}",
            w.name(),
            correct.map_or("?".to_string(), |c| c.to_string()),
            count("attempted"),
            count("failed"),
        ));
    }
    println!("summary");
    for line in summary {
        println!("{line}");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
