//! `movr-obs` — fleet trace analytics for MoVR JSONL timelines.
//!
//! ```text
//! movr-obs reduce [--threads N] [--out FILE] TIMELINE.jsonl...
//! movr-obs diff ROLLUP_A.json ROLLUP_B.json
//! movr-obs check --baseline bench-baseline.toml BENCH.json
//! ```
//!
//! * `reduce` folds one or more JSONL event streams into a single
//!   rollup document (sorted keys, one line) on stdout or `--out`.
//!   Streams are reduced independently — in parallel with `--threads`
//!   — and merged in argument order, so the output is byte-identical
//!   for every thread count.
//! * `diff` structurally compares two rollup documents, printing one
//!   line per diverging path. Exit status: 0 identical, 1 different.
//! * `check` runs the perf ratchet: every pin in the baseline against
//!   a bench JSON-lines file. Exit status: 0 all pins pass, 1 any
//!   regression.
//!
//! Errors (unreadable files, malformed lines) exit with status 2 and a
//! `stream:line: reason` message on stderr.

use movr_obs::{check, diff_json, parse_baseline, reduce_one_stream, Json, Rollup};
use std::io::{BufReader, Write as _};

const USAGE: &str = "usage:
  movr-obs reduce [--threads N] [--out FILE] TIMELINE.jsonl...
  movr-obs diff ROLLUP_A.json ROLLUP_B.json
  movr-obs check --baseline bench-baseline.toml BENCH.json";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => std::process::exit(code),
        Err(msg) => {
            eprintln!("movr-obs: {msg}");
            std::process::exit(2);
        }
    }
}

fn run(args: &[String]) -> Result<i32, String> {
    match args.first().map(String::as_str) {
        Some("reduce") => cmd_reduce(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("--help" | "-h") => {
            println!("{USAGE}");
            Ok(0)
        }
        Some(other) => Err(format!("unknown subcommand `{other}`\n{USAGE}")),
        None => Err(format!("missing subcommand\n{USAGE}")),
    }
}

/// Pulls `--flag VALUE` out of `args`, returning the remaining
/// positional arguments and the flag's value if present.
fn take_flag(args: &[String], flag: &str) -> Result<(Vec<String>, Option<String>), String> {
    let mut rest = Vec::new();
    let mut value = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == flag {
            match it.next() {
                Some(v) => value = Some(v.clone()),
                None => return Err(format!("`{flag}` needs a value")),
            }
        } else {
            rest.push(a.clone());
        }
    }
    Ok((rest, value))
}

#[expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "a command-line front end: it opens the timelines it is given \
              and writes the rollup to stdout"
)]
fn cmd_reduce(args: &[String]) -> Result<i32, String> {
    let (args, threads) = take_flag(args, "--threads")?;
    let (files, out_path) = take_flag(&args, "--out")?;
    let threads = match threads {
        None => 1,
        Some(t) => t
            .parse::<usize>()
            .map_err(|_| format!("`--threads` is not a number: `{t}`"))?
            .max(1),
    };
    if files.is_empty() {
        return Err(format!("`reduce` needs at least one timeline file\n{USAGE}"));
    }
    if let Some(bad) = files.iter().find(|f| f.starts_with('-')) {
        return Err(format!("unknown flag `{bad}`\n{USAGE}"));
    }

    // Per-stream fold, merge in argument order: the same shape at every
    // thread count, so the output bytes never depend on `--threads`.
    let parts = movr_sim::pool_map(files.iter().collect(), threads, |_, path: &&String| {
        let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
        reduce_one_stream(path, BufReader::new(file)).map_err(|e| e.to_string())
    });
    let mut rollup = Rollup::new();
    let mut events = 0u64;
    for (path, part) in files.iter().zip(parts) {
        let (part, n) = part?;
        rollup
            .merge(&part)
            .map_err(|e| format!("{path}: rollup merge failed: {e}"))?;
        events += n;
    }

    let mut json = rollup.to_json();
    json.push('\n');
    match out_path {
        None => {
            let mut stdout = std::io::stdout().lock();
            stdout
                .write_all(json.as_bytes())
                .and_then(|()| stdout.flush())
                .map_err(|e| format!("stdout: {e}"))?;
        }
        Some(path) => {
            std::fs::write(&path, &json).map_err(|e| format!("{path}: {e}"))?;
        }
    }
    eprintln!(
        "movr-obs: reduced {events} events from {} stream(s) into {} session(s)",
        files.len(),
        rollup.sessions().len(),
    );
    Ok(0)
}

fn read_text(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

/// Parses a rollup document; the result borrows from `text`.
fn parse_rollup<'t>(path: &str, text: &'t str) -> Result<Json<'t>, String> {
    Json::parse(text.trim_end()).map_err(|e| format!("{path}: {e}"))
}

fn cmd_diff(args: &[String]) -> Result<i32, String> {
    let [a_path, b_path] = args else {
        return Err(format!("`diff` takes exactly two rollup files\n{USAGE}"));
    };
    // The documents borrow from the texts, which live until the diff is
    // printed. Each file is read and parsed before the next is opened,
    // so the first bad file is the one reported.
    let a_text = read_text(a_path)?;
    let a = parse_rollup(a_path, &a_text)?;
    let b_text = read_text(b_path)?;
    let b = parse_rollup(b_path, &b_text)?;
    let entries = diff_json(&a, &b);
    if entries.is_empty() {
        println!("identical");
        return Ok(0);
    }
    for e in &entries {
        println!("{e}");
    }
    println!("{} difference(s)", entries.len());
    Ok(1)
}

fn cmd_check(args: &[String]) -> Result<i32, String> {
    let (files, baseline_path) = take_flag(args, "--baseline")?;
    let baseline_path = baseline_path.ok_or(format!("`check` needs `--baseline`\n{USAGE}"))?;
    let [bench_path] = files.as_slice() else {
        return Err(format!("`check` takes exactly one bench JSON file\n{USAGE}"));
    };
    let baseline_text = read_text(&baseline_path)?;
    let baseline =
        parse_baseline(&baseline_text).map_err(|e| format!("{baseline_path}: {e}"))?;
    let bench_text = read_text(bench_path)?;
    let outcomes = check(&baseline, &bench_text).map_err(|e| format!("{bench_path}: {e}"))?;

    let mut failures = 0u32;
    for o in &outcomes {
        println!("{:4} {}: {}", o.status, o.name, o.detail);
        if !o.passed() {
            failures += 1;
        }
    }
    if failures > 0 {
        println!("{failures} of {} pin(s) FAILED", outcomes.len());
        return Ok(1);
    }
    println!("all {} pin(s) pass", outcomes.len());
    Ok(0)
}
