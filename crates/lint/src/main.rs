//! The `movr-lint` CLI.
//!
//! ```text
//! movr-lint [--root DIR] [--explain RULE]
//! ```
//!
//! Exit codes: 0 = clean, 1 = at least one diagnostic, 2 = usage or
//! I/O error.

use movr_lint::{analyze, rule_doc, RULES};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => return usage("--root needs a directory"),
            },
            "--explain" => match args.next() {
                Some(rule) => {
                    return match rule_doc(&rule) {
                        Some(doc) => {
                            println!("{rule}\n\n{doc}");
                            ExitCode::SUCCESS
                        }
                        None => {
                            eprintln!("movr-lint: unknown rule `{rule}`; known rules:");
                            for (id, _) in RULES {
                                eprintln!("  {id}");
                            }
                            ExitCode::from(2)
                        }
                    };
                }
                None => return usage("--explain needs a rule id"),
            },
            "--help" | "-h" => {
                println!(
                    "movr-lint: determinism & unit-safety analyzer for the MoVR workspace\n\n\
                     USAGE: movr-lint [--root DIR] [--explain RULE]\n\n\
                     --root DIR         workspace root (default: current directory)\n\
                     --explain RULE     print the doc string for a rule id and exit"
                );
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    if !root.join("Cargo.toml").exists() {
        return usage(&format!(
            "{} does not look like a workspace root (no Cargo.toml)",
            root.display()
        ));
    }
    let report = match analyze(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("movr-lint: analysis failed: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", report.render_human());
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("movr-lint: {msg} (try --help)");
    ExitCode::from(2)
}
