//! The `movr-lint` CLI.
//!
//! ```text
//! movr-lint [--root DIR] [--json] [--sarif PATH] [--check-sarif PATH]
//!           [--write-baseline] [--no-baseline] [--explain RULE]
//! ```
//!
//! Exit codes: 0 = clean (exactly at the pinned baseline), 1 = new
//! violations or stale baseline entries, 2 = usage or I/O error (or a
//! SARIF document failing validation under `--check-sarif`).

use movr_lint::{
    analyze, apply_baseline, check_workspace, rule_doc, sarif, Baseline, BASELINE_FILE, RULES,
};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut json = false;
    let mut write_baseline = false;
    let mut no_baseline = false;
    let mut sarif_out: Option<PathBuf> = None;
    let mut check_sarif: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => return usage("--root needs a directory"),
            },
            "--json" => json = true,
            "--sarif" => match args.next() {
                Some(path) => sarif_out = Some(PathBuf::from(path)),
                None => return usage("--sarif needs an output path"),
            },
            "--check-sarif" => match args.next() {
                Some(path) => check_sarif = Some(PathBuf::from(path)),
                None => return usage("--check-sarif needs a file path"),
            },
            "--write-baseline" => write_baseline = true,
            "--no-baseline" => no_baseline = true,
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
                     USAGE: movr-lint [--root DIR] [--json] [--sarif PATH] [--check-sarif PATH]\n\
                            [--write-baseline] [--no-baseline] [--explain RULE]\n\n\
                     --root DIR         workspace root (default: current directory)\n\
                     --json             machine-readable report on stdout\n\
                     --sarif PATH       also write the report as SARIF 2.1.0 (self-validated)\n\
                     --check-sarif PATH validate an existing SARIF file and exit (0 ok, 2 invalid)\n\
                     --write-baseline   regenerate {BASELINE_FILE} from current findings\n\
                     --no-baseline      report every diagnostic, ignoring the baseline\n\
                     --explain RULE     print the doc string for a rule id and exit"
                );
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    // Validation mode needs no workspace at all.
    if let Some(path) = check_sarif {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => return fail(&format!("reading {}: {e}", path.display())),
        };
        return match sarif::validate(&text) {
            Ok(()) => {
                println!("movr-lint: {} is structurally valid SARIF 2.1.0", path.display());
                ExitCode::SUCCESS
            }
            Err(errs) => {
                for e in &errs {
                    eprintln!("movr-lint: {}: {e}", path.display());
                }
                ExitCode::from(2)
            }
        };
    }

    if !root.join("Cargo.toml").exists() {
        return usage(&format!(
            "{} does not look like a workspace root (no Cargo.toml)",
            root.display()
        ));
    }

    if write_baseline {
        let report = match analyze(&root) {
            Ok(r) => r,
            Err(e) => return fail(&format!("analysis failed: {e}")),
        };
        let text = Baseline::render(&report.counts());
        let path = root.join(BASELINE_FILE);
        if let Err(e) = std::fs::write(&path, text) {
            return fail(&format!("writing {}: {e}", path.display()));
        }
        println!(
            "movr-lint: pinned {} diagnostic(s) across {} file(s) into {}",
            report.diagnostics.len(),
            report.files_scanned,
            path.display()
        );
        return ExitCode::SUCCESS;
    }

    let report = if no_baseline {
        analyze(&root).map(|r| apply_baseline(r, &Baseline::empty()))
    } else {
        check_workspace(&root)
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => return fail(&format!("analysis failed: {e}")),
    };
    if let Some(path) = sarif_out {
        let text = sarif::render(&report);
        if let Err(errs) = sarif::validate(&text) {
            // Self-check: a renderer bug must fail loudly, not emit a
            // log the CI annotator silently drops.
            for e in &errs {
                eprintln!("movr-lint: generated SARIF invalid: {e}");
            }
            return ExitCode::from(2);
        }
        if let Err(e) = std::fs::write(&path, &text) {
            return fail(&format!("writing {}: {e}", path.display()));
        }
    }
    if json {
        println!("{}", report.render_json());
    } else {
        print!("{}", report.render_human());
    }
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

fn fail(msg: &str) -> ExitCode {
    eprintln!("movr-lint: {msg}");
    ExitCode::from(2)
}
