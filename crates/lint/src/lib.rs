//! movr-lint: the in-tree analyzer for the workspace conventions that
//! rustc and clippy cannot see.
//!
//! The reproduction rests on two invariants: every run is
//! bit-deterministic under `SimRng` + `SimTime`, and all link-budget
//! arithmetic goes through the audited `movr_math::db` helpers (a
//! 10-vs-20-log10 slip silently skews every figure). The compiler and
//! clippy enforce what a type or a token can show: the `Send + Sync`
//! bounds on parallel closures, `clippy.toml`'s bans (wall clocks,
//! hash-ordered containers, blocking I/O), console prints in library
//! crates, `as` casts, exact float comparisons, bare unwraps and allows
//! without a reason. The root `tests/layering.rs` keeps every crate's
//! dependencies pointing down its layer table, and `tests/checkpoint.rs`
//! feeds the snapshot decoder edited snapshots, which must fail with an
//! error or restore a session that steps, never panic. This crate checks
//! what only the workspace's naming conventions reveal: unit flow across
//! `_db`/`_dbm`/`_linear` bindings, RNG stream identity, hand-written dB
//! conversions, and the `_recorded` twins. It runs over a hand-rolled
//! Rust lexer and item parser, with no exemption file: the workspace is
//! either clean or it is not.
//!
//! Two front doors:
//! * the `movr-lint` binary (`verify.sh` runs it),
//! * [`analyze`], called from the root package's `tests/lint_gate.rs`
//!   so tier-1 `cargo test` runs the gate.

mod lexer;
mod parser;
mod rng_flow;
mod rules;
mod source;
mod units;

pub use rules::{rule_doc, Diagnostic, RULES};

use source::SourceFile;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The outcome of a full workspace run.
#[derive(Debug, Default)]
pub struct Report {
    /// Every diagnostic found, sorted by location.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// True when the scan found nothing.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Human-readable rendering: each diagnostic with its hint, then a
    /// one-line summary.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            let _ = writeln!(out, "{}:{}: [{}] {}", d.file, d.line, d.rule, d.snippet);
            let _ = writeln!(out, "    hint: {}", d.hint);
        }
        let _ = writeln!(
            out,
            "movr-lint: {} file(s), {} diagnostic(s)",
            self.files_scanned,
            self.diagnostics.len()
        );
        out
    }
}

/// Collects the workspace-relative paths of every `.rs` file under
/// `root`, skipping `target/`, `.git/`, hidden directories, and any
/// directory named `fixtures` (lint self-test corpora carry seeded
/// violations by design).
pub fn collect_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name == "fixtures" || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Runs every rule over the workspace at `root`, whose files load in
/// sorted path order. This is the gate: the `movr-lint` binary and the
/// root package's `tests/lint_gate.rs` both fail on any diagnostic it
/// returns.
pub fn analyze(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    for path in collect_files(root)? {
        let rel = path.strip_prefix(root).unwrap_or(&path).components();
        let rel: Vec<_> = rel.map(|c| c.as_os_str().to_string_lossy()).collect();
        files.push(SourceFile::parse(&rel.join("/"), &fs::read_to_string(&path)?));
    }
    let diagnostics = rules::run_all(&files);
    Ok(Report {
        diagnostics,
        files_scanned: files.len(),
    })
}

/// Lexes every workspace file under `root` without parsing or running
/// any analysis; returns the total token count. This is the bench
/// harness's lexer-only datum (lexer cost vs full semantic `analyze`).
pub fn lex_workspace(root: &Path) -> io::Result<usize> {
    let mut tokens = 0usize;
    for path in collect_files(root)? {
        let src = fs::read_to_string(&path)?;
        tokens += lexer::lex(&src).len();
    }
    Ok(tokens)
}
