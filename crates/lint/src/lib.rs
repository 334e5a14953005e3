//! movr-lint: in-tree determinism & unit-safety static analyzer.
//!
//! The whole reproduction rests on two machine-checkable invariants:
//! every run is bit-deterministic under `SimRng` + `SimTime`, and all
//! link-budget arithmetic goes through the audited `movr_math::db`
//! helpers (a 10-vs-20-log10 slip silently skews every figure). This
//! crate enforces those invariants — plus general hygiene (unwraps,
//! lossy casts, unjustified allows) — as structured diagnostics over a
//! hand-rolled Rust lexer, with a committed ratcheting baseline so
//! pre-existing violations can only shrink.
//!
//! Three front doors:
//! * the `movr-lint` binary (human and `--json` output, `--write-baseline`),
//! * `check_workspace` called from the root package's `tests/lint_gate.rs`
//!   so `cargo test` runs the gate,
//! * a `verify.sh` stage that fails CI on any non-baseline diagnostic.

mod baseline;
mod callgraph;
mod effects;
mod layers;
mod lexer;
mod order_io;
mod par_capture;
mod parser;
mod rng_flow;
mod rules;
pub mod sarif;
mod source;
mod units;

pub use baseline::Baseline;
pub use layers::{LayerSpec, LAYERS_FILE};
pub use rules::{rule_doc, Diagnostic, RULES};
pub use source::SourceFile;
pub use units::UnitClass;

use movr_math::json::write_str;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Name of the committed baseline file at the workspace root.
pub const BASELINE_FILE: &str = "lint-baseline.toml";

/// A baseline entry that no longer matches reality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaleEntry {
    /// Workspace-relative file path of the pinned entry.
    pub file: String,
    /// Rule id of the pinned entry.
    pub rule: String,
    /// The count the baseline pins.
    pub pinned: usize,
    /// The count actually found (strictly less than `pinned`).
    pub actual: usize,
}

/// The outcome of a full workspace run, after the ratchet is applied.
#[derive(Debug, Default)]
pub struct Report {
    /// Every diagnostic found, baselined or not, sorted by location.
    pub diagnostics: Vec<Diagnostic>,
    /// Diagnostics in `(file, rule)` groups that exceed their pinned
    /// count — these fail the gate.
    pub new: Vec<Diagnostic>,
    /// Baseline entries whose pinned count exceeds reality — these also
    /// fail the gate (shrink the baseline; the ratchet only tightens).
    pub stale: Vec<StaleEntry>,
    /// Number of diagnostics absorbed by the baseline.
    pub baselined: usize,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// True when the workspace is exactly at its pinned state: no new
    /// violations and no stale entries.
    pub fn is_clean(&self) -> bool {
        self.new.is_empty() && self.stale.is_empty()
    }

    /// Actual violation counts grouped by `(file, rule)`, for
    /// `--write-baseline`.
    pub fn counts(&self) -> BTreeMap<(String, String), usize> {
        let mut counts = BTreeMap::new();
        for d in &self.diagnostics {
            *counts
                .entry((d.file.clone(), d.rule.to_string()))
                .or_insert(0) += 1;
        }
        counts
    }

    /// Human-readable rendering: new diagnostics, stale entries, then a
    /// one-line summary.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.new {
            let _ = writeln!(out, "{}:{}: [{}] {}", d.file, d.line, d.rule, d.snippet);
            let _ = writeln!(out, "    hint: {}", d.hint);
        }
        for s in &self.stale {
            let _ = writeln!(
                out,
                "{}: [{}] stale baseline: pins {} but only {} found — run `cargo run -p movr-lint -- --write-baseline` to tighten the ratchet",
                s.file, s.rule, s.pinned, s.actual
            );
        }
        let _ = writeln!(
            out,
            "movr-lint: {} file(s), {} diagnostic(s) ({} baselined, {} new), {} stale baseline entr(ies)",
            self.files_scanned,
            self.diagnostics.len(),
            self.baselined,
            self.new.len(),
            self.stale.len()
        );
        out
    }

    /// Machine-readable rendering: one JSON object (hand-rolled, strings
    /// through [`movr_math::json::write_str`]) with `new`, `stale`, and
    /// summary fields.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"new\": [");
        for (i, d) in self.new.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"rule\": ");
            write_str(&mut out, d.rule);
            out.push_str(", \"file\": ");
            write_str(&mut out, &d.file);
            let _ = write!(out, ", \"line\": {}, \"snippet\": ", d.line);
            write_str(&mut out, &d.snippet);
            out.push_str(", \"hint\": ");
            write_str(&mut out, &d.hint);
            out.push('}');
        }
        out.push_str("\n  ],\n  \"stale\": [");
        for (i, s) in self.stale.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"rule\": ");
            write_str(&mut out, &s.rule);
            out.push_str(", \"file\": ");
            write_str(&mut out, &s.file);
            let _ = write!(out, ", \"pinned\": {}", s.pinned);
            let _ = write!(out, ", \"actual\": {}}}", s.actual);
        }
        let _ = write!(
            out,
            "\n  ],\n  \"files_scanned\": {},\n  \"diagnostics\": {},\n  \"baselined\": {},\n  \"clean\": {}\n}}",
            self.files_scanned,
            self.diagnostics.len(),
            self.baselined,
            self.is_clean()
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

/// Lexes and classifies every workspace source file under `root`, in
/// sorted path order.
pub fn load_workspace(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    for path in collect_files(root)? {
        let rel = path.strip_prefix(root).unwrap_or(&path).components();
        let rel: Vec<_> = rel.map(|c| c.as_os_str().to_string_lossy()).collect();
        files.push(SourceFile::parse(&rel.join("/"), &fs::read_to_string(&path)?));
    }
    Ok(files)
}

/// Loads and validates `lint-layers.toml` from `root`. A missing file
/// is `Ok(None)` — the layering analysis is simply skipped, so
/// `analyze` keeps working on roots without a spec (e.g. ad-hoc runs on
/// a subdirectory). A present-but-invalid file is an error: a typo in
/// the spec must not silently disable the analysis.
pub fn load_layer_spec(root: &Path) -> io::Result<Option<LayerSpec>> {
    load_config(root, LAYERS_FILE, LayerSpec::parse)
}

/// Reads and parses the config file `name` at `root`: `Ok(None)` when
/// it is missing, an `InvalidData` error naming the file when it does
/// not parse.
fn load_config<T>(
    root: &Path,
    name: &str,
    parse: fn(&str) -> Result<T, String>,
) -> io::Result<Option<T>> {
    let path = root.join(name);
    if !path.exists() {
        return Ok(None);
    }
    let text = fs::read_to_string(&path)?;
    parse(&text).map(Some).map_err(|e| {
        let what = format!("{}: {e}", path.display());
        io::Error::new(io::ErrorKind::InvalidData, what)
    })
}

/// Runs every rule over the workspace at `root` with no baseline
/// applied: the raw diagnostic list.
pub fn analyze(root: &Path) -> io::Result<Report> {
    let files = load_workspace(root)?;
    let layers = load_layer_spec(root)?;
    let diagnostics = rules::run_all(&files, layers.as_ref());
    Ok(Report {
        new: diagnostics.clone(),
        diagnostics,
        stale: Vec::new(),
        baselined: 0,
        files_scanned: files.len(),
    })
}

/// Runs only the v3 semantic passes (parallel-capture and
/// order-sensitivity) over already-loaded files, sorted by (file, line,
/// rule). This is the bench harness's isolated datum for the passes
/// added on top of the v2 engine; `analyze` runs them as part of the
/// full rule catalogue.
pub fn run_v3_passes(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    par_capture::check(files, &mut out);
    order_io::check(files, &mut out);
    rules::sorted(out)
}

/// Runs only the v4 interprocedural passes (call-graph construction,
/// effect fixpoint, and the three transitive contract rules) over
/// already-loaded files, sorted by (file, line, rule). This is the
/// bench harness's isolated datum for the whole-program analysis;
/// `analyze` runs it as part of the full rule catalogue.
pub fn run_v4_passes(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    effects::check(files, &mut out);
    rules::sorted(out)
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

/// Applies the ratchet: groups `diagnostics` by `(file, rule)` and
/// splits them against `baseline` into new / baselined / stale.
pub fn apply_baseline(mut report: Report, baseline: &Baseline) -> Report {
    let counts = report.counts();
    report.new = report
        .diagnostics
        .iter()
        .filter(|d| {
            let actual = counts[&(d.file.clone(), d.rule.to_string())];
            actual > baseline.allowed(&d.file, d.rule)
        })
        .cloned()
        .collect();
    report.baselined = report.diagnostics.len() - report.new.len();
    report.stale = baseline
        .iter()
        .filter_map(|((file, rule), pinned)| {
            let actual = counts
                .get(&(file.clone(), rule.clone()))
                .copied()
                .unwrap_or(0);
            (actual < pinned).then(|| StaleEntry {
                file: file.clone(),
                rule: rule.clone(),
                pinned,
                actual,
            })
        })
        .collect();
    report
}

/// The full gate: analyze `root`, load `lint-baseline.toml` from it
/// (missing file = empty baseline), and apply the ratchet. This is what
/// the root package's `tests/lint_gate.rs` and `verify.sh` call.
pub fn check_workspace(root: &Path) -> io::Result<Report> {
    let report = analyze(root)?;
    let baseline = load_config(root, BASELINE_FILE, Baseline::parse)?.unwrap_or_default();
    Ok(apply_baseline(report, &baseline))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Diagnostic;

    fn d(file: &str, rule: &'static str, line: usize) -> Diagnostic {
        Diagnostic {
            rule,
            file: file.to_string(),
            line,
            snippet: String::new(),
            hint: String::new(),
        }
    }

    fn report_with(diags: Vec<Diagnostic>) -> Report {
        Report {
            new: diags.clone(),
            diagnostics: diags,
            stale: Vec::new(),
            baselined: 0,
            files_scanned: 1,
        }
    }

    #[test]
    fn ratchet_matching_count_is_clean() {
        let r = report_with(vec![d("a.rs", "unwrap-in-lib", 1), d("a.rs", "unwrap-in-lib", 9)]);
        let mut counts = BTreeMap::new();
        counts.insert(("a.rs".to_string(), "unwrap-in-lib".to_string()), 2);
        let b = Baseline::parse(&Baseline::render(&counts)).expect("baseline");
        let r = apply_baseline(r, &b);
        assert!(r.is_clean(), "{}", r.render_human());
        assert_eq!(r.baselined, 2);
    }

    #[test]
    fn ratchet_excess_is_new_and_deficit_is_stale() {
        let r = report_with(vec![d("a.rs", "unwrap-in-lib", 1)]);
        let mut counts = BTreeMap::new();
        counts.insert(("a.rs".to_string(), "unwrap-in-lib".to_string()), 2);
        counts.insert(("gone.rs".to_string(), "float-exact-eq".to_string()), 1);
        let b = Baseline::parse(&Baseline::render(&counts)).expect("baseline");
        let r = apply_baseline(r, &b);
        assert!(!r.is_clean());
        assert!(r.new.is_empty(), "under-count is stale, not new");
        assert_eq!(r.stale.len(), 2);
        let pinned: Vec<_> = r.stale.iter().map(|s| (s.pinned, s.actual)).collect();
        assert!(pinned.contains(&(2, 1)) && pinned.contains(&(1, 0)));
    }

    #[test]
    fn ratchet_new_violation_fails() {
        let r = report_with(vec![d("a.rs", "no-wall-clock", 3)]);
        let r = apply_baseline(r, &Baseline::empty());
        assert!(!r.is_clean());
        assert_eq!(r.new.len(), 1);
        assert!(r.render_human().contains("no-wall-clock"));
    }

    #[test]
    fn json_rendering_escapes() {
        let mut diag = d("a.rs", "unwrap-in-lib", 1);
        diag.snippet = "say \"hi\"\\".to_string();
        let r = apply_baseline(report_with(vec![diag]), &Baseline::empty());
        let json = r.render_json();
        assert!(json.contains("say \\\"hi\\\"\\\\"));
        assert!(json.contains("\"clean\": false"));
    }
}
