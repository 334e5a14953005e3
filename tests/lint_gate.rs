//! The movr-lint gate as a tier-1 test: `cargo test` fails the moment
//! the workspace picks up any diagnostic from the analyzer's rules —
//! unit flow, RNG streams, dB discipline and the `_recorded` twins.
//! There is no exemption file: the workspace is held at zero findings.
//! The checks rustc and clippy own (parallel-closure bounds, wall
//! clocks, hash-ordered containers, blocking I/O, console prints in
//! library crates, `as` casts, exact float comparisons, unwraps, allows
//! without a reason) run in `scripts/verify.sh`'s clippy stages. Crate
//! layering is `tests/layering.rs`, and decoder panics are
//! `tests/checkpoint.rs`'s resealed-snapshot sweeps. See DESIGN.md
//! § "Static analysis" for the rule catalogue.

use std::path::Path;

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = movr_lint::analyze(root).expect("workspace scan succeeds");
    assert!(
        report.is_clean(),
        "movr-lint found diagnostics:\n{}",
        report.render_human()
    );
    // The gate is only meaningful if it actually scanned the tree.
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned ({}); walker broke?",
        report.files_scanned
    );
}
