//! Robustness property: the analyzer survives a source file cut short
//! or with one delimiter swapped for another. Each mutant of the
//! checked-in fixture sources is written as the only file of a temporary
//! workspace and analyzed under `catch_unwind`; a panic anywhere in the
//! lexer, the parser or a rule fails the test and names the mutant.

use std::fs;
use std::panic;
use std::path::Path;

const DELIMS: &[u8] = b"([{)]}";

/// `(description, text)` for every cut just after a delimiter and every
/// swap of one delimiter for the next in `DELIMS`.
fn mutants(src: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for (at, b) in src.bytes().enumerate() {
        let Some(k) = DELIMS.iter().position(|&d| d == b) else {
            continue;
        };
        out.push((format!("cut after byte {at}"), src[..=at].to_string()));
        let mut swapped = src.as_bytes().to_vec();
        swapped[at] = DELIMS[(k + 1) % DELIMS.len()];
        let swapped = String::from_utf8(swapped).expect("an ASCII swap keeps UTF-8");
        out.push((format!("byte {at} swapped"), swapped));
    }
    out
}

#[test]
fn truncated_or_misdelimited_sources_never_panic() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws");
    let ws = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint-mutants");
    let file = ws.join("crates/demo/src/lib.rs");
    fs::create_dir_all(file.parent().expect("nested path")).expect("temporary workspace");
    let mut cases = 0;
    let mut panics = Vec::new();
    for path in movr_lint::collect_files(&fixture).expect("fixture readable") {
        let src = fs::read_to_string(&path).expect("fixture source readable");
        for (what, text) in mutants(&src) {
            fs::write(&file, text).expect("temporary file writable");
            cases += 1;
            if panic::catch_unwind(|| movr_lint::analyze(&ws)).is_err() {
                panics.push(format!("{}: {what}", path.display()));
            }
        }
    }
    assert!(cases > 400, "only {cases} mutants; fixture shrank?");
    assert!(
        panics.is_empty(),
        "{} of {cases} mutants panicked the analyzer:\n{}",
        panics.len(),
        panics.join("\n")
    );
}
