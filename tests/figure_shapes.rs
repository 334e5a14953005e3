//! The paper's evaluation as tier-1 tests. The six experiments of
//! `movr_bench::paper` run once per test binary, at the seeds and run
//! counts their bins print; every claim must hold on that data, each
//! report's bytes are pinned, and EXPERIMENTS.md's measured cells must
//! quote the reports they stand for.

use movr_bench::paper::{self, Experiment, Kind};
use std::fs;
use std::path::Path;
use std::sync::OnceLock;

/// Each experiment under the name of the bin that prints it, in
/// `paper::all`'s order.
fn experiments() -> &'static [(&'static str, Experiment)] {
    static RUN: OnceLock<Vec<(&str, Experiment)>> = OnceLock::new();
    RUN.get_or_init(|| {
        let names = ["fig3", "fig7", "fig8", "fig9", "battery", "latency"];
        names.into_iter().zip(paper::all()).collect()
    })
}

/// Asserts the claims of the experiments `names`, each on its figure's
/// own data; a failure names each failing claim's id, kind, paper
/// statement and measured value.
fn assert_claims_hold(names: &[&str]) {
    let failing: Vec<String> = experiments()
        .iter()
        .filter(|(name, _)| names.contains(name))
        .flat_map(|(_, e)| &e.claims)
        .filter(|c| !c.pass)
        .map(|c| format!("{} ({:?}): paper {}; measured {}", c.id, c.kind, c.paper, c.measured))
        .collect();
    assert!(failing.is_empty(), "not reproduced:\n{}", failing.join("\n"));
}

/// Fig. 3's claims over the figure's 20 placements. (The name is from
/// when this test ran its own six-placement copy of the figure.)
#[test]
fn fig3_shape_small_n() {
    assert_claims_hold(&["fig3"]);
}

/// Fig. 8's claim over the figure's 100 runs.
#[test]
fn fig8_shape_small_n() {
    assert_claims_hold(&["fig8"]);
}

/// Fig. 9's claims over the figure's 20 runs.
#[test]
fn fig9_shape_small_n() {
    assert_claims_hold(&["fig9"]);
}

/// Fig. 7's and §6's claims.
#[test]
fn fig7_and_section6_claims_hold() {
    assert_claims_hold(&["fig7", "battery", "latency"]);
}

/// FNV-1a of each bin's stdout: a change that moves one printed byte of
/// a figure fails here, and re-pins with its reason.
#[test]
fn reports_match_their_pinned_digests() {
    const PINS: [(&str, u64); 6] = [
        ("fig3", 0x57da_e4e9_b9e0_2c57),
        ("fig7", 0xa85e_e18e_d9cc_62a2),
        ("fig8", 0x856e_260d_d9be_5c64),
        ("fig9", 0x4a8b_9f21_1a1d_39c3),
        ("battery", 0x16dc_2de3_4b70_6fe4),
        ("latency", 0x78f3_3311_9ad5_7638),
    ];
    let got: Vec<(&str, u64)> = experiments()
        .iter()
        .map(|(name, e)| (*name, movr_math::fnv1a64(e.report.as_bytes())))
        .collect();
    assert_eq!(got, PINS, "an experiment's report moved");
}

/// Dropping, renaming or relabelling a claim fails here.
#[test]
fn claim_ids_and_kinds_are_pinned() {
    use Kind::{Calibrated as C, Reproduced as R};
    let got: Vec<(&str, Kind)> = experiments()
        .iter()
        .flat_map(|(_, e)| &e.claims)
        .map(|c| (c.id, c.kind))
        .collect();
    let want = [
        ("fig3.los", C),
        ("fig3.hand-drop", C),
        ("fig3.blocker-order", C),
        ("fig3.nlos-drop", R),
        ("fig3.blocked-below-vr", R),
        ("fig7.swing", C),
        ("fig8.worst-error", R),
        ("fig9.movr-mean", R),
        ("fig9.movr-worst", R),
        ("fig9.nlos-mean", R),
        ("fig9.movr-over-nlos", R),
        ("battery.typical", C),
        ("battery.with-mmwave", C),
        ("latency.tracking", R),
        ("latency.sweep", R),
        ("latency.budget", R),
    ];
    assert_eq!(got, want);
}

/// The numbers in `text`, as written: a `-` directly before a digit is a
/// sign unless it joins two words or numbers (`4-5`).
fn numbers(text: &str) -> Vec<&str> {
    let b = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        if !b[i].is_ascii_digit() {
            i += 1;
            continue;
        }
        let signed = i > 0 && b[i - 1] == b'-' && !(i > 1 && b[i - 2].is_ascii_alphanumeric());
        let start = if signed { i - 1 } else { i };
        while i < b.len()
            && (b[i].is_ascii_digit() || (b[i] == b'.' && b.get(i + 1).is_some_and(u8::is_ascii_digit)))
        {
            i += 1;
        }
        out.push(&text[start..i]);
    }
    out
}

/// Every number inside a `**…**` table cell of the Figure 3, 7, 8 and 9
/// and §6 sections of EXPERIMENTS.md begins a number of that section's
/// report, with U+2212 read as `-`: `7.5` matches `7.500ms`, while `3.2`
/// does not match `3.180ms`, nor `0.2` match `-0.2`.
#[test]
fn experiments_md_cells_come_from_the_reports() {
    const SECTIONS: [(&str, &str); 6] = [
        ("## Figure 3 ", "fig3"),
        ("## Figure 7 ", "fig7"),
        ("## Figure 8 ", "fig8"),
        ("## Figure 9 ", "fig9"),
        ("## §6 battery", "battery"),
        ("## §6 latency", "latency"),
    ];
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("EXPERIMENTS.md");
    let doc = fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let mut missing = Vec::new();
    for (heading, name) in SECTIONS {
        let start = doc.find(heading).unwrap_or_else(|| panic!("EXPERIMENTS.md has no `{heading}`"));
        let body = &doc[start + heading.len()..];
        let body = &body[..body.find("\n## ").unwrap_or(body.len())];
        let (_, e) = experiments().iter().find(|(n, _)| *n == name).expect("a listed bin");
        let report = &e.report;
        let mut checked = 0;
        for row in body.lines().filter(|l| l.starts_with('|')) {
            for bold in row.split("**").skip(1).step_by(2) {
                let bold = bold.replace('\u{2212}', "-");
                for n in numbers(&bold) {
                    checked += 1;
                    let quoted = report.match_indices(n).any(|(i, _)| {
                        !report[..i].ends_with(|c: char| c.is_ascii_digit() || c == '.' || c == '-')
                    });
                    if !quoted {
                        missing.push(format!("{name}: `{n}` in {row}"));
                    }
                }
            }
        }
        assert!(checked > 0, "{heading}: no measured cell");
    }
    assert!(missing.is_empty(), "numbers no report prints:\n{}", missing.join("\n"));
}
