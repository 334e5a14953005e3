//! `BENCH_trajectory.jsonl` is the repository's perf history: one JSON
//! line per measured side of a perf-relevant change, with its change
//! number (`pr`), the commit measured (`rev`; a change measured before it
//! was committed names its parent followed by `+`), which `side` of the
//! change it is, the `cores` it ran on, where the numbers come from
//! (`source`), and perfbench's calibrated end-to-end medians
//! (`main_per_s`, `aux_per_s`) for each workload. This test keeps every
//! line readable by the one JSON reader.

use movr_math::json::Json;

const WORKLOADS: [&str; 3] = ["align", "session", "fleet"];

#[test]
fn every_trajectory_line_parses_with_the_expected_keys() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_trajectory.jsonl");
    let text = std::fs::read_to_string(path).expect("BENCH_trajectory.jsonl is checked in");
    let mut last_pr = 0;
    let mut lines = 0;
    for (n, line) in text.lines().enumerate() {
        let at = format!("line {}", n + 1);
        let row = Json::parse(line).unwrap_or_else(|e| panic!("{at}: {e:?}"));
        let mut keys: Vec<&str> = row
            .fields()
            .unwrap_or_else(|| panic!("{at}: not an object"))
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        keys.sort_unstable();
        assert_eq!(
            keys,
            ["align", "cores", "fleet", "pr", "rev", "session", "side", "source"],
            "{at}"
        );
        let field = |k: &str| row.get(k).unwrap_or_else(|| panic!("{at}: {k}"));
        let pr = field("pr").as_u64().unwrap_or_else(|| panic!("{at}: pr"));
        assert!(pr >= last_pr, "{at}: pr {pr} after {last_pr}");
        last_pr = pr;
        let rev = field("rev").as_str().unwrap_or_else(|| panic!("{at}: rev"));
        let hex = rev.strip_suffix('+').unwrap_or(rev);
        assert!(
            hex.len() >= 7 && hex.chars().all(|c| c.is_ascii_hexdigit()),
            "{at}: rev {rev}"
        );
        assert!(
            matches!(field("side").as_str(), Some("parent" | "change")),
            "{at}: side"
        );
        assert!(
            field("cores").as_u64().is_some_and(|c| c >= 1),
            "{at}: cores"
        );
        assert!(
            field("source").as_str().is_some_and(|s| !s.is_empty()),
            "{at}: source"
        );
        for w in WORKLOADS {
            for metric in ["main_per_s", "aux_per_s"] {
                let v = field(w).get(metric).and_then(Json::as_f64);
                assert!(
                    v.is_some_and(|v| v.is_finite() && v > 0.0),
                    "{at}: {w}.{metric} = {v:?}"
                );
            }
        }
        lines += 1;
    }
    assert!(lines >= 3, "the history starts with three changes");
}
