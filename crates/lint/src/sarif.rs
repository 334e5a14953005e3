//! SARIF 2.1.0 output and the in-tree schema checker.
//!
//! CI annotators (GitHub code scanning and friends) ingest SARIF; this
//! module renders a [`crate::Report`] as a single-run SARIF log —
//! hand-rolled like every serializer in the workspace, with every
//! string spelled by [`movr_math::json::write_str`] — and, because we
//! cannot ship the real JSON Schema validator offline, pairs it with a
//! small structural checker: the workspace's one JSON reader,
//! [`movr_math::json`], plus the SARIF shape rules the annotators
//! actually rely on (version string, tool driver, rule index integrity,
//! result locations with relative URIs and 1-based lines). A deep,
//! overflowing or otherwise malformed log is an error, never a crash or
//! a pass.
//!
//! New diagnostics render as `error` results; stale baseline entries as
//! `warning` results under the synthetic `stale-baseline-entry` rule,
//! so a ratchet that needs tightening still shows up on the PR.

use crate::rules::RULES;
use crate::Report;
use movr_math::json::{write_str, Json};
use std::fmt::Write as _;

/// The rule id used for stale baseline entries in SARIF output.
pub const STALE_RULE_ID: &str = "stale-baseline-entry";

/// Renders the report as a SARIF 2.1.0 log (pretty-printed, stable
/// field order, byte-deterministic for a given report).
pub fn render(report: &Report) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"movr-lint\",\n");
    out.push_str("          \"informationUri\": \"https://github.com/movr-sim/movr\",\n");
    out.push_str("          \"rules\": [\n");
    let mut rule_ids: Vec<&str> = RULES.iter().map(|(id, _)| *id).collect();
    rule_ids.push(STALE_RULE_ID);
    for (i, id) in rule_ids.iter().enumerate() {
        out.push_str("            {\"id\": ");
        write_str(&mut out, id);
        out.push('}');
        out.push_str(if i + 1 < rule_ids.len() { ",\n" } else { "\n" });
    }
    out.push_str("          ]\n        }\n      },\n");
    out.push_str("      \"results\": [");
    let mut first = true;
    for d in &report.new {
        push_sep(&mut out, &mut first);
        let text = format!("{} — {}", d.snippet, d.hint);
        render_result(&mut out, d.rule, "error", &text, &d.file, d.line);
    }
    for s in &report.stale {
        push_sep(&mut out, &mut first);
        let text = format!(
            "baseline pins {} `{}` finding(s) but only {} remain; shrink the baseline",
            s.pinned, s.rule, s.actual
        );
        render_result(&mut out, STALE_RULE_ID, "warning", &text, &s.file, 1);
    }
    if first {
        out.push_str("]\n");
    } else {
        out.push_str("\n      ]\n");
    }
    out.push_str("    }\n  ]\n}\n");
    out
}

fn push_sep(out: &mut String, first: &mut bool) {
    if *first {
        out.push('\n');
        *first = false;
    } else {
        out.push_str(",\n");
    }
}

/// One result: its rule, level and message, located at `uri:line`.
fn render_result(out: &mut String, rule: &str, level: &str, text: &str, uri: &str, line: usize) {
    let [rule, text, uri] = [rule, text, uri].map(|s| {
        let mut quoted = String::new();
        write_str(&mut quoted, s);
        quoted
    });
    let _ = write!(
        out,
        "        {{\n          \"ruleId\": {rule},\n          \"level\": \"{level}\",\n          \"message\": {{\"text\": {text}}},\n          \"locations\": [\n            {{\n              \"physicalLocation\": {{\n                \"artifactLocation\": {{\"uri\": {uri}}},\n                \"region\": {{\"startLine\": {line}}}\n              }}\n            }}\n          ]\n        }}"
    );
}

// --- In-tree structural validation -----------------------------------

/// Structurally validates a SARIF 2.1.0 document: the invariants CI
/// annotators depend on. Returns every violation found (empty = valid).
pub fn validate(text: &str) -> Result<(), Vec<String>> {
    let doc = match Json::parse(text) {
        Ok(doc) => doc,
        Err(e) => return Err(vec![format!("not valid JSON: {e}")]),
    };
    let mut errs = Vec::new();
    if doc.get("version").and_then(Json::as_str) != Some("2.1.0") {
        errs.push("`version` must be the string \"2.1.0\"".to_string());
    }
    if let Some(schema) = doc.get("$schema").and_then(Json::as_str) {
        if !schema.contains("sarif-2.1.0") {
            errs.push("`$schema` does not reference sarif-2.1.0".to_string());
        }
    } else {
        errs.push("`$schema` is missing or not a string".to_string());
    }
    let Some(Json::Arr(runs)) = doc.get("runs") else {
        errs.push("`runs` must be an array".to_string());
        return Err(errs);
    };
    if runs.is_empty() {
        errs.push("`runs` must not be empty".to_string());
    }
    for (ri, run) in runs.iter().enumerate() {
        let driver = run.get("tool").and_then(|t| t.get("driver"));
        let Some(driver) = driver else {
            errs.push(format!("runs[{ri}] has no tool.driver"));
            continue;
        };
        if driver.get("name").and_then(Json::as_str).is_none_or(str::is_empty) {
            errs.push(format!("runs[{ri}] tool.driver.name missing or empty"));
        }
        let mut rule_ids: Vec<&str> = Vec::new();
        if let Some(Json::Arr(rules)) = driver.get("rules") {
            for (qi, rule) in rules.iter().enumerate() {
                match rule.get("id").and_then(Json::as_str) {
                    Some(id) if !id.is_empty() => {
                        if rule_ids.contains(&id) {
                            errs.push(format!("runs[{ri}] duplicate rule id `{id}`"));
                        }
                        rule_ids.push(id);
                    }
                    _ => errs.push(format!("runs[{ri}] rules[{qi}] has no string id")),
                }
            }
        }
        let Some(Json::Arr(results)) = run.get("results") else {
            errs.push(format!("runs[{ri}].results must be an array"));
            continue;
        };
        for (xi, result) in results.iter().enumerate() {
            let at = format!("runs[{ri}].results[{xi}]");
            match result.get("ruleId").and_then(Json::as_str) {
                Some(id) => {
                    if !rule_ids.is_empty() && !rule_ids.contains(&id) {
                        errs.push(format!("{at}: ruleId `{id}` not in driver.rules"));
                    }
                }
                None => errs.push(format!("{at}: ruleId missing")),
            }
            if let Some(level) = result.get("level").and_then(Json::as_str) {
                if !matches!(level, "none" | "note" | "warning" | "error") {
                    errs.push(format!("{at}: invalid level `{level}`"));
                }
            }
            if result
                .get("message")
                .and_then(|m| m.get("text"))
                .and_then(Json::as_str)
                .is_none_or(str::is_empty)
            {
                errs.push(format!("{at}: message.text missing or empty"));
            }
            let Some(Json::Arr(locations)) = result.get("locations") else {
                errs.push(format!("{at}: locations missing"));
                continue;
            };
            for (li, loc) in locations.iter().enumerate() {
                let at = format!("{at}.locations[{li}]");
                let phys = loc.get("physicalLocation");
                let uri = phys
                    .and_then(|p| p.get("artifactLocation"))
                    .and_then(|a| a.get("uri"))
                    .and_then(Json::as_str);
                match uri {
                    Some(u) if u.starts_with('/') => {
                        errs.push(format!("{at}: uri must be workspace-relative, got `{u}`"));
                    }
                    Some(_) => {}
                    None => errs.push(format!("{at}: physicalLocation.artifactLocation.uri missing")),
                }
                match phys
                    .and_then(|p| p.get("region"))
                    .and_then(|r| r.get("startLine"))
                {
                    Some(n) if n.as_u64().is_some_and(|n| n >= 1) => {}
                    Some(_) => errs.push(format!("{at}: region.startLine must be an integer ≥ 1")),
                    None => errs.push(format!("{at}: region.startLine missing")),
                }
            }
        }
    }
    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Diagnostic;
    use crate::StaleEntry;

    fn report_with(diags: Vec<Diagnostic>) -> Report {
        Report {
            new: diags.clone(),
            diagnostics: diags,
            stale: vec![StaleEntry {
                file: "crates/demo/src/lib.rs".to_string(),
                rule: "unwrap-in-lib".to_string(),
                pinned: 2,
                actual: 1,
            }],
            baselined: 0,
            files_scanned: 1,
        }
    }

    fn demo_diag() -> Diagnostic {
        Diagnostic {
            rule: "no-wall-clock",
            file: "crates/demo/src/lib.rs".to_string(),
            line: 7,
            snippet: "let t = Instant::now(); // \"bad\"".to_string(),
            hint: "use SimTime".to_string(),
        }
    }

    #[test]
    fn rendered_sarif_validates() {
        let sarif = render(&report_with(vec![demo_diag()]));
        validate(&sarif).expect("rendered SARIF is structurally valid");
        assert!(sarif.contains("\"ruleId\": \"no-wall-clock\""));
        assert!(sarif.contains(STALE_RULE_ID));
        assert!(sarif.contains("\"startLine\": 7"));
    }

    #[test]
    fn empty_report_validates() {
        let sarif = render(&Report::default());
        validate(&sarif).expect("empty SARIF log is valid");
        assert!(sarif.contains("\"results\": []"));
    }

    #[test]
    fn validator_rejects_broken_documents() {
        assert!(validate("not json").is_err());
        assert!(validate("{\"version\": \"2.1.0\"}").is_err(), "runs missing");
        let wrong_version = render(&Report::default()).replace("2.1.0", "2.0.0");
        assert!(validate(&wrong_version).is_err());
        let absolute_uri =
            render(&report_with(vec![demo_diag()])).replace("\"crates/", "\"/crates/");
        let errs = validate(&absolute_uri).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("workspace-relative")), "{errs:?}");
        let unknown_rule =
            render(&report_with(vec![demo_diag()])).replace("\"ruleId\": \"no-wall-clock\"", "\"ruleId\": \"ghost\"");
        assert!(validate(&unknown_rule).is_err());
        // Deep nesting, non-RFC 8259 numbers and raw control characters
        // in strings are invalid JSON, not a crash or a pass.
        assert!(validate(&"[".repeat(200_000)).is_err());
        let valid = render(&report_with(vec![demo_diag()]));
        for line in ["\"startLine\": 1e999", "\"startLine\": 007"] {
            let mutant = valid.replace("\"startLine\": 7", line);
            assert!(validate(&mutant).is_err(), "{line}");
        }
        assert!(validate(&valid.replace("use SimTime", "use\tSimTime")).is_err());
    }
}
