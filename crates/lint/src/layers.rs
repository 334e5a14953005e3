//! Architecture layering: the workspace dependency DAG, declared once
//! in `lint-layers.toml` and enforced against every `movr_*` reference
//! in library code. Cargo already rejects dependency *cycles*, but it
//! happily accepts a new edge that inverts the architecture (say,
//! `rfsim` reaching up into `radio`); this analysis fails the gate on
//! any reference not on the declared edge list, so back-edges need an
//! explicit spec change to land.
//!
//! The spec is a TOML subset read by the workspace's one TOML reader,
//! [`movr_math::toml`], so a key set twice is an error naming its line:
//!
//! ```toml
//! [[crate]]
//! name = "radio"
//! layer = 2
//! allowed = ["math", "sim", "rfsim", "phased-array", "obs"]
//! ```
//!
//! Parsing validates the graph shape itself: every `allowed` target
//! must be declared, and must sit on a *strictly lower* layer — which
//! makes the declared graph a DAG by construction.

use crate::lexer::TokenKind;
use crate::rng_flow::crate_of_extern_root;
use crate::rules::Diagnostic;
use crate::source::{FileKind, SourceFile};
use movr_math::json::Json;
use movr_math::toml::{self, Table};
use std::collections::{BTreeMap, BTreeSet};

/// Name of the committed layer spec at the workspace root.
pub const LAYERS_FILE: &str = "lint-layers.toml";

/// One crate's declared position and allowed dependencies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrateSpec {
    /// Layer index; edges must point to strictly lower layers.
    pub layer: u32,
    /// Crate directory names this crate's library code may reference.
    pub allowed: BTreeSet<String>,
}

/// The parsed, validated layer declaration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LayerSpec {
    crates: BTreeMap<String, CrateSpec>,
}

impl LayerSpec {
    /// Looks up a crate's declaration by directory name.
    pub fn get(&self, name: &str) -> Option<&CrateSpec> {
        self.crates.get(name)
    }

    /// Number of declared crates.
    pub fn len(&self) -> usize {
        self.crates.len()
    }

    /// True when no crates are declared.
    pub fn is_empty(&self) -> bool {
        self.crates.is_empty()
    }

    /// Parses and validates the spec: `[[crate]]` tables, each with a
    /// string `name`, a non-negative integer `layer` and an optional
    /// `allowed` list of crate names. Errors carry line numbers for
    /// syntax problems and name/layer detail for graph problems.
    pub fn parse(text: &str) -> Result<LayerSpec, String> {
        let mut crates: BTreeMap<String, CrateSpec> = BTreeMap::new();
        for table in crate_tables(text)? {
            let (name, layer) = (string(&table, "name")?, uint(&table, "layer")?);
            let mut allowed = BTreeSet::new();
            if let Some((list, line)) = table.get("allowed") {
                let bad = || format!("line {line}: allowed must be a [\"…\"] list");
                let Json::Arr(deps) = list else {
                    return Err(bad());
                };
                for dep in deps {
                    allowed.insert(dep.as_str().ok_or_else(bad)?.to_string());
                }
            }
            let (at, spec) = (table.line, CrateSpec { layer, allowed });
            if crates.insert(name.clone(), spec).is_some() {
                return Err(format!("line {at}: crate `{name}` declared twice"));
            }
        }
        // Graph validation: targets declared, edges strictly downward.
        for (name, spec) in &crates {
            for dep in &spec.allowed {
                let Some(target) = crates.get(dep) else {
                    return Err(format!(
                        "crate `{name}` allows `{dep}`, which is not declared"
                    ));
                };
                if target.layer >= spec.layer {
                    return Err(format!(
                        "crate `{name}` (layer {}) allows `{dep}` (layer {}); edges must point to strictly lower layers — the declared graph would not be a DAG",
                        spec.layer, target.layer
                    ));
                }
            }
        }
        Ok(LayerSpec { crates })
    }
}

/// The `[[crate]]` tables of the spec: another table, a key outside
/// one, or a key other than `name`, `layer` and `allowed` is an error.
fn crate_tables(text: &str) -> Result<Vec<Table<'_>>, String> {
    let mut out = Vec::new();
    for table in toml::parse(text).map_err(|e| e.to_string())? {
        let (at, header) = (table.line, table.name);
        if at > 0 && !(table.array && header == "crate") {
            return Err(format!("line {at}: unknown table `{header}`"));
        }
        for (key, _, line) in &table.keys {
            if at == 0 {
                return Err(format!("line {line}: `{key}` outside a [[crate]] table"));
            } else if !["name", "layer", "allowed"].contains(key) {
                return Err(format!("line {line}: unknown key `{key}`"));
            }
        }
        if at > 0 {
            out.push(table);
        }
    }
    Ok(out)
}

/// The value of `key` in `table` and its line, or an error if unset.
fn need<'t, 'a>(table: &'t Table<'a>, key: &str) -> Result<(&'t Json<'a>, usize), String> {
    let at = table.line;
    let missing = || format!("line {at}: [[crate]] is missing `{key}`");
    table.get(key).ok_or_else(missing)
}

/// The string under `key` in `table`.
fn string(table: &Table<'_>, key: &str) -> Result<String, String> {
    match need(table, key)? {
        (Json::Str(s), _) => Ok(s.to_string()),
        (_, line) => Err(format!("line {line}: {key} must be a quoted string")),
    }
}

/// The non-negative integer under `key` in `table`, as a `T`.
fn uint<T: TryFrom<u64>>(table: &Table<'_>, key: &str) -> Result<T, String> {
    let (value, line) = need(table, key)?;
    let n = value.as_u64().and_then(|n| T::try_from(n).ok());
    n.ok_or_else(|| format!("line {line}: {key} must be a non-negative integer"))
}

/// Enforces the declared DAG over every library file: each `movr_*`
/// reference must be an allowed edge. Test ranges are exempt
/// (dev-dependencies legitimately reach testkit).
pub fn check(files: &[SourceFile], spec: &LayerSpec, out: &mut Vec<Diagnostic>) {
    for f in files {
        if f.kind != FileKind::Lib {
            continue;
        }
        let own = spec.get(&f.crate_name);
        let mut undeclared_reported = false;
        for (i, t) in f.tokens.iter().enumerate() {
            let TokenKind::Ident(name) = &t.kind else { continue };
            if !(name == "movr" || name.starts_with("movr_")) {
                continue;
            }
            // Require a path use (`movr_math::…`) or an import
            // (`use movr_math…`) so prose-like idents never fire.
            let pathish = (f.tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && f.tokens.get(i + 2).is_some_and(|t| t.is_punct(':')))
                || (i >= 1 && f.tokens[i - 1].is_ident("use"));
            if !pathish || f.in_cfg_test(i) {
                continue;
            }
            let Some(target) = crate_of_extern_root(name) else { continue };
            if target == f.crate_name {
                continue;
            }
            let Some(own) = own else {
                if !undeclared_reported {
                    out.push(Diagnostic::new(
                        f,
                        "layer-violation",
                        t.line,
                        format!(
                            "crate `{}` is not declared in {LAYERS_FILE}; add a [[crate]] entry with its layer and allowed dependencies",
                            f.crate_name
                        ),
                    ));
                    undeclared_reported = true;
                }
                continue;
            };
            if spec.get(&target).is_none() {
                out.push(Diagnostic::new(
                    f,
                    "layer-violation",
                    t.line,
                    format!("reference to `{target}`, which is not declared in {LAYERS_FILE}"),
                ));
                continue;
            }
            if !own.allowed.contains(&target) {
                out.push(Diagnostic::new(
                    f,
                    "layer-violation",
                    t.line,
                    format!(
                        "`{}` → `{target}` is not a declared edge in {LAYERS_FILE}; layering back-edges need an explicit spec change",
                        f.crate_name
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = "\
[[crate]]
name = \"math\"
layer = 0
allowed = []

[[crate]]
name = \"rfsim\"
layer = 1
allowed = [\"math\"]

[[crate]]
name = \"radio\"
layer = 2
allowed = [\"math\", \"rfsim\"]
";

    fn hits(rel: &str, src: &str) -> Vec<(String, usize)> {
        let spec = LayerSpec::parse(SPEC).expect("spec parses");
        let f = SourceFile::parse(rel, src);
        let mut out = Vec::new();
        check(std::slice::from_ref(&f), &spec, &mut out);
        out.into_iter().map(|d| (d.hint, d.line)).collect()
    }

    #[test]
    fn allowed_edges_pass_and_back_edges_fail() {
        assert!(hits("crates/radio/src/lib.rs", "use movr_rfsim::Scene;").is_empty());
        let bad = hits("crates/rfsim/src/lib.rs", "use movr_radio::Mcs;");
        assert_eq!(bad.len(), 1);
        assert!(bad[0].0.contains("`rfsim` → `radio`"), "{}", bad[0].0);
    }

    #[test]
    fn undeclared_crates_are_reported_once() {
        let bad = hits(
            "crates/mystery/src/lib.rs",
            "use movr_math::db;\nuse movr_rfsim::Scene;",
        );
        assert_eq!(bad.len(), 1, "one report per undeclared crate, not per use");
        assert!(bad[0].0.contains("not declared"));
    }

    #[test]
    fn test_code_and_non_path_mentions_are_exempt() {
        assert!(hits(
            "crates/rfsim/src/lib.rs",
            "#[cfg(test)]\nmod t { use movr_radio::Mcs; }"
        )
        .is_empty());
        assert!(hits("crates/rfsim/src/lib.rs", "fn f() { let movr_radio = 1; }").is_empty());
    }

    #[test]
    fn spec_validation_rejects_bad_graphs() {
        let undeclared = "[[crate]]\nname = \"a\"\nlayer = 1\nallowed = [\"ghost\"]\n";
        assert!(LayerSpec::parse(undeclared).unwrap_err().contains("ghost"));
        let upward = "\
[[crate]]
name = \"a\"
layer = 0
allowed = [\"b\"]

[[crate]]
name = \"b\"
layer = 1
allowed = []
";
        assert!(LayerSpec::parse(upward).unwrap_err().contains("DAG"));
        let dup = "[[crate]]\nname = \"a\"\nlayer = 0\n\n[[crate]]\nname = \"a\"\nlayer = 1\n";
        assert!(LayerSpec::parse(dup).unwrap_err().contains("twice"));
    }

    #[test]
    fn parse_errors_name_the_line() {
        assert!(LayerSpec::parse("name = \"a\"").unwrap_err().contains("line 1"));
        let missing = LayerSpec::parse("[[crate]]\nname = \"a\"\n").unwrap_err();
        assert!(missing.contains("missing `layer`"), "{missing}");
        let negative = LayerSpec::parse("[[crate]]\nname = \"a\"\nlayer = -1\n").unwrap_err();
        assert!(negative.contains("line 3") && negative.contains("integer"), "{negative}");
        let unknown = LayerSpec::parse("[[crate]]\nname = \"a\"\nlayer = 0\nrank = 1\n");
        assert!(unknown.unwrap_err().contains("line 4"));
        // A key set twice in one table is an error naming the second line.
        let twice = LayerSpec::parse("[[crate]]\nname = \"a\"\nlayer = 0\nlayer = 1\n");
        assert!(twice.unwrap_err().contains("line 4"));
    }

    #[test]
    fn core_crate_maps_from_bare_movr() {
        let spec = LayerSpec::parse(
            "[[crate]]\nname = \"core\"\nlayer = 1\nallowed = []\n[[crate]]\nname = \"vr\"\nlayer = 0\nallowed = []\n",
        )
        .expect("parses");
        let f = SourceFile::parse("crates/vr/src/lib.rs", "use movr::session::run_session;");
        let mut out = Vec::new();
        check(std::slice::from_ref(&f), &spec, &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].hint.contains("`vr` → `core`"));
    }
}
