//! The ratcheting baseline: existing violations pinned in
//! `lint-baseline.toml` as `(file, rule) -> count`. New violations fail
//! the gate; fixing violations without shrinking the baseline also
//! fails (a *stale* entry), so counts can only go down.
//!
//! The file is a deliberately tiny TOML subset — `[[entry]]` tables with
//! `file`, `rule`, and `count` keys — read by [`movr_math::toml`], so a
//! key set twice is an error, not a silent override. [`Baseline::render`]
//! quotes through [`movr_math::json::write_str`], so any path reads back.

use movr_math::json::{write_str, Json};
use movr_math::toml::{self, Table};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Pinned violation counts keyed by `(file, rule)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    entries: BTreeMap<(String, String), usize>,
}

impl Baseline {
    /// An empty baseline (everything is a new violation).
    pub fn empty() -> Baseline {
        Baseline::default()
    }

    /// The pinned count for `(file, rule)`, 0 if absent.
    pub fn allowed(&self, file: &str, rule: &str) -> usize {
        self.entries
            .get(&(file.to_string(), rule.to_string()))
            .copied()
            .unwrap_or(0)
    }

    /// Iterates pinned entries as `((file, rule), count)`.
    pub fn iter(&self) -> impl Iterator<Item = (&(String, String), usize)> {
        self.entries.iter().map(|(k, &v)| (k, v))
    }

    /// Number of pinned entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is pinned.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Parses the file: `[[entry]]` tables, each with a string `file`
    /// and `rule` and a non-negative integer `count`. Errors carry the
    /// offending line number.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let mut entries = BTreeMap::new();
        for entry in array_tables(text, "entry", &["file", "rule", "count"])? {
            let (file, rule) = (string(&entry, "file")?, string(&entry, "rule")?);
            let pinned = entries.insert((file.clone(), rule.clone()), uint(&entry, "count")?);
            if pinned.is_some() {
                let at = entry.line;
                return Err(format!(
                    "line {at}: duplicate baseline entry for {file} / {rule}"
                ));
            }
        }
        Ok(Baseline { entries })
    }

    /// Renders counts grouped by `(file, rule)` into the committed
    /// format, sorted for stable diffs.
    pub fn render(counts: &BTreeMap<(String, String), usize>) -> String {
        let mut out = String::from(
            "# movr-lint ratcheting baseline.\n\
             #\n\
             # Each entry pins the number of pre-existing violations of one rule in\n\
             # one file. The gate fails if a file exceeds its pinned count (new\n\
             # violation) OR comes in under it (stale entry: shrink the count so the\n\
             # ratchet only ever tightens). Regenerate after fixing violations with:\n\
             #\n\
             #   cargo run -p movr-lint -- --write-baseline\n\n",
        );
        for ((file, rule), count) in counts {
            if *count == 0 {
                continue;
            }
            out.push_str("[[entry]]\nfile = ");
            write_str(&mut out, file);
            out.push_str("\nrule = ");
            write_str(&mut out, rule);
            let _ = writeln!(out, "\ncount = {count}\n");
        }
        out
    }
}

/// The `[[name]]` tables of a lint config, each holding only `keys`: a
/// key outside them, any other table or any other key is an error.
pub(crate) fn array_tables<'a>(
    text: &'a str,
    name: &str,
    keys: &[&str],
) -> Result<Vec<Table<'a>>, String> {
    let mut out = Vec::new();
    for table in toml::parse(text).map_err(|e| e.to_string())? {
        let (at, header) = (table.line, table.name);
        if at > 0 && !(table.array && header == name) {
            return Err(format!("line {at}: unknown table `{header}`"));
        }
        for (key, _, line) in &table.keys {
            if at == 0 {
                return Err(format!("line {line}: `{key}` outside an [[{name}]] table"));
            } else if !keys.contains(key) {
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
    let (at, name) = (table.line, table.name);
    let missing = || format!("line {at}: [[{name}]] is missing `{key}`");
    table.get(key).ok_or_else(missing)
}

/// The string under `key` in `table`.
pub(crate) fn string(table: &Table<'_>, key: &str) -> Result<String, String> {
    match need(table, key)? {
        (Json::Str(s), _) => Ok(s.to_string()),
        (_, line) => Err(format!("line {line}: {key} must be a quoted string")),
    }
}

/// The non-negative integer under `key` in `table`, as a `T`.
pub(crate) fn uint<T: TryFrom<u64>>(table: &Table<'_>, key: &str) -> Result<T, String> {
    let (value, line) = need(table, key)?;
    let n = value.as_u64().and_then(|n| T::try_from(n).ok());
    n.ok_or_else(|| format!("line {line}: {key} must be a non-negative integer"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut counts = BTreeMap::new();
        counts.insert(
            ("crates/core/src/session.rs".to_string(), "unwrap-in-lib".to_string()),
            3,
        );
        counts.insert(
            ("crates/math/src/vec2.rs".to_string(), "float-exact-eq".to_string()),
            2,
        );
        // Zero-count entries are dropped on render.
        counts.insert(("x.rs".to_string(), "unwrap-in-lib".to_string()), 0);
        let text = Baseline::render(&counts);
        let parsed = Baseline::parse(&text).expect("rendered baseline parses");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed.allowed("crates/core/src/session.rs", "unwrap-in-lib"), 3);
        assert_eq!(parsed.allowed("crates/math/src/vec2.rs", "float-exact-eq"), 2);
        assert_eq!(parsed.allowed("x.rs", "unwrap-in-lib"), 0);
    }

    #[test]
    fn parse_errors_name_the_line() {
        assert!(Baseline::parse("file = \"a\"").unwrap_err().contains("line 1"));
        assert!(Baseline::parse("[[entry]]\nfile = \"a\"\n")
            .unwrap_err()
            .contains("missing"));
        assert!(Baseline::parse("[[entry]]\nfile = \"a\"\nrule = \"r\"\ncount = x\n")
            .unwrap_err()
            .contains("integer"));
        let dup = "[[entry]]\nfile = \"a\"\nrule = \"r\"\ncount = 1\n\n[[entry]]\nfile = \"a\"\nrule = \"r\"\ncount = 2\n";
        assert!(Baseline::parse(dup).unwrap_err().contains("duplicate"));
        // A key set twice in one entry is an error naming the second line.
        for key in ["file = \"b\"", "rule = \"q\"", "count = 9"] {
            let twice = format!("[[entry]]\nfile = \"a\"\nrule = \"r\"\ncount = 1\n{key}\n");
            let e = Baseline::parse(&twice).unwrap_err();
            assert!(e.contains("line 5"), "{key}: {e}");
        }
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let text = "# header\n\n[[entry]]\n# inner\nfile = \"a.rs\"\nrule = \"r\"\ncount = 7\n";
        let b = Baseline::parse(text).expect("parses");
        assert_eq!(b.allowed("a.rs", "r"), 7);
    }
}
