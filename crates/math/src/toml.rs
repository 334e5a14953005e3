//! The workspace's one TOML reader, for the subset its checked-in
//! configs use, one item per line: `[a.b]` and `[[a]]` headers,
//! `key = value` pairs, blank lines, and full-line or trailing `#`
//! comments. Each value (a quoted string, a number, a `["…"]` list) is
//! also JSON, so [`crate::json`] reads it and stops where it ends; a
//! `#` inside a string stays data. As in TOML, a key set twice in one
//! table or a repeated `[table]` header is an error naming its line:
//! keeping either value would let a stray line silently loosen a pin.
//! Mapping tables onto typed configs is each caller's job.

use crate::json::Json;
use std::fmt;

/// One table: the root (the keys before the first header) or the
/// keys under one `[name]` or `[[name]]` header.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Table<'a> {
    /// The header's name, dots included (`bench.sweep`); empty for the
    /// root table.
    pub name: &'a str,
    /// True for an `[[name]]` array-of-tables entry.
    pub array: bool,
    /// 1-based line of the header; 0 for the root table.
    pub line: usize,
    /// `(key, value, line)` in file order.
    pub keys: Vec<(&'a str, Json<'a>, usize)>,
}

impl<'a> Table<'a> {
    /// The value of `key` and its line, if the table sets it.
    pub fn get(&self, key: &str) -> Option<(&Json<'a>, usize)> {
        let (_, value, line) = self.keys.iter().find(|(k, _, _)| *k == key)?;
        Some((value, *line))
    }
}

/// A line the reader could not take.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TomlError {
    /// 1-based line.
    pub line: usize,
    /// What went wrong.
    pub what: String,
}

impl fmt::Display for TomlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.what)
    }
}

impl std::error::Error for TomlError {}

/// Reads `text` into its tables in file order. The root table comes
/// first, even when it holds no keys.
pub fn parse(text: &str) -> Result<Vec<Table<'_>>, TomlError> {
    let mut tables = Vec::new();
    let mut cur = Table::default();
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let err = |what: String| TomlError { line, what };
        let item = raw.trim();
        if item.is_empty() || item.starts_with('#') {
            continue;
        }
        if item.starts_with('[') {
            // Table names hold no `#`, so the first one starts a comment.
            let header = item.split('#').next().unwrap_or(item).trim_end();
            let Some(inner) = header.strip_prefix('[').and_then(|h| h.strip_suffix(']')) else {
                return Err(err(format!("malformed table header `{item}`")));
            };
            let (name, array) = match inner.strip_prefix('[').and_then(|h| h.strip_suffix(']')) {
                Some(name) => (name.trim(), true),
                None => (inner.trim(), false),
            };
            // Only `[[name]]` entries may share a name.
            let clash = |t: &&Table| t.name == name && !(t.array && array);
            if let Some(prev) = tables.iter().chain([&cur]).find(clash) {
                let first = prev.line;
                return Err(err(format!("table `{name}` was defined on line {first}")));
            }
            let next = Table {
                name,
                array,
                line,
                keys: Vec::new(),
            };
            tables.push(std::mem::replace(&mut cur, next));
            continue;
        }
        let Some((key, rest)) = item.split_once('=') else {
            return Err(err(format!("expected `key = value`, got `{item}`")));
        };
        let key = key.trim();
        let (value, end) = Json::parse_prefix(rest).map_err(|e| {
            let forms = "a \"string\", an integer or float, or a [\"…\"] list";
            let what = e.what;
            err(format!("bad value for `{key}` ({what}): expected {forms}"))
        })?;
        if !(rest[end..].is_empty() || rest[end..].starts_with('#')) {
            return Err(err(format!("unexpected text after the value of `{key}`")));
        }
        if let Some((_, first)) = cur.get(key) {
            return Err(err(format!("key `{key}` is already set on line {first}")));
        }
        cur.keys.push((key, value, line));
    }
    tables.push(cur);
    Ok(tables)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_tables_keys_and_lines_in_file_order() {
        let text = "\
# header comment
schema = 1

[bench.sweep]   # trailing comment
median_ns = 9419198.5  # pinned
max_ratio = 4.0

[[entry]]
file = \"a # b.rs\"
allowed = [\"math\", \"sim\"]
[[entry]]
file = \"c\\\"d\"
";
        let tables = parse(text).expect("valid subset");
        let shape: Vec<_> = tables
            .iter()
            .map(|t| (t.name, t.array, t.line, t.keys.len()))
            .collect();
        assert_eq!(
            shape,
            [
                ("", false, 0, 1),
                ("bench.sweep", false, 4, 2),
                ("entry", true, 8, 2),
                ("entry", true, 11, 1)
            ]
        );
        assert_eq!(tables[0].keys[0], ("schema", Json::Num(1.0), 2));
        assert_eq!(tables[1].keys[0].1.as_f64(), Some(9_419_198.5));
        assert_eq!(tables[1].keys[1].2, 6);
        // A `#` inside a string is data, not a comment.
        assert_eq!(tables[2].keys[0].1.as_str(), Some("a # b.rs"));
        let Json::Arr(list) = &tables[2].keys[1].1 else {
            panic!("`allowed` is a list");
        };
        assert_eq!(list.iter().map(Json::as_str).collect::<Vec<_>>(), [Some("math"), Some("sim")]);
        assert_eq!(tables[3].keys[0].1.as_str(), Some("c\"d"));
        assert_eq!(parse("").expect("empty").len(), 1);
    }

    #[test]
    fn errors_name_the_line() {
        for (text, line, what) in [
            ("a = 1\nnot a pair\n", 2, "key = value"),
            ("[x]\nn = fast\n", 2, "bad value for `n`"),
            ("a = 1 2\n", 1, "unexpected text"),
            ("a = \"open\n", 1, "unterminated"),
            ("[a\n", 1, "malformed table header"),
            ("x = 1\n[t]\nx = 2\nx = 3\n", 4, "already set on line 3"),
            ("[b.x]\nm = 1\nm = 2\n", 3, "`m` is already set on line 2"),
            ("[a]\n[b]\n[a]\n", 3, "was defined on line 1"),
            ("[[a]]\n[a]\n", 2, "was defined on line 1"),
            ("[a]\n[[a]]\n", 2, "was defined on line 1"),
        ] {
            let e = parse(text).expect_err(text);
            assert_eq!(e.line, line, "{text}: {e}");
            assert!(e.what.contains(what), "{text}: {e}");
        }
        // `[[name]]` entries repeat by design; their keys are per entry.
        assert!(parse("[[a]]\nk = 1\n[[a]]\nk = 2\n").is_ok());
    }
}
