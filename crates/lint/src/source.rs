//! Workspace file model: which crate a file belongs to, whether it is
//! library code, and which token ranges are test-only (`#[cfg(test)]`
//! items). Rules consult this to scope themselves correctly.

use crate::lexer::{lex, Token, TokenKind};
use crate::parser::{self, ParsedFile};

/// Where a `.rs` file sits in the workspace layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// `crates/<name>/src/**` or the root `src/**` — library code.
    Lib,
    /// `tests/**` or `crates/<name>/tests/**` — integration tests.
    Test,
    /// `examples/**`.
    Example,
    /// `crates/<name>/benches/**`.
    Bench,
}

/// A lexed workspace source file plus the classification rules need.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub rel: String,
    /// Crate the file belongs to (`"core"`, `"math"`, … from
    /// `crates/<name>/…`; the root package is `"movr-system"`).
    pub crate_name: String,
    /// Layout role of the file.
    pub kind: FileKind,
    /// Token stream (comments and literal contents already dropped).
    pub tokens: Vec<Token>,
    /// Raw source lines, for snippets and line-anchored rules.
    pub lines: Vec<String>,
    /// Item-level parse (fn signatures, use leaves, lets) for
    /// the semantic analyses.
    pub parsed: ParsedFile,
    /// Token-index ranges `[start, end)` covering `#[cfg(test)]` items.
    test_ranges: Vec<(usize, usize)>,
}

impl SourceFile {
    /// Builds the model from a workspace-relative path and file contents.
    pub fn parse(rel: &str, src: &str) -> SourceFile {
        let tokens = lex(src);
        let test_ranges = compute_test_ranges(&tokens);
        let parsed = parser::parse(&tokens);
        let (crate_name, kind) = classify(rel);
        SourceFile {
            rel: rel.to_string(),
            crate_name,
            kind,
            tokens,
            lines: src.lines().map(str::to_string).collect(),
            parsed,
            test_ranges,
        }
    }

    /// True if the token at `idx` is inside a `#[cfg(test)]` item or the
    /// file as a whole is test/bench/example code.
    pub fn is_test_code(&self, idx: usize) -> bool {
        self.kind != FileKind::Lib || self.in_cfg_test(idx)
    }

    /// True if the token at `idx` is inside a `#[cfg(test)]` item
    /// (regardless of the file's kind).
    pub fn in_cfg_test(&self, idx: usize) -> bool {
        self.test_ranges
            .iter()
            .any(|&(lo, hi)| lo <= idx && idx < hi)
    }

    /// The trimmed raw text of a 1-based source line (empty if out of
    /// range — e.g. a synthetic location).
    pub fn snippet(&self, line: usize) -> String {
        self.lines
            .get(line.wrapping_sub(1))
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }
}

/// Derives `(crate_name, kind)` from a workspace-relative path.
fn classify(rel: &str) -> (String, FileKind) {
    let parts: Vec<&str> = rel.split('/').collect();
    match parts.as_slice() {
        ["crates", name, "src", ..] => ((*name).to_string(), FileKind::Lib),
        ["crates", name, "tests", ..] => ((*name).to_string(), FileKind::Test),
        ["crates", name, "benches", ..] => ((*name).to_string(), FileKind::Bench),
        ["src", ..] => ("movr-system".to_string(), FileKind::Lib),
        ["tests", ..] => ("movr-system".to_string(), FileKind::Test),
        ["examples", ..] => ("movr-system".to_string(), FileKind::Example),
        _ => ("movr-system".to_string(), FileKind::Test),
    }
}

/// Finds token ranges covered by `#[cfg(test)]` (or `#![cfg(test)]`,
/// or `#[cfg(all(test, …))]`) items: the attribute, any further
/// attributes, and the following item through its closing brace or
/// semicolon.
fn compute_test_ranges(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        match cfg_test_attr_end(tokens, i) {
            None => i += 1,
            Some(mut j) => {
                // Skip any further attributes on the same item.
                while j < tokens.len() && tokens[j].is_punct('#') {
                    j = skip_attr(tokens, j);
                }
                // Consume the item: through the matching `}` of its
                // first brace, or through a top-level `;`.
                let mut k = j;
                let end = loop {
                    if k >= tokens.len() {
                        break tokens.len();
                    }
                    if tokens[k].is_punct('{') {
                        break match_delim(tokens, k) + 1;
                    }
                    if tokens[k].is_punct(';') {
                        break k + 1;
                    }
                    k += 1;
                };
                out.push((i, end));
                i = end.max(i + 1);
            }
        }
    }
    out
}

/// If `tokens[i]` starts a `#[cfg(test)]`-style attribute, returns the
/// index one past its closing `]`.
fn cfg_test_attr_end(tokens: &[Token], i: usize) -> Option<usize> {
    if !tokens.get(i)?.is_punct('#') {
        return None;
    }
    let mut j = i + 1;
    if tokens.get(j)?.is_punct('!') {
        j += 1;
    }
    if !tokens.get(j)?.is_punct('[') {
        return None;
    }
    let (body, close) = interior(tokens, j);
    let has_cfg = body.iter().any(|t| t.is_ident("cfg"));
    let has_test = body.iter().any(|t| t.is_ident("test"));
    if has_cfg && has_test {
        Some(close + 1)
    } else {
        None
    }
}

/// `tokens[i]` is `#`; returns the index one past the attribute's `]`.
fn skip_attr(tokens: &[Token], i: usize) -> usize {
    let mut j = i + 1;
    if tokens.get(j).is_some_and(|t| t.is_punct('!')) {
        j += 1;
    }
    if tokens.get(j).is_some_and(|t| t.is_punct('[')) {
        match_delim(tokens, j) + 1
    } else {
        j
    }
}

/// `tokens[open]` is `(`, `[` or `{`; returns the index of its matching
/// closer. An unclosed delimiter matches itself: its interior is empty,
/// and a scan resuming at `close + 1` still visits what follows it.
pub fn match_delim(tokens: &[Token], open: usize) -> usize {
    let (lo, hi) = match tokens.get(open).map(|t| &t.kind) {
        Some(TokenKind::Punct('(')) => ('(', ')'),
        Some(TokenKind::Punct('[')) => ('[', ']'),
        Some(TokenKind::Punct('{')) => ('{', '}'),
        _ => return open,
    };
    let mut depth = 0usize;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct(lo) {
            depth += 1;
        } else if t.is_punct(hi) {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    open
}

/// The tokens strictly inside the delimiter at `open`, and the index of
/// its closer (see [`match_delim`]).
pub fn interior(tokens: &[Token], open: usize) -> (&[Token], usize) {
    let close = match_delim(tokens, open);
    (tokens.get(open + 1..close).unwrap_or_default(), close)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_mod_is_marked() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n  fn t() { x.unwrap(); }\n}\nfn tail() {}";
        let f = SourceFile::parse("crates/demo/src/lib.rs", src);
        let unwrap_idx = f
            .tokens
            .iter()
            .position(|t| t.is_ident("unwrap"))
            .expect("unwrap token");
        let tail_idx = f
            .tokens
            .iter()
            .position(|t| t.is_ident("tail"))
            .expect("tail token");
        assert!(f.is_test_code(unwrap_idx));
        assert!(!f.is_test_code(tail_idx));
    }

    #[test]
    fn cfg_all_test_counts() {
        let src = "#[cfg(all(test, feature = \"x\"))]\nmod tests { fn t() {} }";
        let f = SourceFile::parse("crates/demo/src/lib.rs", src);
        assert!(f.is_test_code(f.tokens.len() - 1));
    }

    #[test]
    fn classify_layout() {
        assert_eq!(classify("crates/core/src/session.rs").0, "core");
        assert_eq!(classify("crates/core/src/session.rs").1, FileKind::Lib);
        assert_eq!(classify("tests/end_to_end.rs").1, FileKind::Test);
        assert_eq!(classify("examples/quickstart.rs").1, FileKind::Example);
        assert_eq!(classify("crates/bench/benches/microbench.rs").1, FileKind::Bench);
        assert_eq!(classify("src/lib.rs").1, FileKind::Lib);
    }

    #[test]
    fn non_test_files_are_wholly_test_code() {
        let f = SourceFile::parse("tests/e2e.rs", "fn x() { y.unwrap(); }");
        assert!(f.is_test_code(0));
    }
}
