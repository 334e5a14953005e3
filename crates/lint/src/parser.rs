//! Item-level parser: just enough structure on top of the token stream
//! for the semantic analyses. It recognises `fn` signatures (names,
//! params with their flattened types, body token range),
//! `use` declarations (crate root + imported leaf names) and `let`
//! statements (bound names, type span, initializer). There is
//! deliberately **no** expression grammar — the unit-flow and
//! RNG-dataflow analyses walk raw tokens inside the body ranges this
//! parser hands them.
//!
//! Robustness contract mirrors the lexer's: anything the parser cannot
//! make sense of degrades to a skipped item, never a panic and never a
//! bogus signature.

use crate::lexer::{Token, TokenKind};
use crate::source::{interior, match_delim};

/// A parameter: pattern name and flattened type text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// Binding name (`rng`, `gain_db`); empty for destructuring
    /// patterns.
    pub name: String,
    /// Flattened type: idents space-separated, punctuation verbatim
    /// (`& mut SimRng`, `Vec < f64 >`). Empty when elided.
    pub ty: String,
}

impl Param {
    /// Last path segment of the type (`movr_sim::SimTime` → `SimTime`),
    /// the ident unit/type classification keys on.
    pub fn ty_last_ident(&self) -> Option<&str> {
        self.ty
            .split(|c: char| !c.is_alphanumeric() && c != '_')
            .rfind(|s| !s.is_empty() && !matches!(*s, "mut" | "dyn" | "impl" | "const"))
    }
}

/// A parsed `fn` signature plus the token range of its body.
#[derive(Debug, Clone)]
pub struct FnSig {
    /// Function name.
    pub name: String,
    /// Token index of the `fn` keyword.
    pub start: usize,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// True when the first parameter is a `self` receiver.
    pub has_self: bool,
    /// Parameters in order, `self` excluded.
    pub params: Vec<Param>,
    /// Inclusive token range `(open_brace, close_brace)` of the body;
    /// `None` for trait-signature declarations.
    pub body: Option<(usize, usize)>,
}

/// One imported leaf from a `use` declaration: `use movr_math::db::{a,
/// b as c}` yields leaves `a` and `c`, both rooted at `movr_math`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseLeaf {
    /// First path segment (`movr_math`, `std`, `crate`, `super`).
    pub root: String,
    /// The name the import binds locally (alias-aware); `*` for globs.
    pub name: String,
    /// 1-based line of the `use` keyword.
    pub line: usize,
}

/// A `let` statement (or `if let`/`while let` condition).
#[derive(Debug, Clone)]
pub struct LetStmt {
    /// Token index of the `let` keyword.
    pub start: usize,
    /// The names the pattern binds (`let (mut a, Some(b))` → `a`, `b`):
    /// `mut`/`ref`, paths, constructors and field labels excluded.
    pub names: Vec<String>,
    /// Token range `[lo, hi)` of the type annotation, if any.
    pub ty: Option<(usize, usize)>,
    /// Token index of the `=` before the initializer, if any.
    pub eq: Option<usize>,
    /// Token index one past the statement: its `;`, the `{` of an `if
    /// let` body, or the closer of the enclosing block.
    pub end: usize,
}

impl LetStmt {
    /// The type annotation and initializer: every token after the
    /// pattern.
    pub fn tail<'t>(&self, tokens: &'t [Token]) -> &'t [Token] {
        let lo = self.ty.map(|(lo, _)| lo).or(self.eq).unwrap_or(self.end);
        &tokens[lo..self.end]
    }
}

/// Everything the item-level parser extracted from one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Every `fn` in the file, including nested and `impl`/trait fns.
    pub fns: Vec<FnSig>,
    /// Every leaf bound by a `use` declaration.
    pub uses: Vec<UseLeaf>,
    /// Every `let`, in source order (nested ones included), so sorted
    /// by `start`.
    pub lets: Vec<LetStmt>,
}

impl ParsedFile {
    /// The `let`s whose keyword sits in the token range `[lo, hi)`.
    pub fn lets_in(&self, lo: usize, hi: usize) -> &[LetStmt] {
        let from = self.lets.partition_point(|l| l.start < lo);
        let to = self.lets.partition_point(|l| l.start < hi);
        &self.lets[from..to.max(from)]
    }

    /// The crate a locally-imported name resolves to, if any `use`
    /// brought it in (`SimRng` → `movr_math`).
    pub fn use_root_of(&self, name: &str) -> Option<&str> {
        self.uses
            .iter()
            .find(|u| u.name == name)
            .map(|u| u.root.as_str())
    }
}

/// Parses the token stream of one file. Never panics.
pub fn parse(tokens: &[Token]) -> ParsedFile {
    let mut out = ParsedFile::default();
    let mut i = 0;
    while i < tokens.len() {
        match &tokens[i].kind {
            TokenKind::Ident(w) if w == "use" => {
                i = parse_use(tokens, i, &mut out.uses);
            }
            TokenKind::Ident(w) if w == "fn" => {
                i = parse_fn(tokens, i, &mut out.fns);
            }
            TokenKind::Ident(w) if w == "let" => {
                // Resume inside the statement: its initializer may hold
                // nested `let`s.
                out.lets.push(parse_let(tokens, i));
                i += 1;
            }
            _ => i += 1,
        }
    }
    out
}

/// Parses `use <tree>;` starting at the `use` keyword; returns the
/// index one past the terminating `;`.
fn parse_use(tokens: &[Token], use_idx: usize, out: &mut Vec<UseLeaf>) -> usize {
    let line = tokens[use_idx].line;
    // Find the terminating `;` (depth-free: `use` trees have no parens).
    let mut end = use_idx + 1;
    while end < tokens.len() && !tokens[end].is_punct(';') {
        end += 1;
    }
    let tree = &tokens[use_idx + 1..end.min(tokens.len())];
    collect_use_leaves(tree, line, &[], out);
    end + 1
}

/// Recursively walks a use-tree token slice, accumulating leaves.
/// `prefix` carries the path segments seen so far.
fn collect_use_leaves(tree: &[Token], line: usize, prefix: &[String], out: &mut Vec<UseLeaf>) {
    let mut path: Vec<String> = prefix.to_vec();
    let mut i = 0;
    while i < tree.len() {
        match &tree[i].kind {
            TokenKind::Ident(w) if w == "as" => {
                // Alias: the next ident is the bound name.
                if let Some(TokenKind::Ident(alias)) = tree.get(i + 1).map(|t| &t.kind) {
                    if let Some(root) = path.first() {
                        out.push(UseLeaf { root: root.clone(), name: alias.clone(), line });
                    }
                }
                return;
            }
            TokenKind::Ident(w) => {
                path.push(w.clone());
                i += 1;
            }
            TokenKind::Punct(':') => i += 1,
            TokenKind::Punct('*') => {
                if let Some(root) = path.first() {
                    out.push(UseLeaf { root: root.clone(), name: "*".to_string(), line });
                }
                return;
            }
            TokenKind::Punct('{') => {
                // Group: split the balanced interior at top-level commas
                // and recurse into each branch with the current prefix.
                for branch in split_top_level(interior(tree, i).0, ',') {
                    collect_use_leaves(branch, line, &path, out);
                }
                return;
            }
            _ => i += 1,
        }
    }
    // Plain path: the last segment is the leaf.
    if let (Some(root), Some(leaf)) = (path.first(), path.last()) {
        // `use movr_math;` binds the crate name itself.
        out.push(UseLeaf { root: root.clone(), name: leaf.clone(), line });
    }
}

/// Parses a `fn` item starting at the `fn` keyword; returns the index
/// to resume scanning from (just past the signature, so nested items
/// inside the body are still visited by the main loop).
fn parse_fn(tokens: &[Token], fn_idx: usize, out: &mut Vec<FnSig>) -> usize {
    let line = tokens[fn_idx].line;
    let Some(TokenKind::Ident(name)) = tokens.get(fn_idx + 1).map(|t| &t.kind) else {
        return fn_idx + 1; // `fn` in a type position (`fn(f64) -> f64`)
    };
    let name = name.clone();
    let open = skip_generics(tokens, fn_idx + 2);
    if !tokens.get(open).is_some_and(|t| t.is_punct('(')) {
        return fn_idx + 2;
    }
    let (args, close) = interior(tokens, open);
    let mut has_self = false;
    let mut params = Vec::new();
    for (pi, part) in split_top_level(args, ',').into_iter().enumerate() {
        if part.is_empty() {
            continue;
        }
        if pi == 0 && part.iter().any(|t| t.is_ident("self")) && !part.iter().any(|t| t.is_punct(':'))
        {
            has_self = true;
            continue;
        }
        params.push(parse_param(part));
    }
    // Skip the return type: `-> Type` up to `{`, `;`, or `where`.
    let mut j = close + 1;
    if tokens.get(j).is_some_and(|t| t.is_punct('-'))
        && tokens.get(j + 1).is_some_and(|t| t.is_punct('>'))
    {
        j += 2;
        let mut depth = 0i32;
        while j < tokens.len() {
            match &tokens[j].kind {
                TokenKind::Punct('{') if depth == 0 => break,
                TokenKind::Punct(';') if depth == 0 => break,
                TokenKind::Ident(w) if w == "where" && depth == 0 => break,
                TokenKind::Punct('<') => depth += 1,
                TokenKind::Punct('>') => depth -= 1,
                _ => {}
            }
            j += 1;
        }
    }
    // Body: skip any where clause, then `{ ... }` or `;`.
    let mut body = None;
    while j < tokens.len() {
        if tokens[j].is_punct(';') {
            break;
        }
        if tokens[j].is_punct('{') {
            body = Some((j, match_delim(tokens, j)));
            break;
        }
        j += 1;
    }
    let start = fn_idx;
    out.push(FnSig {
        name,
        start,
        line,
        has_self,
        params,
        body,
    });
    // Resume just past the signature so nested fns are still seen.
    close + 1
}

/// Parses one comma-separated parameter: `mut name: Type`, `&mut self`,
/// or a destructuring pattern (name left empty).
fn parse_param(part: &[Token]) -> Param {
    let colon = split_point(part, ':');
    let (pat, ty) = match colon {
        Some(c) => (&part[..c], &part[c + 1..]),
        None => (part, &part[part.len()..]),
    };
    let mut names: Vec<&str> = Vec::new();
    let mut destructured = false;
    for t in pat {
        match &t.kind {
            TokenKind::Ident(w) if w == "mut" || w == "ref" => {}
            TokenKind::Ident(w) => names.push(w),
            TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('{') => {
                destructured = true;
            }
            _ => {}
        }
    }
    let name = if !destructured && names.len() == 1 {
        names[0].to_string()
    } else {
        String::new()
    };
    Param { name, ty: flatten(ty) }
}

/// Parses a `let` whose keyword is at `let_idx`: the names its pattern
/// binds, its type annotation and `=`, and where the statement ends.
fn parse_let(tokens: &[Token], let_idx: usize) -> LetStmt {
    let prev = let_idx.checked_sub(1).map(|p| &tokens[p]);
    let is_cond = prev.is_some_and(|t| t.is_ident("if") || t.is_ident("while") || t.is_punct('&'));
    let (mut colon, mut eq) = (None, None);
    let (mut depth, mut angle) = (0usize, 0usize);
    let next_is = |k: usize, c: char| tokens.get(k + 1).is_some_and(|t| t.is_punct(c));
    let mut end = let_idx + 1;
    while let Some(t) = tokens.get(end) {
        match t.kind {
            TokenKind::Punct('{') if depth == 0 && is_cond && eq.is_some() => break,
            TokenKind::Punct('(' | '[' | '{') => depth += 1,
            TokenKind::Punct(')' | ']' | '}') if depth == 0 => break,
            TokenKind::Punct(')' | ']' | '}') => depth -= 1,
            TokenKind::Punct(';') if depth == 0 => break,
            // Only the pattern and type, at depth 0, remain to classify.
            _ if depth > 0 || eq.is_some() => {}
            TokenKind::Punct(':') if colon.is_none() => {
                let path = tokens[end - 1].is_punct(':') || next_is(end, ':');
                colon = (!path).then_some(end);
            }
            TokenKind::Punct('<') if colon.is_some() => angle += 1,
            TokenKind::Punct('>') if colon.is_some() && !tokens[end - 1].is_punct('-') => {
                angle = angle.saturating_sub(1);
            }
            // `==` and `=>` are operators, not the initializer's `=`.
            TokenKind::Punct('=') if angle == 0 => {
                eq = (!next_is(end, '=') && !next_is(end, '>')).then_some(end);
            }
            _ => {}
        }
        end += 1;
    }
    let pat = &tokens[let_idx + 1..colon.or(eq).unwrap_or(end)];
    let names = pat
        .iter()
        .enumerate()
        .filter_map(|(k, t)| {
            let TokenKind::Ident(w) = &t.kind else {
                return None;
            };
            let path_tail = k >= 2 && pat[k - 1].is_punct(':') && pat[k - 2].is_punct(':');
            let labels = pat
                .get(k + 1)
                .is_some_and(|n| n.is_punct('(') || n.is_punct('{') || n.is_punct(':'));
            let binds = w != "mut" && w != "ref" && !path_tail && !labels;
            binds.then(|| w.clone())
        })
        .collect();
    let ty = colon.map(|c| (c + 1, eq.unwrap_or(end)));
    LetStmt {
        start: let_idx,
        names,
        ty,
        eq,
        end,
    }
}

/// Index just past the `<…>` generics list starting at `i`, or `i` when
/// there is none (every `<`/`>` counted).
fn skip_generics(tokens: &[Token], mut i: usize) -> usize {
    if !tokens.get(i).is_some_and(|t| t.is_punct('<')) {
        return i;
    }
    let mut depth = 0usize;
    while i < tokens.len() {
        match tokens[i].kind {
            TokenKind::Punct('<') => depth += 1,
            TokenKind::Punct('>') => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    i
}

/// Splits `tokens` at occurrences of `sep` that sit at zero
/// paren/bracket/brace/angle depth.
fn split_top_level(tokens: &[Token], sep: char) -> Vec<&[Token]> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut angle = 0i32;
    let mut start = 0;
    for (k, t) in tokens.iter().enumerate() {
        match t.kind {
            TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('}') => depth -= 1,
            TokenKind::Punct('<') => angle += 1,
            TokenKind::Punct('>') => angle = (angle - 1).max(0),
            TokenKind::Punct(c) if c == sep && depth == 0 && angle == 0 => {
                out.push(&tokens[start..k]);
                start = k + 1;
            }
            _ => {}
        }
    }
    out.push(&tokens[start..]);
    out
}

/// Index of the first `sep` at zero depth, if any.
fn split_point(tokens: &[Token], sep: char) -> Option<usize> {
    let mut depth = 0i32;
    let mut angle = 0i32;
    for (k, t) in tokens.iter().enumerate() {
        match t.kind {
            TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('}') => depth -= 1,
            TokenKind::Punct('<') => angle += 1,
            TokenKind::Punct('>') => angle = (angle - 1).max(0),
            TokenKind::Punct(c) if c == sep && depth == 0 && angle == 0 => {
                // `::` is a path separator, not a type-ascription colon.
                if sep == ':'
                    && (tokens.get(k + 1).is_some_and(|t| t.is_punct(':'))
                        || (k > 0 && tokens[k - 1].is_punct(':')))
                {
                    continue;
                }
                return Some(k);
            }
            _ => {}
        }
    }
    None
}

/// Flattens a token slice into readable type text: idents separated by
/// spaces, punctuation run together (`& mut Vec < f64 >`).
fn flatten(tokens: &[Token]) -> String {
    let mut out = String::new();
    for t in tokens {
        let piece = match &t.kind {
            TokenKind::Ident(s) => s.as_str(),
            TokenKind::Number(s) => s.as_str(),
            TokenKind::Lifetime => "'_",
            TokenKind::Str => "\"\"",
            TokenKind::Char => "'_'",
            TokenKind::Punct(c) => {
                if !out.is_empty() && !out.ends_with(' ') {
                    out.push(' ');
                }
                out.push(*c);
                continue;
            }
        };
        if !out.is_empty() && !out.ends_with(' ') {
            out.push(' ');
        }
        out.push_str(piece);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> ParsedFile {
        parse(&lex(src))
    }

    #[test]
    fn fn_signature_params_and_body() {
        let p = parse_src("pub fn apply_gain(gain_db: f64, rng: &mut SimRng) -> f64 { 0.0 }");
        assert_eq!(p.fns.len(), 1);
        let f = &p.fns[0];
        assert_eq!(f.name, "apply_gain");
        assert!(!f.has_self);
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[0].name, "gain_db");
        assert_eq!(f.params[0].ty, "f64");
        assert_eq!(f.params[1].name, "rng");
        assert_eq!(f.params[1].ty, "& mut SimRng");
        assert_eq!(f.params[1].ty_last_ident(), Some("SimRng"));
        assert!(f.body.is_some());
    }

    #[test]
    fn method_with_self_and_generics() {
        let p = parse_src(
            "impl Foo { pub(crate) fn push<T: Into<f64>>(&mut self, snr_db: T) -> Option<f64> { None } }",
        );
        let f = &p.fns[0];
        assert_eq!(f.name, "push");
        assert!(f.has_self);
        assert_eq!(f.params.len(), 1);
        assert_eq!(f.params[0].name, "snr_db");
        assert!(f.body.is_some(), "a generic return type does not hide the body");
    }

    #[test]
    fn trait_signature_has_no_body() {
        let p = parse_src("trait T { fn probe(&mut self, label: u64) -> f64; }");
        assert!(p.fns[0].body.is_none());
        assert_eq!(p.fns[0].params[0].name, "label");
    }

    #[test]
    fn use_groups_aliases_and_globs() {
        let p = parse_src(
            "use movr_math::{db, rng::SimRng};\nuse movr_sim::SimTime as T;\nuse movr_obs::*;",
        );
        let names: Vec<(&str, &str)> = p
            .uses
            .iter()
            .map(|u| (u.root.as_str(), u.name.as_str()))
            .collect();
        assert_eq!(
            names,
            [("movr_math", "db"), ("movr_math", "SimRng"), ("movr_sim", "T"), ("movr_obs", "*")]
        );
        assert_eq!(p.use_root_of("SimRng"), Some("movr_math"));
    }

    #[test]
    fn nested_fns_are_found_and_destructured_params_skipped() {
        let p = parse_src("fn outer((a, b): (f64, f64)) { fn inner(x_db: f64) {} }");
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["outer", "inner"]);
        assert_eq!(p.fns[0].params[0].name, "", "destructuring pattern has no single name");
    }

    #[test]
    fn where_clause_does_not_swallow_the_body() {
        let toks = lex("fn f<T>(x: T) -> u32 where T: Copy { 1 }");
        let (open, close) = parse(&toks).fns[0].body.expect("a body");
        assert_eq!(flatten(&toks[open..=close]), "{ 1 }");
    }

    #[test]
    fn lets_record_bound_names_type_and_initializer() {
        let src = "fn f() {\n  let (mut a, Some(b)): (u8, Option<u8>) = g();\n  if let Foo { x: c, .. } = h { let d = 1; }\n  let it: Box<dyn Iterator<Item = u8>> = make();\n}";
        let toks = lex(src);
        let p = parse(&toks);
        let names: Vec<_> = p.lets.iter().map(|l| l.names.join(",")).collect();
        assert_eq!(names, ["a,b", "c", "d", "it"]);
        let tails: Vec<_> = p.lets.iter().map(|l| flatten(l.tail(&toks))).collect();
        assert_eq!(tails[0], "( u8 , Option < u8 > ) = g ( )");
        assert_eq!(tails[1], "= h", "an `if let` ends at its body");
        assert_eq!(tails[2], "= 1");
        let (lo, hi) = p.lets[3].ty.expect("annotated");
        assert_eq!(flatten(&toks[lo..hi]), "Box < dyn Iterator < Item = u8 > >");
        assert!(toks[p.lets[3].eq.expect("initialised") + 1].is_ident("make"));
    }
}
