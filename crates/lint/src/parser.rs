//! Item-level parser: just enough structure on top of the token stream
//! for the semantic analyses. It recognises `fn` signatures (names,
//! params with their flattened types, return type, body token range),
//! `use` declarations (crate root + imported leaf names), `struct`
//! definitions (field names and types), closures and `let` statements
//! (bound names, type span, initializer). There is deliberately **no**
//! expression grammar — the unit-flow and RNG-dataflow analyses walk
//! raw tokens inside the body ranges this parser hands them.
//!
//! Robustness contract mirrors the lexer's: anything the parser cannot
//! make sense of degrades to a skipped item, never a panic and never a
//! bogus signature.

use crate::lexer::{Token, TokenKind};
use crate::source::{interior, match_delim};

/// A parameter (or struct field): pattern name and flattened type text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// Binding name (`rng`, `gain_db`); empty for destructuring
    /// patterns and tuple-struct fields.
    pub name: String,
    /// Flattened type: idents space-separated, punctuation verbatim
    /// (`& mut SimRng`, `Vec < f64 >`). Empty when elided.
    pub ty: String,
    /// 1-based line the parameter/field starts on (0 when synthetic).
    pub line: usize,
}

impl Param {
    /// Last path segment of the type (`movr_sim::SimTime` → `SimTime`),
    /// the ident unit/type classification keys on.
    pub fn ty_last_ident(&self) -> Option<&str> {
        self.ty.split(|c: char| !c.is_alphanumeric() && c != '_')
            .filter(|s| !s.is_empty())
            .filter(|s| !matches!(*s, "mut" | "dyn" | "impl" | "const"))
            .next_back()
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
    /// True for unrestricted `pub` (not `pub(crate)` etc.).
    pub is_pub: bool,
    /// True when the first parameter is a `self` receiver.
    pub has_self: bool,
    /// Parameters in order, `self` excluded.
    pub params: Vec<Param>,
    /// Flattened return type, `None` for `()`-returning fns.
    pub ret: Option<String>,
    /// Inclusive token range `(open_brace, close_brace)` of the body;
    /// `None` for trait-signature declarations.
    pub body: Option<(usize, usize)>,
    /// Self type of the innermost enclosing `impl` block (`impl Foo` or
    /// `impl Trait for Foo` both yield `Foo`); `None` for free fns and
    /// body-less trait signatures.
    pub owner: Option<String>,
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

/// A parsed `struct` definition.
#[derive(Debug, Clone)]
pub struct StructDef {
    /// Type name.
    pub name: String,
    /// 1-based line of the `struct` keyword.
    pub line: usize,
    /// Named fields (empty for tuple/unit structs).
    pub fields: Vec<Param>,
}

/// A closure expression: `|i, &x| body`, `move || { … }`. The parser
/// records parameter binding names and the body token range; the
/// parallel-capture analysis walks the body the same way the other
/// semantic passes walk `fn` bodies.
#[derive(Debug, Clone)]
pub struct ClosureExpr {
    /// 1-based line of the opening `|`.
    pub line: usize,
    /// Token index of the opening `|`.
    pub start: usize,
    /// Binding idents across all parameter patterns (`|_, &seed|` →
    /// `["_", "seed"]`; `mut`/`ref` and type annotations excluded).
    pub params: Vec<String>,
    /// Inclusive token range of the body: the `{ … }` block when the
    /// body is braced, otherwise the trailing expression up to the
    /// enclosing `,`, `;`, or closing delimiter.
    pub body: (usize, usize),
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
    /// Every `struct` definition.
    pub structs: Vec<StructDef>,
    /// Every closure expression, in source order (nested closures
    /// included — a `.map(|x| …)` inside a spawned closure gets its own
    /// entry).
    pub closures: Vec<ClosureExpr>,
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
            TokenKind::Ident(w) if w == "struct" => {
                i = parse_struct(tokens, i, &mut out.structs);
            }
            TokenKind::Ident(w) if w == "let" => {
                // Resume inside the statement: its initializer may hold
                // closures and nested `let`s.
                out.lets.push(parse_let(tokens, i));
                i += 1;
            }
            TokenKind::Punct('|') => {
                // Resume just past the parameter list so closures nested
                // inside the body are still visited by this loop.
                if let Some((closure, resume)) = parse_closure(tokens, i) {
                    out.closures.push(closure);
                    i = resume;
                } else {
                    i += 1;
                }
            }
            _ => i += 1,
        }
    }
    // Attach impl-block owners: a fn whose body opens inside an `impl`
    // block belongs to that block's self type. Innermost block wins
    // (nested impls do not occur in this codebase, but be safe).
    let impls = scan_impls(tokens);
    for f in &mut out.fns {
        if let Some((open, _)) = f.body {
            f.owner = impls
                .iter()
                .filter(|(lo, hi, _)| *lo < open && open <= *hi)
                .min_by_key(|(lo, hi, _)| hi - lo)
                .map(|(_, _, name)| name.clone());
        }
    }
    out
}

/// Finds every `impl` block: `(open_brace, close_brace, self_type)`.
/// The self type is the first ident at zero angle depth after the
/// keyword — or, for `impl Trait for Type`, the first ident after
/// `for`. Headers the scanner cannot make sense of are skipped.
fn scan_impls(tokens: &[Token]) -> Vec<(usize, usize, String)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if !tokens[i].is_ident("impl") {
            i += 1;
            continue;
        }
        let mut angle = 0i32;
        let mut name: Option<String> = None;
        let mut after_for: Option<String> = None;
        let mut saw_for = false;
        let mut j = i + 1;
        let open = loop {
            let Some(t) = tokens.get(j) else { break None };
            match &t.kind {
                TokenKind::Punct('<') => angle += 1,
                TokenKind::Punct('>') => angle = (angle - 1).max(0),
                TokenKind::Punct('{') if angle == 0 => break Some(j),
                TokenKind::Punct(';') if angle == 0 => break None,
                TokenKind::Ident(w) if angle == 0 => match w.as_str() {
                    "for" => saw_for = true,
                    "where" => {}
                    "dyn" | "const" | "unsafe" | "mut" => {}
                    w => {
                        if saw_for {
                            after_for.get_or_insert_with(|| w.to_string());
                        } else {
                            name.get_or_insert_with(|| w.to_string());
                        }
                    }
                },
                _ => {}
            }
            j += 1;
        };
        let Some(open) = open else {
            i = j.max(i + 1);
            continue;
        };
        let close = match_delim(tokens, open);
        if let Some(owner) = after_for.or(name) {
            out.push((open, close, owner));
        }
        // Resume just inside the block so nested impls are still seen.
        i = open + 1;
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
    let is_pub = leading_pub(tokens, fn_idx);
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
    // Return type: `-> Type` up to `{`, `;`, or `where`.
    let mut j = close + 1;
    let mut ret = None;
    if tokens.get(j).is_some_and(|t| t.is_punct('-'))
        && tokens.get(j + 1).is_some_and(|t| t.is_punct('>'))
    {
        let start = j + 2;
        let mut k = start;
        let mut depth = 0i32;
        while k < tokens.len() {
            match &tokens[k].kind {
                TokenKind::Punct('{') if depth == 0 => break,
                TokenKind::Punct(';') if depth == 0 => break,
                TokenKind::Ident(w) if w == "where" && depth == 0 => break,
                TokenKind::Punct('<') => depth += 1,
                TokenKind::Punct('>') => depth -= 1,
                _ => {}
            }
            k += 1;
        }
        ret = Some(flatten(&tokens[start..k.min(tokens.len())]));
        j = k;
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
        is_pub,
        has_self,
        params,
        ret,
        body,
        owner: None,
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
    let line = part.first().map_or(0, |t| t.line);
    Param { name, ty: flatten(ty), line }
}

/// Parses a `struct` item starting at the keyword; returns the resume
/// index (past the item for braced/unit structs).
fn parse_struct(tokens: &[Token], kw_idx: usize, out: &mut Vec<StructDef>) -> usize {
    let line = tokens[kw_idx].line;
    let Some(TokenKind::Ident(name)) = tokens.get(kw_idx + 1).map(|t| &t.kind) else {
        return kw_idx + 1;
    };
    let name = name.clone();
    let i = skip_generics(tokens, kw_idx + 2);
    let mut fields = Vec::new();
    let resume;
    match tokens.get(i).map(|t| &t.kind) {
        Some(TokenKind::Punct('{')) => {
            let (body, close) = interior(tokens, i);
            for part in split_top_level(body, ',') {
                if part.is_empty() {
                    continue;
                }
                // Drop visibility and attributes on the field.
                let part = strip_field_prefix(part);
                if part.iter().any(|t| t.is_punct(':')) {
                    fields.push(parse_param(part));
                }
            }
            resume = close + 1;
        }
        Some(TokenKind::Punct('(')) => {
            // Tuple struct: record types without names.
            let (body, close) = interior(tokens, i);
            for part in split_top_level(body, ',') {
                let part = strip_field_prefix(part);
                if !part.is_empty() {
                    fields.push(Param {
                        name: String::new(),
                        ty: flatten(part),
                        line: part[0].line,
                    });
                }
            }
            resume = close + 1;
        }
        _ => resume = i, // unit struct `struct X;` or something exotic
    }
    out.push(StructDef { name, line, fields });
    resume
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

/// Parses a closure expression whose opening `|` is at `open`; returns
/// the closure and the index to resume scanning from (just past the
/// parameter list, so nested closures in the body are still seen).
///
/// Disambiguation from binary `|`/`||` is positional: a closure can only
/// start where an *expression* starts, i.e. after an opening delimiter,
/// a separator (`,` `;` `=` `>` from `=>`), `&`, or one of the keywords
/// `move`/`return`/`else`/`in`. A `|` preceded by an ident, number, or
/// closing paren is an operator and is skipped. Anything that still
/// fails to close (e.g. a leading-pipe match arm with no second `|`)
/// degrades to `None`, never a bogus closure.
fn parse_closure(tokens: &[Token], open: usize) -> Option<(ClosureExpr, usize)> {
    if !closure_position(tokens, open) {
        return None;
    }
    // Closing `|` of the parameter list: adjacent for `||`, otherwise
    // the first `|` at zero delimiter depth.
    let close = if tokens.get(open + 1).is_some_and(|t| t.is_punct('|')) {
        open + 1
    } else {
        let mut depth = 0i32;
        let mut j = open + 1;
        loop {
            let t = tokens.get(j)?;
            match t.kind {
                TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('{') => depth += 1,
                TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('}') => {
                    if depth == 0 {
                        return None; // operator `|` after all
                    }
                    depth -= 1;
                }
                TokenKind::Punct('|') if depth == 0 => break j,
                TokenKind::Punct(';') if depth == 0 => return None,
                _ => {}
            }
            j += 1;
        }
    };
    let mut params = Vec::new();
    for part in split_top_level(&tokens[open + 1..close], ',') {
        // Idents of the pattern only — everything past a `:` is a type.
        let pat = match split_point(part, ':') {
            Some(c) => &part[..c],
            None => part,
        };
        for t in pat {
            if let TokenKind::Ident(w) = &t.kind {
                if w != "mut" && w != "ref" {
                    params.push(w.clone());
                }
            }
        }
    }
    // Body: a brace block, or the expression up to the enclosing
    // `,`/`;`/closing delimiter at zero depth.
    let body = match tokens.get(close + 1).map(|t| &t.kind) {
        Some(TokenKind::Punct('{')) => (close + 1, match_delim(tokens, close + 1)),
        Some(_) => {
            let mut depth = 0i32;
            let mut k = close + 1;
            let end = loop {
                let Some(t) = tokens.get(k) else {
                    break tokens.len() - 1;
                };
                match t.kind {
                    TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('{') => {
                        depth += 1
                    }
                    TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('}') => {
                        if depth == 0 {
                            break k - 1;
                        }
                        depth -= 1;
                    }
                    TokenKind::Punct(',') | TokenKind::Punct(';') if depth == 0 => break k - 1,
                    _ => {}
                }
                k += 1;
            };
            if end <= close {
                return None; // empty body (`|x|)` — not a closure)
            }
            (close + 1, end)
        }
        None => return None,
    };
    let closure = ClosureExpr { line: tokens[open].line, start: open, params, body };
    Some((closure, close + 1))
}

/// True when a `|` at `open` sits in expression-start position.
fn closure_position(tokens: &[Token], open: usize) -> bool {
    let Some(prev) = open.checked_sub(1).map(|i| &tokens[i]) else {
        return true;
    };
    match &prev.kind {
        TokenKind::Punct(c) => matches!(c, '(' | ',' | '=' | '{' | ';' | '[' | '>' | '&' | ':'),
        TokenKind::Ident(w) => matches!(w.as_str(), "move" | "return" | "else" | "in"),
        _ => false,
    }
}

/// Strips leading `pub`/`pub(...)` and `#[...]` attributes from a field.
fn strip_field_prefix(mut part: &[Token]) -> &[Token] {
    loop {
        match part.first().map(|t| &t.kind) {
            Some(TokenKind::Punct('#')) => {
                // Attribute: skip to past the matching `]`.
                if part.get(1).is_some_and(|t| t.is_punct('[')) {
                    part = &part[match_delim(part, 1) + 1..];
                } else {
                    part = &part[1..];
                }
            }
            Some(TokenKind::Ident(w)) if w == "pub" => {
                if part.get(1).is_some_and(|t| t.is_punct('(')) {
                    part = &part[match_delim(part, 1) + 1..];
                } else {
                    part = &part[1..];
                }
            }
            _ => return part,
        }
    }
}

/// True when the tokens just before `fn` make it an unrestricted `pub`
/// item (`pub fn`, `pub const fn`, `pub unsafe fn` — but not
/// `pub(crate) fn`, which is crate-internal).
fn leading_pub(tokens: &[Token], fn_idx: usize) -> bool {
    let mut i = fn_idx;
    let mut steps = 0;
    while i > 0 && steps < 6 {
        i -= 1;
        steps += 1;
        match &tokens[i].kind {
            TokenKind::Ident(w) if matches!(w.as_str(), "const" | "unsafe" | "async" | "extern") => {}
            TokenKind::Str => {} // `extern "C"`
            TokenKind::Punct(')') => {
                // Possibly the `(crate)` of a restricted pub: walk to
                // its `(` and keep looking left.
                let mut depth = 1;
                while i > 0 && depth > 0 {
                    i -= 1;
                    match tokens[i].kind {
                        TokenKind::Punct(')') => depth += 1,
                        TokenKind::Punct('(') => depth -= 1,
                        _ => {}
                    }
                }
                // `pub(...)`: restricted, not public API.
                if i > 0 && tokens[i - 1].is_ident("pub") {
                    return false;
                }
                return false;
            }
            TokenKind::Ident(w) if w == "pub" => return true,
            _ => return false,
        }
    }
    false
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
    fn fn_signature_params_and_ret() {
        let p = parse_src("pub fn apply_gain(gain_db: f64, rng: &mut SimRng) -> f64 { 0.0 }");
        assert_eq!(p.fns.len(), 1);
        let f = &p.fns[0];
        assert_eq!(f.name, "apply_gain");
        assert!(f.is_pub);
        assert!(!f.has_self);
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[0].name, "gain_db");
        assert_eq!(f.params[0].ty, "f64");
        assert_eq!(f.params[1].name, "rng");
        assert_eq!(f.params[1].ty, "& mut SimRng");
        assert_eq!(f.params[1].ty_last_ident(), Some("SimRng"));
        assert_eq!(f.ret.as_deref(), Some("f64"));
        assert!(f.body.is_some());
    }

    #[test]
    fn method_with_self_and_generics() {
        let p = parse_src(
            "impl Foo { pub(crate) fn push<T: Into<f64>>(&mut self, snr_db: T) -> Option<f64> { None } }",
        );
        let f = &p.fns[0];
        assert_eq!(f.name, "push");
        assert!(!f.is_pub, "pub(crate) is not public API");
        assert!(f.has_self);
        assert_eq!(f.params.len(), 1);
        assert_eq!(f.params[0].name, "snr_db");
        assert_eq!(f.ret.as_deref(), Some("Option < f64 >"));
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
    fn struct_fields_with_attrs_and_vis() {
        let p = parse_src(
            "pub struct Link { pub snr_db: f64, #[doc(hidden)] raw: Vec<u8>, }\nstruct P(f64, u32);\nstruct U;",
        );
        assert_eq!(p.structs.len(), 3);
        let link = &p.structs[0];
        assert_eq!(link.name, "Link");
        assert_eq!(link.fields.len(), 2);
        assert_eq!(link.fields[0].name, "snr_db");
        assert_eq!(link.fields[1].name, "raw");
        assert_eq!(p.structs[1].fields.len(), 2);
        assert!(p.structs[2].fields.is_empty());
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
        let p = parse_src("fn f<T>(x: T) -> u32 where T: Copy { 1 }");
        assert_eq!(p.fns[0].ret.as_deref(), Some("u32"));
        assert!(p.fns[0].body.is_some());
    }

    #[test]
    fn struct_fields_carry_their_lines() {
        let p = parse_src("struct S {\n  a: u32,\n  b: f64,\n}");
        assert_eq!(p.structs[0].fields[0].line, 2);
        assert_eq!(p.structs[0].fields[1].line, 3);
    }

    #[test]
    fn closure_params_and_expression_body() {
        let p = parse_src("fn f() { pool_map(&v, 4, |i, &x| x + i) }");
        assert_eq!(p.closures.len(), 1);
        let c = &p.closures[0];
        assert_eq!(c.params, ["i", "x"]);
        // Body covers `x + i` and stops at the call's closing paren.
        assert_eq!(c.body.1 - c.body.0, 2);
    }

    #[test]
    fn closure_block_body_and_move() {
        let p = parse_src("fn f() { scope.spawn(move || { work(); more() }); }");
        assert_eq!(p.closures.len(), 1);
        let c = &p.closures[0];
        assert!(c.params.is_empty());
        let toks = lex("fn f() { scope.spawn(move || { work(); more() }); }");
        assert!(toks[c.body.0].is_punct('{'));
        assert!(toks[c.body.1].is_punct('}'));
    }

    #[test]
    fn nested_closures_are_both_found() {
        let p = parse_src("fn f() { outer(|a| inner(|b: &str| b.len() + a)) }");
        let params: Vec<_> = p.closures.iter().map(|c| c.params.clone()).collect();
        assert_eq!(params, [vec!["a".to_string()], vec!["b".to_string()]]);
    }

    #[test]
    fn operator_pipes_are_not_closures() {
        assert!(parse_src("fn f(a: u32, b: u32) -> u32 { a | b }").closures.is_empty());
        assert!(parse_src("fn f(a: bool, b: bool) -> bool { a || b }").closures.is_empty());
        assert!(parse_src("fn f(m: M) -> u32 { match m { M::A | M::B => 1, _ => 0 } }")
            .closures
            .is_empty());
    }

    #[test]
    fn impl_owner_is_attached_to_methods() {
        let p = parse_src(
            "impl Session { pub fn step(&mut self) -> u64 { 0 } }\nfn free() {}\nimpl Display for Frame { fn fmt(&self) -> u8 { 1 } }",
        );
        let owners: Vec<(&str, Option<&str>)> = p
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.owner.as_deref()))
            .collect();
        assert_eq!(
            owners,
            [("step", Some("Session")), ("free", None), ("fmt", Some("Frame"))]
        );
    }

    #[test]
    fn generic_impl_headers_resolve_the_self_type() {
        let p = parse_src(
            "impl<T: Into<f64>> Histogram<T> where T: Copy { fn push(&mut self, v: T) {} }",
        );
        assert_eq!(p.fns[0].owner.as_deref(), Some("Histogram"));
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

    #[test]
    fn typed_closure_params_exclude_the_type() {
        let p = parse_src("fn f() { let rel = |path: &Path| path.display(); }");
        assert_eq!(p.closures[0].params, ["path"]);
    }
}
