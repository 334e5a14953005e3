//! Transitive effect inference over the call graph, and the three v4
//! contract rules built on it.
//!
//! Each node gets a *direct* effect set from a token-vocabulary scan of
//! its own body (nested fns excluded — they are their own nodes), then
//! effects propagate caller-ward to a fixpoint: `effects(f) =
//! direct(f) ∪ ⋃ effects(callees(f))`. The lattice is a six-bit set
//! joined by union, so the fixpoint is the unique least one and the
//! result is independent of file or worklist order — a property the
//! test suite pins by permuting the file list.
//!
//! The effect vocabulary:
//!
//! * `rng-draw` — a draw or fork on some `SimRng` stream (`.next_u64(`,
//!   `.uniform(`, `.fork(`, …). Seeding a fresh local stream is *not* a
//!   draw: it consumes no shared state.
//! * `wall-clock` — `Instant` / `SystemTime` (the transitive companion
//!   of the site-local `no-wall-clock` rule).
//! * `blocking-io` — file/stdio/net types, `sleep`, and the print
//!   macro family.
//! * `panic` — `.unwrap(` / `.expect(`, the panic macro family
//!   (`panic!`, `unreachable!`, `todo!`, `unimplemented!`, `assert!`
//!   and friends; `debug_assert*` compiles out of release builds and is
//!   exempt), and indexing (`x[i]` can panic; `.get` cannot). A panic
//!   site whose line carries a `// lint:` justification is exempt —
//!   the same escape hatch `unjustified-allow` standardises.
//! * `sink-write` — a Recorder-vocabulary method call (`.record(`,
//!   `.start_span(`, `.end_span(`). Modeled as an effect instead of
//!   resolved dispatch so `recorded-effect-divergence` can ignore it.
//! * `interior-mut` — the `RefCell`/`Cell`/`Rc` vocabulary shared with
//!   the v3 capture pass.
//!
//! Witnesses: for every (node, effect) with a direct site, the first
//! site is remembered; diagnostics walk the graph from the root to a
//! direct site (smallest node id first — deterministic) and print the
//! call path, so a finding like "panic reachable from decode" names
//! the exact `expect` five calls down.

use crate::callgraph::{CallGraph, SINK_METHODS};
use crate::lexer::TokenKind;
use crate::par_capture::INTERIOR_MUT;
use crate::rules::Diagnostic;
use crate::source::{FileKind, SourceFile};
use std::collections::{BTreeMap, BTreeSet};

/// A set of the six effect kinds, joined by union.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EffectSet(u8);

/// Effect bit indices, in display order.
pub const EFFECT_NAMES: &[&str] = &[
    "rng-draw",
    "wall-clock",
    "blocking-io",
    "panic",
    "sink-write",
    "interior-mut",
];

pub const RNG_DRAW: u8 = 0;
pub const WALL_CLOCK: u8 = 1;
pub const BLOCKING_IO: u8 = 2;
pub const PANIC: u8 = 3;
pub const SINK_WRITE: u8 = 4;
pub const INTERIOR_MUT_FX: u8 = 5;

impl EffectSet {
    /// The empty set.
    pub const EMPTY: EffectSet = EffectSet(0);

    /// Set containing only `bit`.
    pub fn just(bit: u8) -> EffectSet {
        EffectSet(1 << bit)
    }

    /// True when `bit` is present.
    pub fn has(self, bit: u8) -> bool {
        self.0 & (1 << bit) != 0
    }

    /// Union join.
    pub fn union(self, other: EffectSet) -> EffectSet {
        EffectSet(self.0 | other.0)
    }

    /// Self with `bit` cleared.
    pub fn without(self, bit: u8) -> EffectSet {
        EffectSet(self.0 & !(1 << bit))
    }

    /// Bits in `self` missing from `other`, as display names.
    pub fn diff_names(self, other: EffectSet) -> Vec<&'static str> {
        EFFECT_NAMES
            .iter()
            .enumerate()
            .filter(|&(b, _)| self.0 & (1 << b) != 0 && other.0 & (1 << b) == 0)
            .map(|(_, name)| *name)
            .collect()
    }
}

/// Draw/fork methods on a `SimRng` stream (`crates/math/src/rng.rs`).
const RNG_METHODS: &[&str] = &[
    "next_u64", "next_u32", "fill_bytes", "unit_f64", "uniform", "uniform_usize",
    "std_normal", "normal", "chance", "phase", "fork",
];

/// Types whose mention means blocking I/O.
const IO_TYPES: &[&str] = &["File", "OpenOptions", "TcpStream", "TcpListener", "UdpSocket"];

/// Free functions / handles that mean blocking I/O.
const IO_CALLS: &[&str] = &["stdin", "stdout", "stderr", "sleep"];

/// Macros that print (stdio is blocking I/O).
const PRINT_MACROS: &[&str] = &["println", "print", "eprintln", "eprint", "dbg"];

/// Macros that panic. `debug_assert*` is exempt (release builds strip it).
const PANIC_MACROS: &[&str] =
    &["panic", "unreachable", "todo", "unimplemented", "assert", "assert_eq", "assert_ne"];

/// A remembered direct-effect site.
#[derive(Debug, Clone)]
pub struct Witness {
    /// 1-based line of the site.
    pub line: usize,
    /// What the site is (`` `expect` ``, `` indexing `[` ``, …).
    pub what: String,
}

/// Per-node direct effects plus first-site witnesses.
pub struct DirectEffects {
    /// `direct[n]` = effects of node `n`'s own body.
    pub direct: Vec<EffectSet>,
    /// `witness[n][bit]` = first site of that effect in `n`, if any.
    pub witness: Vec<[Option<Witness>; 6]>,
}

/// Scans every node's own tokens for the direct-effect vocabulary.
pub fn direct_effects(files: &[SourceFile], graph: &CallGraph) -> DirectEffects {
    let mut direct = vec![EffectSet::EMPTY; graph.nodes.len()];
    let mut witness: Vec<[Option<Witness>; 6]> = vec![Default::default(); graph.nodes.len()];
    let mut add = |node: usize, bit: u8, line: usize, what: &str| {
        direct[node] = direct[node].union(EffectSet::just(bit));
        let slot = &mut witness[node][usize::from(bit)];
        if slot.is_none() {
            *slot = Some(Witness { line, what: what.to_string() });
        }
    };
    for (fi, f) in files.iter().enumerate() {
        if f.kind != FileKind::Lib {
            continue;
        }
        for j in 0..f.tokens.len() {
            let Some(node) = graph.node_at(fi, j) else { continue };
            if f.in_cfg_test(j) {
                continue;
            }
            let t = &f.tokens[j];
            let line = t.line;
            match &t.kind {
                TokenKind::Ident(name) => {
                    let after_dot = j >= 1 && f.tokens[j - 1].is_punct('.');
                    let called = f.tokens.get(j + 1).is_some_and(|t| t.is_punct('('));
                    let is_macro = f.tokens.get(j + 1).is_some_and(|t| t.is_punct('!'));
                    if after_dot && called {
                        if RNG_METHODS.contains(&name.as_str()) {
                            add(node, RNG_DRAW, line, &format!("`.{name}(`"));
                        }
                        if SINK_METHODS.contains(&name.as_str()) {
                            add(node, SINK_WRITE, line, &format!("`.{name}(`"));
                        }
                        if (name == "unwrap" || name == "expect") && !line_justified(f, line) {
                            add(node, PANIC, line, &format!("`.{name}(`"));
                        }
                    }
                    if called && IO_CALLS.contains(&name.as_str()) {
                        add(node, BLOCKING_IO, line, &format!("`{name}(`"));
                    }
                    if name == "Instant" || name == "SystemTime" {
                        add(node, WALL_CLOCK, line, &format!("`{name}`"));
                    }
                    if IO_TYPES.contains(&name.as_str()) {
                        add(node, BLOCKING_IO, line, &format!("`{name}`"));
                    }
                    if INTERIOR_MUT.contains(&name.as_str()) {
                        add(node, INTERIOR_MUT_FX, line, &format!("`{name}`"));
                    }
                    if is_macro {
                        if PRINT_MACROS.contains(&name.as_str()) {
                            add(node, BLOCKING_IO, line, &format!("`{name}!`"));
                        }
                        if PANIC_MACROS.contains(&name.as_str()) && !line_justified(f, line) {
                            add(node, PANIC, line, &format!("`{name}!`"));
                        }
                    }
                }
                TokenKind::Punct('[') => {
                    // Indexing: `x[i]`, `f()[i]`, `a[0][1]` — but not
                    // slice types (`&[u8]`), attributes, or array
                    // literals in expression position.
                    let indexes = j >= 1
                        && matches!(
                            &f.tokens[j - 1].kind,
                            TokenKind::Ident(w) if !KEYWORD_BEFORE_BRACKET.contains(&w.as_str())
                        )
                        || j >= 1
                            && matches!(f.tokens[j - 1].kind, TokenKind::Punct(')') | TokenKind::Punct(']'));
                    if indexes && !line_justified(f, line) {
                        add(node, PANIC, line, "indexing `[`");
                    }
                }
                _ => {}
            }
        }
    }
    DirectEffects { direct, witness }
}

/// Idents before `[` that denote types/patterns, not indexable values.
const KEYWORD_BEFORE_BRACKET: &[&str] =
    &["mut", "dyn", "in", "return", "break", "else", "let"];

/// True when a line carries the `// lint:` justification marker.
fn line_justified(f: &SourceFile, line: usize) -> bool {
    f.lines
        .get(line.wrapping_sub(1))
        .is_some_and(|l| l.contains("// lint:"))
}

/// Propagates direct effects caller-ward to the least fixpoint.
pub fn fixpoint(graph: &CallGraph, direct: &[EffectSet]) -> Vec<EffectSet> {
    let callers = graph.callers();
    let mut effects = direct.to_vec();
    let mut queue: Vec<usize> = (0..graph.nodes.len()).collect();
    let mut queued = vec![true; graph.nodes.len()];
    while let Some(n) = queue.pop() {
        queued[n] = false;
        let mut merged = direct[n];
        for &c in &graph.callees[n] {
            merged = merged.union(effects[c]);
        }
        if merged != effects[n] {
            effects[n] = merged;
            for &caller in &callers[n] {
                if !queued[caller] {
                    queued[caller] = true;
                    queue.push(caller);
                }
            }
        }
    }
    effects
}

/// A witness for a transitive effect: the call chain from a root to
/// the first direct site, rendered for a hint.
fn explain(
    graph: &CallGraph,
    fx: &DirectEffects,
    effects: &[EffectSet],
    files: &[SourceFile],
    root: usize,
    bit: u8,
) -> String {
    // DFS toward a node with the *direct* effect, smallest ids first —
    // deterministic for a given graph.
    let mut path = vec![root];
    let mut visited: BTreeSet<usize> = BTreeSet::new();
    visited.insert(root);
    'outer: while let Some(&cur) = path.last() {
        if let Some(w) = &fx.witness[cur][usize::from(bit)] {
            let site = &graph.nodes[cur];
            let chain: Vec<&str> = path.iter().map(|&n| graph.nodes[n].name.as_str()).collect();
            return format!(
                "via {}; {} at {}:{}",
                chain.join(" -> "),
                w.what,
                files[site.file].rel,
                w.line
            );
        }
        for &c in &graph.callees[cur] {
            if effects[c].has(bit) && visited.insert(c) {
                path.push(c);
                continue 'outer;
            }
        }
        path.pop();
    }
    // Unreachable when effects[root] truly has the bit; degrade politely.
    EFFECT_NAMES[usize::from(bit)].to_string()
}

/// Function names treated as hot-loop roots: the per-frame step and the
/// alignment-sweep kernels (`movr-serve`'s event loop will call exactly
/// these). `Session::step` is owner-qualified so unrelated `step` fns
/// elsewhere do not become roots by name collision.
const HOT_ROOTS: &[&str] = &[
    "step_frame",
    "step_frame_recorded",
    "estimate_incidence",
    "estimate_incidence_recorded",
    "estimate_reflection",
    "estimate_reflection_recorded",
];

fn is_hot_root(node: &crate::callgraph::Node) -> bool {
    HOT_ROOTS.contains(&node.name.as_str())
        || (node.name == "step" && node.owner.as_deref() == Some("Session"))
}

fn is_decode_root(node: &crate::callgraph::Node) -> bool {
    node.name.starts_with("decode") || node.name.starts_with("restore")
}

/// Runs every v4 rule. One `CallGraph` + fixpoint serves all three.
pub fn check(files: &[SourceFile], out: &mut Vec<Diagnostic>) {
    let graph = CallGraph::build(files);
    let fx = direct_effects(files, &graph);
    let effects = fixpoint(&graph, &fx.direct);
    panic_reachable_from_decode(files, &graph, &fx, &effects, out);
    blocking_in_hot_loop(files, &graph, &fx, &effects, out);
    recorded_effect_divergence(files, &graph, &effects, out);
}

/// **panic-reachable-from-decode** — a `decode*`/`restore*` fn whose
/// transitive call tree contains a panic site. The checkpoint contract
/// (PR 6) is that corrupt input yields `SnapshotError`, never a panic;
/// a helper's `expect` five calls down breaks it invisibly.
fn panic_reachable_from_decode(
    files: &[SourceFile],
    graph: &CallGraph,
    fx: &DirectEffects,
    effects: &[EffectSet],
    out: &mut Vec<Diagnostic>,
) {
    for (id, node) in graph.nodes.iter().enumerate() {
        if !is_decode_root(node) || !effects[id].has(PANIC) {
            continue;
        }
        out.push(Diagnostic::new(
            &files[node.file],
            "panic-reachable-from-decode",
            node.line,
            format!(
                "`{}` can panic on malformed input ({}); decode paths must return a structured error — or justify the site with `// lint: <why>`",
                node.name,
                explain(graph, fx, effects, files, id, PANIC)
            ),
        ));
    }
}

/// **blocking-in-hot-loop** — a hot-loop root (frame step, sweep
/// kernel) transitively reaching blocking I/O or the wall clock. The
/// motion-to-photon budget is milliseconds; one buried `println!` or
/// `Instant::now()` inside the per-frame path blows it (and the wall
/// clock additionally breaks bit determinism).
fn blocking_in_hot_loop(
    files: &[SourceFile],
    graph: &CallGraph,
    fx: &DirectEffects,
    effects: &[EffectSet],
    out: &mut Vec<Diagnostic>,
) {
    for (id, node) in graph.nodes.iter().enumerate() {
        if !is_hot_root(node) {
            continue;
        }
        for bit in [BLOCKING_IO, WALL_CLOCK] {
            if !effects[id].has(bit) {
                continue;
            }
            out.push(Diagnostic::new(
                &files[node.file],
                "blocking-in-hot-loop",
                node.line,
                format!(
                    "hot-loop root `{}` reaches {} ({}); per-frame code must stay compute-only — move the effect behind a Recorder sink or out of the frame path",
                    node.name,
                    EFFECT_NAMES[usize::from(bit)],
                    explain(graph, fx, effects, files, id, bit)
                ),
            ));
        }
    }
}

/// **recorded-effect-divergence** — a `foo`/`foo_recorded` pair whose
/// transitive effect sets differ beyond `sink-write`. The PR 2 contract
/// says observability is *optional*: the recorded twin may write to its
/// sink, but if it also blocks, panics, or draws extra randomness, the
/// instrumented run is no longer the plain run being observed.
fn recorded_effect_divergence(
    files: &[SourceFile],
    graph: &CallGraph,
    effects: &[EffectSet],
    out: &mut Vec<Diagnostic>,
) {
    // (file, base name) -> (plain union, recorded union, recorded line).
    let mut pairs: BTreeMap<(usize, String), (Option<EffectSet>, Option<(EffectSet, usize)>)> =
        BTreeMap::new();
    for (id, node) in graph.nodes.iter().enumerate() {
        if let Some(base) = node.name.strip_suffix("_recorded") {
            let entry = pairs.entry((node.file, base.to_string())).or_default();
            let merged = match entry.1 {
                Some((fx0, line)) => (fx0.union(effects[id]), line),
                None => (effects[id], node.line),
            };
            entry.1 = Some(merged);
        } else {
            let entry = pairs.entry((node.file, node.name.clone())).or_default();
            entry.0 = Some(entry.0.unwrap_or(EffectSet::EMPTY).union(effects[id]));
        }
    }
    for ((fi, base), (plain, recorded)) in pairs {
        let (Some(plain), Some((recorded, line))) = (plain, recorded) else { continue };
        let plain = plain.without(SINK_WRITE);
        let recorded = recorded.without(SINK_WRITE);
        if plain == recorded {
            continue;
        }
        let extra = recorded.diff_names(plain);
        let missing = plain.diff_names(recorded);
        let mut detail = Vec::new();
        if !extra.is_empty() {
            detail.push(format!("recorded adds {}", extra.join(", ")));
        }
        if !missing.is_empty() {
            detail.push(format!("plain adds {}", missing.join(", ")));
        }
        out.push(Diagnostic::new(
            &files[fi],
            "recorded-effect-divergence",
            line,
            format!(
                "`{base}` and `{base}_recorded` diverge beyond sink-write: {}; the recorded twin must be the plain computation plus events only",
                detail.join("; ")
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str)]) -> Vec<(&'static str, String, usize)> {
        let parsed: Vec<SourceFile> =
            files.iter().map(|(rel, src)| SourceFile::parse(rel, src)).collect();
        let mut out = Vec::new();
        check(&parsed, &mut out);
        let out = crate::rules::sorted(out);
        out.into_iter().map(|d| (d.rule, d.file, d.line)).collect()
    }

    #[test]
    fn panic_two_hops_below_decode_is_found_and_justified_sites_pass() {
        let src = "pub fn decode_frame(b: &[u8]) -> u64 { head(b) }\nfn head(b: &[u8]) -> u64 { u64::from(b[0]) }\npub fn decode_ok(b: &[u8]) -> u64 {\n  probe(b)\n}\nfn probe(b: &[u8]) -> u64 { b[0].into() // lint: caller pins non-empty\n}";
        let hits = run(&[("crates/codec/src/lib.rs", src)]);
        assert_eq!(hits, [("panic-reachable-from-decode", "crates/codec/src/lib.rs".to_string(), 1)]);
    }

    #[test]
    fn hot_root_reaching_io_and_wall_clock_flags_each() {
        let src = "pub fn step_frame(t: u64) -> u64 { log_tick(t); warm() }\nfn log_tick(t: u64) { println!(\"t={t}\"); }\nfn warm() -> u64 { let _x = Instant::now(); 0 }";
        let hits = run(&[("crates/hot/src/lib.rs", src)]);
        // no-wall-clock is a v1 rule; here only the v4 pass runs, so the
        // two hot-loop findings (io + wall) are the full list.
        assert_eq!(
            hits,
            [
                ("blocking-in-hot-loop", "crates/hot/src/lib.rs".to_string(), 1),
                ("blocking-in-hot-loop", "crates/hot/src/lib.rs".to_string(), 1),
            ]
        );
    }

    #[test]
    fn session_step_is_owner_qualified() {
        let hot = "pub struct Session { t: u64 }\nimpl Session { pub fn step(&mut self) { audit(); } }\nfn audit() { let _ = File::create(\"log\"); }";
        let hits = run(&[("crates/hot/src/lib.rs", hot)]);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, "blocking-in-hot-loop");
        // The same fn named `step` on another type is not a root.
        let cold = "pub struct Cursor { t: u64 }\nimpl Cursor { pub fn step(&mut self) { audit(); } }\nfn audit() { let _ = File::create(\"log\"); }";
        assert!(run(&[("crates/hot/src/lib.rs", cold)]).is_empty());
    }

    #[test]
    fn recorded_twin_with_extra_io_diverges_and_sink_is_ignored() {
        let bad = "pub fn load(t: u64) -> u64 { t }\npub fn load_recorded(t: u64, r: &mut R) -> u64 {\n  let v = load(t); r.record(v); let _ = File::open(\"a\"); v\n}";
        let hits = run(&[("crates/codec/src/lib.rs", bad)]);
        assert_eq!(hits, [("recorded-effect-divergence", "crates/codec/src/lib.rs".to_string(), 2)]);
        let ok = "pub fn load(t: u64) -> u64 { t }\npub fn load_recorded(t: u64, r: &mut R) -> u64 {\n  let v = load(t); r.record(v); v\n}";
        assert!(run(&[("crates/codec/src/lib.rs", ok)]).is_empty());
    }

    #[test]
    fn effect_fixpoint_is_file_order_independent() {
        let a = ("crates/a/src/lib.rs", "use movr_b::down;\npub fn decode_top(x: u64) -> u64 { down(x) }");
        let b = ("crates/b/src/lib.rs", "use movr_c::deep;\npub fn down(x: u64) -> u64 { deep(x) }");
        let c = ("crates/c/src/lib.rs", "pub fn deep(x: u64) -> u64 { assert!(x > 0); x }");
        let orders: [&[(&str, &str)]; 3] = [&[a, b, c], &[c, a, b], &[b, c, a]];
        let base = run(orders[0]);
        assert_eq!(base.len(), 1, "{base:?}");
        assert_eq!(base[0].0, "panic-reachable-from-decode");
        for order in &orders[1..] {
            assert_eq!(run(order), base, "fixpoint drifted under file reordering");
        }
    }

    #[test]
    fn recursion_reaches_the_same_fixpoint() {
        // Mutually recursive decode helpers with one panic inside the
        // cycle: the worklist must terminate and still see it.
        let src = "pub fn decode_a(n: u64) -> u64 { if n == 0 { 0 } else { decode_b(n) } }\npub fn decode_b(n: u64) -> u64 { lookup(n); decode_a(n - 1) }\nfn lookup(n: u64) -> u64 { [1u64, 2][0] + n }";
        let hits = run(&[("crates/codec/src/lib.rs", src)]);
        let rules: Vec<_> = hits.iter().map(|h| (h.0, h.2)).collect();
        assert_eq!(
            rules,
            [("panic-reachable-from-decode", 1), ("panic-reachable-from-decode", 2)]
        );
    }
}

