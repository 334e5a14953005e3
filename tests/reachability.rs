//! Module reachability: every module a library crate root declares must
//! export an item that some other file names. A module nothing else
//! mentions is code no workload runs, yet it is still built, documented
//! and linted.

use std::fs;
use std::path::{Path, PathBuf};

fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        if path.is_dir() {
            if !path.ends_with("target") && !path.ends_with("crates/lint/tests/fixtures") {
                rs_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn names_word(text: &str, word: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    text.match_indices(word).any(|(i, _)| {
        !text[..i].chars().next_back().is_some_and(ident)
            && !text[i + word.len()..].chars().next().is_some_and(ident)
    })
}

/// Column-0 `pub` item names defined before the file's test module.
fn exported_names(text: &str) -> Vec<&str> {
    let kinds = ["fn", "struct", "enum", "trait", "const", "type", "static"];
    let mut names = Vec::new();
    for line in text.lines().take_while(|l| !l.starts_with("#[cfg(test)]")) {
        let mut words = line.strip_prefix("pub ").unwrap_or("").split_whitespace();
        let (kind, mut name) = (words.next().unwrap_or(""), words.next().unwrap_or(""));
        if kind == "const" && name == "fn" {
            name = words.next().unwrap_or("");
        }
        let end = name.find(|c: char| !(c.is_alphanumeric() || c == '_'));
        if kinds.contains(&kind) {
            names.push(&name[..end.unwrap_or(name.len())]);
        }
    }
    names
}

/// The crate root without its `pub use …;` statements.
fn without_pub_use(text: &str) -> String {
    let mut in_use = false;
    let mut kept = String::new();
    for line in text.lines() {
        in_use = in_use || line.starts_with("pub use ");
        if in_use {
            in_use = !line.trim_end().ends_with(';');
        } else {
            kept.push_str(line);
            kept.push('\n');
        }
    }
    kept
}

#[test]
fn every_library_module_is_named_outside_itself() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "perfbench/src"] {
        rs_files(&root.join(dir), &mut files);
    }
    let read = |p: &Path| fs::read_to_string(p).expect("readable source");
    let is_root = |p: &Path| p.starts_with(root.join("crates")) && p.ends_with("src/lib.rs");
    let counted_text = |p: &PathBuf| match read(p) {
        text if is_root(p) => without_pub_use(&text),
        text => text,
    };
    let texts: Vec<_> = files.iter().map(|p| (p, counted_text(p))).collect();
    let mut dead = Vec::new();
    for lib in files.iter().filter(|p| is_root(p)) {
        let src = lib.parent().expect("src dir");
        for line in read(lib).lines() {
            let decl = line.strip_prefix("pub ").unwrap_or(line);
            let Some(module) = decl.strip_prefix("mod ").and_then(|d| d.strip_suffix(';')) else {
                continue;
            };
            let file = src.join(format!("{module}.rs"));
            let named_elsewhere = |name: &&str| {
                texts
                    .iter()
                    .any(|(p, t)| **p != file && names_word(t, name))
            };
            if !exported_names(&read(&file)).iter().any(named_elsewhere) {
                let krate = src.parent().and_then(Path::file_name).expect("crate dir");
                dead.push(format!("{}::{module}", krate.to_string_lossy()));
            }
        }
    }
    assert!(dead.is_empty(), "modules no other file names: {dead:?}");
}
