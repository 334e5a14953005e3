//! Crate layering: every `movr*` crate under a manifest's
//! `[dependencies]` sits on a strictly lower layer than the package that
//! names it. Cargo already rejects dependency cycles, and rustc rejects a
//! path into a crate the manifest does not declare; this test rejects the
//! edge that inverts the architecture (say, rfsim reaching up into radio)
//! and a package the table below does not place. Dev-dependencies are
//! not checked: test code may reach testkit and lint from any layer.

use std::fs;
use std::path::Path;

/// Each workspace package's layer.
const LAYERS: [(&str, u32); 15] = [
    // Foundations, with no workspace dependencies.
    ("movr-math", 0),
    ("movr-sim", 0),
    ("movr-lint", 0),
    // Physics and leaf services.
    ("movr-rfsim", 1),
    ("movr-analog", 1),
    ("movr-phased-array", 1),
    ("movr-obs", 1),
    ("movr-testkit", 1),
    // Protocol and behaviour.
    ("movr-radio", 2),
    ("movr-motion", 2),
    ("movr-control", 2),
    // Application model.
    ("movr-vr", 3),
    // System assembly.
    ("movr", 4),
    // Binaries and harnesses.
    ("movr-system", 5),
    ("movr-bench", 5),
];

/// The package name and the `movr*` crates under `[dependencies]` of the
/// manifest at `path`, read line by line: `movr_math::toml` takes no
/// inline tables, and the root manifest's `[workspace.dependencies]` is
/// made of them.
fn manifest(path: &Path) -> (String, Vec<String>) {
    let at = path.display();
    let text = fs::read_to_string(path).unwrap_or_else(|e| panic!("{at}: {e}"));
    let (mut section, mut name, mut deps) = ("", None, Vec::new());
    for line in text.lines().map(str::trim) {
        if let Some(header) = line.strip_prefix('[') {
            section = header.trim_end_matches(']');
            assert!(
                !section.contains("dependencies")
                    || matches!(
                        section,
                        "dependencies" | "dev-dependencies" | "workspace.dependencies"
                    ),
                "{at}: this test reads no [{section}] table"
            );
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim();
        match section {
            "package" if key == "name" => name = Some(value.trim().trim_matches('"').to_string()),
            // `movr-math.workspace = true` names `movr-math`.
            "dependencies" if key.starts_with("movr") => {
                deps.push(key.split('.').next().unwrap_or(key).to_string());
            }
            _ => {}
        }
    }
    (
        name.unwrap_or_else(|| panic!("{at}: no [package] name")),
        deps,
    )
}

#[test]
fn every_crate_depends_only_on_lower_layers() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        manifests.push(entry.expect("crates/ entry").path().join("Cargo.toml"));
    }
    let layer = |name: &str| LAYERS.iter().find(|(n, _)| *n == name).map(|&(_, l)| l);
    let mut problems = Vec::new();
    for path in &manifests {
        let (name, deps) = manifest(path);
        let Some(own) = layer(&name) else {
            problems.push(format!("`{name}` has no row in the layer table"));
            continue;
        };
        for dep in deps {
            let theirs = layer(&dep);
            if theirs.is_none_or(|l| l >= own) {
                let theirs = theirs.map_or("no row".to_string(), |l| format!("layer {l}"));
                problems.push(format!(
                    "`{name}` (layer {own}) depends on `{dep}` ({theirs}); an edge must point to a strictly lower layer"
                ));
            }
        }
    }
    assert!(problems.is_empty(), "{}", problems.join("\n"));
    assert_eq!(
        manifests.len(),
        LAYERS.len(),
        "one layer row per workspace package"
    );
}
