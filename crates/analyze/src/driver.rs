//! Workspace walker: discovers manifests and library sources, runs every
//! lint pass, and assembles the [`Analysis`] report.
//!
//! Scope matches the workspace invariants: per-file lints run over
//! `crates/*/src/**/*.rs` (library code only — integration tests under
//! `crates/*/tests`, benches, and the root `tests/`/`examples/` trees are
//! exercised by `cargo test` itself and exempt from the hot-path lints);
//! manifest lints run over the root `Cargo.toml`, every crate manifest,
//! and the lockfile.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::graph::CallGraph;
use crate::manifest::{self, Manifest};
use crate::parser;
use crate::passes;
use crate::report::Analysis;
use crate::source::{Loc, SourceFile};
use jact_obs::schema::ObsSchema;

/// Walks upward from `start` to the nearest directory whose `Cargo.toml`
/// declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

/// Recursively collects `.rs` files under `dir`, sorted for determinism.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative path with `/` separators (diagnostics are stable
/// across platforms).
fn rel_str(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Analyzes the workspace rooted at `root`: parses every manifest, lexes
/// and parses every library source file, builds the workspace call
/// graph, runs every pass, and returns the collected report
/// sorted by path, line, column, and code.
pub fn analyze_workspace(root: &Path) -> io::Result<Analysis> {
    let root_text = fs::read_to_string(root.join("Cargo.toml"))?;
    let mut manifests: Vec<Manifest> = vec![manifest::parse("Cargo.toml", &root_text)];
    let mut sources: Vec<SourceFile> = Vec::new();
    let mut crates: Vec<String> = Vec::new();
    let mut loc: Vec<(String, Loc)> = Vec::new();

    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();

    for dir in crate_dirs {
        let manifest_path = dir.join("Cargo.toml");
        if !manifest_path.is_file() {
            continue;
        }
        let text = fs::read_to_string(&manifest_path)?;
        let m = manifest::parse(rel_str(root, &manifest_path), &text);
        let pkg = m.package_name.clone();
        crates.push(pkg.clone());
        manifests.push(m);

        let src_dir = dir.join("src");
        let mut crate_loc = Loc::default();
        if src_dir.is_dir() {
            let mut files = Vec::new();
            collect_rs(&src_dir, &mut files)?;
            for file in files {
                let text = fs::read_to_string(&file)?;
                let source = SourceFile::new(rel_str(root, &file), pkg.clone(), text);
                crate_loc += source.loc();
                sources.push(source);
            }
        }
        loc.push((pkg, crate_loc));
    }

    // Syntax-aware stage: parse every file once, build the workspace
    // call graph, and load the obs-schema registry (from the tree under
    // analysis; the compiled-in copy is the fallback so a partial
    // fixture tree still analyzes).
    let asts: Vec<parser::FileAst> = sources.iter().map(parser::parse).collect();
    let graph = CallGraph::build(&sources, &asts);
    let schema = fs::read_to_string(root.join("crates/obs/obs_schema.txt"))
        .map(|t| ObsSchema::parse(&t))
        .unwrap_or_else(|_| ObsSchema::workspace());

    let mut violations = passes::ja01_layering(&manifests);
    let lock_text = fs::read_to_string(root.join("Cargo.lock")).ok();
    violations.extend(passes::ja02_hermetic(
        &manifests,
        &root_text,
        lock_text.as_deref().map(|t| ("Cargo.lock", t)),
    ));
    for (file, ast) in sources.iter().zip(&asts) {
        violations.extend(passes::ja03_no_panics(file));
        violations.extend(passes::ja04_determinism(file));
        if file.rel_path.ends_with("/src/lib.rs") {
            violations.extend(passes::ja05_forbid_unsafe(file));
        }
        violations.extend(passes::ja07_concurrency(file));
        violations.extend(passes::ja08_print_funnel(file));
        violations.extend(passes::ja09_checked_casts(file, ast));
        violations.extend(passes::ja11_error_discard(file, &graph));
        violations.extend(passes::ja12_parallel_determinism(file, ast));
        violations.extend(passes::ja13_obs_schema(file, ast, &schema));
    }
    violations.extend(passes::ja10_panic_reachability(&graph));
    violations.extend(passes::ja14_hot_path_alloc(&graph));
    violations.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.code).cmp(&(b.path.as_str(), b.line, b.col, b.code))
    });

    let suppressions_honored = sources.iter().map(|f| f.suppressions.len()).sum();
    Ok(Analysis {
        files_scanned: sources.len(),
        manifests_scanned: manifests.len(),
        crates,
        violations,
        suppressions_honored,
        loc,
    })
}
