//! Tier-1 gate: the workspace is clean under every `jact-analyze` lint.
//!
//! Runs the full driver in-process — the same walk the CLI performs — so
//! `cargo test` fails with the exact `file:line:col: CODE message` spans
//! whenever a workspace invariant regresses.

use std::path::{Path, PathBuf};

use jact_analyze::Code;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/analyze has a grandparent")
        .to_path_buf()
}

#[test]
fn workspace_has_zero_violations() {
    let analysis =
        jact_analyze::analyze_workspace(&workspace_root()).expect("workspace is readable");
    assert!(analysis.files_scanned > 30, "suspiciously few files scanned");
    assert_eq!(analysis.manifests_scanned, 16, "root + fifteen crate manifests");
    assert!(
        analysis.is_clean(),
        "jact-analyze found {} violation(s):\n{}",
        analysis.violations.len(),
        analysis
            .violations
            .iter()
            .map(|d| format!("  {d}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn hot_path_crates_carry_no_suppressions() {
    // The acceptance bar for this subsystem: the hot-path crates are
    // clean without a single `jact-analyze: allow(...)` escape hatch.
    let root = workspace_root();
    for krate in ["codec", "tensor", "rng", "par", "serve", "pool", "infer"] {
        let dir = root.join("crates").join(krate).join("src");
        let mut stack = vec![dir];
        while let Some(d) = stack.pop() {
            for entry in std::fs::read_dir(&d).expect("src dir readable") {
                let path = entry.expect("dir entry").path();
                if path.is_dir() {
                    stack.push(path);
                } else if path.extension().is_some_and(|e| e == "rs") {
                    let text = std::fs::read_to_string(&path).expect("source readable");
                    assert!(
                        !text.contains("jact-analyze: allow"),
                        "{} contains a lint suppression; hot-path crates must be clean without one",
                        path.display()
                    );
                }
            }
        }
    }
    // The JA03-covered wire-path modules hold to the same bar.
    for rel in ["crates/core/src/fault.rs", "crates/core/src/offload.rs"] {
        let text = std::fs::read_to_string(root.join(rel)).expect("source readable");
        assert!(
            !text.contains("jact-analyze: allow"),
            "{rel} contains a lint suppression; wire-path modules must be clean without one"
        );
    }
}

#[test]
fn report_counts_cover_all_codes() {
    let analysis =
        jact_analyze::analyze_workspace(&workspace_root()).expect("workspace is readable");
    let json = analysis.to_json().to_string();
    for code in Code::ALL {
        assert!(
            json.contains(&format!("\"{}\":", code.as_str())),
            "report lacks a count for {code}: {json}"
        );
    }
    assert!(json.contains("\"schema\":\"jact-analyze/v1\""));
}

#[test]
fn doc_covered_crate_roots_deny_missing_docs() {
    // rustc holds the doc-coverage gate the retired JA06 lint held: a
    // `pub` item without a doc comment fails `cargo build` in these
    // crates.  Deleting the attribute would switch the gate off silently.
    let root = workspace_root();
    for krate in ["codec", "core", "obs", "serve", "infer"] {
        let lib = root.join("crates").join(krate).join("src/lib.rs");
        let text = std::fs::read_to_string(&lib).expect("crate root readable");
        assert!(
            text.lines().any(|l| l == "#![deny(missing_docs)]"),
            "{} lacks #![deny(missing_docs)]",
            lib.display()
        );
    }
}

/// `loc_total.code` — non-test code lines under `crates/*/src` — as of
/// the last PR that moved it.  A ratchet: lower it whenever code goes
/// away; a PR that adds a subsystem must say what it replaces (ROADMAP
/// aim 2), and raising this number is where it says so.
const LOC_CODE_CEILING: usize = 17_593;

#[test]
fn non_test_code_stays_under_the_committed_ceiling() {
    let analysis =
        jact_analyze::analyze_workspace(&workspace_root()).expect("workspace is readable");
    let code = analysis.loc_total().code;
    assert!(
        code <= LOC_CODE_CEILING,
        "crates/*/src holds {code} non-test code lines, over LOC_CODE_CEILING = \
         {LOC_CODE_CEILING}: raise it deliberately and say what the growth replaces"
    );
}
