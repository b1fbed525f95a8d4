//! Hermetic-build policy gate (tier-1).
//!
//! The analyzer's JA02 findings over the workspace: every dependency in
//! every manifest must be an in-workspace path reference, `workspace =
//! true` entries must resolve to path entries in the root table, and the
//! lockfile must pin no registry or git source.  The rule set lives in
//! `jact_analyze::passes::ja02_hermetic`; this test names the policy in
//! the tier-1 output on its own line.

use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    // CARGO_MANIFEST_DIR is crates/analyze (this test is registered
    // there); the workspace root is two levels up.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/analyze has a grandparent")
        .to_path_buf()
}

#[test]
fn workspace_is_hermetic() {
    let root = workspace_root();
    let analysis = jact_analyze::analyze_workspace(&root).expect("workspace is readable");
    let diags: Vec<_> = analysis
        .violations
        .iter()
        .filter(|d| d.code == jact_analyze::Code::Ja02)
        .collect();
    assert!(
        diags.is_empty(),
        "hermetic-build policy violated (JA02):\n{}",
        diags
            .iter()
            .map(|d| format!("  {d}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
