//! CLI entry point: analyze the workspace, print diagnostics, write the
//! JSON report, exit nonzero on violations.
//!
//! Usage: `jact-analyze [WORKSPACE_ROOT] [--report PATH] [--quiet]`
//!
//! With no root argument, walks upward from the current directory (or
//! `CARGO_MANIFEST_DIR` when run under cargo) to the workspace root.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use jact_analyze::diag::Code;
use jact_analyze::driver;

fn main() -> ExitCode {
    let mut root_arg: Option<PathBuf> = None;
    let mut report_path: Option<PathBuf> = None;
    let mut quiet = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--report" => report_path = args.next().map(PathBuf::from),
            "--quiet" | "-q" => quiet = true,
            "--help" | "-h" => {
                println!("usage: jact-analyze [WORKSPACE_ROOT] [--report PATH] [--quiet]");
                return ExitCode::SUCCESS;
            }
            other => root_arg = Some(PathBuf::from(other)),
        }
    }

    let start = root_arg
        .or_else(|| std::env::var_os("CARGO_MANIFEST_DIR").map(PathBuf::from))
        .or_else(|| std::env::current_dir().ok());
    let Some(start) = start else {
        eprintln!("jact-analyze: cannot determine a starting directory");
        return ExitCode::FAILURE;
    };
    let Some(root) = driver::find_workspace_root(&start) else {
        eprintln!(
            "jact-analyze: no workspace root (Cargo.toml with [workspace]) above {}",
            start.display()
        );
        return ExitCode::FAILURE;
    };

    let analysis = match driver::analyze_workspace(&root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("jact-analyze: {e}");
            return ExitCode::FAILURE;
        }
    };

    for d in &analysis.violations {
        eprintln!("{d}");
    }

    let report_path = report_path.unwrap_or_else(|| root.join("target/analyze-report.json"));
    if let Some(parent) = report_path.parent() {
        if let Err(e) = std::fs::create_dir_all(parent) {
            eprintln!("jact-analyze: cannot create {}: {e}", parent.display());
            return ExitCode::FAILURE;
        }
    }
    if let Err(e) = std::fs::write(&report_path, analysis.to_json().to_pretty_string()) {
        eprintln!("jact-analyze: cannot write {}: {e}", report_path.display());
        return ExitCode::FAILURE;
    }

    if !quiet {
        let l = analysis.loc_total();
        println!(
            "jact-analyze: loc: {} files, {} code, {} test, {} comment/blank lines under crates/*/src",
            l.files, l.code, l.test, l.other
        );
    }

    if !quiet {
        let per_code: Vec<String> = Code::ALL
            .iter()
            .map(|&c| format!("{}={}", c.as_str(), analysis.count(c)))
            .collect();
        println!(
            "jact-analyze: {} files, {} manifests, {} crates scanned; {} violation(s) [{}]; report: {}",
            analysis.files_scanned,
            analysis.manifests_scanned,
            analysis.crates.len(),
            analysis.violations.len(),
            per_code.join(" "),
            report_path.display()
        );
    }

    if analysis.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
