//! Experiment report tee: stdout plus a text file under `out/`.
//!
//! The figure/table binaries print their results to stdout for
//! interactive runs, but EXPERIMENTS.md also references the full runs
//! (`out/out_table1.txt`, ...).  Those capture files used to be produced
//! by hand with shell redirection and committed at the repo root; now
//! every binary that EXPERIMENTS.md cites routes its output through a
//! [`Report`], which tees each line to stdout and, when the binary
//! exits, writes the whole capture to the gitignored `out/` directory.

use std::fmt::Display;
use std::path::PathBuf;

use crate::json::Json;
use crate::tables::{render_header, render_table};

/// Archives `doc` as `BENCH_<name>.json` in the directory the
/// `JACT_BENCH_JSON` environment variable names (`1` means the current
/// directory); does nothing when it is unset.  A failed write warns on
/// stderr and the caller carries on: the archive is a by-product of a
/// run whose results were already printed.
pub fn archive_bench_json(name: &str, doc: &Json) {
    let Ok(dir) = std::env::var("JACT_BENCH_JSON") else {
        return;
    };
    let dir = if dir == "1" { ".".to_string() } else { dir };
    let path = format!("{dir}/BENCH_{name}.json");
    match std::fs::write(&path, doc.to_pretty_string()) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("failed to write {path}: {e}"),
    }
}

/// Resolves the experiment output directory and creates it.
///
/// Resolution order: `$JACT_OUT_DIR` if set, otherwise `out/` under the
/// workspace root (the nearest ancestor of the current directory that
/// holds a `Cargo.lock`), otherwise `out/` under the current directory.
/// The workspace-root walk keeps `cargo run -p jact-bench` and a direct
/// `target/release/<bin>` invocation writing to the same place.
pub fn out_dir() -> PathBuf {
    let dir = match std::env::var_os("JACT_OUT_DIR") {
        Some(d) => PathBuf::from(d),
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            let root = cwd
                .ancestors()
                .find(|a| a.join("Cargo.lock").is_file())
                .unwrap_or(&cwd);
            root.join("out")
        }
    };
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("out: cannot create {}: {e}", dir.display());
    }
    dir
}

/// Tees experiment output: every line goes to stdout immediately and
/// into an in-memory capture that lands in `out/<name>` on drop.
pub struct Report {
    name: String,
    buf: String,
}

impl Report {
    /// Starts a capture that will be written to `out/<name>`.
    pub fn new(name: &str) -> Self {
        Report {
            name: name.to_string(),
            buf: String::new(),
        }
    }

    /// Emits a section header (same format as [`crate::tables::print_header`]).
    pub fn header(&mut self, title: &str) {
        self.line(render_header(title));
    }

    /// Emits one line of text.
    pub fn line(&mut self, text: impl Display) {
        let text = text.to_string();
        println!("{text}");
        self.buf.push_str(&text);
        self.buf.push('\n');
    }

    /// Emits a fixed-width table (same format as [`crate::tables::print_table`]).
    pub fn table(&mut self, headers: &[&str], rows: &[Vec<String>]) {
        self.line(render_table(headers, rows));
    }
}

impl Drop for Report {
    fn drop(&mut self) {
        let path = out_dir().join(&self.name);
        match std::fs::write(&path, &self.buf) {
            Ok(()) => eprintln!("report written to {}", path.display()),
            Err(e) => eprintln!("report: cannot write {}: {e}", path.display()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_captures_what_it_prints() {
        let dir = std::env::temp_dir().join("jact_out_test");
        // Env var is process-global; fine for a single-threaded assertion
        // on the capture file as long as no other test sets it.
        std::env::set_var("JACT_OUT_DIR", &dir);
        {
            let mut r = Report::new("out_probe.txt");
            r.header("Probe");
            r.table(&["k", "v"], &[vec!["a".into(), "1".into()]]);
            r.line("done");
        }
        let text = std::fs::read_to_string(dir.join("out_probe.txt")).expect("capture written");
        std::env::remove_var("JACT_OUT_DIR");
        assert!(text.contains("=== Probe ==="), "{text}");
        assert!(text.contains("a  1"), "{text}");
        assert!(text.ends_with("done\n"), "{text}");
    }
}
