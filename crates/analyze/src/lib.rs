//! `jact-analyze`: an in-repo static-analysis subsystem enforcing the
//! workspace invariants the JPEG-ACT reproduction depends on.
//!
//! The workspace builds hermetically offline, so this tool is written
//! against `std` only: a hand-rolled Rust lexer ([`lexer`]), an
//! item-level parser with a workspace call graph over it ([`parser`],
//! [`graph`]), a minimal manifest reader ([`manifest`]), and thirteen
//! lint passes ([`passes`]) reporting stable diagnostic codes with
//! `file:line:col` spans.  [`Code::title`] is the lint table: one line
//! per code naming the scope constant in [`passes`] it is checked over.
//! Doc coverage (the retired `JA06`) is rustc's `missing_docs`, denied
//! in the crate roots it covered.
//!
//! JA03–JA08 work on the token stream; JA09–JA14 are syntax-aware,
//! consuming the parser's fn items, expression facts, and the
//! intra-workspace call graph.  A finding can be silenced at the
//! offending line with `// jact-analyze: allow(JA0x)` on the same line
//! or the line above (the hot-path crates are kept allow-free by
//! `tests/static_analysis.rs`; their exemptions are structural module
//! lists in [`passes`]).
//!
//! The CLI (`cargo run -p jact-analyze --release --offline`) prints
//! diagnostics, writes `target/analyze-report.json`, and exits nonzero
//! when the workspace is not clean; `tests/static_analysis.rs` runs the
//! same driver in-process so tier-1 `cargo test` enforces cleanliness.

#![forbid(unsafe_code)]

pub mod diag;
pub mod driver;
pub mod graph;
pub mod lexer;
pub mod manifest;
pub mod parser;
pub mod passes;
pub mod report;
pub mod source;

pub use diag::{Code, Diagnostic, Suppression};
pub use driver::{analyze_workspace, find_workspace_root};
pub use graph::CallGraph;
pub use parser::FileAst;
pub use report::Analysis;
pub use source::SourceFile;
