//! The thirteen lint passes ([`Code::title`] is the index).
//!
//! Per-file passes (JA03–JA05, JA07–JA09, JA11–JA13) take a lexed
//! [`SourceFile`] (the syntax-aware ones also its parsed [`FileAst`]) and
//! return diagnostics; workspace passes take the parsed manifests (JA01,
//! JA02) or the whole-workspace call graph (JA10, JA14).  Every
//! source-level finding goes out through [`SourceFile::report`], so a
//! `// jact-analyze: allow(<code>)` comment on or directly above the
//! offending line silences it.
//!
//! Banned names below are spelled as string literals on purpose: this
//! crate is scanned by its own lints, and an *identifier* like a hash-map
//! type would otherwise flag the analyzer itself.

use crate::diag::{Code, Diagnostic};
use crate::graph::CallGraph;
use crate::lexer::TokenKind;
use crate::manifest::Manifest;
use crate::parser::{is_all_caps, CastSrc, DivRhs, FileAst};
use crate::source::SourceFile;
use jact_obs::schema::ObsSchema;

/// Crates whose hot paths must stay panic-free (JA03).
pub const HOT_PATH_CRATES: [&str; 8] = [
    "jact-codec",
    "jact-tensor",
    "jact-rng",
    "jact-par",
    "jact-obs",
    "jact-serve",
    "jact-pool",
    "jact-infer",
];

/// Individual modules outside [`HOT_PATH_CRATES`] that JA03 also covers:
/// the fault-injected offload wire path in `jact-core` decodes hostile
/// bytes and must surface typed errors, never panic.  Entries are
/// workspace-relative paths with `/` separators.
pub const HOT_PATH_MODULES: [&str; 2] = ["crates/core/src/fault.rs", "crates/core/src/offload.rs"];

/// Low-layer crates: the deterministic substrate golden-value tests rely
/// on.  They must never depend on the high layers (JA01).
pub const LOW_LAYER: [&str; 7] = [
    "jact-rng",
    "jact-obs",
    "jact-par",
    "jact-pool",
    "jact-tensor",
    "jact-codec",
    "jact-hwmodel",
];

/// High-layer crates: training, simulation, orchestration, tooling.
pub const HIGH_LAYER: [&str; 8] = [
    "jact-dnn",
    "jact-gpusim",
    "jact-core",
    "jact-data",
    "jact-bench",
    "jact-analyze",
    "jact-serve",
    "jact-infer",
];

/// Crates exempt from the determinism lint (JA04): the bench harness
/// legitimately reads wall clocks, and the analyzer names banned idents.
pub const TIMING_EXEMPT_CRATES: [&str; 2] = ["jact-bench", "jact-analyze"];

/// The one token loop behind JA03, JA04, JA07, JA08 and JA12: offers
/// every identifier outside test regions to `rule`, together with a
/// lookup for the meaningful token `d` places away (`""` past either
/// end), and reports the message `rule` returns at that identifier.
fn scan_idents<'f>(
    file: &'f SourceFile,
    code: Code,
    rule: impl Fn(&'f str, &dyn Fn(isize) -> &'f str) -> Option<String>,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (mi, &ti) in file.meaningful.iter().enumerate() {
        let t = &file.tokens[ti];
        if t.kind != TokenKind::Ident || file.in_test_region(t.start) {
            continue;
        }
        let near = |d: isize| file.word(mi.wrapping_add_signed(d));
        if let Some(message) = rule(t.text(&file.text), &near) {
            file.report(&mut out, code, t.line, t.col, message);
        }
    }
    out
}

// ---------------------------------------------------------------------
// JA01: crate layering.
// ---------------------------------------------------------------------

/// Enforces the dependency DAG: no crate in [`LOW_LAYER`] may depend
/// (normally or for tests/builds) on any crate in [`HIGH_LAYER`].
pub fn ja01_layering(manifests: &[Manifest]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for m in manifests {
        if !LOW_LAYER.contains(&m.package_name.as_str()) {
            continue;
        }
        for d in &m.deps {
            if HIGH_LAYER.contains(&d.name.as_str()) {
                out.push(Diagnostic::new(
                    Code::Ja01,
                    &m.rel_path,
                    d.line,
                    1,
                    format!(
                        "low-layer crate `{}` depends on high-layer crate `{}` ({})",
                        m.package_name, d.name, d.section
                    ),
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// JA02: hermeticity.
// ---------------------------------------------------------------------

/// Enforces the hermetic-build policy: every dependency entry in every
/// manifest is a pure path/workspace reference, every `workspace = true`
/// reference resolves to a `path` entry in the root workspace table, and
/// the lockfile (when given) pins no registry or git source.
pub fn ja02_hermetic(
    manifests: &[Manifest],
    root_manifest_text: &str,
    lockfile: Option<(&str, &str)>,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for m in manifests {
        for d in &m.deps {
            if !d.is_path_or_workspace() {
                out.push(Diagnostic::new(
                    Code::Ja02,
                    &m.rel_path,
                    d.line,
                    1,
                    format!(
                        "`{}` is not a path/workspace dependency: {} = {}",
                        d.name, d.name, d.spec
                    ),
                ));
            } else if d.spec.contains("workspace = true")
                && !root_manifest_text.contains(&format!("{} = {{ path =", d.name))
            {
                out.push(Diagnostic::new(
                    Code::Ja02,
                    &m.rel_path,
                    d.line,
                    1,
                    format!(
                        "`{}` references the workspace table but the root manifest has no path entry for it",
                        d.name
                    ),
                ));
            }
        }
    }
    if let Some((lock_path, lock_text)) = lockfile {
        for (no, line) in lock_text.lines().enumerate() {
            if line.contains("registry+") || line.contains("git+") {
                out.push(Diagnostic::new(
                    Code::Ja02,
                    lock_path,
                    no as u32 + 1,
                    1,
                    format!("lockfile pins a non-path source: {}", line.trim()),
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// JA03: panic-freedom in hot-path crates.
// ---------------------------------------------------------------------

/// Bans `.unwrap()`, `.expect(...)`, `panic!`, `unreachable!`, `todo!`,
/// and `unimplemented!` in non-test code of the hot-path crates and the
/// extra [`HOT_PATH_MODULES`].  The codec/tensor/rng golden-value tests
/// pin bit-exact outputs; a reachable panic in those paths is a
/// correctness bug, and fallible operations must surface typed errors
/// instead.
pub fn ja03_no_panics(file: &SourceFile) -> Vec<Diagnostic> {
    let scope = if HOT_PATH_CRATES.contains(&file.crate_name.as_str()) {
        format!("crate `{}`", file.crate_name)
    } else if HOT_PATH_MODULES.contains(&file.rel_path.as_str()) {
        format!("module `{}`", file.rel_path)
    } else {
        return Vec::new();
    };
    scan_idents(file, Code::Ja03, |word, near| {
        let bad = match word {
            "unwrap" | "expect" => near(-1) == "." && near(1) == "(",
            "panic" | "unreachable" | "todo" | "unimplemented" => near(1) == "!",
            _ => false,
        };
        bad.then(|| format!("`{word}` in non-test code of hot-path {scope}"))
    })
}

// ---------------------------------------------------------------------
// JA04: determinism.
// ---------------------------------------------------------------------

/// Names whose presence in non-test library code breaks bit-stable
/// reproducibility: wall clocks, iteration-order-unstable containers,
/// and ambient (unseeded) RNG.  Spelled as literals — see module docs.
fn banned_nondeterminism(word: &str) -> Option<&'static str> {
    match word {
        "SystemTime" => Some("wall-clock time"),
        "Instant" => Some("monotonic clock"),
        "HashMap" => Some("iteration-order-unstable container (use BTreeMap)"),
        "HashSet" => Some("iteration-order-unstable container (use BTreeSet)"),
        "thread_rng" => Some("ambient RNG (only jact-rng may produce randomness)"),
        _ => None,
    }
}

/// Bans clocks, hash containers, and ambient RNG in non-test code of
/// every crate except the timing-exempt ones ([`TIMING_EXEMPT_CRATES`]).
pub fn ja04_determinism(file: &SourceFile) -> Vec<Diagnostic> {
    if TIMING_EXEMPT_CRATES.contains(&file.crate_name.as_str()) {
        return Vec::new();
    }
    scan_idents(file, Code::Ja04, |word, _| {
        banned_nondeterminism(word).map(|why| format!("`{word}` in non-test code: {why}"))
    })
}

// ---------------------------------------------------------------------
// JA05: forbid(unsafe_code).
// ---------------------------------------------------------------------

/// Requires `#![forbid(unsafe_code)]` in a crate root.  Run only on
/// `src/lib.rs` (and `src/main.rs` for binary-only crates) by the driver.
pub fn ja05_forbid_unsafe(file: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let has_forbid = (0..file.meaningful.len()).any(|mi| {
        file.word(mi) == "forbid" && file.word(mi + 1) == "(" && file.word(mi + 2) == "unsafe_code"
    });
    if !has_forbid {
        file.report(&mut out, Code::Ja05, 1, 1, "crate root lacks #![forbid(unsafe_code)]");
    }
    out
}

// ---------------------------------------------------------------------
// JA07: concurrency hygiene.
// ---------------------------------------------------------------------

/// The one directory allowed to hold raw concurrency primitives: the
/// deterministic fork-join runtime.  Workspace-relative prefix with `/`
/// separators.
pub const CONCURRENCY_EXEMPT_PREFIX: &str = "crates/par/";

/// Bans ad-hoc concurrency in non-test library code outside `crates/par`:
/// unscoped `thread::spawn` (threads that outlive the fork-join region
/// escape the deterministic merge order), lock types (lock acquisition
/// order varies run to run), and `static mut` (mutable global state).
/// All parallelism must flow through `jact-par`'s pool, whose
/// chunk-indexed reductions keep results bitwise identical for any
/// thread count.  Scoped `s.spawn(..)` inside `jact-par` itself is the
/// sanctioned form and the only one that exists.
pub fn ja07_concurrency(file: &SourceFile) -> Vec<Diagnostic> {
    if file.rel_path.starts_with(CONCURRENCY_EXEMPT_PREFIX) {
        return Vec::new();
    }
    scan_idents(file, Code::Ja07, |word, near| {
        let why = match word {
            // `thread::spawn` (with or without a `std::` prefix).  A
            // method call `pool.spawn(..)` or scope `s.spawn(..)` is
            // preceded by `.`, not `thread ::`, and is not flagged.
            "spawn" if near(-1) == ":" && near(-2) == ":" && near(-3) == "thread" => {
                "unscoped `thread::spawn` (route parallel work through jact-par)"
            }
            // Lock types, whether imported, qualified, or constructed.
            "Mutex" | "RwLock" => {
                "lock-based shared state (nondeterministic acquisition order; use jact-par's chunk-indexed merges)"
            }
            // `static mut` declarations.  The lexer emits `'static` as a
            // single Lifetime token, so `&'static mut T` cannot reach
            // this arm.
            "static" if near(1) == "mut" => "`static mut` (mutable global state)",
            _ => return None,
        };
        Some(format!("`{word}` in non-test code outside crates/par: {why}"))
    })
}

// ---------------------------------------------------------------------
// JA08: print funnel.
// ---------------------------------------------------------------------

/// Crates whose library code may print directly: the bench harness and
/// the analyzer *are* the reporting layer.
pub const PRINT_EXEMPT_CRATES: [&str; 2] = ["jact-bench", "jact-analyze"];

/// Bans ad-hoc `println!`/`eprintln!`/`print!`/`eprint!`/`dbg!` in
/// non-test library code outside [`PRINT_EXEMPT_CRATES`] and outside
/// binary entry points (`src/bin/*`, `src/main.rs`).  Library crates
/// report through `jact-obs` counters/spans (or return data for a bench
/// binary to print); stray prints bypass the deterministic trace format
/// and corrupt table output piped from the bench binaries.
/// `write!`/`writeln!` into an explicit sink (e.g. `Display` impls) are
/// untouched.
pub fn ja08_print_funnel(file: &SourceFile) -> Vec<Diagnostic> {
    if PRINT_EXEMPT_CRATES.contains(&file.crate_name.as_str())
        || file.rel_path.contains("/src/bin/")
        || file.rel_path.ends_with("/src/main.rs")
    {
        return Vec::new();
    }
    scan_idents(file, Code::Ja08, |word, near| {
        let bad = matches!(word, "println" | "eprintln" | "print" | "eprint" | "dbg")
            && near(1) == "!";
        bad.then(|| format!("`{word}!` in library code: report through jact-obs or a bench binary"))
    })
}

// ---------------------------------------------------------------------
// JA09: checked casts in codec/tensor kernels.
// ---------------------------------------------------------------------

/// Crates whose kernels must not narrow integers with bare `as` (JA09):
/// the Q12 fixed-point DCT and the quantizers are only integer-exact if
/// every narrowing is deliberate.
pub const CAST_CHECKED_CRATES: [&str; 2] = ["jact-codec", "jact-tensor"];

/// The one module allowed to spell narrowing `as` casts: the checked
/// helpers themselves.  Structural (path-based) so the hot-path crates
/// stay free of inline allow comments.
pub const CAST_HELPER_MODULES: [&str; 1] = ["crates/codec/src/cast.rs"];

/// Flags `as i8`/`u8`/`i16`/`u16` casts of runtime values in non-test
/// code of [`CAST_CHECKED_CRATES`].  Casts of numeric literals and of
/// capitalized paths (enum discriminants, named constants) are exempt —
/// their values are visible or workspace-controlled — as is the helper
/// module itself.  Everything else must go through `codec::cast`
/// (saturate / exact / truncate / widen), which states intent and
/// debug-asserts exactness where claimed.
pub fn ja09_checked_casts(file: &SourceFile, ast: &FileAst) -> Vec<Diagnostic> {
    if !CAST_CHECKED_CRATES.contains(&file.crate_name.as_str())
        || CAST_HELPER_MODULES.contains(&file.rel_path.as_str())
    {
        return Vec::new();
    }
    let mut out = Vec::new();
    for f in &ast.fns {
        for c in &f.casts {
            if !matches!(c.target.as_str(), "i8" | "u8" | "i16" | "u16")
                || matches!(c.src, CastSrc::Literal | CastSrc::UpperPath)
                || file.in_test_region(c.start)
            {
                continue;
            }
            file.report(
                &mut out,
                Code::Ja09,
                c.line,
                c.col,
                format!(
                    "narrowing `as {}` cast on a runtime value in fn `{}`: use the checked helpers in codec::cast",
                    c.target, f.name
                ),
            );
        }
    }
    out
}

// ---------------------------------------------------------------------
// JA10: call-graph panic reachability.
// ---------------------------------------------------------------------

/// Modules that decode hostile bytes: inside them, slice indexing and
/// division on runtime values count as panic sources for JA10 (anywhere
/// else, in-bounds indexing under local invariants is accepted and only
/// the explicit panic forms count).
pub const WIRE_SURFACE_MODULES: [&str; 6] = [
    "crates/codec/src/seal.rs",
    "crates/codec/src/wire.rs",
    "crates/codec/src/stream.rs",
    "crates/serve/src/frame.rs",
    "crates/serve/src/journal.rs",
    "crates/infer/src/frame.rs",
];

/// One panic source attributed to a function, for JA10 reporting.
struct PanicSource {
    what: String,
    line: u32,
}

/// Collects the panic sources of one graph node: explicit panic forms
/// everywhere, plus runtime indexing/division in the
/// [`WIRE_SURFACE_MODULES`] (outside `const fn`, whose evaluation
/// panics are compile errors).  `ALL_CAPS` table indexing and
/// literal/constant divisors are exempt.
fn panic_sources(graph: &CallGraph<'_>, id: crate::graph::NodeId) -> Vec<PanicSource> {
    let file = graph.file(id);
    let f = graph.node(id);
    if f.body.is_none() || file.in_test_region(f.start) {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut source = |what: String, line: u32| {
        if !file.is_suppressed(Code::Ja10, line) {
            out.push(PanicSource { what, line });
        }
    };
    for p in &f.panics {
        source(format!("`{}`", p.what), p.line);
    }
    if WIRE_SURFACE_MODULES.contains(&file.rel_path.as_str()) && !f.is_const {
        for ix in f.indexes.iter().filter(|ix| !is_all_caps(&ix.receiver)) {
            source("slice indexing".to_string(), ix.line);
        }
        for d in f.divs.iter().filter(|d| d.rhs == DivRhs::Other) {
            source(format!("`{}` with a runtime divisor", d.op), d.line);
        }
    }
    out.sort_by_key(|s| s.line);
    out
}

/// Flags every hot-path `pub fn` (in the [`HOT_PATH_CRATES`] and
/// [`HOT_PATH_MODULES`]) from which a panic source is transitively
/// reachable through workspace calls.  This deepens JA03 — which sees
/// only direct panic tokens — to whole-workspace reachability, and adds
/// the hostile-byte indexing/division sources of the wire surface.  The
/// diagnostic names the call chain and the source location.
pub fn ja10_panic_reachability(graph: &CallGraph<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (fi, file) in graph.files.iter().enumerate() {
        let covered = HOT_PATH_CRATES.contains(&file.crate_name.as_str())
            || HOT_PATH_MODULES.contains(&file.rel_path.as_str());
        if !covered {
            continue;
        }
        for (xi, f) in graph.asts[fi].fns.iter().enumerate() {
            if !f.is_pub || f.body.is_none() || file.in_test_region(f.start) {
                continue;
            }
            let root = (fi, xi);
            let pred = graph.reachable(root);
            let mut nodes: Vec<crate::graph::NodeId> = vec![root];
            nodes.extend(pred.keys().copied());
            let hit = nodes.iter().find_map(|&id| {
                panic_sources(graph, id)
                    .into_iter()
                    .next()
                    .map(|s| (id, s))
            });
            if let Some((id, src)) = hit {
                let via = if id == root {
                    String::new()
                } else {
                    format!(" via {}", graph.chain(root, id, &pred))
                };
                file.report(
                    &mut out,
                    Code::Ja10,
                    f.line,
                    f.col,
                    format!(
                        "pub fn `{}` can reach {} at {}:{}{}",
                        graph.qualified_name(root),
                        src.what,
                        graph.file(id).rel_path,
                        src.line,
                        via
                    ),
                );
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// JA11: silent error discard.
// ---------------------------------------------------------------------

/// Crates exempt from JA11: the bench harness deliberately ignores some
/// I/O outcomes in best-effort reporting paths.
pub const ERROR_DISCARD_EXEMPT_CRATES: [&str; 1] = ["jact-bench"];

/// `std` functions known to return `Result` (the symbol table only
/// covers workspace fns; these cover the common filesystem calls).
const KNOWN_STD_RESULT_FNS: [&str; 10] = [
    "create_dir_all",
    "create_dir",
    "remove_file",
    "remove_dir",
    "remove_dir_all",
    "copy",
    "rename",
    "write_all",
    "flush",
    "set_len",
];

/// Flags silently discarded errors in non-test code:
///
/// * `let _ = <expr>;` where the expression calls a `Result`-returning
///   function (workspace symbol table + known `std` fs calls) and does
///   not end in `?` — the error vanishes without a decision;
/// * a dangling statement-position `.ok();` — same, spelled differently.
///
/// `let _ = f()?;` stays legal (the error is propagated first), as do
/// `write!`/`writeln!` into in-memory sinks (infallible by construction;
/// JA08 already confines real printing).
pub fn ja11_error_discard(file: &SourceFile, graph: &CallGraph<'_>) -> Vec<Diagnostic> {
    if ERROR_DISCARD_EXEMPT_CRATES.contains(&file.crate_name.as_str()) {
        return Vec::new();
    }
    let mut out = Vec::new();
    let toks = &file.tokens;
    let n = file.meaningful.len();
    for mi in 0..n {
        let t = &toks[file.meaningful[mi]];
        if file.in_test_region(t.start) {
            continue;
        }
        // `let _ = <expr> ;`
        if file.word(mi) == "let" && file.word(mi + 1) == "_" && file.word(mi + 2) == "=" {
            // Find the statement-terminating `;` at bracket depth 0.
            let mut depth = 0usize;
            let mut j = mi + 3;
            let mut end = None;
            while j < n {
                match file.word(j) {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth = depth.saturating_sub(1),
                    ";" if depth == 0 => {
                        end = Some(j);
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            let Some(end) = end else { continue };
            if end > mi + 3 && file.word(end - 1) == "?" {
                continue; // error propagated before the discard
            }
            let offender = (mi + 3..end).find(|&j| {
                file.word(j + 1) == "("
                    && toks[file.meaningful[j]].kind == TokenKind::Ident
                    && (KNOWN_STD_RESULT_FNS.contains(&file.word(j))
                        || graph.returns_result(file.word(j)))
            });
            if offender.is_some() {
                file.report(
                    &mut out,
                    Code::Ja11,
                    t.line,
                    t.col,
                    "`let _ =` discards a Result: handle the error or propagate it with `?`",
                );
            }
            continue;
        }
        // Dangling `.ok();` in statement position.
        if file.word(mi) == "."
            && file.word(mi + 1) == "ok"
            && file.word(mi + 2) == "("
            && file.word(mi + 3) == ")"
            && file.word(mi + 4) == ";"
        {
            // Walk back to the statement start; a binding, assignment, or
            // `return` means the Option is actually used.
            let mut j = mi;
            let mut used = false;
            while j > 0 {
                j -= 1;
                match file.word(j) {
                    ";" | "{" | "}" => break,
                    "let" | "=" | "return" => {
                        used = true;
                        break;
                    }
                    _ => {}
                }
            }
            let ok_tok = &toks[file.meaningful[mi + 1]];
            if !used {
                file.report(
                    &mut out,
                    Code::Ja11,
                    ok_tok.line,
                    ok_tok.col,
                    "dangling `.ok()` discards a Result: handle the error or propagate it",
                );
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// JA12: parallel determinism.
// ---------------------------------------------------------------------

/// The chunk-index-ordered aggregation APIs of `jact-par`: results
/// crossing a fork-join region must flow through their return values.
pub const PAR_ORDERED_APIS: [&str; 5] = [
    "run_chunks",
    "par_chunks",
    "par_chunks_mut",
    "par_map_collect",
    "par_reduce_ordered",
];

/// Shared-mutable cell types (spelled as literals — see module docs).
fn shared_mutable_name(word: &str) -> bool {
    matches!(word, "RefCell" | "Cell" | "UnsafeCell") || word == "borrow_mut"
}

/// Flags aggregation that bypasses `jact-par`'s chunk-index-ordered
/// merges in non-test code outside `crates/par`:
///
/// * `Atomic*` types anywhere — atomics commute, so per-chunk
///   contributions land in scheduling order and the result is only
///   *numerically* stable, not bitwise-deterministic (and a determinism
///   audit can no longer see the merge order);
/// * shared-mutable cells (`RefCell`, `Cell`, `UnsafeCell`,
///   `borrow_mut`) captured inside the argument of a
///   [`PAR_ORDERED_APIS`] call — mutating captured state from chunk
///   bodies races the merge discipline the APIs exist to provide.
pub fn ja12_parallel_determinism(file: &SourceFile, ast: &FileAst) -> Vec<Diagnostic> {
    if file.rel_path.starts_with(CONCURRENCY_EXEMPT_PREFIX) {
        return Vec::new();
    }
    let mut out = scan_idents(file, Code::Ja12, |w, _| {
        (w.starts_with("Atomic") && w.len() > "Atomic".len()).then(|| {
            format!(
                "`{w}` outside crates/par: aggregate through jact-par's chunk-index-ordered APIs, not commuting shared state"
            )
        })
    });
    for f in &ast.fns {
        for call in &f.calls {
            let Some(name) = call.path.last() else { continue };
            if !PAR_ORDERED_APIS.contains(&name.as_str()) {
                continue;
            }
            let (s, e) = call.args;
            for &ti in &file.meaningful {
                let t = &file.tokens[ti];
                if t.start < s || t.start >= e || t.kind != TokenKind::Ident {
                    continue;
                }
                let w = t.text(&file.text);
                if shared_mutable_name(w) && !file.in_test_region(t.start) {
                    file.report(
                        &mut out,
                        Code::Ja12,
                        t.line,
                        t.col,
                        format!(
                            "`{w}` captured by a `{name}` closure: chunk bodies must not mutate shared state; aggregate via the ordered return values"
                        ),
                    );
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// JA13: obs-schema registry.
// ---------------------------------------------------------------------

/// The emitting entry points of `jact-obs` whose first argument is a
/// span/counter/gauge/histogram name.
pub const OBS_EMIT_FNS: [&str; 5] = ["span", "span_with", "count", "gauge", "observe"];

/// `true` when a parsed call is a `jact-obs` emit: qualified through an
/// `obs`/`jact_obs` path segment, or a bare name imported from
/// `jact_obs`.  Plain method calls (`.count()` on an iterator) never
/// match.
fn is_obs_emit(call: &crate::parser::Call, ast: &FileAst) -> bool {
    let Some(name) = call.path.last() else {
        return false;
    };
    if call.is_method || !OBS_EMIT_FNS.contains(&name.as_str()) {
        return false;
    }
    if call.path.len() >= 2 {
        return matches!(
            call.path[call.path.len() - 2].as_str(),
            "obs" | "jact_obs"
        );
    }
    ast.import_path(name)
        .is_some_and(|p| p.first().map(String::as_str) == Some("jact_obs"))
}

/// Enforces the obs-schema registry (`crates/obs/obs_schema.txt`) in
/// non-test library code outside `crates/obs` itself: every name passed
/// to an emitting call must be a string literal (or a `format!` template
/// literal) that appears in the registry.  The golden-trace tests check
/// the same registry against recorded traces, so a name added in code
/// without registration fails the lint before it ever drifts a golden
/// file.
pub fn ja13_obs_schema(file: &SourceFile, ast: &FileAst, schema: &ObsSchema) -> Vec<Diagnostic> {
    if file.rel_path.starts_with("crates/obs/") {
        return Vec::new();
    }
    let mut out = Vec::new();
    for f in &ast.fns {
        for call in &f.calls {
            if !is_obs_emit(call, ast) || file.in_test_region(call.start) {
                continue;
            }
            let name = call.path.last().map(String::as_str).unwrap_or("");
            let message = match &call.first_str {
                Some(lit) if schema.matches_literal(lit) => continue,
                Some(lit) => format!(
                    "obs name `{lit}` (via `{name}`) is not registered in crates/obs/obs_schema.txt"
                ),
                None => format!(
                    "obs `{name}` with a non-literal name: names must be registry literals so the schema stays checkable"
                ),
            };
            file.report(&mut out, Code::Ja13, call.line, call.col, message);
        }
    }
    out
}

// ---------------------------------------------------------------------
// JA14: hot-path allocation.
// ---------------------------------------------------------------------

/// Steady-state roots for JA14: the fused tile pipeline, the wire
/// round-trip, and the serve session loop.  Every workspace function
/// transitively reachable from these through workspace calls runs once
/// per training step (or per request) in steady state and must draw its
/// buffers from `jact-pool` instead of the global allocator — the
/// `alloc_bench` gate measures the same paths at 0 allocations/op.
///
/// The tile drivers take their stage as a closure parameter, which the
/// name-resolved call graph cannot see through, so the five per-tile
/// kernels those closures call are roots in their own right.
pub const STEADY_STATE_ROOTS: [&str; 15] = [
    "collect_tiles",
    "encode_rle",
    "encode_zvc",
    "untile_blocks",
    "decode_zvc",
    "gather_block",
    "dct2d_i8",
    "quantize_block",
    "dequantize_block",
    "idct2d_to_i8",
    "serialize_into",
    "deserialize",
    "ingress",
    "advance_to",
    "pop_egress",
];

/// Data-plane crates JA14 scans: the ones whose steady-state loops the
/// `alloc_bench` gate measures.  Everything else is either the
/// allocation funnel itself (`jact-pool`'s miss path legitimately
/// allocates), control-plane bookkeeping amortized across whole batches
/// (`jact-par` dispatch, `jact-obs` report rendering, `jact-dnn`
/// parameter listings), or offline tooling — reachable in the
/// name-resolved graph but not part of the per-op loop.
pub const ALLOC_COVERED_CRATES: [&str; 5] =
    ["jact-codec", "jact-tensor", "jact-serve", "jact-core", "jact-infer"];

/// `true` for constructor/conversion names: `new`, `default`, `with_*`,
/// `from_*`.  The name-resolved call graph over-approximates — a
/// constructor reachable from a root is almost always the setup arm
/// (building a codec, a table, a decoded value's final owner), not the
/// per-op loop, and its allocation establishes an object the steady
/// state then recycles.
fn is_setup_fn(name: &str) -> bool {
    name == "new" || name == "default" || name.starts_with("with_") || name.starts_with("from_")
}

/// Documented escape hatches JA14 treats as call-graph cut points: the
/// function itself and everything only it reaches are outside the
/// per-op allocation discipline.  Kept as a structural list so the
/// hot-path crates stay free of inline `allow` comments.
///
/// * `collect_tiles` materializes the full block list for
///   entropy/rate-distortion metrics — its output `Vec<[i8; 64]>` *is*
///   the product (and `[i8; 64]` has no pool class); the streaming
///   coders cover the allocation-free steady state.
/// * `forward_stage` executes one model layer for the inference daemon:
///   dense-math scratch (im2col, matmul) is amortized across a whole
///   batch and measured by its own (non-gated) `alloc_bench` row; the
///   serving machinery around it stays on the gated zero-alloc path.
/// * `compress` / `decompress` are the whole-tensor codec entry points:
///   they build and consume the `CompressedActivation` payload object,
///   which is the product of the call and recycles through
///   `CompressedActivation::recycle`; the streaming tile pipeline is
///   the allocation-free coding path.
pub const ALLOC_ESCAPE_FNS: [&str; 4] =
    ["collect_tiles", "forward_stage", "compress", "decompress"];

/// One fresh-allocation form found inside a function body.
struct AllocSite {
    what: String,
    line: u32,
    col: u32,
    start: usize,
}

/// Scans the body of `f` for fresh-buffer allocation forms: `vec!`,
/// `Vec::new`/`Vec::with_capacity` (plus the `String`/`Box`
/// equivalents), and `.to_vec()`.
fn alloc_sites(file: &SourceFile, f: &crate::parser::FnItem) -> Vec<AllocSite> {
    let Some((lo, hi)) = f.body else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for (k, &ti) in file.meaningful.iter().enumerate() {
        let t = &file.tokens[ti];
        if t.start < lo || t.start >= hi || t.kind != TokenKind::Ident {
            continue;
        }
        let what = match t.text(&file.text) {
            "vec" if file.word(k + 1) == "!" => Some("`vec!`".to_string()),
            owner @ ("Vec" | "String" | "Box")
                if file.word(k + 1) == ":" && file.word(k + 2) == ":" =>
            {
                match file.word(k + 3) {
                    m @ ("new" | "with_capacity") => Some(format!("`{owner}::{m}`")),
                    _ => None,
                }
            }
            "to_vec" if k > 0 && file.word(k - 1) == "." => Some("`.to_vec()`".to_string()),
            _ => None,
        };
        if let Some(what) = what {
            out.push(AllocSite {
                what,
                line: t.line,
                col: t.col,
                start: t.start,
            });
        }
    }
    out
}

/// Flags fresh-buffer allocations in every function transitively
/// reachable from the [`STEADY_STATE_ROOTS`] through workspace calls.
/// These functions run per training step or per request; a fresh `Vec`
/// there is a steady-state allocation the pool layer exists to remove.
/// Only the [`ALLOC_COVERED_CRATES`] are scanned, and constructor-named
/// functions ([`is_setup_fn`]) are exempt; anything else needs either a
/// `jact_pool` rewrite or a justified `// jact-analyze: allow(JA14)`.
pub fn ja14_hot_path_alloc(graph: &CallGraph<'_>) -> Vec<Diagnostic> {
    use std::collections::{BTreeMap, BTreeSet};
    // Node -> the first root (in declaration order) that reaches it.
    // Traversal does not descend through [`ALLOC_ESCAPE_FNS`]: an escape
    // is a documented boundary, so functions only it reaches are outside
    // the per-op discipline.
    let mut reached: BTreeMap<crate::graph::NodeId, &'static str> = BTreeMap::new();
    for root_name in STEADY_STATE_ROOTS {
        for &root in graph.named(root_name) {
            let file = graph.file(root);
            if file.in_test_region(graph.node(root).start) {
                continue;
            }
            let mut stack = vec![root];
            let mut seen: BTreeSet<crate::graph::NodeId> = BTreeSet::new();
            seen.insert(root);
            while let Some(cur) = stack.pop() {
                reached.entry(cur).or_insert(root_name);
                if cur != root && ALLOC_ESCAPE_FNS.contains(&graph.node(cur).name.as_str()) {
                    continue;
                }
                for &next in graph.callees(cur) {
                    if seen.insert(next) {
                        stack.push(next);
                    }
                }
            }
        }
    }
    let mut out = Vec::new();
    for (&id, &root_name) in &reached {
        let file = graph.file(id);
        let f = graph.node(id);
        if !ALLOC_COVERED_CRATES.contains(&file.crate_name.as_str())
            || is_setup_fn(&f.name)
            || ALLOC_ESCAPE_FNS.contains(&f.name.as_str())
            || file.in_test_region(f.start)
        {
            continue;
        }
        for s in alloc_sites(file, f) {
            if file.in_test_region(s.start) {
                continue;
            }
            file.report(
                &mut out,
                Code::Ja14,
                s.line,
                s.col,
                format!(
                    "{} in fn `{}` (reachable from steady-state root `{}`): draw scratch from jact_pool or reuse a caller buffer",
                    s.what,
                    graph.qualified_name(id),
                    root_name
                ),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest;

    fn file(crate_name: &str, src: &str) -> SourceFile {
        SourceFile::new("src/x.rs", crate_name, src.to_string())
    }

    #[test]
    fn ja03_flags_unwrap_in_hot_path_only() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert_eq!(ja03_no_panics(&file("jact-codec", src)).len(), 1);
        assert!(ja03_no_panics(&file("jact-dnn", src)).is_empty());
    }

    #[test]
    fn ja03_covers_listed_modules_outside_hot_path_crates() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        // Same crate, different files: only the listed module is covered.
        let fault = SourceFile::new("crates/core/src/fault.rs", "jact-core", src.to_string());
        let d = ja03_no_panics(&fault);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("crates/core/src/fault.rs"), "{}", d[0].message);
        let offload = SourceFile::new("crates/core/src/offload.rs", "jact-core", src.to_string());
        assert_eq!(ja03_no_panics(&offload).len(), 1);
        let other = SourceFile::new("crates/core/src/stats.rs", "jact-core", src.to_string());
        assert!(ja03_no_panics(&other).is_empty());
    }

    #[test]
    fn ja03_allows_unwrap_or_and_tests() {
        let ok = "fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }\n#[cfg(test)]\nmod tests { fn t() { None::<u8>.unwrap(); } }\n";
        assert!(ja03_no_panics(&file("jact-codec", ok)).is_empty());
    }

    #[test]
    fn ja04_flags_clock_and_respects_suppression() {
        let bad = "fn f() { let t = std::time::Instant::now(); }\n";
        let d = ja04_determinism(&file("jact-gpusim", bad));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 1);
        let ok = "// jact-analyze: allow(JA04)\nfn f() { let t = std::time::Instant::now(); }\n";
        assert!(ja04_determinism(&file("jact-gpusim", ok)).is_empty());
        assert!(ja04_determinism(&file("jact-bench", bad)).is_empty());
    }

    #[test]
    fn ja05_requires_forbid() {
        assert_eq!(ja05_forbid_unsafe(&file("jact-x", "//! doc\n")).len(), 1);
        assert!(ja05_forbid_unsafe(&file("jact-x", "#![forbid(unsafe_code)]\n")).is_empty());
    }

    #[test]
    fn ja07_flags_raw_concurrency_outside_par() {
        let spawn = "fn f() { std::thread::spawn(|| {}); }\n";
        assert_eq!(ja07_concurrency(&file("jact-core", spawn)).len(), 1);
        let lock = "use std::sync::Mutex;\n";
        assert_eq!(ja07_concurrency(&file("jact-codec", lock)).len(), 1);
        let global = "static mut COUNTER: u64 = 0;\n";
        assert_eq!(ja07_concurrency(&file("jact-dnn", global)).len(), 1);
    }

    #[test]
    fn ja07_quiet_on_par_scoped_spawn_lifetimes_and_tests() {
        // The runtime crate itself is exempt by path.
        let par = SourceFile::new(
            "crates/par/src/lib.rs",
            "jact-par",
            "fn f() { std::thread::spawn(|| {}); }\n".to_string(),
        );
        assert!(ja07_concurrency(&par).is_empty());
        // Scoped spawn is a method call, not `thread::spawn`.
        let scoped = "fn f() { std::thread::scope(|s| { s.spawn(|| {}); }); }\n";
        assert!(ja07_concurrency(&file("jact-core", scoped)).is_empty());
        // `&'static mut` is a lifetime, not a `static mut` declaration.
        let lifetime = "fn f(x: &'static mut u8) { *x = 1; }\n";
        assert!(ja07_concurrency(&file("jact-core", lifetime)).is_empty());
        // Test regions may do as they like.
        let test_only = "#[cfg(test)]\nmod tests { fn t() { std::thread::spawn(|| {}); } }\n";
        assert!(ja07_concurrency(&file("jact-core", test_only)).is_empty());
        // Inline allow is honored.
        let allowed = "// jact-analyze: allow(JA07)\nuse std::sync::Mutex;\n";
        assert!(ja07_concurrency(&file("jact-core", allowed)).is_empty());
    }

    #[test]
    fn ja08_flags_prints_in_library_code_only() {
        let bad = "fn f() { println!(\"x\"); }\n";
        assert_eq!(ja08_print_funnel(&file("jact-codec", bad)).len(), 1);
        let dbg = "fn f(x: u8) -> u8 { dbg!(x) }\n";
        assert_eq!(ja08_print_funnel(&file("jact-core", dbg)).len(), 1);
        // The reporting crates are exempt wholesale.
        assert!(ja08_print_funnel(&file("jact-bench", bad)).is_empty());
        assert!(ja08_print_funnel(&file("jact-analyze", bad)).is_empty());
        // Binary entry points print by design.
        let bin = SourceFile::new(
            "crates/bench/src/bin/table3.rs",
            "jact-x",
            bad.to_string(),
        );
        assert!(ja08_print_funnel(&bin).is_empty());
        let main = SourceFile::new("crates/x/src/main.rs", "jact-x", bad.to_string());
        assert!(ja08_print_funnel(&main).is_empty());
    }

    #[test]
    fn ja08_quiet_on_writeln_tests_and_suppressions() {
        // Display impls write into an explicit formatter.
        let disp = "fn f(w: &mut std::fmt::Formatter<'_>) { writeln!(w, \"x\").ok(); }\n";
        assert!(ja08_print_funnel(&file("jact-core", disp)).is_empty());
        let test_only = "#[cfg(test)]\nmod tests { fn t() { println!(\"x\"); } }\n";
        assert!(ja08_print_funnel(&file("jact-core", test_only)).is_empty());
        let allowed = "// jact-analyze: allow(JA08)\nfn f() { println!(\"x\"); }\n";
        assert!(ja08_print_funnel(&file("jact-core", allowed)).is_empty());
        // `println` without `!` is an ordinary identifier.
        let ident = "fn println() {}\nfn g() { println(); }\n";
        assert!(ja08_print_funnel(&file("jact-core", ident)).is_empty());
    }

    #[test]
    fn ja01_flags_inverted_layering() {
        let bad = manifest::parse(
            "crates/tensor/Cargo.toml",
            "[package]\nname = \"jact-tensor\"\n[dependencies]\njact-dnn = { workspace = true }\n",
        );
        let d = ja01_layering(&[bad]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 4);
        let ok = manifest::parse(
            "crates/tensor/Cargo.toml",
            "[package]\nname = \"jact-tensor\"\n[dependencies]\njact-rng = { workspace = true }\n",
        );
        assert!(ja01_layering(&[ok]).is_empty());
    }

    #[test]
    fn ja02_flags_registry_deps_and_lockfile_sources() {
        let bad = manifest::parse(
            "crates/x/Cargo.toml",
            "[package]\nname = \"jact-x\"\n[dependencies]\nserde = \"1.0\"\n",
        );
        let root = "[workspace.dependencies]\njact-x = { path = \"crates/x\" }\n";
        let d = ja02_hermetic(&[bad], root, None);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 4);
        let lock = "source = \"registry+https://github.com/rust-lang/crates.io-index\"\n";
        let d = ja02_hermetic(&[], root, Some(("Cargo.lock", lock)));
        assert_eq!(d.len(), 1);
    }

    fn ja14_over(specs: &[(&str, &str, &str)]) -> Vec<Diagnostic> {
        let fs: Vec<SourceFile> = specs
            .iter()
            .map(|(p, c, s)| SourceFile::new(*p, *c, s.to_string()))
            .collect();
        let asts: Vec<crate::parser::FileAst> = fs.iter().map(crate::parser::parse).collect();
        let graph = CallGraph::build(&fs, &asts);
        ja14_hot_path_alloc(&graph)
    }

    #[test]
    fn ja14_flags_allocs_reachable_from_steady_state_roots() {
        let d = ja14_over(&[
            (
                "crates/codec/src/wire.rs",
                "jact-codec",
                "pub fn serialize_into(out: &mut Vec<u8>) { helper(out); }\nfn helper(out: &mut Vec<u8>) { let v: Vec<u8> = Vec::with_capacity(4); out.extend(v); }\n",
            ),
        ]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].code, Code::Ja14);
        assert_eq!(d[0].line, 2);
        assert!(d[0].message.contains("serialize_into"), "{}", d[0].message);
    }

    #[test]
    fn ja14_skips_unreachable_constructors_and_other_crates() {
        // Not reachable from any root: no finding.
        let d = ja14_over(&[(
            "crates/codec/src/x.rs",
            "jact-codec",
            "pub fn standalone() { let _v = vec![0u8; 4]; }\n",
        )]);
        assert!(d.is_empty(), "{d:?}");
        // Constructor-named functions are setup, not steady state.
        let d = ja14_over(&[(
            "crates/codec/src/x.rs",
            "jact-codec",
            "pub fn deserialize() -> Vec<u8> { from_parts() }\nfn from_parts() -> Vec<u8> { vec![0u8; 4] }\n",
        )]);
        assert!(d.is_empty(), "{d:?}");
        // Crates off the data plane are not scanned.
        let d = ja14_over(&[(
            "crates/dnn/src/x.rs",
            "jact-dnn",
            "pub fn deserialize() { let _v = vec![0u8; 4]; }\n",
        )]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn ja14_honors_suppressions() {
        let d = ja14_over(&[(
            "crates/codec/src/x.rs",
            "jact-codec",
            "pub fn deserialize() -> Vec<u8> { a() }\nfn a() -> Vec<u8> {\n    // jact-analyze: allow(JA14)\n    [0u8].to_vec()\n}\n",
        )]);
        assert!(d.is_empty(), "{d:?}");
    }
}
