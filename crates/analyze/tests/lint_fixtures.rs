//! Fixture tests: each lint pass must fire on a minimal bad input with
//! the correct file:line span, stay quiet once the input is fixed, and
//! (for the source-level lints JA03–JA07) stay quiet under an inline
//! `// jact-analyze: allow(...)` suppression.  JA01/JA02 operate on
//! manifests, where inline allow comments intentionally have no effect.

use jact_analyze::diag::Code;
use jact_analyze::manifest;
use jact_analyze::passes;
use jact_analyze::SourceFile;

fn src(rel_path: &str, crate_name: &str, text: &str) -> SourceFile {
    SourceFile::new(rel_path, crate_name, text.to_string())
}

// ---------------------------------------------------------------- JA01

#[test]
fn ja01_fires_on_inverted_layering() {
    let bad = manifest::parse(
        "crates/codec/Cargo.toml",
        "[package]\nname = \"jact-codec\"\n\n[dependencies]\njact-dnn = { path = \"../dnn\" }\n",
    );
    let diags = passes::ja01_layering(&[bad]);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].code, Code::Ja01);
    assert_eq!(diags[0].path, "crates/codec/Cargo.toml");
    assert_eq!(diags[0].line, 5, "span must point at the dep entry");
    assert!(diags[0].message.contains("jact-dnn"));
}

#[test]
fn ja01_quiet_on_correct_layering() {
    let ok = manifest::parse(
        "crates/dnn/Cargo.toml",
        "[package]\nname = \"jact-dnn\"\n\n[dependencies]\njact-codec = { path = \"../codec\" }\n",
    );
    assert!(passes::ja01_layering(&[ok]).is_empty());
}

// ---------------------------------------------------------------- JA02

#[test]
fn ja02_fires_on_registry_dependency() {
    let bad = manifest::parse(
        "crates/codec/Cargo.toml",
        "[package]\nname = \"jact-codec\"\n\n[dependencies]\nserde = \"1.0\"\n",
    );
    let diags = passes::ja02_hermetic(&[bad], "", None);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].code, Code::Ja02);
    assert_eq!(diags[0].path, "crates/codec/Cargo.toml");
    assert_eq!(diags[0].line, 5);
    assert!(diags[0].message.contains("serde"));
}

#[test]
fn ja02_fires_on_dangling_workspace_ref_and_locked_registry_source() {
    let m = manifest::parse(
        "crates/codec/Cargo.toml",
        "[package]\nname = \"jact-codec\"\n\n[dependencies]\njact-tensor = { workspace = true }\n",
    );
    // Root manifest has no path entry for jact-tensor: dangling ref.
    let diags = passes::ja02_hermetic(std::slice::from_ref(&m), "[workspace]\n", None);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].line, 5);

    // Same manifest against a root that does carry the entry: quiet,
    // but a registry-pinned lockfile line still fires with its own span.
    let root = "[workspace.dependencies]\njact-tensor = { path = \"crates/tensor\" }\n";
    let lock = "[[package]]\nname = \"serde\"\nsource = \"registry+https://github.com/rust-lang/crates.io-index\"\n";
    let diags = passes::ja02_hermetic(std::slice::from_ref(&m), root, Some(("Cargo.lock", lock)));
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].path, "Cargo.lock");
    assert_eq!(diags[0].line, 3);
}

#[test]
fn ja02_quiet_on_hermetic_manifest() {
    let ok = manifest::parse(
        "crates/codec/Cargo.toml",
        "[package]\nname = \"jact-codec\"\n\n[dependencies]\njact-tensor = { path = \"../tensor\" }\n",
    );
    let lock = "[[package]]\nname = \"jact-tensor\"\nversion = \"0.1.0\"\n";
    assert!(passes::ja02_hermetic(&[ok], "", Some(("Cargo.lock", lock))).is_empty());
}

// ---------------------------------------------------------------- JA03

#[test]
fn ja03_fires_on_unwrap_in_hot_path_crate() {
    let f = src(
        "crates/codec/src/x.rs",
        "jact-codec",
        "//! d\npub fn f(v: Option<u8>) -> u8 {\n    v.unwrap()\n}\n",
    );
    let diags = passes::ja03_no_panics(&f);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].code, Code::Ja03);
    assert_eq!(diags[0].path, "crates/codec/src/x.rs");
    assert_eq!(diags[0].line, 3, "span must point at the .unwrap() line");
}

#[test]
fn ja03_quiet_on_fixed_allowed_and_test_code() {
    // Fixed: the fallible call propagates instead of panicking.
    let fixed = src(
        "crates/codec/src/x.rs",
        "jact-codec",
        "//! d\npub fn f(v: Option<u8>) -> Option<u8> {\n    let x = v?;\n    Some(x)\n}\n",
    );
    assert!(passes::ja03_no_panics(&fixed).is_empty());

    // Suppressed on the line above.
    let allowed = src(
        "crates/codec/src/x.rs",
        "jact-codec",
        "//! d\npub fn f(v: Option<u8>) -> u8 {\n    // jact-analyze: allow(JA03)\n    v.unwrap()\n}\n",
    );
    assert!(passes::ja03_no_panics(&allowed).is_empty());

    // Test regions are exempt.
    let test_only = src(
        "crates/codec/src/x.rs",
        "jact-codec",
        "//! d\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        panic!(\"boom\");\n    }\n}\n",
    );
    assert!(passes::ja03_no_panics(&test_only).is_empty());

    // Non-hot-path crates may panic.
    let high = src(
        "crates/bench/src/x.rs",
        "jact-bench",
        "//! d\npub fn f(v: Option<u8>) -> u8 {\n    v.unwrap()\n}\n",
    );
    assert!(passes::ja03_no_panics(&high).is_empty());
}

#[test]
fn ja03_covers_the_serve_crate() {
    // jact-serve joined HOT_PATH_CRATES with the daemon: a panic in the
    // multiplexer takes down every tenant, so the crate holds to the
    // same bar as the codec.
    let f = src(
        "crates/serve/src/server.rs",
        "jact-serve",
        "//! d\npub fn f(v: Option<u8>) -> u8 {\n    v.expect(\"present\")\n}\n",
    );
    let diags = passes::ja03_no_panics(&f);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].code, Code::Ja03);
    assert_eq!(diags[0].path, "crates/serve/src/server.rs");
}

// ---------------------------------------------------------------- JA04

#[test]
fn ja04_fires_on_hashmap_outside_bench() {
    let f = src(
        "crates/dnn/src/x.rs",
        "jact-dnn",
        "//! d\nuse std::collections::HashMap;\npub fn f() -> HashMap<u8, u8> {\n    HashMap::new()\n}\n",
    );
    let diags = passes::ja04_determinism(&f);
    assert_eq!(diags.len(), 3, "every HashMap mention is flagged");
    assert_eq!(diags[0].code, Code::Ja04);
    assert_eq!(diags[0].path, "crates/dnn/src/x.rs");
    assert_eq!(diags[0].line, 2);
}

#[test]
fn ja04_quiet_on_fixed_allowed_and_exempt_crates() {
    let fixed = src(
        "crates/dnn/src/x.rs",
        "jact-dnn",
        "//! d\nuse std::collections::BTreeMap;\npub fn f() -> BTreeMap<u8, u8> {\n    BTreeMap::new()\n}\n",
    );
    assert!(passes::ja04_determinism(&fixed).is_empty());

    let allowed = src(
        "crates/dnn/src/x.rs",
        "jact-dnn",
        "//! d\n// jact-analyze: allow(JA04)\nuse std::collections::HashMap as M;\npub type T = u8;\n",
    );
    assert!(passes::ja04_determinism(&allowed).is_empty());

    // The timing/reporting crates may use clocks and hash collections.
    let bench = src(
        "crates/bench/src/x.rs",
        "jact-bench",
        "//! d\nuse std::time::Instant;\nuse std::collections::HashMap;\n",
    );
    assert!(passes::ja04_determinism(&bench).is_empty());
}

// ---------------------------------------------------------------- JA05

#[test]
fn ja05_fires_on_missing_forbid() {
    let f = src(
        "crates/codec/src/lib.rs",
        "jact-codec",
        "//! Crate docs.\npub mod x;\n",
    );
    let diags = passes::ja05_forbid_unsafe(&f);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].code, Code::Ja05);
    assert_eq!(diags[0].path, "crates/codec/src/lib.rs");
    assert_eq!((diags[0].line, diags[0].col), (1, 1));
}

#[test]
fn ja05_quiet_on_fixed_and_allowed() {
    let fixed = src(
        "crates/codec/src/lib.rs",
        "jact-codec",
        "//! Crate docs.\n#![forbid(unsafe_code)]\npub mod x;\n",
    );
    assert!(passes::ja05_forbid_unsafe(&fixed).is_empty());

    let allowed = src(
        "crates/codec/src/lib.rs",
        "jact-codec",
        "// jact-analyze: allow(JA05)\n//! Crate docs.\npub mod x;\n",
    );
    assert!(passes::ja05_forbid_unsafe(&allowed).is_empty());
}

// ---------------------------------------------------------------- JA07

#[test]
fn ja07_fires_on_each_raw_concurrency_form() {
    let spawn = src(
        "crates/core/src/x.rs",
        "jact-core",
        "//! d\npub fn f() {\n    std::thread::spawn(|| {});\n}\n",
    );
    let diags = passes::ja07_concurrency(&spawn);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].code, Code::Ja07);
    assert_eq!(diags[0].path, "crates/core/src/x.rs");
    assert_eq!(diags[0].line, 3, "span must point at the spawn line");
    assert!(diags[0].message.contains("thread::spawn"));

    let lock = src(
        "crates/codec/src/x.rs",
        "jact-codec",
        "//! d\nuse std::sync::Mutex;\n",
    );
    let diags = passes::ja07_concurrency(&lock);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].line, 2);

    let global = src(
        "crates/dnn/src/x.rs",
        "jact-dnn",
        "//! d\nstatic mut COUNTER: u64 = 0;\n",
    );
    let diags = passes::ja07_concurrency(&global);
    assert_eq!(diags.len(), 1);
    assert!(diags[0].message.contains("static mut"));
}

#[test]
fn ja07_quiet_in_par_under_allow_and_in_sanctioned_forms() {
    // The fork-join runtime is the one place raw primitives may live.
    let par = src(
        "crates/par/src/lib.rs",
        "jact-par",
        "//! d\npub fn f() {\n    std::thread::spawn(|| {});\n}\n",
    );
    assert!(passes::ja07_concurrency(&par).is_empty());

    // Scoped spawn is a method call on the scope handle, not
    // `thread::spawn`; an immutable `static` and a `&'static mut`
    // reference are both fine.
    let ok = src(
        "crates/core/src/x.rs",
        "jact-core",
        "//! d\nstatic TABLE: [u8; 4] = [0; 4];\npub fn f(s: &std::thread::Scope<'_, '_>, x: &'static mut u8) {\n    s.spawn(|| {});\n    *x = 1;\n}\n",
    );
    assert!(passes::ja07_concurrency(&ok).is_empty());

    // Inline allow on the line above silences it.
    let allowed = src(
        "crates/core/src/x.rs",
        "jact-core",
        "//! d\n// jact-analyze: allow(JA07)\nuse std::sync::Mutex;\n",
    );
    assert!(passes::ja07_concurrency(&allowed).is_empty());

    // Test regions are exempt.
    let test_only = src(
        "crates/core/src/x.rs",
        "jact-core",
        "//! d\n#[cfg(test)]\nmod tests {\n    fn t() {\n        let _ = std::sync::Mutex::new(0u8);\n    }\n}\n",
    );
    assert!(passes::ja07_concurrency(&test_only).is_empty());
}

// ---------------------------------------------------------------- JA09

fn ast(file: &SourceFile) -> jact_analyze::FileAst {
    jact_analyze::parser::parse(file)
}

#[test]
fn ja09_fires_on_runtime_narrowing_cast_in_checked_crate() {
    let f = src(
        "crates/codec/src/x.rs",
        "jact-codec",
        "//! d\npub fn f(x: i32) -> i8 {\n    x as i8\n}\n",
    );
    let diags = passes::ja09_checked_casts(&f, &ast(&f));
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].code, Code::Ja09);
    assert_eq!(diags[0].path, "crates/codec/src/x.rs");
    assert_eq!(diags[0].line, 3, "span must point at the cast line");
    assert!(diags[0].message.contains("as i8"));
    assert!(diags[0].message.contains("`f`"), "message names the fn");
}

#[test]
fn ja09_quiet_on_fixed_literal_constant_test_allow_and_exempt() {
    // Fixed: narrowing goes through the checked helper.
    let fixed = src(
        "crates/codec/src/x.rs",
        "jact-codec",
        "//! d\npub fn f(x: i32) -> i8 {\n    crate::cast::sat_i8(x)\n}\n",
    );
    assert!(passes::ja09_checked_casts(&fixed, &ast(&fixed)).is_empty());

    // Literals and capitalized constant paths are visibly in range.
    let literal = src(
        "crates/codec/src/x.rs",
        "jact-codec",
        "//! d\npub fn f() -> u8 {\n    let a = 7 as u8;\n    let b = i8::MAX as u8;\n    a + b\n}\n",
    );
    assert!(passes::ja09_checked_casts(&literal, &ast(&literal)).is_empty());

    // Widening casts are not narrowing.
    let widening = src(
        "crates/codec/src/x.rs",
        "jact-codec",
        "//! d\npub fn f(x: i8) -> i32 {\n    x as i32\n}\n",
    );
    assert!(passes::ja09_checked_casts(&widening, &ast(&widening)).is_empty());

    // Test regions and inline allows are exempt.
    let test_only = src(
        "crates/codec/src/x.rs",
        "jact-codec",
        "//! d\n#[cfg(test)]\nmod tests {\n    fn t(x: i32) -> i8 {\n        x as i8\n    }\n}\n",
    );
    assert!(passes::ja09_checked_casts(&test_only, &ast(&test_only)).is_empty());
    let allowed = src(
        "crates/dnn/src/x.rs",
        "jact-codec",
        "//! d\npub fn f(x: i32) -> i8 {\n    // jact-analyze: allow(JA09)\n    x as i8\n}\n",
    );
    assert!(passes::ja09_checked_casts(&allowed, &ast(&allowed)).is_empty());

    // The helper module itself and non-checked crates are structural
    // exemptions.
    let helper = src(
        "crates/codec/src/cast.rs",
        "jact-codec",
        "//! d\npub fn sat_i8(v: i32) -> i8 {\n    v.clamp(-128, 127) as i8\n}\n",
    );
    assert!(passes::ja09_checked_casts(&helper, &ast(&helper)).is_empty());
    let other = src(
        "crates/dnn/src/x.rs",
        "jact-dnn",
        "//! d\npub fn f(x: i32) -> i8 {\n    x as i8\n}\n",
    );
    assert!(passes::ja09_checked_casts(&other, &ast(&other)).is_empty());
}

// ---------------------------------------------------------------- JA10

fn graph_diags(files: &[SourceFile]) -> Vec<jact_analyze::Diagnostic> {
    let asts: Vec<jact_analyze::FileAst> = files.iter().map(jact_analyze::parser::parse).collect();
    let graph = jact_analyze::CallGraph::build(files, &asts);
    passes::ja10_panic_reachability(&graph)
}

#[test]
fn ja10_fires_on_transitive_panic_with_call_chain() {
    let f = src(
        "crates/codec/src/x.rs",
        "jact-codec",
        "//! d\npub fn entry(v: Option<u8>) -> u8 {\n    helper(v)\n}\nfn helper(v: Option<u8>) -> u8 {\n    v.unwrap()\n}\n",
    );
    let diags = graph_diags(std::slice::from_ref(&f));
    assert_eq!(diags.len(), 1, "only the pub root is reported: {diags:?}");
    assert_eq!(diags[0].code, Code::Ja10);
    assert_eq!(diags[0].path, "crates/codec/src/x.rs");
    assert_eq!(diags[0].line, 2, "span must point at the pub fn");
    assert!(diags[0].message.contains("unwrap"));
    assert!(
        diags[0].message.contains("entry -> helper"),
        "diagnostic names the call chain: {}",
        diags[0].message
    );
}

#[test]
fn ja10_counts_wire_surface_indexing_as_a_source() {
    for path in ["crates/codec/src/wire.rs", "crates/codec/src/seal.rs"] {
        let f = src(
            path,
            "jact-codec",
            "//! d\npub fn peek(buf: &[u8], i: usize) -> u8 {\n    buf[i]\n}\n",
        );
        let diags = graph_diags(std::slice::from_ref(&f));
        assert_eq!(diags.len(), 1, "{path}");
        assert!(diags[0].message.contains("slice indexing"));
    }

    // The same body outside the wire surface is accepted (JA10 only
    // counts explicit panic forms there).
    let elsewhere = src(
        "crates/codec/src/dct.rs",
        "jact-codec",
        "//! d\npub fn peek(buf: &[u8], i: usize) -> u8 {\n    buf[i]\n}\n",
    );
    assert!(graph_diags(std::slice::from_ref(&elsewhere)).is_empty());
}

#[test]
fn ja10_treats_the_serve_frame_module_as_wire_surface() {
    // crates/serve/src/frame.rs decodes hostile envelope bytes and
    // journal.rs a file from outside the program, so runtime indexing
    // there is a panic source exactly as in codec::wire.
    for path in ["crates/serve/src/frame.rs", "crates/serve/src/journal.rs"] {
        let f = src(
            path,
            "jact-serve",
            "//! d\npub fn peek(buf: &[u8], i: usize) -> u8 {\n    buf[i]\n}\n",
        );
        let diags = graph_diags(std::slice::from_ref(&f));
        assert_eq!(diags.len(), 1, "{path}");
        assert!(diags[0].message.contains("slice indexing"));
    }

    // Other serve modules hold only to the explicit-panic-form bar.
    let elsewhere = src(
        "crates/serve/src/cache.rs",
        "jact-serve",
        "//! d\npub fn peek(buf: &[u8], i: usize) -> u8 {\n    buf[i]\n}\n",
    );
    assert!(graph_diags(std::slice::from_ref(&elsewhere)).is_empty());
}

#[test]
fn ja10_quiet_on_fixed_non_hot_and_test_code() {
    // Fixed: the helper propagates instead of panicking.
    let fixed = src(
        "crates/codec/src/x.rs",
        "jact-codec",
        "//! d\npub fn entry(v: Option<u8>) -> Option<u8> {\n    helper(v)\n}\nfn helper(v: Option<u8>) -> Option<u8> {\n    v\n}\n",
    );
    assert!(graph_diags(std::slice::from_ref(&fixed)).is_empty());

    // Non-hot crates are not roots.
    let high = src(
        "crates/bench/src/x.rs",
        "jact-bench",
        "//! d\npub fn f(v: Option<u8>) -> u8 {\n    v.unwrap()\n}\n",
    );
    assert!(graph_diags(std::slice::from_ref(&high)).is_empty());

    // An allow at the panic source silences every chain through it.
    let allowed = src(
        "crates/codec/src/x.rs",
        "jact-codec",
        "//! d\npub fn entry() {\n    helper()\n}\nfn helper() {\n    // jact-analyze: allow(JA10)\n    panic!(\"builder misuse\")\n}\n",
    );
    assert!(graph_diags(std::slice::from_ref(&allowed)).is_empty());
}

#[test]
fn ja03_catches_trait_impl_methods_that_ja10_does_not_root() {
    // Trait-impl methods carry no `pub`, so JA10 never roots at them and
    // nothing in this file calls `is_lossless`; only the token-level
    // JA03 sees the panic form.  This is why both lints stay.
    let f = src(
        "crates/codec/src/x.rs",
        "jact-codec",
        "//! d\nstruct RawCodec;\nimpl Codec for RawCodec {\n    fn is_lossless(&self) -> bool {\n        None::<bool>.unwrap()\n    }\n}\n",
    );
    let diags = passes::ja03_no_panics(&f);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!((diags[0].code, diags[0].line), (Code::Ja03, 5));
    assert!(graph_diags(std::slice::from_ref(&f)).is_empty());
}

// ---------------------------------------------------------------- JA11

fn ja11_diags(files: &[SourceFile]) -> Vec<jact_analyze::Diagnostic> {
    let asts: Vec<jact_analyze::FileAst> = files.iter().map(jact_analyze::parser::parse).collect();
    let graph = jact_analyze::CallGraph::build(files, &asts);
    files
        .iter()
        .flat_map(|f| passes::ja11_error_discard(f, &graph))
        .collect()
}

#[test]
fn ja11_fires_on_let_underscore_discard_and_dangling_ok() {
    let discard = src(
        "crates/core/src/x.rs",
        "jact-core",
        "//! d\npub fn f() {\n    let _ = std::fs::create_dir_all(\"x\");\n}\n",
    );
    let diags = ja11_diags(std::slice::from_ref(&discard));
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].code, Code::Ja11);
    assert_eq!(diags[0].line, 3, "span must point at the `let _ =` line");

    // A workspace fn returning Result is resolved through the symbol
    // table the same way.
    let workspace = src(
        "crates/core/src/x.rs",
        "jact-core",
        "//! d\npub fn fallible() -> Result<(), u8> {\n    Ok(())\n}\npub fn f() {\n    let _ = fallible();\n}\n",
    );
    let diags = ja11_diags(std::slice::from_ref(&workspace));
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].line, 6);

    let dangling = src(
        "crates/core/src/x.rs",
        "jact-core",
        "//! d\npub fn fallible() -> Result<(), u8> {\n    Ok(())\n}\npub fn f() {\n    fallible().ok();\n}\n",
    );
    let diags = ja11_diags(std::slice::from_ref(&dangling));
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].line, 6, "span must point at the .ok() line");
}

#[test]
fn ja11_quiet_on_propagation_binding_tests_and_exempt_crate() {
    // `let _ = f()?;` propagates before discarding the Ok value.
    let propagated = src(
        "crates/core/src/x.rs",
        "jact-core",
        "//! d\npub fn f() -> Result<(), std::io::Error> {\n    let _ = std::fs::create_dir_all(\"x\")?;\n    Ok(())\n}\n",
    );
    assert!(ja11_diags(std::slice::from_ref(&propagated)).is_empty());

    // A bound `.ok()` is a used value, not a discard.
    let bound = src(
        "crates/core/src/x.rs",
        "jact-core",
        "//! d\npub fn fallible() -> Result<u8, u8> {\n    Ok(1)\n}\npub fn f() -> Option<u8> {\n    let v = fallible().ok();\n    v\n}\n",
    );
    assert!(ja11_diags(std::slice::from_ref(&bound)).is_empty());

    // Discarding something that is not a Result is fine.
    let not_result = src(
        "crates/core/src/x.rs",
        "jact-core",
        "//! d\npub fn cheap() -> u8 {\n    1\n}\npub fn f() {\n    let _ = cheap();\n}\n",
    );
    assert!(ja11_diags(std::slice::from_ref(&not_result)).is_empty());

    // Test regions and the bench crate are exempt.
    let test_only = src(
        "crates/core/src/x.rs",
        "jact-core",
        "//! d\n#[cfg(test)]\nmod tests {\n    fn t() {\n        let _ = std::fs::create_dir_all(\"x\");\n    }\n}\n",
    );
    assert!(ja11_diags(std::slice::from_ref(&test_only)).is_empty());
    let bench = src(
        "crates/bench/src/x.rs",
        "jact-bench",
        "//! d\npub fn f() {\n    let _ = std::fs::create_dir_all(\"x\");\n}\n",
    );
    assert!(ja11_diags(std::slice::from_ref(&bench)).is_empty());
}

// ---------------------------------------------------------------- JA12

#[test]
fn ja12_fires_on_atomics_and_cells_in_par_closures() {
    let atomic = src(
        "crates/core/src/x.rs",
        "jact-core",
        "//! d\nuse std::sync::atomic::AtomicU64;\npub static N: AtomicU64 = AtomicU64::new(0);\n",
    );
    let diags = passes::ja12_parallel_determinism(&atomic, &ast(&atomic));
    assert_eq!(diags.len(), 3, "every Atomic* mention is flagged");
    assert_eq!(diags[0].code, Code::Ja12);
    assert_eq!(diags[0].line, 2);

    let cell = src(
        "crates/codec/src/x.rs",
        "jact-codec",
        "//! d\npub fn f(pool: &Pool, data: &mut [u8], total: &std::cell::RefCell<u32>) {\n    pool.par_chunks_mut(data, 8, |_, _, chunk| {\n        *total.borrow_mut() += chunk.len() as u32;\n    });\n}\n",
    );
    let diags = passes::ja12_parallel_determinism(&cell, &ast(&cell));
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].line, 4, "span points at the captured borrow_mut");
    assert!(diags[0].message.contains("par_chunks_mut"));
}

#[test]
fn ja12_quiet_on_ordered_aggregation_par_crate_and_tests() {
    // The sanctioned shape: per-chunk results return through the
    // chunk-index-ordered API.
    let ordered = src(
        "crates/codec/src/x.rs",
        "jact-codec",
        "//! d\npub fn f(pool: &Pool, data: &mut [u8]) -> u32 {\n    let sums = pool.par_map_collect(data, 8, |_, _, chunk| chunk.len() as u32);\n    sums.iter().sum()\n}\n",
    );
    assert!(passes::ja12_parallel_determinism(&ordered, &ast(&ordered)).is_empty());

    // A RefCell outside any par call argument is not this lint's
    // business.
    let local = src(
        "crates/codec/src/x.rs",
        "jact-codec",
        "//! d\npub fn f() -> u32 {\n    let c = std::cell::RefCell::new(7u32);\n    let v = *c.borrow_mut();\n    v\n}\n",
    );
    assert!(passes::ja12_parallel_determinism(&local, &ast(&local)).is_empty());

    // The runtime itself and test regions are exempt.
    let par = src(
        "crates/par/src/pool.rs",
        "jact-par",
        "//! d\nuse std::sync::atomic::AtomicUsize;\n",
    );
    assert!(passes::ja12_parallel_determinism(&par, &ast(&par)).is_empty());
    let test_only = src(
        "crates/core/src/x.rs",
        "jact-core",
        "//! d\n#[cfg(test)]\nmod tests {\n    use std::sync::atomic::AtomicU64;\n    fn t() -> AtomicU64 {\n        AtomicU64::new(0)\n    }\n}\n",
    );
    assert!(passes::ja12_parallel_determinism(&test_only, &ast(&test_only)).is_empty());
}

// ---------------------------------------------------------------- JA13

fn schema() -> jact_obs::ObsSchema {
    jact_obs::ObsSchema::parse("codec.bytes_in\nstage.{stage}.bytes_in\ntrain.loss\n")
}

#[test]
fn ja13_fires_on_unregistered_and_non_literal_names() {
    let unregistered = src(
        "crates/core/src/x.rs",
        "jact-core",
        "//! d\nuse jact_obs as obs;\npub fn f() {\n    obs::count(\"codec.surprise\", 1);\n}\n",
    );
    let diags = passes::ja13_obs_schema(&unregistered, &ast(&unregistered), &schema());
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].code, Code::Ja13);
    assert_eq!(diags[0].line, 4, "span must point at the emit call");
    assert!(diags[0].message.contains("codec.surprise"));

    let dynamic = src(
        "crates/core/src/x.rs",
        "jact-core",
        "//! d\nuse jact_obs as obs;\npub fn f(name: &str) {\n    obs::count(name, 1);\n}\n",
    );
    let diags = passes::ja13_obs_schema(&dynamic, &ast(&dynamic), &schema());
    assert_eq!(diags.len(), 1);
    assert!(diags[0].message.contains("non-literal"));
}

#[test]
fn ja13_quiet_on_registered_names_templates_and_obs_itself() {
    let ok = src(
        "crates/core/src/x.rs",
        "jact-core",
        "//! d\nuse jact_obs as obs;\npub fn f(n: u64) {\n    obs::count(\"codec.bytes_in\", n);\n    obs::gauge(\"train.loss\", 0.5);\n}\n",
    );
    assert!(passes::ja13_obs_schema(&ok, &ast(&ok), &schema()).is_empty());

    // A format! template literal matches its registry template
    // structurally.
    let templated = src(
        "crates/core/src/x.rs",
        "jact-core",
        "//! d\nuse jact_obs as obs;\npub fn f(stage: &str, n: u64) {\n    obs::count(&format!(\"stage.{stage}.bytes_in\"), n);\n}\n",
    );
    assert!(passes::ja13_obs_schema(&templated, &ast(&templated), &schema()).is_empty());

    // `.count()` on an iterator is not an obs emit; neither is an
    // unrelated bare `count` that was not imported from jact_obs.
    let iterator = src(
        "crates/core/src/x.rs",
        "jact-core",
        "//! d\npub fn f(v: &[u8]) -> usize {\n    v.iter().count()\n}\n",
    );
    assert!(passes::ja13_obs_schema(&iterator, &ast(&iterator), &schema()).is_empty());

    // The obs crate itself (tests, corpus builders) is exempt.
    let obs_self = src(
        "crates/obs/src/x.rs",
        "jact-obs",
        "//! d\npub fn f() {\n    crate::count(\"anything.goes\", 1);\n}\n",
    );
    assert!(passes::ja13_obs_schema(&obs_self, &ast(&obs_self), &schema()).is_empty());

    // Inline allow works for intentional one-offs.
    let allowed = src(
        "crates/core/src/x.rs",
        "jact-core",
        "//! d\nuse jact_obs as obs;\npub fn f() {\n    // jact-analyze: allow(JA13)\n    obs::count(\"codec.surprise\", 1);\n}\n",
    );
    assert!(passes::ja13_obs_schema(&allowed, &ast(&allowed), &schema()).is_empty());
}
