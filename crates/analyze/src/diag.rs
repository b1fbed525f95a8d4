//! Diagnostics: stable codes, file:line spans, and inline suppressions.

use std::fmt;

/// Stable diagnostic codes, one per lint pass; [`Code::title`] says what
/// each enforces.  `JA06` (doc coverage) is retired, not reused: rustc's
/// `missing_docs` holds that gate now.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    Ja01,
    Ja02,
    Ja03,
    Ja04,
    Ja05,
    Ja07,
    Ja08,
    Ja09,
    Ja10,
    Ja11,
    Ja12,
    Ja13,
    Ja14,
}

/// The one lint table, in declaration order: code, its stable textual
/// form, and what it enforces.  Scopes are named by their constant in
/// [`crate::passes`] so a title cannot drift from the list it describes.
const TABLE: [(Code, &str, &str); 13] = [
    (Code::Ja01, "JA01", "crate layering: no LOW_LAYER crate depends on a HIGH_LAYER crate"),
    (Code::Ja02, "JA02", "hermeticity: path-only dependencies, no registry or git source in any manifest or the lockfile"),
    (Code::Ja03, "JA03", "panic-freedom: no unwrap/expect/panic!-family form in non-test code of HOT_PATH_CRATES and HOT_PATH_MODULES"),
    (Code::Ja04, "JA04", "determinism: no wall clock, hash container or ambient RNG outside TIMING_EXEMPT_CRATES"),
    (Code::Ja05, "JA05", "#![forbid(unsafe_code)] in every lib crate root"),
    (Code::Ja07, "JA07", "concurrency hygiene: thread::spawn, locks and static mut only under CONCURRENCY_EXEMPT_PREFIX"),
    (Code::Ja08, "JA08", "print funnel: println!/eprintln!/dbg! only in PRINT_EXEMPT_CRATES and binary entry points"),
    (Code::Ja09, "JA09", "checked casts: narrowing `as` on runtime values in CAST_CHECKED_CRATES only inside CAST_HELPER_MODULES"),
    (Code::Ja10, "JA10", "panic reachability: no hot-path pub fn reaches a panic source through workspace calls (indexing and division count in WIRE_SURFACE_MODULES)"),
    (Code::Ja11, "JA11", "silent error discard: no `let _ =` on a Result or dangling `.ok()` outside ERROR_DISCARD_EXEMPT_CRATES"),
    (Code::Ja12, "JA12", "parallel determinism: no Atomic*, and no shared-mutable cell inside a PAR_ORDERED_APIS closure, outside CONCURRENCY_EXEMPT_PREFIX"),
    (Code::Ja13, "JA13", "obs-schema registry: every OBS_EMIT_FNS name is a literal registered in crates/obs/obs_schema.txt"),
    (Code::Ja14, "JA14", "hot-path allocation: no fresh buffer reachable from STEADY_STATE_ROOTS in ALLOC_COVERED_CRATES"),
];

impl Code {
    /// All codes, in order.
    pub const ALL: [Code; TABLE.len()] = {
        let mut all = [Code::Ja01; TABLE.len()];
        let mut i = 0;
        while i < all.len() {
            // `as_str` and `title` index the table by discriminant.
            assert!(TABLE[i].0 as usize == i);
            all[i] = TABLE[i].0;
            i += 1;
        }
        all
    };

    /// The stable textual form (`JA01` ... `JA14`) used in reports and
    /// `// jact-analyze: allow(...)` comments.
    pub fn as_str(self) -> &'static str {
        TABLE[self as usize].1
    }

    /// Parses the textual form, case-insensitively.
    pub fn parse(s: &str) -> Option<Code> {
        Code::ALL
            .iter()
            .copied()
            .find(|c| c.as_str().eq_ignore_ascii_case(s.trim()))
    }

    /// One-line description of what the lint enforces.
    pub fn title(self) -> &'static str {
        TABLE[self as usize].2
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which lint fired.
    pub code: Code,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Creates a diagnostic.
    pub fn new(code: Code, path: impl Into<String>, line: u32, col: u32, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            path: path.into(),
            line,
            col,
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: {} {}",
            self.path, self.line, self.col, self.code, self.message
        )
    }
}

/// An inline suppression parsed from a `// jact-analyze: allow(JA03)`
/// comment.  It silences the listed codes on its own line and the line
/// directly below (so it can sit above the offending statement).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// Codes the comment allows.
    pub codes: Vec<Code>,
    /// 1-based line the comment sits on.
    pub line: u32,
}

/// Parses suppressions out of a comment's text.
pub fn parse_suppression(comment: &str, line: u32) -> Option<Suppression> {
    let marker = "jact-analyze:";
    let rest = comment[comment.find(marker)? + marker.len()..].trim_start();
    let rest = rest.strip_prefix("allow")?.trim_start();
    let inner = rest.strip_prefix('(')?;
    let inner = &inner[..inner.find(')')?];
    let codes: Vec<Code> = inner.split(',').filter_map(Code::parse).collect();
    if codes.is_empty() {
        None
    } else {
        Some(Suppression { codes, line })
    }
}

/// `true` if a violation of `code` at `line` is silenced by any of the
/// given suppressions.
pub fn suppressed(sups: &[Suppression], code: Code, line: u32) -> bool {
    sups.iter()
        .any(|s| s.codes.contains(&code) && (s.line == line || s.line + 1 == line))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_roundtrip() {
        for c in Code::ALL {
            assert_eq!(Code::parse(c.as_str()), Some(c));
        }
        assert_eq!(Code::parse("ja03"), Some(Code::Ja03));
        assert_eq!(Code::parse("JA99"), None);
    }

    #[test]
    fn suppression_parsing() {
        let s = parse_suppression("// jact-analyze: allow(JA03, JA04)", 7).expect("parses");
        assert_eq!(s.codes, vec![Code::Ja03, Code::Ja04]);
        assert!(suppressed(&[s.clone()], Code::Ja03, 7));
        assert!(suppressed(&[s.clone()], Code::Ja04, 8));
        assert!(!suppressed(&[s], Code::Ja03, 9));
        assert!(parse_suppression("// ordinary comment", 1).is_none());
        assert!(parse_suppression("// jact-analyze: allow()", 1).is_none());
    }
}
