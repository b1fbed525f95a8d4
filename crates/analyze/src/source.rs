//! A lexed source file plus the derived facts lint passes share:
//! `#[cfg(test)]`/`#[test]`/`mod tests` regions and inline suppressions.

use crate::diag::{parse_suppression, suppressed, Code, Diagnostic, Suppression};
use crate::lexer::{lex, Token, TokenKind};

/// One Rust source file, lexed and annotated.
pub struct SourceFile {
    /// Workspace-relative path (used in diagnostics).
    pub rel_path: String,
    /// Name of the crate the file belongs to (e.g. `jact-codec`).
    pub crate_name: String,
    /// Full text.
    pub text: String,
    /// Complete token stream.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of non-whitespace, non-comment tokens.
    pub meaningful: Vec<usize>,
    /// Byte ranges covered by test-only code.
    pub test_regions: Vec<(usize, usize)>,
    /// Inline `// jact-analyze: allow(...)` suppressions.
    pub suppressions: Vec<Suppression>,
}

impl SourceFile {
    /// Lexes and annotates `text`.
    pub fn new(rel_path: impl Into<String>, crate_name: impl Into<String>, text: String) -> Self {
        let tokens = lex(&text);
        let meaningful = crate::lexer::meaningful_indices(&tokens);
        let test_regions = find_test_regions(&text, &tokens, &meaningful);
        let suppressions = tokens
            .iter()
            .filter(|t| matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
            .filter_map(|t| parse_suppression(t.text(&text), t.line))
            .collect();
        SourceFile {
            rel_path: rel_path.into(),
            crate_name: crate_name.into(),
            text,
            tokens,
            meaningful,
            test_regions,
            suppressions,
        }
    }

    /// `true` if byte offset `pos` lies inside test-only code.
    pub fn in_test_region(&self, pos: usize) -> bool {
        self.test_regions.iter().any(|&(s, e)| pos >= s && pos < e)
    }

    /// Text of the `mi`-th meaningful token, `""` past either end.
    pub fn word(&self, mi: usize) -> &str {
        self.meaningful
            .get(mi)
            .map_or("", |&ti| self.tokens[ti].text(&self.text))
    }

    /// `true` when an `allow(<code>)` comment on `line` or the line
    /// above silences `code` there.
    pub fn is_suppressed(&self, code: Code, line: u32) -> bool {
        suppressed(&self.suppressions, code, line)
    }

    /// The one emit point for source-level lints: pushes the finding at
    /// `line:col` of this file unless it [`is_suppressed`](Self::is_suppressed).
    pub fn report(
        &self,
        out: &mut Vec<Diagnostic>,
        code: Code,
        line: u32,
        col: u32,
        message: impl Into<String>,
    ) {
        if !self.is_suppressed(code, line) {
            out.push(Diagnostic::new(code, &self.rel_path, line, col, message));
        }
    }

    /// Classifies every line as test (inside a test region, whatever it
    /// holds), code (any other line with a meaningful token on it) or
    /// comment/blank; the three counts sum to the file's line count.
    pub fn loc(&self) -> Loc {
        let mut has_code = vec![false; self.text.lines().count() + 2];
        for &ti in &self.meaningful {
            let t = &self.tokens[ti];
            let first = t.line as usize;
            let last = first + t.text(&self.text).matches('\n').count();
            has_code[first..=last].fill(true);
        }
        let mut loc = Loc { files: 1, ..Loc::default() };
        let mut start = 0usize;
        for (i, line) in self.text.lines().enumerate() {
            let indent = line.len() - line.trim_start().len();
            if self.in_test_region(start + indent) {
                loc.test += 1;
            } else if has_code[i + 1] {
                loc.code += 1;
            } else {
                loc.other += 1;
            }
            start += line.len() + 1;
        }
        loc
    }
}

/// Line counts of a file, a crate or the workspace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Loc {
    /// Source files counted.
    pub files: usize,
    /// Non-test lines holding code.
    pub code: usize,
    /// Lines inside `#[cfg(test)]`/`#[test]`/`mod tests` regions.
    pub test: usize,
    /// Comment-only and blank lines outside test regions.
    pub other: usize,
}

impl std::ops::AddAssign for Loc {
    fn add_assign(&mut self, o: Loc) {
        self.files += o.files;
        self.code += o.code;
        self.test += o.test;
        self.other += o.other;
    }
}

/// Finds byte ranges of test-only code: any item annotated `#[cfg(test)]`
/// or `#[test]`, and any `mod` whose name starts with `test`.  A region
/// runs from the start of the marker to the matching close brace of the
/// item's body (or the terminating semicolon for brace-less items).
fn find_test_regions(text: &str, tokens: &[Token], meaningful: &[usize]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < meaningful.len() {
        let ti = meaningful[i];
        let t = &tokens[ti];
        let txt = t.text(text);
        let mut region_start = None;

        // `#[...]` attribute containing the ident `test`.
        if t.kind == TokenKind::Punct && txt == "#" {
            if let Some((attr_end, has_test)) = scan_attribute(text, tokens, meaningful, i) {
                if has_test {
                    region_start = Some(t.start);
                }
                if region_start.is_none() {
                    i = attr_end;
                    continue;
                }
                i = attr_end;
            } else {
                i += 1;
                continue;
            }
        }
        // `mod tests {` (or any mod whose name starts with "test").
        else if t.kind == TokenKind::Ident && txt == "mod" {
            if let Some(&ni) = meaningful.get(i + 1) {
                let name = tokens[ni].text(text);
                if tokens[ni].kind == TokenKind::Ident && name.starts_with("test") {
                    region_start = Some(t.start);
                    i += 1;
                }
            }
        }

        let Some(start) = region_start else {
            i += 1;
            continue;
        };

        // Extend over the annotated item: skip further attributes, then
        // find the item body's braces (or a `;` before any brace).
        let mut j = i;
        let mut depth = 0usize;
        let mut end = None;
        while let Some(&tj) = meaningful.get(j) {
            let tok = &tokens[tj];
            let s = tok.text(text);
            if tok.kind == TokenKind::Punct {
                match s {
                    "{" => depth += 1,
                    "}" => {
                        depth = depth.saturating_sub(1);
                        if depth == 0 {
                            end = Some(tok.end());
                            break;
                        }
                    }
                    ";" if depth == 0 => {
                        end = Some(tok.end());
                        break;
                    }
                    _ => {}
                }
            }
            j += 1;
        }
        let end = end.unwrap_or(text.len());
        regions.push((start, end));
        // Resume scanning after the region to avoid nested re-detection.
        while i < meaningful.len() && tokens[meaningful[i]].start < end {
            i += 1;
        }
    }
    regions
}

/// Starting at meaningful index `i` (which must be `#`), scans one
/// attribute.  Returns `(index past the closing bracket, contains the
/// ident "test")`, or `None` if this is not an attribute.
fn scan_attribute(
    text: &str,
    tokens: &[Token],
    meaningful: &[usize],
    i: usize,
) -> Option<(usize, bool)> {
    let mut j = i + 1;
    // Optional `!` for inner attributes.
    if let Some(&tj) = meaningful.get(j) {
        if tokens[tj].text(text) == "!" {
            j += 1;
        }
    }
    let &open = meaningful.get(j)?;
    if tokens[open].text(text) != "[" {
        return None;
    }
    let mut depth = 0usize;
    let mut has_test = false;
    while let Some(&tj) = meaningful.get(j) {
        let tok = &tokens[tj];
        let s = tok.text(text);
        match (tok.kind, s) {
            (TokenKind::Punct, "[") => depth += 1,
            (TokenKind::Punct, "]") => {
                depth -= 1;
                if depth == 0 {
                    return Some((j + 1, has_test));
                }
            }
            (TokenKind::Ident, "test") => has_test = true,
            _ => {}
        }
        j += 1;
    }
    Some((j, has_test))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sf(src: &str) -> SourceFile {
        SourceFile::new("x.rs", "jact-test", src.to_string())
    }

    #[test]
    fn cfg_test_mod_is_a_region() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn helper() { x.unwrap(); }\n}\nfn after() {}\n";
        let f = sf(src);
        let unwrap_pos = src.find("unwrap").expect("unwrap in src");
        let live_pos = src.find("live").expect("live in src");
        let after_pos = src.find("after").expect("after in src");
        assert!(f.in_test_region(unwrap_pos));
        assert!(!f.in_test_region(live_pos));
        assert!(!f.in_test_region(after_pos));
    }

    #[test]
    fn test_fn_attribute_is_a_region() {
        let src = "#[test]\nfn t() { panic!(\"x\") }\nfn live() {}\n";
        let f = sf(src);
        assert!(f.in_test_region(src.find("panic").expect("panic")));
        assert!(!f.in_test_region(src.find("live").expect("live")));
    }

    #[test]
    fn cfg_test_use_statement_ends_at_semicolon() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn live() {}\n";
        let f = sf(src);
        assert!(f.in_test_region(src.find("bar").expect("bar")));
        assert!(!f.in_test_region(src.find("live").expect("live")));
    }

    #[test]
    fn non_test_attributes_do_not_open_regions() {
        let src = "#[derive(Debug)]\nstruct S;\nfn live() {}\n";
        let f = sf(src);
        assert!(f.test_regions.is_empty());
    }

    #[test]
    fn loc_splits_code_test_and_comment_lines() {
        let src = "//! doc\n\nfn live() {\n    let s = \"a\nb\";\n}\n// note\n#[cfg(test)]\nmod tests {\n    // c\n\n    fn t() {}\n}\n";
        let loc = sf(src).loc();
        // The multi-line string keeps both of its lines as code.
        assert_eq!((loc.files, loc.code, loc.test, loc.other), (1, 4, 6, 3));
        assert_eq!(loc.code + loc.test + loc.other, src.lines().count());
    }

    #[test]
    fn suppressions_collected() {
        let src = "// jact-analyze: allow(JA04)\nuse std::collections::HashMap;\n";
        let f = sf(src);
        assert_eq!(f.suppressions.len(), 1);
        assert_eq!(f.suppressions[0].line, 1);
    }
}
