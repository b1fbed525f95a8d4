//! The checked-in name registry for every span/counter/gauge the
//! workspace may emit.
//!
//! The registry lives in `crates/obs/obs_schema.txt` (compiled in via
//! `include_str!`) and is enforced from two directions: the
//! `jact-analyze` JA13 lint checks every literal name at an obs call
//! site against it, and the golden-trace tests check every event name in
//! recorded traces against it.  A name used in code but missing here is
//! a lint failure before it is ever a golden-file diff.
//!
//! Entries are exact names (`codec.bytes_in`) or templates with
//! `{placeholder}` segments (`stage.{stage}.bytes_in`); a placeholder
//! matches exactly one non-empty, dot-free run of characters, mirroring
//! how the workspace builds dynamic names with `format!` over one
//! segment.

/// The raw registry text, as committed.
pub const REGISTRY_TEXT: &str = include_str!("../obs_schema.txt");

/// One parsed registry entry: literal runs split by placeholders.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// The entry as written (e.g. `stage.{stage}.bytes_in`).
    pub raw: String,
    /// Literal fragments around placeholders; a template with N
    /// placeholders has N+1 fragments (possibly empty at the ends).
    lits: Vec<String>,
}

impl Entry {
    /// Parses one registry line into literal fragments.
    fn parse(raw: &str) -> Entry {
        let mut lits = Vec::new();
        let mut rest = raw;
        loop {
            match rest.find('{') {
                Some(open) => {
                    lits.push(rest[..open].to_string());
                    match rest[open..].find('}') {
                        Some(close) => rest = &rest[open + close + 1..],
                        None => {
                            // Unterminated brace: treat the tail literally.
                            lits.push(rest[open..].to_string());
                            rest = "";
                        }
                    }
                }
                None => {
                    lits.push(rest.to_string());
                    break;
                }
            }
        }
        Entry {
            raw: raw.to_string(),
            lits,
        }
    }

    /// `true` when a concrete runtime `name` matches this entry: exact
    /// equality for plain entries; for templates, each placeholder must
    /// consume one non-empty, dot-free run between the literal parts.
    pub fn matches(&self, name: &str) -> bool {
        let mut rest = name;
        for (i, lit) in self.lits.iter().enumerate() {
            if i == 0 {
                match rest.strip_prefix(lit.as_str()) {
                    Some(r) => rest = r,
                    None => return false,
                }
                continue;
            }
            // A placeholder precedes this literal: consume >= 1 dot-free
            // chars up to the literal's next occurrence.
            let is_last = i == self.lits.len() - 1;
            if lit.is_empty() {
                // Trailing placeholder: the remainder is the segment.
                return is_last && !rest.is_empty() && !rest.contains('.');
            }
            match rest.find(lit.as_str()) {
                Some(pos) if pos > 0 && !rest[..pos].contains('.') => {
                    rest = &rest[pos + lit.len()..];
                }
                _ => return false,
            }
        }
        rest.is_empty()
    }

    /// The entry with every placeholder normalized to `{}`, for
    /// comparing against `format!` templates found in source code.
    pub fn normalized(&self) -> String {
        self.lits.join("\u{1}")
    }
}

/// The parsed registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsSchema {
    entries: Vec<Entry>,
}

impl ObsSchema {
    /// Parses registry text: one entry per non-empty, non-`#` line.
    pub fn parse(text: &str) -> ObsSchema {
        let entries = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(Entry::parse)
            .collect();
        ObsSchema { entries }
    }

    /// The committed workspace registry.
    pub fn workspace() -> ObsSchema {
        ObsSchema::parse(REGISTRY_TEXT)
    }

    /// The parsed entries.
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// `true` when a concrete runtime name matches some entry.
    pub fn matches(&self, name: &str) -> bool {
        self.entries.iter().any(|e| e.matches(name))
    }

    /// `true` when a source-code name literal matches some entry.  A
    /// literal containing `{...}` interpolations (a `format!` template)
    /// must structurally equal a template entry — same literal parts,
    /// placeholders in the same positions; a plain literal matches like
    /// a runtime name.
    pub fn matches_literal(&self, lit: &str) -> bool {
        if lit.contains('{') {
            let norm = Entry::parse(lit).normalized();
            self.entries.iter().any(|e| e.normalized() == norm)
        } else {
            self.matches(lit)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_names_match_exactly() {
        let s = ObsSchema::parse("codec.bytes_in\npar.chunks\n# comment\n\n");
        assert_eq!(s.entries().len(), 2);
        assert!(s.matches("codec.bytes_in"));
        assert!(!s.matches("codec.bytes_out"));
        assert!(!s.matches("codec.bytes_in2"));
    }

    #[test]
    fn templates_match_one_dot_free_segment() {
        let s = ObsSchema::parse("stage.{stage}.bytes_in\noffload.{kind}.bytes_out\n");
        assert!(s.matches("stage.sfpr.bytes_in"));
        assert!(s.matches("stage.transform.bytes_in"));
        assert!(!s.matches("stage..bytes_in"), "empty segment");
        assert!(!s.matches("stage.a.b.bytes_in"), "two segments");
        assert!(!s.matches("stage.sfpr.bytes_out"), "wrong suffix");
        assert!(s.matches("offload.jpeg-act.bytes_out"));
    }

    #[test]
    fn source_literals_match_structurally() {
        let s = ObsSchema::parse("stage.{stage}.bytes_in\ncodec.bytes_in\n");
        // `format!("stage.{x}.bytes_in")` and `format!("stage.{}.bytes_in")`
        // both normalize to the registry template.
        assert!(s.matches_literal("stage.{x}.bytes_in"));
        assert!(s.matches_literal("stage.{}.bytes_in"));
        assert!(!s.matches_literal("stage.{x}.bytes_out"));
        assert!(s.matches_literal("codec.bytes_in"));
        assert!(!s.matches_literal("codec.{x}.bytes_in"));
    }

    #[test]
    fn workspace_registry_parses_and_covers_known_names() {
        let s = ObsSchema::workspace();
        assert!(s.entries().len() > 30);
        assert!(s.matches("codec.compressions"));
        assert!(s.matches("stage.block.bytes_out"));
        assert!(s.matches("wire.frame_bytes"));
        assert!(!s.matches("made.up.name"));
    }
}
