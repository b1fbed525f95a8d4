//! Machine-readable report: the analysis outcome as a JSON document
//! (written to `target/analyze-report.json` by the CLI).

use crate::diag::{Code, Diagnostic};
use crate::source::Loc;
use jact_obs::json::Json;

/// Outcome of analyzing a workspace.
pub struct Analysis {
    /// Number of Rust source files scanned.
    pub files_scanned: usize,
    /// Number of manifests scanned.
    pub manifests_scanned: usize,
    /// Crates visited, in scan order.
    pub crates: Vec<String>,
    /// Every violation found, ordered by path then line.
    pub violations: Vec<Diagnostic>,
    /// Number of inline suppression comments honored.
    pub suppressions_honored: usize,
    /// Library line counts per crate, in scan order, so the report
    /// tracks size like speed.
    pub loc: Vec<(String, Loc)>,
}

fn loc_json(name: &str, l: &Loc) -> Json {
    Json::obj()
        .field("crate", name)
        .field("files", l.files)
        .field("code", l.code)
        .field("test", l.test)
        .field("comment_blank", l.other)
}

impl Analysis {
    /// Violation count for one code.
    pub fn count(&self, code: Code) -> usize {
        self.violations.iter().filter(|d| d.code == code).count()
    }

    /// `true` when the workspace is clean.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Workspace-wide line counts.
    pub fn loc_total(&self) -> Loc {
        let mut total = Loc::default();
        for (_, l) in &self.loc {
            total += *l;
        }
        total
    }

    /// Renders the report as a JSON value tree.
    pub fn to_json(&self) -> Json {
        let mut counts = Json::obj();
        for code in Code::ALL {
            counts = counts.field(code.as_str(), self.count(code));
        }
        let violations: Vec<Json> = self
            .violations
            .iter()
            .map(|d| {
                Json::obj()
                    .field("code", d.code.as_str())
                    .field("path", d.path.as_str())
                    .field("line", d.line as u64)
                    .field("col", d.col as u64)
                    .field("message", d.message.as_str())
            })
            .collect();
        Json::obj()
            .field("schema", "jact-analyze/v1")
            .field("files_scanned", self.files_scanned)
            .field("manifests_scanned", self.manifests_scanned)
            .field("crates", self.crates.clone())
            .field("suppressions_honored", self.suppressions_honored)
            .field("counts", counts)
            .field("total_violations", self.violations.len())
            .field("clean", self.is_clean())
            .field("violations", Json::Arr(violations))
            .field(
                "loc",
                Json::Arr(self.loc.iter().map(|(c, l)| loc_json(c, l)).collect()),
            )
            .field("loc_total", loc_json("*", &self.loc_total()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_shape() {
        let a = Analysis {
            files_scanned: 3,
            manifests_scanned: 2,
            crates: vec!["jact-codec".into()],
            violations: vec![Diagnostic::new(Code::Ja03, "src/x.rs", 7, 9, "unwrap")],
            suppressions_honored: 1,
            loc: vec![
                ("jact-codec".into(), Loc { files: 2, code: 30, test: 10, other: 5 }),
                ("jact-serve".into(), Loc { files: 1, code: 7, test: 0, other: 1 }),
            ],
        };
        let s = a.to_json().to_string();
        assert!(
            s.contains("{\"crate\":\"*\",\"files\":3,\"code\":37,\"test\":10,\"comment_blank\":6}"),
            "{s}"
        );
        assert!(s.contains("\"schema\":\"jact-analyze/v1\""), "{s}");
        assert!(s.contains("\"JA03\":1"), "{s}");
        assert!(s.contains("\"total_violations\":1"), "{s}");
        assert!(s.contains("\"clean\":false"), "{s}");
        assert!(!a.is_clean());
        assert_eq!(a.count(Code::Ja03), 1);
        assert_eq!(a.count(Code::Ja01), 0);
    }
}
