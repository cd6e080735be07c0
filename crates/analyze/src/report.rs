//! Rendering an [`Analysis`] for humans and for CI.

use crate::rules::{all_rules, Analysis};

/// Human-readable report: one `file:line: [rule] message` per finding,
/// then a summary line. Mirrors rustc's diagnostic shape so editors
/// pick the locations up.
pub fn human(analysis: &Analysis) -> String {
    let mut out = String::new();
    for f in &analysis.findings {
        out.push_str(&f.to_string());
        out.push('\n');
    }
    if !analysis.findings.is_empty() {
        out.push('\n');
    }
    out.push_str(&format!(
        "cpqx-analyze: {} finding{} in {} file{} ({} suppressed by pragma)\n",
        analysis.findings.len(),
        if analysis.findings.len() == 1 { "" } else { "s" },
        analysis.files,
        if analysis.files == 1 { "" } else { "s" },
        analysis.suppressed.len(),
    ));
    out
}

/// Machine-readable report: a single JSON object with the findings
/// array, scan size and suppression count. Serialized by hand — the
/// workspace is dependency-free and the schema is four fields deep.
pub fn json(analysis: &Analysis) -> String {
    let mut out = String::from("{\n  \"findings\": [");
    for (i, f) in analysis.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}}}",
            escape(&f.file),
            f.line,
            escape(f.rule),
            escape(&f.message),
        ));
    }
    if !analysis.findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str(&format!(
        "],\n  \"files\": {},\n  \"suppressed\": {}\n}}\n",
        analysis.files,
        analysis.suppressed.len(),
    ));
    out
}

/// The rule catalogue for `--rules`: id + one-line invariant.
pub fn rules_text() -> String {
    let mut out = String::new();
    for r in all_rules() {
        out.push_str(&format!("{:<18} {}\n", r.id(), r.explanation()));
    }
    out
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Finding;

    #[test]
    fn json_escapes_and_shapes() {
        let analysis = Analysis {
            findings: vec![Finding {
                file: "a.rs".into(),
                line: 3,
                rule: "lock-order",
                message: "say \"no\"\nplease".into(),
            }],
            suppressed: vec![],
            files: 2,
        };
        let j = json(&analysis);
        assert!(j.contains(r#""file": "a.rs""#));
        assert!(j.contains(r#""say \"no\"\nplease""#));
        assert!(j.contains("\"files\": 2"));
        let h = human(&analysis);
        assert!(h.starts_with("a.rs:3: [lock-order]"));
        assert!(h.contains("1 finding in 2 files (0 suppressed by pragma)"));
    }
}
