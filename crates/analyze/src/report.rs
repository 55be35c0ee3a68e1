//! Diagnostics and their renderings: clickable `file:line: [lint-id]
//! message` lines for humans, a dependency-free JSON array for tools.

/// One diagnostic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Stable lint id (kebab-case).
    pub lint: &'static str,
    pub message: String,
}

impl Finding {
    pub fn new(file: &str, line: u32, lint: &'static str, message: String) -> Self {
        Finding {
            file: file.to_string(),
            line,
            lint,
            message,
        }
    }
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.lint, self.message
        )
    }
}

/// Render findings as human-readable lines plus a summary.
pub fn render_human(findings: &[Finding], files_scanned: usize) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&f.to_string());
        out.push('\n');
    }
    if findings.is_empty() {
        out.push_str(&format!("mdls-analyze: clean ({files_scanned} files)\n"));
    } else {
        out.push_str(&format!(
            "mdls-analyze: {} finding{} in {} file{} (of {} scanned)\n",
            findings.len(),
            if findings.len() == 1 { "" } else { "s" },
            distinct_files(findings),
            if distinct_files(findings) == 1 {
                ""
            } else {
                "s"
            },
            files_scanned
        ));
    }
    out
}

fn distinct_files(findings: &[Finding]) -> usize {
    let mut files: Vec<&str> = findings.iter().map(|f| f.file.as_str()).collect();
    files.sort_unstable();
    files.dedup();
    files.len()
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render findings as a JSON document for tooling:
/// `{"findings": [{file, line, lint, message}...], "count": N}`.
pub fn render_json(findings: &[Finding], files_scanned: usize) -> String {
    let mut out = String::from("{\n  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": \"{}\", \"line\": {}, \"lint\": \"{}\", \"message\": \"{}\"}}",
            json_escape(&f.file),
            f.line,
            f.lint,
            json_escape(&f.message)
        ));
    }
    if !findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str(&format!(
        "],\n  \"count\": {},\n  \"files_scanned\": {}\n}}\n",
        findings.len(),
        files_scanned
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_line_is_clickable() {
        let f = Finding::new("crates/x/src/lib.rs", 42, "lock-across-emit", "msg".into());
        assert_eq!(
            f.to_string(),
            "crates/x/src/lib.rs:42: [lock-across-emit] msg"
        );
    }

    #[test]
    fn json_escapes_quotes() {
        let f = Finding::new("a.rs", 1, "pool-linear-scan", "say \"why\"".into());
        let j = render_json(&[f], 1);
        assert!(j.contains("say \\\"why\\\""));
        assert!(j.contains("\"count\": 1"));
    }

    #[test]
    fn clean_summary() {
        let h = render_human(&[], 12);
        assert!(h.contains("clean (12 files)"));
    }
}
