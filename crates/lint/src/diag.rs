//! Findings and the suppression-aware sink lints report through.

use std::fmt;
use std::path::PathBuf;

use crate::source::SourceFile;

/// One violation: a lint name, a site, and what went wrong.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    pub file: PathBuf,
    pub line: u32,
    pub lint: &'static str,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.lint,
            self.message
        )
    }
}

/// Collector that applies `// lint: allow(name)` suppression at the site
/// before a finding lands.
#[derive(Debug, Default)]
pub struct Diagnostics {
    pub findings: Vec<Finding>,
    pub suppressed: usize,
}

impl Diagnostics {
    pub fn new() -> Diagnostics {
        Diagnostics::default()
    }

    /// Report a violation found in `file` at `line`. Swallowed (and
    /// counted) if an allow comment covers the site.
    pub fn report(&mut self, file: &SourceFile, line: u32, lint: &'static str, message: String) {
        if file.allowed(lint, line) {
            self.suppressed += 1;
            return;
        }
        self.findings.push(Finding {
            file: file.rel.clone(),
            line,
            lint,
            message,
        });
    }
}
