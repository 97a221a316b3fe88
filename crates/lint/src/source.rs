//! Workspace file model: which files the analyzer sees and what each file
//! pre-computes (tokens, comments, `lint: allow(...)` suppressions,
//! `#[cfg(test)] mod` line ranges).
//!
//! Scope is deliberate: the lints read **non-test source** — every `.rs`
//! under `crates/*/src/` plus the facade's `src/` — and two side files the
//! wire lint needs, `README.md` and `ci/metrics.txt`. Test trees, the
//! `shims/` stand-ins for registry crates, and anything under a
//! `fixtures/` directory (the analyzer's own red/green test inputs) are
//! out of scope; invariants there are enforced by the tests themselves.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::lexer::{lex, Comment, Lexed, Tok, Token};

/// One source file, lexed and indexed.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root (display + suffix matching).
    pub rel: PathBuf,
    /// Which crate the file belongs to (`mgpu-net` → `net`; the facade's
    /// `src/` is `gpumr`).
    pub krate: String,
    pub(crate) tokens: Vec<Token>,
    /// The file's comments, with runs of consecutive line comments merged
    /// into one block, so a justification that wraps onto a second line
    /// still counts as one comment adjacent to the line below it.
    blocks: Vec<Comment>,
    /// `lint-name → lines` where a `// lint: allow(name)` comment
    /// suppresses findings (the comment's own line and the next line).
    allows: BTreeMap<String, BTreeSet<u32>>,
    /// Line ranges (inclusive) covered by `#[cfg(test)] mod … { … }`.
    test_regions: Vec<(u32, u32)>,
}

impl SourceFile {
    pub fn parse(rel: PathBuf, krate: String, text: &str) -> SourceFile {
        let Lexed { tokens, comments } = lex(text);
        let allows = collect_allows(&comments);
        let test_regions = collect_test_regions(&tokens);
        let blocks = merge_blocks(&comments);
        SourceFile {
            rel,
            krate,
            tokens,
            blocks,
            allows,
            test_regions,
        }
    }

    /// Is a finding of `lint` at `line` suppressed by an allow comment?
    pub fn allowed(&self, lint: &str, line: u32) -> bool {
        self.allows.get(lint).is_some_and(|l| l.contains(&line))
    }

    /// Is this line inside a `#[cfg(test)] mod`? Unit-test modules get to
    /// register throwaway metric names and take locks in funny orders.
    pub fn in_test_region(&self, line: u32) -> bool {
        self.test_regions
            .iter()
            .any(|&(a, b)| line >= a && line <= b)
    }

    /// Is there a comment block whose text satisfies `pred` ending on
    /// `line` or the line directly above? (The "same or preceding line"
    /// contract of the atomic-ordering check.)
    /// Consecutive line comments count as one block, so wrapped comments
    /// stay adjacent.
    pub fn comment_near(&self, line: u32, pred: impl Fn(&str) -> bool) -> bool {
        self.blocks
            .iter()
            .any(|c| (c.end_line == line || c.end_line + 1 == line) && pred(&c.text))
    }
}

/// `// lint: allow(name)` — also accepted with extra prose after the
/// closing paren, so a suppression can say *why* on the same line.
fn collect_allows(comments: &[Comment]) -> BTreeMap<String, BTreeSet<u32>> {
    let mut map: BTreeMap<String, BTreeSet<u32>> = BTreeMap::new();
    for c in comments {
        let Some(rest) = c.text.trim().strip_prefix("lint: allow(") else {
            continue;
        };
        let Some(name) = rest.split(')').next() else {
            continue;
        };
        let entry = map.entry(name.trim().to_string()).or_default();
        entry.insert(c.end_line);
        entry.insert(c.end_line + 1);
    }
    map
}

/// Merge runs of line comments on consecutive lines into single blocks
/// (text joined with spaces). Block comments pass through unchanged.
fn merge_blocks(comments: &[Comment]) -> Vec<Comment> {
    let mut blocks: Vec<Comment> = Vec::new();
    for c in comments {
        match blocks.last_mut() {
            Some(prev) if prev.end_line + 1 == c.start_line => {
                prev.end_line = c.end_line;
                prev.text.push(' ');
                prev.text.push_str(&c.text);
            }
            _ => blocks.push(c.clone()),
        }
    }
    blocks
}

/// Line ranges of `#[cfg(test)] mod name { … }` blocks, found by token
/// pattern and brace matching. Attributes between the cfg and the `mod`
/// are tolerated.
fn collect_test_regions(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i + 5 < tokens.len() {
        let is_cfg_test = matches!(&tokens[i].tok, Tok::Punct('#'))
            && matches!(&tokens[i + 1].tok, Tok::Punct('['))
            && matches!(&tokens[i + 2].tok, Tok::Ident(s) if s == "cfg")
            && matches!(&tokens[i + 3].tok, Tok::Punct('('))
            && matches!(&tokens[i + 4].tok, Tok::Ident(s) if s == "test");
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // Scan forward (over possible further attributes) for `mod X {`.
        let mut j = i + 5;
        let mut found_mod = None;
        while j < tokens.len() && j < i + 64 {
            if matches!(&tokens[j].tok, Tok::Ident(s) if s == "mod") {
                found_mod = Some(j);
                break;
            }
            // A `fn`/`struct`/`use` before `mod` means this cfg(test)
            // guards a single item, not a module — still worth skipping
            // for registration scans, but item extent is the brace block
            // that follows either way.
            if matches!(&tokens[j].tok, Tok::Ident(s) if s == "fn" || s == "struct" || s == "impl")
            {
                found_mod = Some(j);
                break;
            }
            j += 1;
        }
        let Some(item) = found_mod else {
            i += 1;
            continue;
        };
        // Find the opening brace of the item, then its match.
        let Some(open) = (item..tokens.len()).find(|&k| matches!(tokens[k].tok, Tok::Punct('{')))
        else {
            i += 1;
            continue;
        };
        let close = match_brace(tokens, open);
        regions.push((tokens[i].line, tokens[close].line));
        i = close + 1;
    }
    regions
}

/// Index of the `}` matching the `{` at `open` (or the last token if the
/// file is truncated).
pub(crate) fn match_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        match t.tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
            _ => {}
        }
    }
    tokens.len().saturating_sub(1)
}

/// The analyzer's view of the workspace.
#[derive(Debug)]
pub struct Workspace {
    pub root: PathBuf,
    pub files: Vec<SourceFile>,
    /// `README.md` text, if present (the wire lint's documentation check).
    pub readme: Option<String>,
    /// Blessed metric list (`ci/metrics.txt`), if present.
    pub blessed_metrics: Option<String>,
}

impl Workspace {
    /// Load the real tree rooted at `root` (the directory holding the
    /// workspace `Cargo.toml`).
    pub fn load(root: &Path) -> io::Result<Workspace> {
        let mut rs_files = Vec::new();
        let crates_dir = root.join("crates");
        if crates_dir.is_dir() {
            let mut crate_dirs: Vec<_> = fs::read_dir(&crates_dir)?
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.is_dir())
                .collect();
            crate_dirs.sort();
            for dir in crate_dirs {
                let src = dir.join("src");
                if src.is_dir() {
                    walk_rs(&src, &mut rs_files)?;
                }
            }
        }
        let facade_src = root.join("src");
        if facade_src.is_dir() {
            walk_rs(&facade_src, &mut rs_files)?;
        }
        rs_files.sort();

        let mut files = Vec::new();
        for path in rs_files {
            let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
            let text = fs::read_to_string(&path)?;
            files.push(SourceFile::parse(rel.clone(), crate_of(&rel), &text));
        }
        Ok(Workspace {
            root: root.to_path_buf(),
            files,
            readme: fs::read_to_string(root.join("README.md")).ok(),
            blessed_metrics: fs::read_to_string(root.join("ci").join("metrics.txt")).ok(),
        })
    }

    /// Build a workspace from in-memory files — the red/green fixture
    /// path. Paths are workspace-relative; `README.md` and
    /// `ci/metrics.txt` entries are routed to their side channels.
    pub fn from_files(files: Vec<(&str, &str)>) -> Workspace {
        let mut ws = Workspace {
            root: PathBuf::new(),
            files: Vec::new(),
            readme: None,
            blessed_metrics: None,
        };
        for (path, text) in files {
            if path == "README.md" {
                ws.readme = Some(text.to_string());
            } else if path == "ci/metrics.txt" {
                ws.blessed_metrics = Some(text.to_string());
            } else {
                let rel = PathBuf::from(path);
                ws.files
                    .push(SourceFile::parse(rel.clone(), crate_of(&rel), text));
            }
        }
        ws
    }

    /// The file whose relative path ends with `suffix` (e.g.
    /// `net/src/wire.rs`).
    pub fn file_ending(&self, suffix: &str) -> Option<&SourceFile> {
        self.files
            .iter()
            .find(|f| f.rel.to_string_lossy().ends_with(suffix))
    }
}

/// Crate name from a workspace-relative path: `crates/net/src/wire.rs` →
/// `net`; the facade's `src/lib.rs` → `gpumr`.
fn crate_of(rel: &Path) -> String {
    let mut parts = rel.components().map(|c| c.as_os_str().to_string_lossy());
    match parts.next().as_deref() {
        Some("crates") => parts
            .next()
            .map(|s| s.to_string())
            .unwrap_or_else(|| "unknown".to_string()),
        Some("src") => "gpumr".to_string(),
        _ => "unknown".to_string(),
    }
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().map(|n| n.to_string_lossy().to_string());
        if path.is_dir() {
            // Fixture trees are lint *inputs*, never lint *subjects*.
            if name.as_deref() == Some("fixtures") || name.as_deref() == Some("target") {
                continue;
            }
            walk_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_comment_covers_its_line_and_the_next() {
        let f = SourceFile::parse(
            PathBuf::from("crates/x/src/lib.rs"),
            "x".into(),
            "// lint: allow(lock-order) two-phase handoff, never inverted\nfn f() {}\n",
        );
        assert!(f.allowed("lock-order", 1));
        assert!(f.allowed("lock-order", 2));
        assert!(!f.allowed("lock-order", 3));
        assert!(!f.allowed("atomic-ordering", 2));
    }

    #[test]
    fn cfg_test_regions_are_found() {
        let src = "fn real() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
        let f = SourceFile::parse(PathBuf::from("crates/x/src/lib.rs"), "x".into(), src);
        assert!(!f.in_test_region(1));
        assert!(f.in_test_region(3));
        assert!(f.in_test_region(4));
    }
}
