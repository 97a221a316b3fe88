//! `unsafe-hygiene` — unsafe is rare, annotated, and fenced. Every crate
//! root (`src/lib.rs`, `src/main.rs`, each `src/bin` target) of a crate
//! with no `unsafe` at all forbids (or denies) `unsafe_code`; that of a
//! crate with `unsafe` denies clippy's `SAFETY_LINTS`, so CI's clippy
//! step rejects an `unsafe` block without a `// SAFETY:` comment stating
//! why it is sound, and such a comment on safe code. Clippy checks the
//! comments; this lint checks that no crate escapes both fences.

use crate::diag::Diagnostics;
use crate::lints::{is_ident, not_denied};
use crate::source::Workspace;

pub const NAME: &str = "unsafe-hygiene";

const SAFETY_LINTS: [&str; 2] = [
    "clippy::undocumented_unsafe_blocks",
    "clippy::unnecessary_safety_comment",
];

pub fn check(ws: &Workspace, diag: &mut Diagnostics) {
    for root in ws
        .files
        .iter()
        .filter(|f| is_crate_root(&f.rel.to_string_lossy()))
    {
        let krate = &root.krate;
        let mut files = ws.files.iter().filter(|f| f.krate == *krate);
        let has_unsafe =
            files.any(|f| (0..f.tokens.len()).any(|i| is_ident(&f.tokens, i, "unsafe")));
        let message = if has_unsafe {
            let missing = not_denied(&root.tokens, &SAFETY_LINTS).join("`, `");
            if missing.is_empty() {
                continue;
            }
            format!(
                "crate `{krate}` has unsafe code, but this root does not deny `{missing}`: \
                 an `unsafe` without a `// SAFETY:` comment would pass"
            )
        } else if not_denied(&root.tokens, &["unsafe_code"]).is_empty() {
            continue;
        } else {
            format!("crate `{krate}` has no unsafe code, but this root does not declare `#![forbid(unsafe_code)]`")
        };
        diag.report(root, 1, NAME, message);
    }
}

/// `src/lib.rs`, `src/main.rs`, `src/bin/x.rs` or `src/bin/x/main.rs`,
/// under `crates/<name>/` or the facade.
fn is_crate_root(rel: &str) -> bool {
    let parts: Vec<&str> = rel.split('/').collect();
    let in_src = match parts.as_slice() {
        ["crates", _, "src", rest @ ..] | ["src", rest @ ..] => rest,
        _ => return false,
    };
    match in_src {
        ["lib.rs" | "main.rs"] | ["bin", _, "main.rs"] => true,
        ["bin", file] => file.ends_with(".rs"),
        _ => false,
    }
}
