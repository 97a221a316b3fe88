//! `wire-conformance` — every message is in the README's wire table.
//!
//! The compiler keeps the protocol's code in step: `wire::Request` and
//! `wire::Reply` in `crates/net/src/wire.rs` declare each message once
//! (variant, payload fields, `= tag`), the server serves a `Request` and
//! the client answers a `Reply` with exhaustive matches, and a unit test
//! beside the codec holds the tags unique and on their side of `0x80`.
//! What no compiler sees is the README. This lint parses the two enum
//! declarations and reports every variant whose name and tag do not share a
//! line of `README.md`. A tag written as a constant's name is resolved
//! through that constant's `= value` in the same file.

use crate::diag::Diagnostics;
use crate::lexer::{parse_u64, Tok, Token};
use crate::lints::{contains_word, is_ident, is_punct};
use crate::source::{match_brace, Workspace};

pub const NAME: &str = "wire-conformance";

/// The message enums, by name.
const ENUMS: &[&str] = &["Request", "Reply"];

pub fn check(ws: &Workspace, diag: &mut Diagnostics) {
    let (Some(wire), Some(readme)) = (ws.file_ending("net/src/wire.rs"), &ws.readme) else {
        return; // no wire layer or no README in this tree
    };
    let tokens = &wire.tokens;
    for (name, tag, line) in ENUMS.iter().flat_map(|ty| variants(tokens, ty)) {
        let tag = format!("{tag:#04x}");
        let documented = readme
            .lines()
            .any(|row| contains_word(row, &name) && row.to_ascii_lowercase().contains(&tag));
        if !documented {
            diag.report(
                wire,
                line,
                NAME,
                format!("{name} ({tag}) is not documented in the README wire table"),
            );
        }
    }
}

/// `(variant, tag, line)` for each variant of `enum ty { … }`: a variant
/// is the last identifier at the enum's top level before its `= tag`.
fn variants(tokens: &[Token], ty: &str) -> Vec<(String, u64, u32)> {
    let Some(open) = (0..tokens.len()).find_map(|i| {
        let header = is_ident(tokens, i, "enum") && is_ident(tokens, i + 1, ty);
        header.then(|| (i + 2..tokens.len()).find(|&k| is_punct(tokens, k, '{')))?
    }) else {
        return Vec::new();
    };
    let close = match_brace(tokens, open);
    let mut found = Vec::new();
    let (mut depth, mut last) = (0usize, None);
    for k in open + 1..close {
        match &tokens[k].tok {
            Tok::Punct('(' | '[' | '{') => depth += 1,
            Tok::Punct(')' | ']' | '}') => depth = depth.saturating_sub(1),
            Tok::Ident(name) if depth == 0 => last = Some((name.clone(), tokens[k].line)),
            Tok::Punct('=') if depth == 0 => {
                if let (Some((name, line)), Some(tag)) = (last.take(), value(tokens, k + 1)) {
                    found.push((name, tag, line));
                }
            }
            _ => {}
        }
    }
    found
}

/// The number at `tokens[at]`: a literal, or the name of a `const` whose
/// value is one.
fn value(tokens: &[Token], at: usize) -> Option<u64> {
    match &tokens.get(at)?.tok {
        Tok::Num(lit) => parse_u64(lit),
        Tok::Ident(name) => {
            let def = (0..tokens.len()).find(|&k| {
                is_ident(tokens, k, "const")
                    && is_ident(tokens, k + 1, name)
                    && is_punct(tokens, k + 2, ':')
            })?;
            let eq = (def..tokens.len()).find(|&k| is_punct(tokens, k, '='))?;
            match &tokens.get(eq + 1)?.tok {
                Tok::Num(lit) => parse_u64(lit),
                _ => None,
            }
        }
        _ => None,
    }
}
