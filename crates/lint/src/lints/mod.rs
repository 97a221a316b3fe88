//! The six project-invariant lints. Each is a function over the
//! [`Workspace`] that reports into a
//! [`Diagnostics`] sink; `run_all` is the CLI
//! entry point's one-stop call.
//!
//! | lint name | invariant |
//! |---|---|
//! | `wire-conformance` | every `Request`/`Reply` variant and its tag appear on one line of the README |
//! | `metric-registry` | metric-name convention, type consistency, dashboard reads, blessed set |
//! | `panic-free-decode` | no panics or direct indexing in any `Wire::get`, `Reader`/`FrameReader` method or frame parser |
//! | `lock-order` | no cyclic held-while-acquiring lock order |
//! | `atomic-ordering` | every non-`Relaxed` ordering carries a justification comment |
//! | `unsafe-hygiene` | `// SAFETY:` on unsafe blocks; `#![forbid(unsafe_code)]` elsewhere |

pub mod atomics;
pub mod decode;
pub mod locks;
pub mod metrics;
pub mod unsafety;
pub mod wire;

use crate::diag::Diagnostics;
use crate::lexer::{Tok, Token};
use crate::source::Workspace;

/// Run every lint over the workspace.
pub fn run_all(ws: &Workspace) -> Diagnostics {
    let mut diag = Diagnostics::new();
    wire::check(ws, &mut diag);
    metrics::check(ws, &mut diag);
    decode::check(ws, &mut diag);
    locks::check(ws, &mut diag);
    atomics::check(ws, &mut diag);
    unsafety::check(ws, &mut diag);
    diag.findings.sort();
    diag
}

/// Does token `i` start the path `a::b`? (Pattern `Ident(a) :: Ident(b)`.)
pub(crate) fn path2<'t>(tokens: &'t [Token], i: usize, head: &str) -> Option<(&'t str, u32)> {
    if !matches!(&tokens[i].tok, Tok::Ident(s) if s == head) {
        return None;
    }
    if !(is_punct(tokens, i + 1, ':') && is_punct(tokens, i + 2, ':')) {
        return None;
    }
    match tokens.get(i + 3).map(|t| &t.tok) {
        Some(Tok::Ident(name)) => Some((name.as_str(), tokens[i + 3].line)),
        _ => None,
    }
}

pub(crate) fn is_punct(tokens: &[Token], i: usize, c: char) -> bool {
    matches!(tokens.get(i).map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c)
}

pub(crate) fn is_ident(tokens: &[Token], i: usize, name: &str) -> bool {
    matches!(tokens.get(i).map(|t| &t.tok), Some(Tok::Ident(s)) if s == name)
}

/// Does `word` appear in `text` as a standalone word (neighbors are not
/// `[A-Za-z0-9_]`)? Used for README documentation checks.
pub(crate) fn contains_word(text: &str, word: &str) -> bool {
    let bytes = text.as_bytes();
    let mut from = 0;
    while let Some(at) = text[from..].find(word) {
        let start = from + at;
        let end = start + word.len();
        let left_ok = start == 0 || !is_word_byte(bytes[start - 1]);
        let right_ok = end == bytes.len() || !is_word_byte(bytes[end]);
        if left_ok && right_ok {
            return true;
        }
        from = start + 1;
    }
    false
}

fn is_word_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}
