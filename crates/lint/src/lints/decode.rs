//! `panic-free-decode` — the decode paths must refuse, never panic.
//!
//! PR 4 established (and the `wire_contract` tests verify by sample) that
//! decoding turns arbitrary bytes into typed `WireError`s, not panics.
//! Tests sample; this lint proves the *shape* on every build. Everything
//! that reads bytes off the wire in `crates/net/src` goes through one of:
//!
//! * a `fn get` inside an `impl Wire for …` (any file — `wire.rs`,
//!   `heat.rs`, and the `macro_rules!` bodies that generate such impls);
//! * a method of `Reader` (payload bytes) or `FrameReader` (socket bytes);
//! * `decode`, the pinned `decode_*` wrappers, `parse_header` and
//!   `read_frame`.
//!
//! Inside those there must be no `unwrap`/`expect`, no
//! `panic!`/`unreachable!`/`todo!`/`unimplemented!`, and no direct slice
//! indexing (`payload[4]`, `&buf[..n]` — both can panic; use `get(..)`,
//! `split_first_chunk` and typed errors).

use crate::diag::Diagnostics;
use crate::lexer::{Tok, Token};
use crate::lints::is_ident;
use crate::source::{match_brace, Workspace};

pub const NAME: &str = "panic-free-decode";

const BANNED_CALLS: &[&str] = &[
    "unwrap",
    "expect",
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
];

/// What the `impl` block enclosing a `fn` implements.
#[derive(Clone, Copy)]
enum Impl {
    /// `impl Wire for T`: its `get` decodes.
    Wire,
    /// An inherent impl of one of [`READERS`]: every method reads received
    /// bytes.
    Reader(&'static str),
    Other,
}

/// `Reader` walks a payload, `FrameReader` the socket's byte stream.
const READERS: &[&str] = &["Reader", "FrameReader"];

pub fn check(ws: &Workspace, diag: &mut Diagnostics) {
    for file in ws.files.iter().filter(|f| f.krate == "net") {
        let tokens = &file.tokens;
        // (index of the closing brace, kind) of the impl block we are in.
        let mut enclosing: Option<(usize, Impl)> = None;
        let mut i = 0;
        while i < tokens.len() {
            if enclosing.is_some_and(|(close, _)| i > close) {
                enclosing = None;
            }
            let is_impl = is_ident(tokens, i, "impl");
            let item = is_impl || is_ident(tokens, i, "fn");
            let Some(open) = item.then(|| body_open(tokens, i)).flatten() else {
                i += 1;
                continue;
            };
            if is_impl {
                enclosing = Some((match_brace(tokens, open), impl_kind(&tokens[i..open])));
                i = open + 1;
                continue;
            }
            let fn_name = match tokens.get(i + 1).map(|t| &t.tok) {
                Some(Tok::Ident(name)) => name.as_str(),
                _ => "",
            };
            let in_scope = match enclosing {
                Some((_, Impl::Wire)) => fn_name == "get",
                Some((_, Impl::Reader(_))) => true,
                _ => {
                    fn_name == "decode"
                        || fn_name.starts_with("decode_")
                        || fn_name == "parse_header"
                        || fn_name == "read_frame"
                }
            };
            let close = match_brace(tokens, open);
            if in_scope {
                let label = match enclosing {
                    Some((_, Impl::Wire)) => "Wire::get".to_string(),
                    Some((_, Impl::Reader(ty))) => format!("{ty}::{fn_name}"),
                    _ => fn_name.to_string(),
                };
                for k in open..close {
                    let what = match &tokens[k].tok {
                        Tok::Ident(id) if BANNED_CALLS.contains(&id.as_str()) => format!("`{id}`"),
                        Tok::Punct('[') if is_index_bracket(tokens, k) => {
                            "direct slice indexing".to_string()
                        }
                        _ => continue,
                    };
                    diag.report(
                        file,
                        tokens[k].line,
                        NAME,
                        format!(
                            "{what} in decode path `{label}` — malformed input must become a \
                             typed WireError, never a panic (use `get(..)` / `split_first_chunk`)"
                        ),
                    );
                }
            }
            i = close + 1;
        }
    }
}

/// The `{` that opens the body of the `impl` or `fn` at `at`, or `None` for
/// a bodyless declaration (`fn get(..) -> ..;` in a trait). A `;` inside
/// an array type (`[u8; N]`) does not end the signature.
fn body_open(tokens: &[Token], at: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in tokens.iter().enumerate().skip(at) {
        match t.tok {
            Tok::Punct('(') | Tok::Punct('[') => depth += 1,
            Tok::Punct(')') | Tok::Punct(']') => depth = depth.saturating_sub(1),
            Tok::Punct('{') if depth == 0 => return Some(k),
            Tok::Punct(';') if depth == 0 => return None,
            _ => {}
        }
    }
    None
}

/// Classify an impl header (the tokens from `impl` up to its `{`).
fn impl_kind(header: &[Token]) -> Impl {
    let has = |name: &str| (0..header.len()).any(|k| is_ident(header, k, name));
    if (0..header.len()).any(|k| is_ident(header, k, "Wire") && is_ident(header, k + 1, "for")) {
        Impl::Wire
    } else if let Some(ty) = READERS.iter().find(|ty| has(ty) && !has("for")) {
        Impl::Reader(ty)
    } else {
        Impl::Other
    }
}

/// A `[` is an *index* when it follows a value expression: an identifier,
/// a closing bracket/paren, or a literal. `#[attr]`, `[u8; 4]` types and
/// array literals follow punctuation and stay legal.
fn is_index_bracket(tokens: &[Token], k: usize) -> bool {
    if k == 0 {
        return false;
    }
    matches!(
        tokens[k - 1].tok,
        Tok::Ident(_) | Tok::Punct(']') | Tok::Punct(')') | Tok::Num(_)
    )
}
