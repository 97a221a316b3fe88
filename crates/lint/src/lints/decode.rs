//! `panic-free-decode` — decoding refuses malformed bytes with a typed
//! `WireError`, never a panic. Clippy proves it wherever its seven panic
//! lints are denied, encoders included; this lint keeps every decode item
//! in `crates/net/src`, outside test modules, in a file that denies all
//! seven. A decode item is an `impl Wire for …`, an inherent `impl` of
//! `Reader` or `FrameReader`, a `fn` named `decode…`, `parse_header` or
//! `read_frame`, or an invocation of a `macro_rules!` codec whose body
//! holds one of these.
//!
//! Clippy does not see into those codec bodies: `unwrap_used` and
//! `expect_used` skip code a macro expands to, and `panic`/`unreachable`/
//! `todo`/`unimplemented` look for the outermost macro call, which is the
//! codec. So this lint bans those six names token by token inside every
//! codec body. (`indexing_slicing` does fire in expanded code.)

use crate::diag::Diagnostics;
use crate::lexer::Token;
use crate::lints::{ident, is_ident, is_punct, not_denied};
use crate::source::{match_brace, Workspace};

pub const NAME: &str = "panic-free-decode";

const PANIC_LINTS: [&str; 7] = [
    "clippy::indexing_slicing",
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::unreachable",
    "clippy::todo",
    "clippy::unimplemented",
];

/// What the panic lints other than `indexing_slicing` look for.
const PANICKING_CALLS: [&str; 6] = [
    "unwrap",
    "expect",
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
];

pub fn check(ws: &Workspace, diag: &mut Diagnostics) {
    let net: Vec<_> = ws.files.iter().filter(|f| f.krate == "net").collect();
    let mut codecs = Vec::new();
    for file in &net {
        let tokens = &file.tokens;
        for i in 0..tokens.len() {
            if is_ident(tokens, i, "macro_rules") && is_punct(tokens, i + 3, '{') {
                let body = &tokens[i + 3..=match_brace(tokens, i + 3)];
                if decode_items(body, &[]).is_empty() || file.in_test_region(tokens[i].line) {
                    continue;
                }
                let codec = ident(tokens, i + 2).unwrap_or_default();
                codecs.push(codec);
                for (k, t) in body.iter().enumerate() {
                    if let Some(id) = ident(body, k).filter(|id| PANICKING_CALLS.contains(id)) {
                        let message = format!(
                            "`{id}` in the body of codec `{codec}!`, where clippy's panic \
                             lints do not look"
                        );
                        diag.report(file, t.line, NAME, message);
                    }
                }
            }
        }
    }
    for file in net {
        let missing = not_denied(&file.tokens, &PANIC_LINTS).join("`, `");
        for (line, item) in decode_items(&file.tokens, &codecs) {
            if !missing.is_empty() && !file.in_test_region(line) {
                let message = format!(
                    "{item} decodes received bytes, but this file does not deny `{missing}`"
                );
                diag.report(file, line, NAME, message);
            }
        }
    }
}

/// The decode items in `tokens`, as (line, label).
fn decode_items(tokens: &[Token], codecs: &[&str]) -> Vec<(u32, String)> {
    let mut items = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        let item = match (ident(tokens, i), ident(tokens, i + 1)) {
            (Some("Wire"), Some("for")) => "`impl Wire`".to_string(),
            (Some("impl"), _) => {
                let header = (i..).take_while(|&k| k < tokens.len() && !is_punct(tokens, k, '{'));
                let names: Vec<_> = header.filter_map(|k| ident(tokens, k)).collect();
                match names.iter().find(|n| ["Reader", "FrameReader"].contains(n)) {
                    Some(ty) if !names.contains(&"for") => format!("`impl {ty}`"),
                    _ => continue,
                }
            }
            (Some("fn"), Some(name))
                if name.starts_with("decode") || name == "parse_header" || name == "read_frame" =>
            {
                format!("`fn {name}`")
            }
            (Some(name), _) if codecs.contains(&name) && is_punct(tokens, i + 1, '!') => {
                format!("`{name}!`")
            }
            _ => continue,
        };
        items.push((t.line, item));
    }
    items
}
