//! `wire-conformance` — the opcode discipline.
//!
//! The protocol's correctness spans four files that nothing but
//! convention keeps in sync: the `opcode` module in
//! `crates/net/src/wire.rs` declares the numbers, the server dispatch
//! loop must answer every request, the client must understand every
//! reply, and the README wire table documents the lot. This lint parses
//! the opcode module and checks:
//!
//! 1. every opcode value is unique;
//! 2. every opcode the server *dispatches on* (match arm or `op ==`
//!    comparison) is a request (`< 0x80`) and every opcode it *sends*
//!    (first argument of `frame_bytes(..)` / `frame_view(..)` /
//!    `write_frame(..)`) is a
//!    reply (`>= 0x80`) — and every opcode does exactly one of the two;
//! 3. every opcode appears in the client (handled) or is knowingly
//!    ignored via a `// lint: wire-ignore(NAME)` comment there;
//! 4. every opcode name appears in `README.md`.

use std::collections::{BTreeMap, BTreeSet};

use crate::diag::Diagnostics;
use crate::lexer::{parse_u64, Tok};
use crate::lints::{contains_word, is_ident, is_punct, path2};
use crate::source::{match_brace, SourceFile, Workspace};

pub const NAME: &str = "wire-conformance";

/// An opcode constant parsed out of `mod opcode`.
#[derive(Debug, Clone)]
pub(crate) struct Opcode {
    pub(crate) name: String,
    pub(crate) value: u64,
    pub(crate) line: u32,
}

pub fn check(ws: &Workspace, diag: &mut Diagnostics) {
    let Some(wire) = ws.file_ending("net/src/wire.rs") else {
        return; // no wire layer in this tree — nothing to conform to
    };
    let opcodes = parse_opcode_module(wire);
    if opcodes.is_empty() {
        return;
    }

    // (1) unique values.
    let mut by_value: BTreeMap<u64, &Opcode> = BTreeMap::new();
    for opcode in &opcodes {
        if let Some(first) = by_value.get(&opcode.value) {
            diag.report(
                wire,
                opcode.line,
                NAME,
                format!(
                    "opcode {} reuses value {:#04X} already taken by {}",
                    opcode.name, opcode.value, first.name
                ),
            );
        } else {
            by_value.insert(opcode.value, opcode);
        }
    }

    // (2) server roles.
    let server = ws.file_ending("net/src/server.rs");
    if let Some(server) = server {
        let (dispatched, sent) = server_roles(server);
        for opcode in &opcodes {
            let d = dispatched.contains(&opcode.name);
            let s = sent.contains(&opcode.name);
            if d && opcode.value >= 0x80 {
                diag.report(
                    wire,
                    opcode.line,
                    NAME,
                    format!(
                        "{} ({:#04X}) is dispatched as a request in server.rs but has a \
                         reply value (>= 0x80)",
                        opcode.name, opcode.value
                    ),
                );
            }
            if s && opcode.value < 0x80 {
                diag.report(
                    wire,
                    opcode.line,
                    NAME,
                    format!(
                        "{} ({:#04X}) is sent as a reply in server.rs but has a \
                         request value (< 0x80)",
                        opcode.name, opcode.value
                    ),
                );
            }
            if !d && !s {
                diag.report(
                    wire,
                    opcode.line,
                    NAME,
                    format!(
                        "{} ({:#04X}) is neither matched in the server dispatch nor \
                         sent as a reply — dead opcode or missing handler",
                        opcode.name, opcode.value
                    ),
                );
            }
        }
    }

    // (3) client coverage.
    if let Some(client) = ws.file_ending("net/src/client.rs") {
        let mut mentioned: BTreeSet<String> = BTreeSet::new();
        for i in 0..client.tokens.len() {
            if let Some((name, _)) = path2(&client.tokens, i, "opcode") {
                mentioned.insert(name.to_string());
            }
        }
        for opcode in &opcodes {
            let ignored = client.comments.iter().any(|c| {
                c.text
                    .contains(&format!("lint: wire-ignore({})", opcode.name))
            });
            if !mentioned.contains(&opcode.name) && !ignored {
                diag.report(
                    wire,
                    opcode.line,
                    NAME,
                    format!(
                        "{} ({:#04X}) is never handled in client.rs — handle it or mark \
                         it `// lint: wire-ignore({})` there",
                        opcode.name, opcode.value, opcode.name
                    ),
                );
            }
        }
    }

    // (4) README documentation.
    if let Some(readme) = &ws.readme {
        for opcode in &opcodes {
            if !contains_word(readme, &opcode.name) {
                diag.report(
                    wire,
                    opcode.line,
                    NAME,
                    format!(
                        "{} ({:#04X}) is not documented in the README wire table",
                        opcode.name, opcode.value
                    ),
                );
            }
        }
    }
}

/// Pull `pub const NAME: u8 = VALUE;` declarations out of `mod opcode`.
pub(crate) fn parse_opcode_module(wire: &SourceFile) -> Vec<Opcode> {
    let tokens = &wire.tokens;
    let Some(mod_at) = (0..tokens.len()).find(|&i| {
        is_ident(tokens, i, "mod")
            && is_ident(tokens, i + 1, "opcode")
            && is_punct(tokens, i + 2, '{')
    }) else {
        return Vec::new();
    };
    let open = mod_at + 2;
    let close = match_brace(tokens, open);
    let mut opcodes = Vec::new();
    let mut i = open;
    while i < close {
        // `pub const NAME : u8 = VALUE ;`
        if is_ident(tokens, i, "const") {
            let name = match tokens.get(i + 1).map(|t| &t.tok) {
                Some(Tok::Ident(s)) => s.clone(),
                _ => {
                    i += 1;
                    continue;
                }
            };
            // Find the `=` then the value literal before the `;`.
            let mut j = i + 2;
            while j < close && !is_punct(tokens, j, '=') && !is_punct(tokens, j, ';') {
                j += 1;
            }
            if is_punct(tokens, j, '=') {
                if let Some(Tok::Num(lit)) = tokens.get(j + 1).map(|t| &t.tok) {
                    if let Some(value) = parse_u64(lit) {
                        opcodes.push(Opcode {
                            name,
                            value,
                            line: tokens[i + 1].line,
                        });
                    }
                }
            }
            i = j;
        }
        i += 1;
    }
    opcodes
}

/// The `wire` functions that build or write a frame under the opcode given
/// as their first argument.
const SENDERS: &[&str] = &["frame_bytes", "frame_view", "write_frame"];

/// Classify opcode uses in server.rs: `dispatched` names appear in match
/// arms (`opcode::X =>`, `opcode::X |`) or comparisons (`== opcode::X`);
/// `sent` names are the first argument of one of [`SENDERS`].
fn server_roles(server: &SourceFile) -> (BTreeSet<String>, BTreeSet<String>) {
    let tokens = &server.tokens;
    let mut dispatched = BTreeSet::new();
    let mut sent = BTreeSet::new();
    for i in 0..tokens.len() {
        let Some((name, _)) = path2(tokens, i, "opcode") else {
            continue;
        };
        let after = i + 4; // past `opcode :: NAME`
        let arm = (is_punct(tokens, after, '=') && is_punct(tokens, after + 1, '>'))
            || is_punct(tokens, after, '|');
        let cmp = i >= 2 && is_punct(tokens, i - 1, '=') && is_punct(tokens, i - 2, '=');
        let call = i >= 2
            && is_punct(tokens, i - 1, '(')
            && SENDERS.iter().any(|f| is_ident(tokens, i - 2, f));
        if call {
            sent.insert(name.to_string());
        } else if arm || cmp {
            dispatched.insert(name.to_string());
        }
    }
    (dispatched, sent)
}
