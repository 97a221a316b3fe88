//! `metric-registry` — the metric namespace against its one table.
//!
//! `mgpu_obs::names` declares every metric once, in its `metrics!` table
//! (`counter NET_BYTES_READ = "net.bytes_read";`), and its unit tests hold
//! each name to the `namespace.lowercase_dot` convention and unique. What
//! the table cannot see is its users. Outside test modules:
//!
//! 1. every `counter(..)`/`gauge(..)`/`histogram(..)` call whose argument
//!    is a table const uses the kind the table declares for it;
//! 2. no file but `names.rs` spells a metric name as a string literal, and
//!    no instrument call takes its name as one — a registration, or a
//!    dashboard read, goes through the table's const. The namespaces are
//!    the table's first segments;
//! 3. every declared name is registered somewhere outside `mgpu-bench`
//!    (the `obs_top` dashboard only reads).

use std::collections::{BTreeMap, BTreeSet};

use crate::diag::Diagnostics;
use crate::lexer::{Tok, Token};
use crate::lints::{is_ident, is_punct};
use crate::source::Workspace;

pub const NAME: &str = "metric-registry";

const INSTRUMENTS: &[&str] = &["counter", "gauge", "histogram"];

pub fn check(ws: &Workspace, diag: &mut Diagnostics) {
    let Some(names) = ws.file_ending("obs/src/names.rs") else {
        return; // no metric table in this tree
    };
    let table = table(&names.tokens);
    let namespaces: BTreeSet<&str> = table
        .values()
        .filter_map(|(_, value, _)| Some(value.split_once('.')?.0))
        .collect();
    let mut unregistered: BTreeSet<&str> = table.keys().map(String::as_str).collect();

    for file in ws.files.iter().filter(|f| !std::ptr::eq(*f, names)) {
        let tokens = &file.tokens;
        for (i, t) in tokens.iter().enumerate() {
            if file.in_test_region(t.line) {
                continue; // unit tests register throwaway names freely
            }
            if let Tok::Str(s) = &t.tok {
                if metric_shaped(s, &namespaces) {
                    let why =
                        format!("metric name {s:?} spelled as a literal: use its `names::` const");
                    diag.report(file, t.line, NAME, why);
                }
                continue;
            }
            let Some(kind) = INSTRUMENTS.iter().find(|k| is_ident(tokens, i, k)) else {
                continue;
            };
            if !is_punct(tokens, i + 1, '(')
                || i.checked_sub(1).is_some_and(|p| is_ident(tokens, p, "fn"))
            {
                continue; // not a call, or a declaration
            }
            match argument(tokens, i + 2) {
                Some(Tok::Str(s)) if !metric_shaped(s, &namespaces) => {
                    let why = format!(
                        "`{kind}({s:?})` names its metric by a literal: declare it in names.rs"
                    );
                    diag.report(file, t.line, NAME, why);
                }
                Some(Tok::Ident(konst)) => {
                    let Some((declared, _, _)) = table.get(konst) else {
                        continue; // a variable, not a table const
                    };
                    if declared != kind {
                        let why = format!(
                            "`{kind}(names::{konst})`, but the table declares it a {declared}"
                        );
                        diag.report(file, t.line, NAME, why);
                    }
                    if file.krate != "bench" {
                        unregistered.remove(konst.as_str());
                    }
                }
                _ => {}
            }
        }
    }

    for konst in unregistered {
        let (_, value, line) = &table[konst];
        let why = format!("{value:?} is declared but nothing outside mgpu-bench registers it");
        diag.report(names, *line, NAME, why);
    }
}

/// The `metrics!` table: `kind CONST = "name";` entries, by const.
fn table(tokens: &[Token]) -> BTreeMap<String, (String, String, u32)> {
    let entry = |w: &[Token]| match [&w[0].tok, &w[1].tok, &w[2].tok, &w[3].tok, &w[4].tok] {
        [Tok::Ident(kind), Tok::Ident(konst), Tok::Punct('='), Tok::Str(value), Tok::Punct(';')] => {
            Some((konst.clone(), (kind.clone(), value.clone(), w[3].line)))
        }
        _ => None,
    };
    tokens.windows(5).filter_map(entry).collect()
}

/// The first argument of a call whose `(` precedes `at`: a string literal,
/// or the last segment of a path (`names::NET_BYTES_READ` →
/// `NET_BYTES_READ`).
fn argument(tokens: &[Token], at: usize) -> Option<&Tok> {
    let mut last = None;
    for t in tokens.get(at..)? {
        match &t.tok {
            Tok::Str(_) if last.is_none() => return Some(&t.tok),
            Tok::Ident(_) => last = Some(&t.tok),
            Tok::Punct(':') => {}
            _ => break,
        }
    }
    last
}

/// Is this literal shaped like a metric name: a table namespace, a dot, and
/// name characters? (`serve.frames_rendered` yes, `fig3.csv` no.)
fn metric_shaped(s: &str, namespaces: &BTreeSet<&str>) -> bool {
    s.split_once('.').is_some_and(|(namespace, rest)| {
        namespaces.contains(namespace)
            && !rest.is_empty()
            && rest
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
    })
}
