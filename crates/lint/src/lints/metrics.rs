//! `metric-registry` — the metric namespace.
//!
//! Every instrument the stack registers (`counter(..)`, `gauge(..)`,
//! `histogram(..)`) shares one flat name space that the `obs_top`
//! dashboard, STATS consumers and the `perf/` benchmark all read by string.
//! This lint keeps that namespace honest:
//!
//! 1. names follow the `crate.` prefix + lowercase-dot convention
//!    (`serve.frames_rendered`, `pool.rebalance.ticks`);
//! 2. one name, one instrument type — `counter("x")` in one file and
//!    `histogram("x")` in another is a data bug, not a style issue;
//! 3. every metric-shaped name the `mgpu-bench` crate (the dashboard
//!    side) reads exists at a registration site in the serving crates;
//! 4. the full registered set matches the blessed `ci/metrics.txt`
//!    snapshot — additions and removals land only together with a
//!    deliberate `mgpu-lint --update`.
//!
//! Name arguments resolve through the shared `mgpu_obs::names` consts as
//! well as string literals, so centralized registration sites stay
//! visible to the lint.

use std::collections::BTreeMap;

use crate::diag::Diagnostics;
use crate::lexer::Tok;
use crate::lints::is_ident;
use crate::source::{SourceFile, Workspace};

pub const NAME: &str = "metric-registry";

/// First path segment a metric name may use. `pool.*` lives in
/// `mgpu-net` but names the NodePool subsystem, `core.*` is
/// `mgpu-mapreduce`'s; the rest map to crates.
pub const NAMESPACES: &[&str] = &["serve", "net", "volren", "pool", "gpu", "core", "obs"];

const INSTRUMENTS: &[&str] = &["counter", "gauge", "histogram"];

/// One `counter("…")`-style site with its resolved name.
#[derive(Debug, Clone)]
struct Site {
    instrument: &'static str,
    name: String,
    line: u32,
}

pub fn check(ws: &Workspace, diag: &mut Diagnostics) {
    let consts = named_consts(ws);

    // Convention check on the names module itself, so a bad const value
    // is flagged where it is written, not where it is used.
    if let Some(names_file) = ws.file_ending("obs/src/names.rs") {
        for (value, line) in consts.values() {
            if let Some(why) = convention_violation(value) {
                diag.report(
                    names_file,
                    *line,
                    NAME,
                    format!("metric name {value:?} {why}"),
                );
            }
        }
    }

    let mut registered: BTreeMap<String, (&'static str, String, u32)> = BTreeMap::new();
    let mut reads: Vec<(usize, Site)> = Vec::new();

    for (idx, file) in ws.files.iter().enumerate() {
        let dashboard_side = file.krate == "bench";
        for site in call_sites(file, &consts) {
            if let Some(why) = convention_violation(&site.name) {
                diag.report(
                    file,
                    site.line,
                    NAME,
                    format!("metric name {:?} {why}", site.name),
                );
            }
            if dashboard_side {
                reads.push((idx, site));
                continue;
            }
            match registered.get(&site.name) {
                Some((instrument, first_file, first_line)) if *instrument != site.instrument => {
                    diag.report(
                        file,
                        site.line,
                        NAME,
                        format!(
                            "{:?} registered as {} here but as {} at {}:{} — one name, \
                             one instrument type",
                            site.name, site.instrument, instrument, first_file, first_line
                        ),
                    );
                }
                Some(_) => {}
                None => {
                    registered.insert(
                        site.name.clone(),
                        (site.instrument, file.rel.display().to_string(), site.line),
                    );
                }
            }
        }
        // The dashboard also names metrics in plain string literals
        // (format strings aside, any dotted name in a known namespace).
        if dashboard_side {
            for t in &file.tokens {
                if let Tok::Str(s) = &t.tok {
                    if looks_like_metric(s) {
                        reads.push((
                            idx,
                            Site {
                                instrument: "counter", // irrelevant for reads
                                name: s.clone(),
                                line: t.line,
                            },
                        ));
                    }
                }
            }
        }
    }

    for (idx, read) in &reads {
        if !registered.contains_key(&read.name) {
            diag.report(
                &ws.files[*idx],
                read.line,
                NAME,
                format!(
                    "dashboard reads metric {:?} but nothing registers it",
                    read.name
                ),
            );
        }
    }

    // Blessed-set diff.
    let current = blessed_text(&registered);
    match &ws.blessed_metrics {
        None => {
            if !registered.is_empty() {
                diag.report_global(
                    "ci/metrics.txt".into(),
                    1,
                    NAME,
                    format!(
                        "ci/metrics.txt is missing; bless the {} registered metrics with \
                         `mgpu-lint --update`",
                        registered.len()
                    ),
                );
            }
        }
        Some(blessed) if blessed.trim() != current.trim() => {
            for line in diff_lines(blessed, &current) {
                diag.report_global("ci/metrics.txt".into(), 1, NAME, line);
            }
        }
        Some(_) => {}
    }
}

/// The canonical `ci/metrics.txt` body for the current tree: one
/// `instrument name` pair per line, sorted by name.
pub fn current_blessed(ws: &Workspace) -> String {
    let consts = named_consts(ws);
    let mut registered: BTreeMap<String, (&'static str, String, u32)> = BTreeMap::new();
    for file in &ws.files {
        if file.krate == "bench" {
            continue;
        }
        for site in call_sites(file, &consts) {
            registered
                .entry(site.name.clone())
                .or_insert((site.instrument, String::new(), 0));
        }
    }
    blessed_text(&registered)
}

fn blessed_text(registered: &BTreeMap<String, (&'static str, String, u32)>) -> String {
    let mut out = String::from(
        "# Blessed metric namespace: `instrument name`, sorted. Regenerate with\n\
         # `cargo run -p mgpu-lint -- --update` when metrics are added or removed.\n",
    );
    for (name, (instrument, _, _)) in registered {
        out.push_str(&format!("{instrument} {name}\n"));
    }
    out
}

fn diff_lines(blessed: &str, current: &str) -> Vec<String> {
    let b: Vec<&str> = blessed.lines().filter(|l| !l.starts_with('#')).collect();
    let c: Vec<&str> = current.lines().filter(|l| !l.starts_with('#')).collect();
    let mut out = Vec::new();
    for line in &c {
        if !b.contains(line) && !line.trim().is_empty() {
            out.push(format!(
                "metric `{line}` is registered but not blessed in ci/metrics.txt — \
                 run `mgpu-lint --update`"
            ));
        }
    }
    for line in &b {
        if !c.contains(line) && !line.trim().is_empty() {
            out.push(format!(
                "blessed metric `{line}` is no longer registered anywhere — \
                 run `mgpu-lint --update`"
            ));
        }
    }
    if out.is_empty() {
        out.push("ci/metrics.txt is stale (ordering/formatting) — run `mgpu-lint --update`".into());
    }
    out
}

/// `pub const IDENT: &str = "value";` declarations in `obs/src/names.rs`.
fn named_consts(ws: &Workspace) -> BTreeMap<String, (String, u32)> {
    let mut map = BTreeMap::new();
    let Some(file) = ws.file_ending("obs/src/names.rs") else {
        return map;
    };
    let tokens = &file.tokens;
    let mut i = 0;
    while i + 2 < tokens.len() {
        if is_ident(tokens, i, "const") {
            if let Some(Tok::Ident(ident)) = tokens.get(i + 1).map(|t| &t.tok) {
                // Find the string value before the `;`.
                let mut j = i + 2;
                while j < tokens.len() && !matches!(tokens[j].tok, Tok::Punct(';')) {
                    if let Tok::Str(value) = &tokens[j].tok {
                        map.insert(ident.clone(), (value.clone(), tokens[j].line));
                        break;
                    }
                    j += 1;
                }
                i = j;
            }
        }
        i += 1;
    }
    map
}

/// All `counter(..)`/`gauge(..)`/`histogram(..)` calls in non-test code
/// whose name argument is a string literal or a resolvable
/// `names::CONST` path. Declarations (`fn counter(...)`) are skipped.
fn call_sites(file: &SourceFile, consts: &BTreeMap<String, (String, u32)>) -> Vec<Site> {
    let tokens = &file.tokens;
    let mut sites = Vec::new();
    for i in 0..tokens.len() {
        let Some(instrument) = INSTRUMENTS.iter().find(|m| is_ident(tokens, i, m)).copied() else {
            continue;
        };
        if !matches!(tokens.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('('))) {
            continue;
        }
        if i > 0 && is_ident(tokens, i - 1, "fn") {
            continue; // a declaration, not a call
        }
        if file.in_test_region(tokens[i].line) {
            continue; // unit tests register throwaway names freely
        }
        // Resolve the first argument: a literal, or a path ending in a
        // known const ident.
        let mut j = i + 2;
        let mut last_ident: Option<&str> = None;
        let name = loop {
            match tokens.get(j).map(|t| &t.tok) {
                Some(Tok::Str(s)) => break Some(s.clone()),
                Some(Tok::Ident(s)) => {
                    last_ident = Some(s);
                    j += 1;
                }
                Some(Tok::Punct(':')) => j += 1,
                _ => {
                    break last_ident
                        .and_then(|ident| consts.get(ident))
                        .map(|(value, _)| value.clone())
                }
            }
        };
        if let Some(name) = name {
            sites.push(Site {
                instrument: match instrument {
                    "counter" => "counter",
                    "gauge" => "gauge",
                    _ => "histogram",
                },
                name,
                line: tokens[i].line,
            });
        }
    }
    sites
}

/// `None` if `name` conforms; otherwise why it does not.
fn convention_violation(name: &str) -> Option<&'static str> {
    let mut segments = name.split('.');
    let first = segments.next().unwrap_or("");
    if !NAMESPACES.contains(&first) {
        return Some(
            "must start with a known namespace segment \
             (serve/net/volren/pool/gpu/core/obs) followed by a dot",
        );
    }
    let rest: Vec<&str> = segments.collect();
    if rest.is_empty() {
        return Some("needs at least one dot-separated segment after the namespace");
    }
    for seg in rest {
        let mut chars = seg.chars();
        let head_ok = chars.next().is_some_and(|c| c.is_ascii_lowercase());
        if !head_ok
            || !seg
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        {
            return Some("segments must be lowercase snake_case (`[a-z][a-z0-9_]*`)");
        }
    }
    None
}

/// Is this string literal shaped like a metric name in a known
/// namespace? (`serve.frames_rendered` yes, `fig3.csv` no.)
fn looks_like_metric(s: &str) -> bool {
    let Some((first, rest)) = s.split_once('.') else {
        return false;
    };
    NAMESPACES.contains(&first)
        && !rest.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '.')
}
