//! Red/green fixture self-tests: every lint must fire on a minimal
//! workspace that violates its invariant (red) and stay quiet on the
//! corrected twin (green). Each test drives one lint directly so a
//! fixture minimal for lint A doesn't drown in findings from lint B.

use mgpu_lint::lints::{atomics, decode, locks, metrics, unsafety};
use mgpu_lint::{Diagnostics, Finding, Workspace};

type Check = fn(&Workspace, &mut Diagnostics);

fn run(check: Check, files: Vec<(&str, &str)>) -> Vec<Finding> {
    let ws = Workspace::from_files(files);
    let mut diag = Diagnostics::new();
    check(&ws, &mut diag);
    diag.findings
}

fn assert_fires(findings: &[Finding], lint: &str, needle: &str) {
    assert!(
        findings
            .iter()
            .any(|f| f.lint == lint && f.message.contains(needle)),
        "expected a {lint} finding containing {needle:?}, got: {findings:#?}"
    );
}

fn assert_quiet(findings: &[Finding]) {
    assert!(
        findings.is_empty(),
        "expected no findings, got: {findings:#?}"
    );
}

// --- metric-registry ----------------------------------------------------

/// A two-entry metric table, as `obs/src/names.rs` declares it.
const NAMES: (&str, &str) = (
    "crates/obs/src/names.rs",
    "metrics! {\n\
         /// Frames parsed.\n\
         counter NET_FRAMES_IN = \"net.frames_in\";\n\
         /// Open connections.\n\
         gauge NET_CONNECTIONS = \"net.connections\";\n\
     }\n",
);

/// A server that registers both table entries through their consts.
const SERVER: (&str, &str) = (
    "crates/net/src/server.rs",
    "fn meters(reg: &Registry) {\n\
         reg.counter(names::NET_FRAMES_IN).add(1);\n\
         reg.gauge(mgpu_obs::names::NET_CONNECTIONS).set(2);\n\
     }\n",
);

#[test]
fn metrics_green_conforming_names_are_quiet() {
    let findings = run(
        metrics::check,
        vec![
            NAMES,
            SERVER,
            // The dashboard reads through the consts too; a test module may
            // register a throwaway literal.
            (
                "crates/bench/src/bin/obs_top.rs",
                "fn draw(s: &Snapshot) { row(s.counter(names::NET_FRAMES_IN)); }\n\
                 #[cfg(test)]\n\
                 mod tests { fn t(r: &Registry) { r.counter(\"net.scratch\"); } }\n",
            ),
        ],
    );
    assert_quiet(&findings);
}

/// A literal registration outside the table: the name is not one of the
/// declared ones, and no convention check would see it.
#[test]
fn metrics_red_bad_name_fires() {
    let findings = run(
        metrics::check,
        vec![
            NAMES,
            SERVER,
            (
                "crates/net/src/heat.rs",
                "fn a(reg: &Registry) { reg.counter(\"net.FramesIn\"); reg.gauge(\"bogus\"); }\n",
            ),
        ],
    );
    assert_fires(
        &findings,
        metrics::NAME,
        "\"net.FramesIn\" spelled as a literal",
    );
    assert_fires(
        &findings,
        metrics::NAME,
        "`gauge(\"bogus\")` names its metric by a literal",
    );
    assert_eq!(findings.len(), 2, "{findings:#?}");
}

/// A registration under another kind than the table declares: one name,
/// one instrument type.
#[test]
fn metrics_red_two_instrument_types_fires() {
    let findings = run(
        metrics::check,
        vec![
            NAMES,
            SERVER,
            (
                "crates/net/src/heat.rs",
                "fn b(reg: &Registry) { reg.histogram(names::NET_FRAMES_IN); }\n",
            ),
        ],
    );
    assert_fires(
        &findings,
        metrics::NAME,
        "`histogram(names::NET_FRAMES_IN)`, but the table declares it a counter",
    );
    assert_eq!(findings.len(), 1, "{findings:#?}");
}

#[test]
fn metrics_red_dashboard_reads_unregistered_fires() {
    let findings = run(
        metrics::check,
        vec![
            NAMES,
            SERVER,
            (
                "crates/bench/src/bin/obs_top.rs",
                "fn draw(s: &Snapshot) { row(s.counters.get(\"net.frames_ni\")); }\n",
            ),
        ],
    );
    assert_fires(
        &findings,
        metrics::NAME,
        "\"net.frames_ni\" spelled as a literal",
    );
}

/// A name registered only by a literal is one the table never declared.
#[test]
fn metrics_red_unblessed_registration_fires() {
    let findings = run(
        metrics::check,
        vec![
            NAMES,
            SERVER,
            (
                "crates/serve/src/report.rs",
                "fn c(reg: &Registry) { reg.counter(\"net.bogus\"); }\n",
            ),
        ],
    );
    assert_fires(
        &findings,
        metrics::NAME,
        "\"net.bogus\" spelled as a literal",
    );
}

/// A declared name that only the dashboard reads, or only a test module
/// registers, is registered nowhere.
#[test]
fn metrics_red_declared_but_unregistered_fires() {
    let findings = run(
        metrics::check,
        vec![
            NAMES,
            (
                "crates/net/src/server.rs",
                "fn meters(reg: &Registry) { reg.counter(names::NET_FRAMES_IN).add(1); }\n\
                 #[cfg(test)]\n\
                 mod tests { fn t(r: &Registry) { r.gauge(names::NET_CONNECTIONS); } }\n",
            ),
            (
                "crates/bench/src/bin/obs_top.rs",
                "fn draw(s: &Snapshot) { row(s.gauge(names::NET_CONNECTIONS)); }\n",
            ),
        ],
    );
    assert_fires(
        &findings,
        metrics::NAME,
        "\"net.connections\" is declared but nothing outside mgpu-bench registers it",
    );
    assert_eq!(findings.len(), 1, "{findings:#?}");
}

#[test]
fn metrics_names_module_consts_resolve() {
    // A path to a table const resolves to its entry, however it is spelled;
    // a variable argument is no table const and is left alone.
    let findings = run(
        metrics::check,
        vec![
            NAMES,
            SERVER,
            (
                "crates/serve/src/report.rs",
                "use mgpu_obs::names::NET_CONNECTIONS;\n\
                 fn d(snap: &Snapshot, name: &str) {\n\
                     snap.gauge(NET_CONNECTIONS);\n\
                     snap.counter(name);\n\
                 }\n",
            ),
        ],
    );
    assert_quiet(&findings);
}

// --- panic-free-decode --------------------------------------------------

/// The deny a decoding file starts with, all seven panic lints named.
const PANIC_DENY: &str = "#![deny(clippy::indexing_slicing, clippy::unwrap_used, \
clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented)]\n";

/// `PANIC_DENY` without `lint` (clippy checks nothing of it then), followed
/// by `body`.
fn deny_without(lint: &str, body: &str) -> String {
    format!(
        "{}{body}",
        PANIC_DENY.replace(&format!("clippy::{lint}, "), "")
    )
}

#[test]
fn decode_green_typed_errors_are_quiet() {
    let wire = format!(
        "{PANIC_DENY}fn decode_ping(p: &[u8]) -> Result<u8, WireError> {{\n\
             p.first().copied().ok_or(WireError::Truncated)\n\
         }}\n"
    );
    let findings = run(decode::check, vec![("crates/net/src/wire.rs", &wire)]);
    assert_quiet(&findings);
}

/// A deny that leaves `unwrap_used` out lets this `unwrap` through clippy.
#[test]
fn decode_red_unwrap_fires() {
    let wire = deny_without(
        "unwrap_used",
        "fn decode_ping(p: &[u8]) -> u8 { p.first().copied().unwrap() }\n",
    );
    let findings = run(decode::check, vec![("crates/net/src/wire.rs", &wire)]);
    assert_fires(
        &findings,
        decode::NAME,
        "does not deny `clippy::unwrap_used`",
    );
    assert_eq!(findings.len(), 1, "{findings:#?}");
}

/// A deny that leaves `indexing_slicing` out lets `p[0]` through clippy.
#[test]
fn decode_red_direct_indexing_fires() {
    let wire = deny_without(
        "indexing_slicing",
        "fn decode_ping(p: &[u8]) -> u8 { p[0] }\n",
    );
    let findings = run(decode::check, vec![("crates/net/src/wire.rs", &wire)]);
    assert_fires(
        &findings,
        decode::NAME,
        "does not deny `clippy::indexing_slicing`",
    );
}

#[test]
fn decode_non_decode_fns_are_out_of_scope() {
    // Encoders and inherent methods of other types need no deny of their
    // own: they decode nothing.
    let findings = run(
        decode::check,
        vec![(
            "crates/net/src/wire.rs",
            "fn encode_ping(out: &mut [u8]) { out[0] = 1; }\n\
             impl Ping {\n\
                 fn put(&self, w: &mut Writer) { w.u8(self.bytes[0]); }\n\
             }\n",
        )],
    );
    assert_quiet(&findings);
}

#[test]
fn decode_red_panicking_wire_get_fires_in_any_net_file() {
    // `heat.rs`-style: the impl lives outside wire.rs, and the trait's own
    // declaration is not an impl of it.
    let findings = run(
        decode::check,
        vec![(
            "crates/net/src/heat.rs",
            "pub trait Wire: Sized {\n\
                 fn put(&self, w: &mut Writer);\n\
                 fn get(r: &mut Reader) -> Result<[u8; 4], WireError>;\n\
             }\n\
             impl Wire for Snapshot {\n\
                 fn put(&self, w: &mut Writer) {}\n\
                 fn get(r: &mut Reader) -> Result<Self, WireError> {\n\
                     Ok(Snapshot { n: r.u64().unwrap() })\n\
                 }\n\
             }\n",
        )],
    );
    assert_fires(
        &findings,
        decode::NAME,
        "`impl Wire` decodes received bytes",
    );
    assert_eq!(findings.len(), 1, "only the impl: {findings:?}");
}

#[test]
fn decode_red_reader_methods_and_macro_generated_gets_fire() {
    // The codec macro is defined in a denied file; its invocation in an
    // undenied one expands a `Wire::get` there.
    let wire = format!(
        "{PANIC_DENY}macro_rules! wire_struct {{\n\
             ($ty:path {{ $($field:ident),+ }}) => {{\n\
                 impl $crate::wire::Wire for $ty {{\n\
                     fn get(r: &mut Reader) -> Result<Self, WireError> {{\n\
                         Ok(Self {{ $($field: Wire::get(r)?),+ }})\n\
                     }}\n\
                 }}\n\
             }};\n\
         }}\n\
         pub(crate) use wire_struct;\n"
    );
    let findings = run(
        decode::check,
        vec![
            ("crates/net/src/wire.rs", &wire),
            (
                "crates/net/src/heat.rs",
                "impl<'a> Reader<'a> {\n\
                     fn take(&mut self, n: usize) -> &'a [u8] { &self.buf[self.pos..self.pos + n] }\n\
                 }\n\
                 wire_struct!(Snapshot { n });\n",
            ),
        ],
    );
    assert_fires(&findings, decode::NAME, "`impl Reader` decodes");
    assert_fires(&findings, decode::NAME, "`wire_struct!` decodes");
    assert_eq!(findings.len(), 2, "{findings:#?}");
}

/// Clippy's `unwrap_used`/`expect_used` skip macro-expanded code and its
/// `panic`-family lints see only the codec call, so the deny alone would
/// let these through.
#[test]
fn decode_red_panics_inside_a_codec_body_fire_under_the_deny() {
    let wire = format!(
        "{PANIC_DENY}macro_rules! wire_struct {{\n\
             ($ty:path {{ $($field:ident),+ }}) => {{\n\
                 impl $crate::wire::Wire for $ty {{\n\
                     fn get(r: &mut Reader) -> Result<Self, WireError> {{\n\
                         Ok(Self {{ $($field: Wire::get(r).expect(\"short\")),+ }})\n\
                     }}\n\
                 }}\n\
             }};\n\
         }}\n\
         macro_rules! wire_enum {{\n\
             ($ty:ident) => {{\n\
                 impl Wire for $ty {{\n\
                     fn get(r: &mut Reader) -> Result<Self, WireError> {{ unreachable!() }}\n\
                 }}\n\
             }};\n\
         }}\n\
         macro_rules! bytes {{ ($n:expr) => {{ [0u8; $n].first().unwrap() }}; }}\n\
         wire_struct!(Snapshot {{ n }});\n"
    );
    let findings = run(decode::check, vec![("crates/net/src/wire.rs", &wire)]);
    assert_fires(
        &findings,
        decode::NAME,
        "`expect` in the body of codec `wire_struct!`",
    );
    assert_fires(
        &findings,
        decode::NAME,
        "`unreachable` in the body of codec `wire_enum!`",
    );
    // `bytes!` holds no decode item: clippy's `unwrap_used` misses it too,
    // but it is no codec, as under the old body checks.
    assert_eq!(findings.len(), 2, "{findings:#?}");
}

/// An inner deny inside a nested module covers that module only.
#[test]
fn decode_red_deny_in_a_nested_module_does_not_cover_the_file() {
    let heat = format!(
        "mod inner {{\n{PANIC_DENY}}}\n\
         impl Wire for Snapshot {{\n\
             fn get(r: &mut Reader) -> Result<Self, WireError> {{ Ok(Snapshot {{ n: r.u8()? }}) }}\n\
         }}\n"
    );
    let findings = run(decode::check, vec![("crates/net/src/heat.rs", &heat)]);
    assert_fires(&findings, decode::NAME, "`impl Wire` decodes");
}

#[test]
fn decode_red_frame_reader_methods_fire() {
    let findings = run(
        decode::check,
        vec![(
            "crates/net/src/server.rs",
            "impl FrameReader {\n\
                 fn read(&mut self, r: &mut impl Read) -> usize { r.read(&mut self.prelude[self.have..]).unwrap() }\n\
             }\n\
             fn read_frame(r: &mut impl Read) -> Vec<u8> { FrameReader::new().read(r) }\n",
        )],
    );
    assert_fires(&findings, decode::NAME, "`impl FrameReader` decodes");
    assert_fires(&findings, decode::NAME, "`fn read_frame` decodes");
}

#[test]
fn decode_green_frame_reader_with_checked_slices_is_quiet() {
    // A `Read` adapter *for* some other type is not the frame parser, and
    // a test module is exempt.
    let wire = format!(
        "{PANIC_DENY}impl FrameReader {{\n\
             fn read(&mut self, r: &mut impl Read) -> Result<usize, WireError> {{\n\
                 Ok(r.read(self.prelude.get_mut(self.have..).unwrap_or_default())?)\n\
             }}\n\
         }}\n"
    );
    let findings = run(
        decode::check,
        vec![
            ("crates/net/src/wire.rs", &wire),
            (
                "crates/net/src/server.rs",
                "impl Read for CountedRead<'_> {\n\
                     fn read(&mut self, buf: &mut [u8]) -> usize { self.stream.read(&mut buf[..]).unwrap() }\n\
                 }\n\
                 #[cfg(test)]\n\
                 mod tests {\n\
                     fn decode_bytes(p: &[u8]) -> u8 { p[0] }\n\
                 }\n",
            ),
        ],
    );
    assert_quiet(&findings);
}

#[test]
fn decode_other_crates_are_out_of_scope() {
    let findings = run(
        decode::check,
        vec![(
            "crates/serve/src/queue.rs",
            "fn decode_job(p: &[u8]) -> u8 { p[0] }\n",
        )],
    );
    assert_quiet(&findings);
}

// --- lock-order ---------------------------------------------------------

#[test]
fn locks_green_consistent_order_is_quiet() {
    let findings = run(
        locks::check,
        vec![(
            "crates/serve/src/queue.rs",
            "fn a(&self) { let g = self.jobs.lock().unwrap(); let h = self.stats.lock().unwrap(); }\n\
             fn b(&self) { let g = self.jobs.lock().unwrap(); let h = self.stats.lock().unwrap(); }\n",
        )],
    );
    assert_quiet(&findings);
}

#[test]
fn locks_red_inverted_order_fires() {
    let findings = run(
        locks::check,
        vec![(
            "crates/serve/src/queue.rs",
            "fn a(&self) { let g = self.jobs.lock().unwrap(); let h = self.stats.lock().unwrap(); }\n\
             fn b(&self) { let g = self.stats.lock().unwrap(); let h = self.jobs.lock().unwrap(); }\n",
        )],
    );
    assert_fires(&findings, locks::NAME, "cyclic lock order");
}

#[test]
fn locks_dropped_guard_breaks_the_edge() {
    // `drop(g)` releases jobs before stats is taken: no held-while edge,
    // so the inverted function cannot complete a cycle.
    let findings = run(
        locks::check,
        vec![(
            "crates/serve/src/queue.rs",
            "fn a(&self) { let g = self.jobs.lock().unwrap(); drop(g); let h = self.stats.lock().unwrap(); }\n\
             fn b(&self) { let g = self.stats.lock().unwrap(); let h = self.jobs.lock().unwrap(); }\n",
        )],
    );
    assert_quiet(&findings);
}

// --- atomic-ordering ----------------------------------------------------

#[test]
fn atomics_green_justified_seqcst_is_quiet() {
    let findings = run(
        atomics::check,
        vec![(
            "crates/net/src/server.rs",
            "fn stop(&self) {\n\
                 // SeqCst: the shutdown flag orders against the drain flag.\n\
                 self.shutdown.store(true, Ordering::SeqCst);\n\
             }\n",
        )],
    );
    assert_quiet(&findings);
}

#[test]
fn atomics_red_bare_seqcst_fires() {
    let findings = run(
        atomics::check,
        vec![(
            "crates/net/src/server.rs",
            "fn stop(&self) { self.shutdown.store(true, Ordering::SeqCst); }\n",
        )],
    );
    assert_fires(&findings, atomics::NAME, "justification comment");
}

#[test]
fn atomics_relaxed_needs_no_comment() {
    let findings = run(
        atomics::check,
        vec![(
            "crates/obs/src/metrics.rs",
            "fn add(&self, n: u64) { self.value.fetch_add(n, Ordering::Relaxed); }\n",
        )],
    );
    assert_quiet(&findings);
}

// --- unsafe-hygiene -----------------------------------------------------

/// The deny at the root of a crate that has `unsafe`.
const SAFETY_DENY: &str =
    "#![deny(clippy::undocumented_unsafe_blocks, clippy::unnecessary_safety_comment)]\n";

/// A crate with one documented `unsafe` block, its root `lib`.
fn unsafe_crate(lib: &str) -> Vec<(&'static str, String)> {
    vec![
        (
            "crates/gpu/src/texture.rs",
            "fn fetch(&self, i: usize) -> f32 {\n\
                 // SAFETY: callers clamp i to texels.len() - 1.\n\
                 unsafe { *self.texels.get_unchecked(i) }\n\
             }\n"
            .to_string(),
        ),
        ("crates/gpu/src/lib.rs", lib.to_string()),
    ]
}

fn run_owned(check: Check, files: &[(&str, String)]) -> Vec<Finding> {
    run(
        check,
        files
            .iter()
            .map(|(path, text)| (*path, text.as_str()))
            .collect(),
    )
}

#[test]
fn unsafety_green_documented_and_fenced_is_quiet() {
    let mut files = unsafe_crate(&format!("{SAFETY_DENY}pub mod texture;\n"));
    files.extend([
        (
            "crates/obs/src/lib.rs",
            "#![forbid(unsafe_code)]\npub mod metrics;\n".to_string(),
        ),
        (
            "crates/bench/src/bin/paper/main.rs",
            "#![forbid(unsafe_code)]\nfn main() {}\n".to_string(),
        ),
        // Not a crate root: a module needs no attribute of its own.
        (
            "crates/bench/src/bin/paper/report.rs",
            "fn table() {}\n".to_string(),
        ),
    ]);
    assert_quiet(&run_owned(unsafety::check, &files));
}

/// A root that denies only one of the two lints lets an `unsafe` without
/// its `// SAFETY:` comment through clippy.
#[test]
fn unsafety_red_undocumented_unsafe_fires() {
    let files = unsafe_crate(
        "#![deny(unsafe_code, clippy::unnecessary_safety_comment)]\npub mod texture;\n",
    );
    let findings = run_owned(unsafety::check, &files);
    assert_fires(
        &findings,
        unsafety::NAME,
        "without a `// SAFETY:` comment would pass",
    );
    assert_eq!(findings.len(), 1, "{findings:#?}");
}

#[test]
fn unsafety_red_missing_forbid_fires() {
    let findings = run(
        unsafety::check,
        vec![
            ("crates/obs/src/lib.rs", "pub mod metrics;\n"),
            ("crates/bench/src/bin/obs_top.rs", "fn main() {}\n"),
            (
                "src/lib.rs",
                "#![deny(clippy::undocumented_unsafe_blocks)]\n",
            ),
        ],
    );
    assert_fires(&findings, unsafety::NAME, "forbid(unsafe_code)");
    assert_eq!(
        findings.len(),
        3,
        "every root without unsafe: {findings:#?}"
    );
}

// --- suppression --------------------------------------------------------

#[test]
fn allow_comment_suppresses_and_is_counted() {
    let ws = Workspace::from_files(vec![(
        "crates/net/src/server.rs",
        "fn stop(&self) {\n\
             // lint: allow(atomic-ordering) legacy site, audited separately\n\
             self.shutdown.store(true, Ordering::SeqCst);\n\
         }\n",
    )]);
    let mut diag = Diagnostics::new();
    atomics::check(&ws, &mut diag);
    assert!(diag.findings.is_empty(), "allow must suppress the finding");
    assert_eq!(diag.suppressed, 1, "suppressions stay visible in the count");
}
