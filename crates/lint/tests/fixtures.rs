//! Red/green fixture self-tests: every lint must fire on a minimal
//! workspace that violates its invariant (red) and stay quiet on the
//! corrected twin (green). Each test drives one lint directly so a
//! fixture minimal for lint A doesn't drown in findings from lint B.

use mgpu_lint::lints::{atomics, decode, locks, metrics, unsafety, wire};
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

// --- wire-conformance ---------------------------------------------------

const WIRE_OK: &str = r#"
pub mod opcode {
    pub const PING: u8 = 0x01;
    pub const PONG: u8 = 0x81;
}
"#;

const SERVER_OK: &str = r#"
fn dispatch(op: u8, conn: &mut Conn) {
    match op {
        opcode::PING => conn.send(frame_bytes(opcode::PONG, &[])),
        _ => {}
    }
}
"#;

const CLIENT_OK: &str = r#"
fn roundtrip() {
    send(opcode::PING);
    // lint: wire-ignore(PONG) replies are matched by request id, not opcode
}
"#;

const README_OK: &str = "wire table: `PING` (0x01) is answered by `PONG` (0x81).";

#[test]
fn wire_green_conforming_protocol_is_quiet() {
    let findings = run(
        wire::check,
        vec![
            ("crates/net/src/wire.rs", WIRE_OK),
            ("crates/net/src/server.rs", SERVER_OK),
            ("crates/net/src/client.rs", CLIENT_OK),
            ("README.md", README_OK),
        ],
    );
    assert_quiet(&findings);
}

#[test]
fn wire_red_duplicate_value_fires() {
    let wire_dup = r#"
pub mod opcode {
    pub const PING: u8 = 0x01;
    pub const PONG: u8 = 0x01;
}
"#;
    let findings = run(
        wire::check,
        vec![
            ("crates/net/src/wire.rs", wire_dup),
            ("crates/net/src/server.rs", SERVER_OK),
            ("crates/net/src/client.rs", CLIENT_OK),
            ("README.md", README_OK),
        ],
    );
    assert_fires(&findings, wire::NAME, "reuses value");
}

#[test]
fn wire_red_request_valued_reply_fires() {
    // The server *sends* REPLY, but its value sits in request space.
    let wire_bad = r#"
pub mod opcode {
    pub const PING: u8 = 0x01;
    pub const PONG: u8 = 0x02;
}
"#;
    let findings = run(
        wire::check,
        vec![
            ("crates/net/src/wire.rs", wire_bad),
            ("crates/net/src/server.rs", SERVER_OK),
            ("crates/net/src/client.rs", CLIENT_OK),
            ("README.md", README_OK),
        ],
    );
    assert_fires(&findings, wire::NAME, "request value");
}

#[test]
fn wire_red_undocumented_opcode_fires() {
    let findings = run(
        wire::check,
        vec![
            ("crates/net/src/wire.rs", WIRE_OK),
            ("crates/net/src/server.rs", SERVER_OK),
            ("crates/net/src/client.rs", CLIENT_OK),
            (
                "README.md",
                "wire table: only `PING` (0x01) is described here.",
            ),
        ],
    );
    assert_fires(&findings, wire::NAME, "not documented in the README");
}

#[test]
fn wire_red_unhandled_in_client_fires() {
    let client_partial = "fn roundtrip() { send(opcode::PING); }\n";
    let findings = run(
        wire::check,
        vec![
            ("crates/net/src/wire.rs", WIRE_OK),
            ("crates/net/src/server.rs", SERVER_OK),
            ("crates/net/src/client.rs", client_partial),
            ("README.md", README_OK),
        ],
    );
    assert_fires(&findings, wire::NAME, "never handled in client.rs");
}

// --- metric-registry ----------------------------------------------------

/// The exact blessed header `blessed_text` emits, so green fixtures can
/// check in a matching `ci/metrics.txt`.
const BLESSED_HEADER: &str =
    "# Blessed metric namespace: `instrument name`, sorted. Regenerate with\n\
# `cargo run -p mgpu-lint -- --update` when metrics are added or removed.\n";

#[test]
fn metrics_green_conforming_names_are_quiet() {
    let blessed = format!("{BLESSED_HEADER}counter net.frames_in\n");
    let findings = run(
        metrics::check,
        vec![
            (
                "crates/net/src/server.rs",
                "fn wire_in(reg: &Registry) { reg.counter(\"net.frames_in\").add(1); }\n",
            ),
            ("ci/metrics.txt", &blessed),
        ],
    );
    assert_quiet(&findings);
}

#[test]
fn metrics_red_bad_name_fires() {
    let blessed = format!("{BLESSED_HEADER}counter net.FramesIn\n");
    let findings = run(
        metrics::check,
        vec![
            (
                "crates/net/src/server.rs",
                "fn wire_in(reg: &Registry) { reg.counter(\"net.FramesIn\").add(1); }\n",
            ),
            ("ci/metrics.txt", &blessed),
        ],
    );
    assert_fires(&findings, metrics::NAME, "snake_case");
}

#[test]
fn metrics_red_two_instrument_types_fires() {
    let blessed = format!("{BLESSED_HEADER}counter net.frames_in\n");
    let findings = run(
        metrics::check,
        vec![
            (
                "crates/net/src/server.rs",
                "fn a(reg: &Registry) { reg.counter(\"net.frames_in\"); }\n",
            ),
            (
                "crates/net/src/heat.rs",
                "fn b(reg: &Registry) { reg.histogram(\"net.frames_in\"); }\n",
            ),
            ("ci/metrics.txt", &blessed),
        ],
    );
    assert_fires(&findings, metrics::NAME, "one name, one instrument type");
}

#[test]
fn metrics_red_dashboard_reads_unregistered_fires() {
    let blessed = format!("{BLESSED_HEADER}counter net.frames_in\n");
    let findings = run(
        metrics::check,
        vec![
            (
                "crates/net/src/server.rs",
                "fn a(reg: &Registry) { reg.counter(\"net.frames_in\"); }\n",
            ),
            (
                "crates/bench/src/bin/obs_top.rs",
                "fn draw(s: &Snapshot) { row(s.counters.get(\"net.frames_ni\")); }\n",
            ),
            ("ci/metrics.txt", &blessed),
        ],
    );
    assert_fires(&findings, metrics::NAME, "nothing registers it");
}

#[test]
fn metrics_red_unblessed_registration_fires() {
    let findings = run(
        metrics::check,
        vec![
            (
                "crates/net/src/server.rs",
                "fn a(reg: &Registry) { reg.counter(\"net.frames_in\"); }\n",
            ),
            ("ci/metrics.txt", BLESSED_HEADER),
        ],
    );
    assert_fires(&findings, metrics::NAME, "registered but not blessed");
}

#[test]
fn metrics_names_module_consts_resolve() {
    // A registration through `names::CONST` is still visible.
    let blessed = format!("{BLESSED_HEADER}counter net.frames_in\n");
    let findings = run(
        metrics::check,
        vec![
            (
                "crates/obs/src/names.rs",
                "pub const NET_FRAMES_IN: &str = \"net.frames_in\";\n",
            ),
            (
                "crates/net/src/server.rs",
                "fn a(reg: &Registry) { reg.counter(names::NET_FRAMES_IN); }\n",
            ),
            ("ci/metrics.txt", &blessed),
        ],
    );
    assert_quiet(&findings);
}

// --- panic-free-decode --------------------------------------------------

#[test]
fn decode_green_typed_errors_are_quiet() {
    let findings = run(
        decode::check,
        vec![(
            "crates/net/src/wire.rs",
            "fn decode_ping(p: &[u8]) -> Result<u8, WireError> {\n\
                 p.first().copied().ok_or(WireError::Truncated)\n\
             }\n",
        )],
    );
    assert_quiet(&findings);
}

#[test]
fn decode_red_unwrap_fires() {
    let findings = run(
        decode::check,
        vec![(
            "crates/net/src/wire.rs",
            "fn decode_ping(p: &[u8]) -> u8 { p.first().copied().unwrap() }\n",
        )],
    );
    assert_fires(&findings, decode::NAME, "`unwrap`");
}

#[test]
fn decode_red_direct_indexing_fires() {
    let findings = run(
        decode::check,
        vec![(
            "crates/net/src/wire.rs",
            "fn decode_ping(p: &[u8]) -> u8 { p[0] }\n",
        )],
    );
    assert_fires(&findings, decode::NAME, "direct slice indexing");
}

#[test]
fn decode_non_decode_fns_are_out_of_scope() {
    // `encode_*` and `Wire::put` may index freely — lengths are under our
    // control there.
    let findings = run(
        decode::check,
        vec![(
            "crates/net/src/wire.rs",
            "fn encode_ping(out: &mut [u8]) { out[0] = 1; }\n\
             impl Wire for Ping {\n\
                 fn put(&self, w: &mut Writer) { w.u8(self.bytes[0]); }\n\
                 fn get(r: &mut Reader) -> Result<Self, WireError> { Ok(Ping { bytes: r.array()? }) }\n\
             }\n",
        )],
    );
    assert_quiet(&findings);
}

#[test]
fn decode_red_panicking_wire_get_fires_in_any_net_file() {
    // `heat.rs`-style: the impl lives outside wire.rs, and the trait's own
    // bodyless `fn get(..);` declaration must not hide what follows it.
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
        "`unwrap` in decode path `Wire::get`",
    );
    assert_eq!(findings.len(), 1, "only the get: {findings:?}");
}

#[test]
fn decode_red_reader_methods_and_macro_generated_gets_fire() {
    let findings = run(
        decode::check,
        vec![(
            "crates/net/src/wire.rs",
            "impl<'a> Reader<'a> {\n\
                 fn take(&mut self, n: usize) -> &'a [u8] { &self.buf[self.pos..self.pos + n] }\n\
             }\n\
             macro_rules! wire_struct {\n\
                 ($ty:path { $($field:ident),+ }) => {\n\
                     impl Wire for $ty {\n\
                         fn get(r: &mut Reader) -> Result<Self, WireError> {\n\
                             Ok(Self { $($field: Wire::get(r).expect(\"short\")),+ })\n\
                         }\n\
                     }\n\
                 };\n\
             }\n",
        )],
    );
    assert_fires(
        &findings,
        decode::NAME,
        "direct slice indexing in decode path `Reader::take`",
    );
    assert_fires(
        &findings,
        decode::NAME,
        "`expect` in decode path `Wire::get`",
    );
}

#[test]
fn decode_red_frame_reader_methods_fire() {
    let findings = run(
        decode::check,
        vec![(
            "crates/net/src/wire.rs",
            "impl FrameReader {\n\
                 fn read(&mut self, r: &mut impl Read) -> usize { r.read(&mut self.prelude[self.have..]).unwrap() }\n\
             }\n",
        )],
    );
    assert_fires(
        &findings,
        decode::NAME,
        "direct slice indexing in decode path `FrameReader::read`",
    );
    assert_fires(
        &findings,
        decode::NAME,
        "`unwrap` in decode path `FrameReader::read`",
    );
}

#[test]
fn decode_green_frame_reader_with_checked_slices_is_quiet() {
    // A `Read` adapter *for* some other type is not the frame parser.
    let findings = run(
        decode::check,
        vec![(
            "crates/net/src/wire.rs",
            "impl FrameReader {\n\
                 fn read(&mut self, r: &mut impl Read) -> Result<usize, WireError> {\n\
                     Ok(r.read(self.prelude.get_mut(self.have..).unwrap_or_default())?)\n\
                 }\n\
             }\n\
             impl Read for CountedRead<'_> {\n\
                 fn read(&mut self, buf: &mut [u8]) -> usize { self.stream.read(&mut buf[..]).unwrap() }\n\
             }\n",
        )],
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

#[test]
fn unsafety_green_documented_and_fenced_is_quiet() {
    let findings = run(
        unsafety::check,
        vec![
            (
                "crates/gpu/src/texture.rs",
                "fn fetch(&self, i: usize) -> f32 {\n\
                     // SAFETY: callers clamp i to texels.len() - 1.\n\
                     unsafe { *self.texels.get_unchecked(i) }\n\
                 }\n",
            ),
            ("crates/gpu/src/lib.rs", "pub mod texture;\n"),
            (
                "crates/obs/src/lib.rs",
                "#![forbid(unsafe_code)]\npub mod metrics;\n",
            ),
        ],
    );
    assert_quiet(&findings);
}

#[test]
fn unsafety_red_undocumented_unsafe_fires() {
    let findings = run(
        unsafety::check,
        vec![(
            "crates/gpu/src/texture.rs",
            "fn fetch(&self, i: usize) -> f32 { unsafe { *self.texels.get_unchecked(i) } }\n",
        )],
    );
    assert_fires(&findings, unsafety::NAME, "SAFETY:");
}

#[test]
fn unsafety_red_missing_forbid_fires() {
    let findings = run(
        unsafety::check,
        vec![("crates/obs/src/lib.rs", "pub mod metrics;\n")],
    );
    assert_fires(&findings, unsafety::NAME, "forbid(unsafe_code)");
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
