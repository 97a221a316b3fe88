//! Spans: what the traced run records around every call it makes into a
//! layer — name, layer, frame, parent, start, end — kept in memory and
//! written out when the run ends.
//!
//! The harness calls into the product from one thread, so the open spans
//! form a stack and a span's parent is whatever was open when it started.
//! A layer's *self time* is its spans' duration minus the part their child
//! spans cover; summed per layer it says where a frame's wall-clock went
//! without counting any nanosecond twice.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// The crate the call went into (`gpu`, `core`, … or `harness`).
    pub layer: &'static str,
    /// Which frame of the traced lap (spans of one frame share it).
    pub frame: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Time `body` as a span nested in whatever span is open. The body gets
    /// the recorder back so it can open children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        frame: u64,
        body: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            frame,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        let out = body(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Record a span that ended just now and lasted `seconds` — for calls
    /// the rig's loop has already timed itself (pipelined requests overlap,
    /// which a stack of open spans cannot express).
    pub fn closed(&mut self, name: &'static str, layer: &'static str, frame: u64, seconds: f64) {
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            frame,
            parent: self.open.last().copied(),
            start_ns: end_ns.saturating_sub((seconds * 1e9) as u64),
            end_ns,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span with this name, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }
}

/// Self time per span: duration minus the duration of its direct children
/// (children of one parent never overlap — the recorder is a stack).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Self time summed per layer, ns.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut by_layer = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times_ns(spans)) {
        *by_layer.entry(span.layer).or_insert(0) += own;
    }
    by_layer
}

/// Write the spans as one JSON document: `{"workload", "seed", "spans":
/// [{"id", "parent", "name", "layer", "frame", "start_ns", "end_ns",
/// "self_ns"}]}`. `parent` is a span id or null; ids are array positions.
pub fn write_json(path: &Path, workload: &str, seed: u64, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        w,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": ["
    )?;
    let own = self_times_ns(spans);
    for (id, (span, own)) in spans.iter().zip(own).enumerate() {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        let comma = if id + 1 == spans.len() { "" } else { "," };
        writeln!(
            w,
            "  {{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"layer\": \"{}\", \
             \"frame\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own}}}{comma}",
            span.name, span.layer, span.frame, span.start_ns, span.end_ns
        )?;
    }
    writeln!(w, "]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            layer,
            frame: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // frame 0..100 ⊃ job 10..70 ⊃ (map 10..40, sort 45..55); stitch 80..95
        let spans = [
            span("volren", None, 0, 100),
            span("core", Some(0), 10, 70),
            span("gpu", Some(1), 10, 40),
            span("core", Some(1), 45, 55),
            span("volren", Some(0), 80, 95),
        ];
        assert_eq!(self_times_ns(&spans), [25, 20, 30, 10, 15]);
        let by_layer = self_time_by_layer(&spans);
        assert_eq!(by_layer["volren"], 40);
        assert_eq!(by_layer["core"], 30);
        assert_eq!(by_layer["gpu"], 30);
        // No nanosecond counted twice: self times sum to the root's span.
        assert_eq!(by_layer.values().sum::<u64>(), 100);
    }

    #[test]
    fn recorder_nests_by_call_structure() {
        let mut rec = Recorder::new();
        rec.span("frame", "volren", 7, |rec| {
            rec.span("job", "core", 7, |rec| {
                rec.span("launch", "gpu", 7, |_| {});
            });
            rec.span("stitch", "volren", 7, |_| {});
        });
        rec.span("next", "volren", 8, |_| {});
        let parents: Vec<Option<usize>> = rec.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(1), Some(0), None]);
        for s in rec.spans() {
            assert!(s.end_ns >= s.start_ns);
            if let Some(p) = s.parent {
                let p = &rec.spans()[p];
                assert!(p.start_ns <= s.start_ns && s.end_ns <= p.end_ns);
            }
        }
        assert_eq!(rec.durations_ms("stitch").len(), 1);
    }

    #[test]
    fn json_is_readable_back() {
        let dir = crate::rig::out_dir().join(format!("test-span-{}", std::process::id()));
        let path = dir.join("trace.json");
        let spans = [span("volren", None, 0, 100), span("core", Some(0), 10, 70)];
        write_json(&path, "orbit_incore", 3, &spans).unwrap();
        let doc = crate::json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let read = doc.get("spans").unwrap().as_array();
        assert_eq!(read.len(), 2);
        assert_eq!(read[1].get("parent").and_then(|p| p.as_f64()), Some(0.0));
        assert_eq!(read[0].get("self_ns").and_then(|p| p.as_f64()), Some(40.0));
        assert_eq!(read[0].get("parent"), Some(&crate::json::Json::Null));
    }
}
