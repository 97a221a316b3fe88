//! The wire format: a versioned, length-prefixed binary framing plus the
//! encode/decode of every request and response payload. Hand-rolled over
//! `std` only — the build environment has no registry access, and the
//! format is small enough that explicit little-endian field writes are
//! clearer than a serializer anyway.
//!
//! ## Framing (v3)
//!
//! Every message (either direction) is one frame:
//!
//! | field      | bytes | value                                      |
//! |------------|-------|--------------------------------------------|
//! | magic      | 4     | the bytes `MGPU` (LE u32 `0x5550474D`)     |
//! | version    | 2     | [`VERSION`]                                |
//! | opcode     | 1     | [`opcode`] constant                        |
//! | length     | 4     | payload bytes that follow the request id   |
//! | request_id | 8     | correlates a response with its request     |
//! | payload    | n     | opcode-specific encoding                   |
//!
//! The `request_id` (new in v3) is chosen by the client, must be unique
//! among that connection's outstanding requests, and is echoed verbatim on
//! every response to the request — which is what lets one connection carry
//! many in-flight renders and redeem the replies out of order. Requests the
//! server originates no reply for do not exist; unsolicited server frames
//! ([`opcode::UNSUPPORTED_VERSION`], [`opcode::BAD_REQUEST`] for unframable
//! input) carry request id 0.
//!
//! Integers and float bit patterns are little-endian. Floats travel as
//! [`f32::to_bits`]/[`f64::to_bits`], so decoding reconstructs the exact
//! input — the bit-identity guarantee of the render service extends across
//! the socket.
//!
//! Every decode error is a typed [`WireError`]; malformed and truncated
//! input can never panic the peer (a property test drives arbitrary
//! corruption through [`decode_request`]/[`read_frame`]).
//!
//! ### Migration from v2
//!
//! The 11-byte header layout is unchanged, so a v2 peer can always frame a
//! v3 header (and vice versa) far enough to read the version field and fail
//! with a typed [`WireError::UnsupportedVersion`]. The server goes one step
//! further: a request frame carrying any version other than [`VERSION`] is
//! answered with a typed [`opcode::UNSUPPORTED_VERSION`] reply (payload:
//! `got`, `want` as u16s, see [`encode_unsupported_version`]) before the
//! connection closes cleanly — a v2 client sees an orderly refusal instead
//! of a silent disconnect.

use std::io::{Read, Write};
use std::time::Duration;

use mgpu_cluster::ClusterSpec;
use mgpu_mapreduce::{Assignment, TraceOptions};
use mgpu_serve::{AdmissionError, Priority};
use mgpu_voldata::{Dataset, Volume};
use mgpu_volren::camera::Scene;
use mgpu_volren::config::{Compositor, PartitionStrategy, RenderConfig, Residency};
use mgpu_volren::transfer::ControlPoint;
use mgpu_volren::TransferFunction;

/// Frame magic: the ASCII bytes `MGPU` as a little-endian `u32`
/// (`0x5550474D`) — a packet capture shows the literal characters "MGPU"
/// at every frame boundary.
pub const MAGIC: u32 = u32::from_le_bytes(*b"MGPU");
/// Protocol version this build speaks. Bumped on any incompatible change;
/// the server answers other versions with a typed
/// [`opcode::UNSUPPORTED_VERSION`] reply (and decoders fail with
/// [`WireError::UnsupportedVersion`]). v2 replaced the orbit-only camera
/// fields with [`CameraSpec`]; v3 added the per-request `request_id` that
/// multiplexes many in-flight renders over one connection; v4 added the
/// elastic-pool control opcodes ([`opcode::DRAIN`] / [`opcode::RESUME`] /
/// [`opcode::PREWARM`] and their replies) and the directory epoch carried
/// by the `STATS` payload; v5 replaced the `STATS_REPORT` payload with
/// STATS v3 (epoch, uptime, per-shard and node snapshots — see
/// [`crate::heat`]).
pub const VERSION: u16 = 5;
/// Frame header bytes: magic + version + opcode + length.
pub const HEADER_BYTES: usize = 4 + 2 + 1 + 4;
/// Fixed-size frame prelude: the header plus the 8-byte request id. A
/// reader consumes `PRELUDE_BYTES`, then the `length` payload bytes the
/// header declared.
pub const PRELUDE_BYTES: usize = HEADER_BYTES + 8;
/// Default cap on a single payload (a 1024² float-RGBA frame is 16 MiB;
/// 64 MiB leaves room for shipped in-memory volumes without letting one
/// frame OOM the peer).
pub const DEFAULT_MAX_PAYLOAD: u64 = 64 << 20;

/// Request and response opcodes. Responses have the high bit set.
pub mod opcode {
    pub const PING: u8 = 0x01;
    pub const RENDER: u8 = 0x02;
    pub const SUBMIT: u8 = 0x03;
    pub const REDEEM: u8 = 0x04;
    pub const STATS: u8 = 0x05;
    /// Fetch the last N completed request traces from the server's trace
    /// ring; payload is the maximum count as a u32.
    pub const TRACES: u8 = 0x06;
    /// Put the server into the draining state (payload: the controller's
    /// directory epoch as a u64): in-flight work and parked redeems still
    /// answer, new `RENDER`/`SUBMIT`/`PREWARM` get a typed [`DRAINING`]
    /// reply, and the server says [`GOODBYE`] once it owes nothing more.
    /// Idempotent; answered with [`DRAIN_STATE`]. New in v4.
    pub const DRAIN: u8 = 0x07;
    /// Leave the draining state (payload: epoch, like [`DRAIN`]) — the
    /// rejoin half of a drain that was called off. Idempotent; answered
    /// with [`DRAIN_STATE`]. New in v4.
    pub const RESUME: u8 = 0x08;
    /// Populate the owning shard's plan cache for a request's `BatchKey`
    /// *before* traffic moves there (payload: epoch + a full render
    /// request), so a placement cutover never costs a cold start. The plan
    /// builds off the event loop, on a dedicated pre-warm worker; answered
    /// with [`PREWARMED`] when the plan is resident. New in v4.
    pub const PREWARM: u8 = 0x09;

    pub const PONG: u8 = 0x81;
    pub const FRAME: u8 = 0x82;
    pub const SUBMITTED: u8 = 0x83;
    pub const REJECTED: u8 = 0x84;
    pub const THROTTLED: u8 = 0x85;
    pub const FAILED: u8 = 0x86;
    pub const STATS_REPORT: u8 = 0x87;
    /// Per-session ticket table is full: redeem before submitting more.
    pub const TICKETS_FULL: u8 = 0x88;
    /// The request frame declared a protocol version this server does not
    /// speak; payload is `(got, want)` and the connection closes after the
    /// reply flushes. New in v3 — the migration path for v2 clients.
    pub const UNSUPPORTED_VERSION: u8 = 0x89;
    /// Reply to [`TRACES`]: the newest completed traces, newest first (see
    /// [`crate::wire::encode_traces`]).
    pub const TRACES_REPLY: u8 = 0x8A;
    /// Reply to [`DRAIN`] / [`RESUME`]: whether the server is draining,
    /// how many requests it still owes (in-flight renders + un-redeemed
    /// tickets + parked redeems, across all sessions), and the highest
    /// directory epoch it has been told. New in v4.
    pub const DRAIN_STATE: u8 = 0x8B;
    /// Reply to [`PREWARM`]: the owning shard index and whether a plan was
    /// newly built (`false` = the cache was already warm). New in v4.
    pub const PREWARMED: u8 = 0x8C;
    /// Unsolicited (request id 0) farewell from a draining server that
    /// owes nothing more: every outstanding request has been answered and
    /// the connection closes after this frame flushes. New in v4.
    pub const GOODBYE: u8 = 0x8D;
    /// Typed refusal of `RENDER`/`SUBMIT`/`PREWARM` while the server is
    /// draining (payload: the server's directory epoch, so a stale client
    /// learns placement moved on without it). The connection stays open —
    /// redeems and stats still answer. New in v4.
    pub const DRAINING: u8 = 0x8E;
    pub const BAD_REQUEST: u8 = 0xFF;
}

/// Everything that can go wrong between bytes and messages. Framing errors
/// (`BadMagic`, `UnsupportedVersion`, `Truncated`, `TooLarge`) mean the
/// stream position is lost and the connection must close — the server also
/// closes on `UnknownOpcode`, since a peer dispatching unknown requests is
/// not speaking this protocol; payload errors (`Malformed`,
/// `TrailingBytes`) poison only the offending request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Underlying socket error (kind only: portable and comparable).
    Io(std::io::ErrorKind),
    /// The peer closed the connection at a frame boundary.
    ConnectionClosed,
    BadMagic(u32),
    UnsupportedVersion {
        got: u16,
        want: u16,
    },
    UnknownOpcode(u8),
    /// The payload ended before a field did.
    Truncated {
        needed: usize,
        have: usize,
    },
    /// The payload continued past the last field.
    TrailingBytes {
        extra: usize,
    },
    /// A field decoded to an impossible value (bad enum tag, bad bool,
    /// bad UTF-8, dimension mismatch, unknown dataset, …).
    Malformed(String),
    /// Declared payload length exceeds the configured bound.
    TooLarge {
        len: u64,
        max: u64,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(kind) => write!(f, "socket error: {kind}"),
            WireError::ConnectionClosed => write!(f, "connection closed"),
            WireError::BadMagic(got) => {
                write!(f, "bad frame magic {got:#010x} (want {MAGIC:#010x})")
            }
            WireError::UnsupportedVersion { got, want } => {
                write!(
                    f,
                    "unsupported protocol version {got} (this build speaks {want})"
                )
            }
            WireError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            WireError::Truncated { needed, have } => {
                write!(f, "truncated payload: needed {needed} bytes, have {have}")
            }
            WireError::TrailingBytes { extra } => {
                write!(f, "malformed payload: {extra} trailing bytes")
            }
            WireError::Malformed(what) => write!(f, "malformed payload: {what}"),
            WireError::TooLarge { len, max } => {
                write!(f, "payload of {len} bytes exceeds the {max}-byte bound")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(err: std::io::Error) -> WireError {
        match err.kind() {
            std::io::ErrorKind::UnexpectedEof => WireError::ConnectionClosed,
            kind => WireError::Io(kind),
        }
    }
}

// ---------------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------------

/// Append-only payload encoder (little-endian throughout).
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Writer {
        Writer::default()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Cursor over a received payload; every read is bounds-checked into a
/// typed [`WireError`].
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let have = self.buf.len() - self.pos;
        if have < n {
            return Err(WireError::Truncated { needed: n, have });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError::Malformed(format!("bool byte {other}"))),
        }
    }

    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn f32(&mut self) -> Result<f32, WireError> {
        Ok(f32::from_bits(self.u32()?))
    }

    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A length-prefixed count that more bytes must follow for: bounded by
    /// the remaining payload so a hostile length cannot drive a huge
    /// allocation before the truncation is noticed.
    pub fn count(&mut self, bytes_per_item: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        let needed = n.saturating_mul(bytes_per_item.max(1));
        let have = self.buf.len() - self.pos;
        if needed > have {
            return Err(WireError::Truncated { needed, have });
        }
        Ok(n)
    }

    pub fn str(&mut self) -> Result<String, WireError> {
        let n = self.count(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::Malformed("string is not UTF-8".into()))
    }

    /// Everything not yet consumed — for envelope decoders that hand the
    /// tail to an inner decoder (`decode_prewarm` → `decode_request`).
    pub fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// Assert the payload is fully consumed (decoders call this last, so a
    /// frame with junk glued on fails instead of silently parsing).
    pub fn finish(&self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes {
                extra: self.buf.len() - self.pos,
            })
        }
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Serialize one frame (prelude + payload) into a byte vector — the form
/// an event loop appends to a connection's write buffer.
pub fn frame_bytes(opcode: u8, request_id: u64, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(PRELUDE_BYTES + payload.len());
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.push(opcode);
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&request_id.to_le_bytes());
    buf.extend_from_slice(payload);
    buf
}

/// Write one frame (header + request id + payload) and flush.
pub fn write_frame(
    w: &mut impl Write,
    opcode: u8,
    request_id: u64,
    payload: &[u8],
) -> Result<(), WireError> {
    w.write_all(&frame_bytes(opcode, request_id, payload))?;
    w.flush()?;
    Ok(())
}

/// Parse a frame header, validating magic, version and the payload bound.
pub fn parse_header(
    header: &[u8; HEADER_BYTES],
    max_payload: u64,
) -> Result<(u8, usize), WireError> {
    let magic = u32::from_le_bytes(header[0..4].try_into().unwrap());
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = u16::from_le_bytes(header[4..6].try_into().unwrap());
    if version != VERSION {
        return Err(WireError::UnsupportedVersion {
            got: version,
            want: VERSION,
        });
    }
    let opcode = header[6];
    let len = u32::from_le_bytes(header[7..11].try_into().unwrap()) as u64;
    if len > max_payload {
        return Err(WireError::TooLarge {
            len,
            max: max_payload,
        });
    }
    Ok((opcode, len as usize))
}

/// Read one frame: `(opcode, request_id, payload)`. A clean EOF before the
/// first header byte is [`WireError::ConnectionClosed`].
pub fn read_frame(r: &mut impl Read, max_payload: u64) -> Result<(u8, u64, Vec<u8>), WireError> {
    let mut header = [0u8; HEADER_BYTES];
    r.read_exact(&mut header)?;
    let (opcode, len) = parse_header(&header, max_payload)?;
    let mut id = [0u8; 8];
    r.read_exact(&mut id)?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok((opcode, u64::from_le_bytes(id), payload))
}

// ---------------------------------------------------------------------------
// The render request
// ---------------------------------------------------------------------------

/// How a request names its volume. Procedural datasets travel as a name +
/// resolution (the receiving side regenerates them bit-identically from the
/// shared seed); small in-memory volumes ship their voxels.
#[derive(Debug, Clone, PartialEq)]
pub enum VolumeSpec {
    Dataset {
        dataset: Dataset,
        base: u32,
    },
    InMemory {
        name: String,
        dims: [u32; 3],
        voxels: Vec<f32>,
    },
}

/// Largest in-memory volume a request may ship: 8 Mi voxels (32 MiB of
/// `f32`) stays comfortably under [`DEFAULT_MAX_PAYLOAD`] with the rest of
/// the request around it.
pub const MAX_SHIPPED_VOXELS: u64 = 8 << 20;

impl VolumeSpec {
    /// Describe an in-process [`Volume`] for the wire: a named procedural
    /// dataset travels by `(name, base)` (the receiver regenerates it
    /// bit-identically from the shared seed), anything else ships its exact
    /// voxels — up to [`MAX_SHIPPED_VOXELS`]. Returns a human-readable
    /// reason when the volume cannot cross the wire.
    pub fn of(volume: &Volume) -> Result<VolumeSpec, String> {
        if let Some(dataset) = Dataset::from_name(&volume.meta.name) {
            let base = volume.meta.dims[0];
            // Regenerate and compare the full metadata (content fingerprint
            // included): only a volume that IS the named dataset at this
            // resolution may travel by name.
            if base > 0 && dataset.volume(base).meta == volume.meta {
                return Ok(VolumeSpec::Dataset { dataset, base });
            }
        }
        if volume.meta.voxel_count() <= MAX_SHIPPED_VOXELS {
            // Materialized voxels read back the exact f32 values the local
            // renderer would sample, so the shipped copy renders
            // bit-identically even for procedural sources.
            return Ok(VolumeSpec::InMemory {
                name: volume.meta.name.clone(),
                dims: volume.meta.dims,
                voxels: volume.materialize_full(),
            });
        }
        Err(format!(
            "volume {} is not a named dataset and too large to ship \
             ({} voxels, wire limit {MAX_SHIPPED_VOXELS})",
            volume.meta.label(),
            volume.meta.voxel_count()
        ))
    }

    /// Resolve to an actual [`Volume`] on the receiving side.
    pub fn to_volume(&self) -> Result<Volume, WireError> {
        match self {
            VolumeSpec::Dataset { dataset, base } => {
                if *base == 0 {
                    return Err(WireError::Malformed("dataset base resolution 0".into()));
                }
                Ok(dataset.volume(*base))
            }
            VolumeSpec::InMemory { name, dims, voxels } => {
                let count = dims[0] as u64 * dims[1] as u64 * dims[2] as u64;
                if count == 0 || count != voxels.len() as u64 {
                    return Err(WireError::Malformed(format!(
                        "in-memory volume {name:?}: {} voxels for dims {dims:?}",
                        voxels.len()
                    )));
                }
                Ok(Volume::in_memory(name.clone(), *dims, voxels.clone()))
            }
        }
    }
}

/// How a request names its transfer function: a built-in preset by name, or
/// explicit control points for custom functions.
#[derive(Debug, Clone, PartialEq)]
pub enum TransferSpec {
    Preset(String),
    Points(Vec<ControlPoint>),
}

impl TransferSpec {
    /// Encode an in-process [`TransferFunction`]: by name when it *is* the
    /// preset of that name, by points otherwise.
    pub fn of(tf: &TransferFunction) -> TransferSpec {
        match TransferFunction::preset(tf.name()) {
            Some(preset) if preset == *tf => TransferSpec::Preset(tf.name().to_string()),
            _ => TransferSpec::Points(tf.points().to_vec()),
        }
    }

    pub fn to_transfer(&self) -> Result<TransferFunction, WireError> {
        match self {
            TransferSpec::Preset(name) => TransferFunction::preset(name)
                .ok_or_else(|| WireError::Malformed(format!("unknown transfer preset {name:?}"))),
            TransferSpec::Points(points) => {
                if points.is_empty() {
                    return Err(WireError::Malformed(
                        "transfer function with no points".into(),
                    ));
                }
                Ok(TransferFunction::from_points("wire", points.clone()))
            }
        }
    }
}

/// How a request names its camera: compact orbit parameters (see
/// [`Scene::orbit`]) for the common case, or the raw camera basis for
/// arbitrary scenes — the latter reconstructs bit-identically via
/// [`mgpu_volren::camera::Camera::from_raw_parts`], which is what lets any
/// in-process [`mgpu_serve::SceneRequest`] cross the wire unchanged.
#[derive(Debug, Clone, PartialEq)]
pub enum CameraSpec {
    Orbit {
        azimuth_deg: f32,
        elevation_deg: f32,
    },
    Look {
        eye: [f32; 3],
        forward: [f32; 3],
        right: [f32; 3],
        up: [f32; 3],
        tan_half_fov: f32,
    },
}

impl CameraSpec {
    /// Describe an in-process camera exactly (always the `Look` form).
    pub fn of(camera: &mgpu_volren::camera::Camera) -> CameraSpec {
        let (eye, forward, right, up, tan_half_fov) = camera.raw_parts();
        CameraSpec::Look {
            eye,
            forward,
            right,
            up,
            tan_half_fov,
        }
    }

    /// Build the scene's camera on the receiving side.
    fn to_camera(&self, volume: &Volume) -> mgpu_volren::camera::Camera {
        match *self {
            // Delegate to the one orbit implementation so wire and local
            // callers can never drift apart.
            CameraSpec::Orbit {
                azimuth_deg,
                elevation_deg,
            } => Scene::orbit(volume, azimuth_deg, elevation_deg, TransferFunction::bone()).camera,
            CameraSpec::Look {
                eye,
                forward,
                right,
                up,
                tan_half_fov,
            } => mgpu_volren::camera::Camera::from_raw_parts(eye, forward, right, up, tan_half_fov),
        }
    }
}

/// A self-contained frame request as it travels over the wire: enough to
/// reconstruct the exact `(ClusterSpec, Volume, Scene, RenderConfig)` of a
/// direct [`mgpu_volren::renderer::render`] call on the server — by
/// construction, the served pixels are bit-identical to a local render.
#[derive(Debug, Clone, PartialEq)]
pub struct NetSceneRequest {
    /// GPUs of the modeled accelerator cluster.
    pub gpus: u32,
    pub gpus_per_node: u32,
    pub volume: VolumeSpec,
    pub camera: CameraSpec,
    pub transfer: TransferSpec,
    pub background: [f32; 4],
    pub config: RenderConfig,
    pub priority: Priority,
}

impl NetSceneRequest {
    /// Orbit a procedural dataset (the common case).
    pub fn orbit_dataset(
        dataset: Dataset,
        base: u32,
        gpus: u32,
        azimuth_deg: f32,
        elevation_deg: f32,
        transfer: &TransferFunction,
    ) -> NetSceneRequest {
        NetSceneRequest {
            gpus,
            gpus_per_node: 4,
            volume: VolumeSpec::Dataset { dataset, base },
            camera: CameraSpec::Orbit {
                azimuth_deg,
                elevation_deg,
            },
            transfer: TransferSpec::of(transfer),
            background: [0.0; 4],
            config: RenderConfig::default(),
            priority: Priority::Normal,
        }
    }

    /// Describe an arbitrary in-process [`mgpu_serve::SceneRequest`] for
    /// the wire — the bridge every remote [`mgpu_serve::RenderBackend`]
    /// uses. Fails (with a human-readable reason) only when the request is
    /// genuinely not portable: a cluster that is not the paper's
    /// accelerator-cluster model, or a volume too large to ship (see
    /// [`VolumeSpec::of`]). Everything that can cross, crosses bit-exactly:
    /// camera basis, transfer points, background, full render config.
    pub fn from_request(request: &mgpu_serve::SceneRequest) -> Result<NetSceneRequest, String> {
        let spec = &request.spec;
        let candidate = ClusterSpec::accelerator_cluster(spec.gpus.max(1))
            .with_gpus_per_node(spec.gpus_per_node.max(1));
        if *spec != candidate {
            return Err(format!(
                "cluster spec is not the accelerator-cluster model \
                 (custom device/network/disk parameters cannot cross the wire): {spec:?}"
            ));
        }
        Ok(NetSceneRequest {
            gpus: spec.gpus,
            gpus_per_node: spec.gpus_per_node,
            volume: VolumeSpec::of(&request.volume)?,
            camera: CameraSpec::of(&request.scene.camera),
            transfer: TransferSpec::of(&request.scene.transfer),
            background: request.scene.background,
            config: request.config.clone(),
            priority: request.priority,
        })
    }

    pub fn with_config(mut self, config: RenderConfig) -> NetSceneRequest {
        self.config = config;
        self
    }

    pub fn with_priority(mut self, priority: Priority) -> NetSceneRequest {
        self.priority = priority;
        self
    }

    pub fn with_background(mut self, background: [f32; 4]) -> NetSceneRequest {
        self.background = background;
        self
    }

    /// Re-aim an orbit camera's azimuth (the elevation is kept); a `Look`
    /// camera is replaced by an orbit at elevation 0.
    pub fn with_azimuth(mut self, azimuth_deg: f32) -> NetSceneRequest {
        let elevation_deg = match self.camera {
            CameraSpec::Orbit { elevation_deg, .. } => elevation_deg,
            CameraSpec::Look { .. } => 0.0,
        };
        self.camera = CameraSpec::Orbit {
            azimuth_deg,
            elevation_deg,
        };
        self
    }

    /// Reconstruct the direct-render inputs on the receiving side.
    pub fn to_parts(
        &self,
    ) -> Result<(ClusterSpec, Volume, Scene, RenderConfig, Priority), WireError> {
        if self.gpus == 0 || self.gpus_per_node == 0 {
            return Err(WireError::Malformed(format!(
                "cluster of {} GPUs, {} per node",
                self.gpus, self.gpus_per_node
            )));
        }
        let spec =
            ClusterSpec::accelerator_cluster(self.gpus).with_gpus_per_node(self.gpus_per_node);
        let volume = self.volume.to_volume()?;
        let transfer = self.transfer.to_transfer()?;
        let scene = Scene {
            camera: self.camera.to_camera(&volume),
            transfer,
            background: self.background,
        };
        Ok((spec, volume, scene, self.config.clone(), self.priority))
    }
}

// ---------------------------------------------------------------------------
// Payload encodings
// ---------------------------------------------------------------------------

fn put_priority(w: &mut Writer, p: Priority) {
    w.u8(p.index() as u8);
}

fn get_priority(r: &mut Reader) -> Result<Priority, WireError> {
    match r.u8()? {
        0 => Ok(Priority::Batch),
        1 => Ok(Priority::Normal),
        2 => Ok(Priority::Interactive),
        other => Err(WireError::Malformed(format!("priority tag {other}"))),
    }
}

fn put_config(w: &mut Writer, cfg: &RenderConfig) {
    w.u32(cfg.image.0);
    w.u32(cfg.image.1);
    w.f32(cfg.step_voxels);
    w.f32(cfg.early_term);
    w.u32(cfg.bricks_per_gpu);
    w.u64(cfg.max_brick_voxels);
    w.u8(match cfg.residency {
        Residency::Auto => 0,
        Residency::HostResident => 1,
        Residency::Disk => 2,
    });
    w.u64(cfg.host_cache_bytes);
    w.u64(cfg.batch_bytes as u64);
    match cfg.partition {
        PartitionStrategy::RoundRobin => {
            w.u8(0);
            w.u32(0);
        }
        PartitionStrategy::Striped { rows_per_stripe } => {
            w.u8(1);
            w.u32(rows_per_stripe);
        }
        PartitionStrategy::Tiled { tile } => {
            w.u8(2);
            w.u32(tile);
        }
        PartitionStrategy::Checkerboard { cell } => {
            w.u8(3);
            w.u32(cell);
        }
    }
    w.u8(match cfg.compositor {
        Compositor::DirectSend => 0,
        Compositor::BinarySwap => 1,
    });
    match cfg.assignment {
        Assignment::RoundRobin => {
            w.u8(0);
            w.u32(0);
        }
        Assignment::Blocked => {
            w.u8(1);
            w.u32(0);
        }
        Assignment::Strided { stride } => {
            w.u8(2);
            w.u32(stride);
        }
    }
    w.bool(cfg.combiner);
    w.bool(cfg.trace.async_upload);
    w.bool(cfg.trace.reduce_on_gpu);
    w.u64(cfg.kernel_parallelism as u64);
}

fn get_config(r: &mut Reader) -> Result<RenderConfig, WireError> {
    let image = (r.u32()?, r.u32()?);
    let step_voxels = r.f32()?;
    let early_term = r.f32()?;
    let bricks_per_gpu = r.u32()?;
    let max_brick_voxels = r.u64()?;
    let residency = match r.u8()? {
        0 => Residency::Auto,
        1 => Residency::HostResident,
        2 => Residency::Disk,
        other => return Err(WireError::Malformed(format!("residency tag {other}"))),
    };
    let host_cache_bytes = r.u64()?;
    let batch_bytes = r.u64()? as usize;
    let (ptag, pparam) = (r.u8()?, r.u32()?);
    let partition = match ptag {
        0 => PartitionStrategy::RoundRobin,
        1 => PartitionStrategy::Striped {
            rows_per_stripe: pparam,
        },
        2 => PartitionStrategy::Tiled { tile: pparam },
        3 => PartitionStrategy::Checkerboard { cell: pparam },
        other => return Err(WireError::Malformed(format!("partition tag {other}"))),
    };
    let compositor = match r.u8()? {
        0 => Compositor::DirectSend,
        1 => Compositor::BinarySwap,
        other => return Err(WireError::Malformed(format!("compositor tag {other}"))),
    };
    let (atag, aparam) = (r.u8()?, r.u32()?);
    let assignment = match atag {
        0 => Assignment::RoundRobin,
        1 => Assignment::Blocked,
        2 => Assignment::Strided { stride: aparam },
        other => return Err(WireError::Malformed(format!("assignment tag {other}"))),
    };
    let combiner = r.bool()?;
    let trace = TraceOptions {
        async_upload: r.bool()?,
        reduce_on_gpu: r.bool()?,
    };
    let kernel_parallelism = r.u64()? as usize;
    Ok(RenderConfig {
        image,
        step_voxels,
        early_term,
        bricks_per_gpu,
        max_brick_voxels,
        residency,
        host_cache_bytes,
        batch_bytes,
        partition,
        compositor,
        assignment,
        combiner,
        trace,
        kernel_parallelism,
    })
}

/// Encode a render request payload (`RENDER` and `SUBMIT` share it).
pub fn encode_request(req: &NetSceneRequest) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(req.gpus);
    w.u32(req.gpus_per_node);
    match &req.volume {
        VolumeSpec::Dataset { dataset, base } => {
            w.u8(0);
            w.str(dataset.name());
            w.u32(*base);
        }
        VolumeSpec::InMemory { name, dims, voxels } => {
            w.u8(1);
            w.str(name);
            for d in dims {
                w.u32(*d);
            }
            w.u32(voxels.len() as u32);
            for v in voxels {
                w.f32(*v);
            }
        }
    }
    match &req.camera {
        CameraSpec::Orbit {
            azimuth_deg,
            elevation_deg,
        } => {
            w.u8(0);
            w.f32(*azimuth_deg);
            w.f32(*elevation_deg);
        }
        CameraSpec::Look {
            eye,
            forward,
            right,
            up,
            tan_half_fov,
        } => {
            w.u8(1);
            for axis in [eye, forward, right, up] {
                for c in axis {
                    w.f32(*c);
                }
            }
            w.f32(*tan_half_fov);
        }
    }
    match &req.transfer {
        TransferSpec::Preset(name) => {
            w.u8(0);
            w.str(name);
        }
        TransferSpec::Points(points) => {
            w.u8(1);
            w.u32(points.len() as u32);
            for p in points {
                w.f32(p.value);
                for c in p.rgba {
                    w.f32(c);
                }
            }
        }
    }
    for c in req.background {
        w.f32(c);
    }
    put_config(&mut w, &req.config);
    put_priority(&mut w, req.priority);
    w.into_bytes()
}

/// Decode a render request payload; consumes the whole payload.
pub fn decode_request(payload: &[u8]) -> Result<NetSceneRequest, WireError> {
    let mut r = Reader::new(payload);
    let gpus = r.u32()?;
    let gpus_per_node = r.u32()?;
    let volume = match r.u8()? {
        0 => {
            let name = r.str()?;
            let base = r.u32()?;
            let dataset = Dataset::from_name(&name)
                .ok_or_else(|| WireError::Malformed(format!("unknown dataset {name:?}")))?;
            VolumeSpec::Dataset { dataset, base }
        }
        1 => {
            let name = r.str()?;
            let dims = [r.u32()?, r.u32()?, r.u32()?];
            let n = r.count(4)?;
            let mut voxels = Vec::with_capacity(n);
            for _ in 0..n {
                voxels.push(r.f32()?);
            }
            VolumeSpec::InMemory { name, dims, voxels }
        }
        other => return Err(WireError::Malformed(format!("volume tag {other}"))),
    };
    let camera = match r.u8()? {
        0 => CameraSpec::Orbit {
            azimuth_deg: r.f32()?,
            elevation_deg: r.f32()?,
        },
        1 => {
            let mut vec3 = || -> Result<[f32; 3], WireError> { Ok([r.f32()?, r.f32()?, r.f32()?]) };
            CameraSpec::Look {
                eye: vec3()?,
                forward: vec3()?,
                right: vec3()?,
                up: vec3()?,
                tan_half_fov: r.f32()?,
            }
        }
        other => return Err(WireError::Malformed(format!("camera tag {other}"))),
    };
    let transfer = match r.u8()? {
        0 => TransferSpec::Preset(r.str()?),
        1 => {
            let n = r.count(20)?;
            let mut points = Vec::with_capacity(n);
            for _ in 0..n {
                let value = r.f32()?;
                let rgba = [r.f32()?, r.f32()?, r.f32()?, r.f32()?];
                points.push(ControlPoint { value, rgba });
            }
            TransferSpec::Points(points)
        }
        other => return Err(WireError::Malformed(format!("transfer tag {other}"))),
    };
    let background = [r.f32()?, r.f32()?, r.f32()?, r.f32()?];
    let config = get_config(&mut r)?;
    let priority = get_priority(&mut r)?;
    r.finish()?;
    Ok(NetSceneRequest {
        gpus,
        gpus_per_node,
        volume,
        camera,
        transfer,
        background,
        config,
        priority,
    })
}

// ---------------------------------------------------------------------------
// Simple response payloads (frame/stats encodings live in `crate::heat`)
// ---------------------------------------------------------------------------

pub fn encode_ping(token: u64) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(token);
    w.into_bytes()
}

pub fn decode_ping(payload: &[u8]) -> Result<u64, WireError> {
    let mut r = Reader::new(payload);
    let token = r.u64()?;
    r.finish()?;
    Ok(token)
}

pub fn encode_pong(token: u64, shards: u32) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(token);
    w.u32(shards);
    w.into_bytes()
}

pub fn decode_pong(payload: &[u8]) -> Result<(u64, u32), WireError> {
    let mut r = Reader::new(payload);
    let token = r.u64()?;
    let shards = r.u32()?;
    r.finish()?;
    Ok((token, shards))
}

pub fn encode_ticket(ticket: u64) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(ticket);
    w.into_bytes()
}

pub fn decode_ticket(payload: &[u8]) -> Result<u64, WireError> {
    let mut r = Reader::new(payload);
    let ticket = r.u64()?;
    r.finish()?;
    Ok(ticket)
}

/// `REJECTED`: an [`AdmissionError`] crossing the socket intact.
pub fn encode_rejected(err: &AdmissionError) -> Vec<u8> {
    let mut w = Writer::new();
    put_priority(&mut w, err.priority);
    w.u64(err.queued as u64);
    w.u64(err.limit as u64);
    w.into_bytes()
}

pub fn decode_rejected(payload: &[u8]) -> Result<AdmissionError, WireError> {
    let mut r = Reader::new(payload);
    let priority = get_priority(&mut r)?;
    let queued = r.u64()? as usize;
    let limit = r.u64()? as usize;
    r.finish()?;
    Ok(AdmissionError {
        priority,
        queued,
        limit,
    })
}

/// `TICKETS_FULL`: the session's un-redeemed ticket count and its bound.
pub fn encode_tickets_full(outstanding: u64, limit: u64) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(outstanding);
    w.u64(limit);
    w.into_bytes()
}

pub fn decode_tickets_full(payload: &[u8]) -> Result<(u64, u64), WireError> {
    let mut r = Reader::new(payload);
    let outstanding = r.u64()?;
    let limit = r.u64()?;
    r.finish()?;
    Ok((outstanding, limit))
}

/// `UNSUPPORTED_VERSION`: the version the peer sent and the version this
/// build speaks — the typed refusal a v2 client receives before the server
/// closes the connection.
pub fn encode_unsupported_version(got: u16, want: u16) -> Vec<u8> {
    let mut w = Writer::new();
    w.u16(got);
    w.u16(want);
    w.into_bytes()
}

pub fn decode_unsupported_version(payload: &[u8]) -> Result<(u16, u16), WireError> {
    let mut r = Reader::new(payload);
    let got = r.u16()?;
    let want = r.u16()?;
    r.finish()?;
    Ok((got, want))
}

pub fn encode_throttled(retry_after: Duration) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(retry_after.as_nanos().min(u64::MAX as u128) as u64);
    w.into_bytes()
}

pub fn decode_throttled(payload: &[u8]) -> Result<Duration, WireError> {
    let mut r = Reader::new(payload);
    let nanos = r.u64()?;
    r.finish()?;
    Ok(Duration::from_nanos(nanos))
}

/// A draining server's answer to `DRAIN`/`RESUME`: its current mode, how
/// much it still owes, and the newest directory epoch it has been told —
/// what a drain controller polls until `outstanding` reaches zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainState {
    /// New `RENDER`/`SUBMIT`/`PREWARM` are being refused with `DRAINING`.
    pub draining: bool,
    /// In-flight renders + un-redeemed tickets + parked redeems, across
    /// every session on the server. Zero while draining means the server
    /// is about to say `GOODBYE`.
    pub outstanding: u64,
    /// Highest directory epoch any controller has announced to this
    /// server (echoed in STATS too): a client whose directory is older is
    /// stale.
    pub epoch: u64,
}

/// `DRAIN` / `RESUME` / `DRAINING`: a bare directory epoch.
pub fn encode_epoch(epoch: u64) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(epoch);
    w.into_bytes()
}

pub fn decode_epoch(payload: &[u8]) -> Result<u64, WireError> {
    let mut r = Reader::new(payload);
    let epoch = r.u64()?;
    r.finish()?;
    Ok(epoch)
}

/// `DRAIN_STATE`: draining flag + outstanding count + epoch.
pub fn encode_drain_state(state: DrainState) -> Vec<u8> {
    let mut w = Writer::new();
    w.bool(state.draining);
    w.u64(state.outstanding);
    w.u64(state.epoch);
    w.into_bytes()
}

pub fn decode_drain_state(payload: &[u8]) -> Result<DrainState, WireError> {
    let mut r = Reader::new(payload);
    let draining = r.bool()?;
    let outstanding = r.u64()?;
    let epoch = r.u64()?;
    r.finish()?;
    Ok(DrainState {
        draining,
        outstanding,
        epoch,
    })
}

/// `PREWARM`: the announcing controller's epoch, then a full render
/// request (a `BatchKey` alone cannot rebuild a plan — the destination
/// needs the spec, volume and config the key was derived from).
pub fn encode_prewarm(epoch: u64, request: &NetSceneRequest) -> Vec<u8> {
    let mut bytes = encode_epoch(epoch);
    bytes.extend_from_slice(&encode_request(request));
    bytes
}

pub fn decode_prewarm(payload: &[u8]) -> Result<(u64, NetSceneRequest), WireError> {
    let mut r = Reader::new(payload);
    let epoch = r.u64()?;
    let request = decode_request(r.rest())?;
    Ok((epoch, request))
}

/// `PREWARMED`: owning shard index + whether a plan was newly built.
pub fn encode_prewarmed(shard: u32, built: bool) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(shard);
    w.bool(built);
    w.into_bytes()
}

pub fn decode_prewarmed(payload: &[u8]) -> Result<(u32, bool), WireError> {
    let mut r = Reader::new(payload);
    let shard = r.u32()?;
    let built = r.bool()?;
    r.finish()?;
    Ok((shard, built))
}

/// A rendered frame as delivered across the socket: the exact image a
/// direct render would produce (floats travel by bit pattern), plus the
/// cache provenance and the simulated frame time of the modeled cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct NetFrame {
    pub image: mgpu_volren::Image,
    /// Served from the server's frame cache (no render ran for this
    /// request).
    pub from_cache: bool,
    /// Simulated (DES) frame time on the modeled cluster — zero for cache
    /// hits, which re-deliver a previously rendered frame.
    pub sim_frame: Duration,
}

/// `FRAME`: flags + sim time + dimensions + raw RGBA rows.
pub fn encode_frame(image: &mgpu_volren::Image, from_cache: bool, sim_nanos: u64) -> Vec<u8> {
    let mut w = Writer::new();
    w.bool(from_cache);
    w.u64(sim_nanos);
    w.u32(image.width());
    w.u32(image.height());
    for px in image.pixels() {
        for c in px {
            w.f32(*c);
        }
    }
    w.into_bytes()
}

pub fn decode_frame(payload: &[u8]) -> Result<NetFrame, WireError> {
    let mut r = Reader::new(payload);
    let from_cache = r.bool()?;
    let sim_nanos = r.u64()?;
    let width = r.u32()?;
    let height = r.u32()?;
    let count = (width as u64).checked_mul(height as u64).ok_or_else(|| {
        WireError::Malformed(format!("image dimensions {width}x{height} overflow"))
    })?;
    // Pixel data is implied by the dimensions; verify before allocating.
    let have = payload.len().saturating_sub(1 + 8 + 4 + 4);
    let needed = count
        .checked_mul(16)
        .filter(|n| *n <= usize::MAX as u64)
        .ok_or_else(|| WireError::Malformed(format!("{count} pixels overflow")))?
        as usize;
    if needed != have {
        return Err(WireError::Malformed(format!(
            "{width}x{height} frame needs {needed} pixel bytes, payload has {have}"
        )));
    }
    let mut pixels = Vec::with_capacity(count as usize);
    for _ in 0..count {
        pixels.push([r.f32()?, r.f32()?, r.f32()?, r.f32()?]);
    }
    r.finish()?;
    Ok(NetFrame {
        image: mgpu_volren::Image::from_pixels(width, height, pixels),
        from_cache,
        sim_frame: Duration::from_nanos(sim_nanos),
    })
}

pub fn encode_message(message: &str) -> Vec<u8> {
    let mut w = Writer::new();
    w.str(message);
    w.into_bytes()
}

pub fn decode_message(payload: &[u8]) -> Result<String, WireError> {
    let mut r = Reader::new(payload);
    let message = r.str()?;
    r.finish()?;
    Ok(message)
}

// ---------------------------------------------------------------------------
// Trace payloads (`TRACES` / `TRACES_REPLY`)
// ---------------------------------------------------------------------------

/// `TRACES`: ask for the server's newest `max` completed request traces.
pub fn encode_traces_request(max: u32) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(max);
    w.into_bytes()
}

pub fn decode_traces_request(payload: &[u8]) -> Result<u32, WireError> {
    let mut r = Reader::new(payload);
    let max = r.u32()?;
    r.finish()?;
    Ok(max)
}

/// `TRACES_REPLY`: the completed traces, newest first. Each trace is its
/// wire `request_id`-seeded trace id plus the named stage spans as
/// nanosecond offsets from the trace's start.
pub fn encode_traces(traces: &[mgpu_obs::CompletedTrace]) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(traces.len() as u32);
    for trace in traces {
        w.u64(trace.id);
        w.u32(trace.spans.len() as u32);
        for span in &trace.spans {
            w.str(&span.name);
            w.u64(span.start_ns);
            w.u64(span.end_ns);
        }
    }
    w.into_bytes()
}

pub fn decode_traces(payload: &[u8]) -> Result<Vec<mgpu_obs::CompletedTrace>, WireError> {
    let mut r = Reader::new(payload);
    // A trace is at least an id and a span count; a span at least a name
    // length and two offsets.
    let count = r.count(8 + 4)?;
    let mut traces = Vec::with_capacity(count);
    for _ in 0..count {
        let id = r.u64()?;
        let spans_len = r.count(4 + 8 + 8)?;
        let mut spans = Vec::with_capacity(spans_len);
        for _ in 0..spans_len {
            let name = r.str()?;
            let start_ns = r.u64()?;
            let end_ns = r.u64()?;
            if end_ns < start_ns {
                return Err(WireError::Malformed(format!(
                    "span {name:?} ends ({end_ns}) before it starts ({start_ns})"
                )));
            }
            spans.push(mgpu_obs::SpanRecord {
                name,
                start_ns,
                end_ns,
            });
        }
        traces.push(mgpu_obs::CompletedTrace { id, spans });
    }
    r.finish()?;
    Ok(traces)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: &NetSceneRequest) -> NetSceneRequest {
        decode_request(&encode_request(req)).expect("round-trip")
    }

    fn sample_request() -> NetSceneRequest {
        NetSceneRequest::orbit_dataset(Dataset::Skull, 16, 2, 33.0, 20.0, &TransferFunction::bone())
            .with_config(RenderConfig::test_size(24))
    }

    #[test]
    fn request_roundtrips_field_for_field() {
        let req = sample_request();
        let back = roundtrip_request(&req);
        assert_eq!(back, req);
        // The canonical identity the service uses is the Debug encoding of
        // the reconstructed parts — they must match exactly.
        let (spec, volume, scene, cfg, priority) = req.to_parts().unwrap();
        let (spec2, volume2, scene2, cfg2, priority2) = back.to_parts().unwrap();
        assert_eq!(format!("{spec:?}"), format!("{spec2:?}"));
        assert_eq!(volume.meta, volume2.meta);
        assert_eq!(format!("{scene:?}"), format!("{scene2:?}"));
        assert_eq!(format!("{cfg:?}"), format!("{cfg2:?}"));
        assert_eq!(priority, priority2);
    }

    #[test]
    fn request_roundtrips_every_enum_arm() {
        let mut req = sample_request();
        req.volume = VolumeSpec::InMemory {
            name: "twin".into(),
            dims: [2, 2, 2],
            voxels: vec![0.25; 8],
        };
        req.transfer = TransferSpec::Points(vec![
            ControlPoint {
                value: 0.0,
                rgba: [0.0; 4],
            },
            ControlPoint {
                value: 1.0,
                rgba: [1.0, 0.5, 0.25, 1.0],
            },
        ]);
        req.priority = Priority::Interactive;
        req.background = [0.1, 0.2, 0.3, 0.4];
        req.config.residency = Residency::Disk;
        req.config.partition = PartitionStrategy::Tiled { tile: 32 };
        req.config.compositor = Compositor::BinarySwap;
        req.config.assignment = Assignment::Blocked;
        req.config.combiner = true;
        req.config.trace.async_upload = true;
        assert_eq!(roundtrip_request(&req), req);

        req.config.partition = PartitionStrategy::Checkerboard { cell: 8 };
        req.config.residency = Residency::HostResident;
        req.priority = Priority::Batch;
        assert_eq!(roundtrip_request(&req), req);
    }

    #[test]
    fn custom_transfer_encodes_by_points_and_presets_by_name() {
        assert_eq!(
            TransferSpec::of(&TransferFunction::fire()),
            TransferSpec::Preset("fire".into())
        );
        let custom = TransferFunction::from_points(
            "wire",
            vec![ControlPoint {
                value: 0.5,
                rgba: [1.0; 4],
            }],
        );
        match TransferSpec::of(&custom) {
            TransferSpec::Points(p) => assert_eq!(p.len(), 1),
            other => panic!("custom must encode by points, got {other:?}"),
        }
    }

    #[test]
    fn every_truncation_of_a_valid_payload_is_a_typed_error() {
        let bytes = encode_request(&sample_request());
        for cut in 0..bytes.len() {
            match decode_request(&bytes[..cut]) {
                Err(WireError::Truncated { .. }) | Err(WireError::Malformed(_)) => {}
                Ok(_) => panic!("prefix of {cut} bytes decoded successfully"),
                Err(other) => panic!("prefix of {cut} bytes: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_request(&sample_request());
        bytes.push(0xAB);
        assert_eq!(
            decode_request(&bytes),
            Err(WireError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn header_validation() {
        let mut buf = Vec::new();
        write_frame(&mut buf, opcode::PING, 42, &encode_ping(7)).unwrap();
        assert_eq!(buf, frame_bytes(opcode::PING, 42, &encode_ping(7)));
        let (op, id, payload) = read_frame(&mut buf.as_slice(), DEFAULT_MAX_PAYLOAD).unwrap();
        assert_eq!(op, opcode::PING);
        assert_eq!(id, 42);
        assert_eq!(decode_ping(&payload), Ok(7));

        let mut bad = buf.clone();
        bad[0] ^= 0xFF;
        match read_frame(&mut bad.as_slice(), DEFAULT_MAX_PAYLOAD) {
            Err(WireError::BadMagic(_)) => {}
            other => panic!("{other:?}"),
        }

        let mut bad = buf.clone();
        bad[4] = 0xEE; // version
        match read_frame(&mut bad.as_slice(), DEFAULT_MAX_PAYLOAD) {
            Err(WireError::UnsupportedVersion { want: VERSION, .. }) => {}
            other => panic!("{other:?}"),
        }

        // Declared length beyond the bound.
        let mut bad = buf.clone();
        bad[7..11].copy_from_slice(&u32::MAX.to_le_bytes());
        match read_frame(&mut bad.as_slice(), 1024) {
            Err(WireError::TooLarge { max: 1024, .. }) => {}
            other => panic!("{other:?}"),
        }

        // Empty stream = clean close; torn header = closed too.
        match read_frame(&mut (&[] as &[u8]), 1024) {
            Err(WireError::ConnectionClosed) => {}
            other => panic!("{other:?}"),
        }

        // A frame torn inside the request id is a close, not a panic.
        match read_frame(&mut (&buf[..HEADER_BYTES + 3]), 1024) {
            Err(WireError::ConnectionClosed) => {}
            other => panic!("{other:?}"),
        }
    }

    /// Every request id value round-trips verbatim through the prelude —
    /// including the reserved 0 and the all-ones pattern.
    #[test]
    fn request_id_roundtrips_verbatim() {
        for id in [0u64, 1, 8, u32::MAX as u64, u64::MAX - 1, u64::MAX] {
            let buf = frame_bytes(opcode::SUBMIT, id, b"xyz");
            let (op, got, payload) = read_frame(&mut buf.as_slice(), 1024).unwrap();
            assert_eq!(
                (op, got, payload.as_slice()),
                (opcode::SUBMIT, id, &b"xyz"[..])
            );
        }
    }

    #[test]
    fn unsupported_version_payload_roundtrips() {
        assert_eq!(
            decode_unsupported_version(&encode_unsupported_version(2, VERSION)),
            Ok((2, VERSION))
        );
        assert_eq!(
            decode_unsupported_version(&encode_unsupported_version(0xEEEE, VERSION)),
            Ok((0xEEEE, VERSION))
        );
        // Truncated and oversized payloads are typed errors.
        assert!(matches!(
            decode_unsupported_version(&[1]),
            Err(WireError::Truncated { .. })
        ));
        assert!(matches!(
            decode_unsupported_version(&[0, 0, 0, 0, 9]),
            Err(WireError::TrailingBytes { extra: 1 })
        ));
    }

    #[test]
    fn error_payloads_roundtrip() {
        let admission = AdmissionError {
            priority: Priority::Batch,
            queued: 9,
            limit: 8,
        };
        assert_eq!(decode_rejected(&encode_rejected(&admission)), Ok(admission));
        assert_eq!(
            decode_throttled(&encode_throttled(Duration::from_millis(125))),
            Ok(Duration::from_millis(125))
        );
        assert_eq!(
            decode_message(&encode_message("render panicked: poison")),
            Ok("render panicked: poison".to_string())
        );
        // usize::MAX (the unbounded sentinel) survives the u64 crossing on
        // 64-bit hosts.
        let unbounded = AdmissionError {
            priority: Priority::Interactive,
            queued: 3,
            limit: usize::MAX,
        };
        assert_eq!(decode_rejected(&encode_rejected(&unbounded)), Ok(unbounded));
    }

    #[test]
    fn drain_control_payloads_roundtrip() {
        for epoch in [0u64, 1, 7, u64::MAX] {
            assert_eq!(decode_epoch(&encode_epoch(epoch)), Ok(epoch));
        }
        let state = DrainState {
            draining: true,
            outstanding: 9,
            epoch: 41,
        };
        assert_eq!(decode_drain_state(&encode_drain_state(state)), Ok(state));
        let idle = DrainState {
            draining: false,
            outstanding: 0,
            epoch: u64::MAX,
        };
        assert_eq!(decode_drain_state(&encode_drain_state(idle)), Ok(idle));
        assert_eq!(decode_prewarmed(&encode_prewarmed(3, true)), Ok((3, true)));
        assert_eq!(
            decode_prewarmed(&encode_prewarmed(0, false)),
            Ok((0, false))
        );
    }

    #[test]
    fn prewarm_carries_the_epoch_and_the_full_request() {
        let req = sample_request();
        let bytes = encode_prewarm(17, &req);
        let (epoch, back) = decode_prewarm(&bytes).expect("round-trip");
        assert_eq!(epoch, 17);
        assert_eq!(back, req);
        // Every truncation of the combined payload is a typed error — both
        // inside the epoch prefix and inside the embedded request.
        for cut in 0..bytes.len() {
            match decode_prewarm(&bytes[..cut]) {
                Err(WireError::Truncated { .. }) | Err(WireError::Malformed(_)) => {}
                Ok(_) => panic!("prefix of {cut} bytes decoded successfully"),
                Err(other) => panic!("prefix of {cut} bytes: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn drain_control_truncations_are_typed_errors() {
        let payloads = [
            encode_epoch(99),
            encode_drain_state(DrainState {
                draining: true,
                outstanding: 2,
                epoch: 5,
            }),
            encode_prewarmed(1, true),
        ];
        for bytes in &payloads {
            for cut in 0..bytes.len() {
                let slice = &bytes[..cut];
                let results = [
                    decode_epoch(slice).map(|_| ()),
                    decode_drain_state(slice).map(|_| ()),
                    decode_prewarmed(slice).map(|_| ()),
                ];
                for r in results {
                    if let Err(e) = r {
                        assert!(
                            matches!(
                                e,
                                WireError::Truncated { .. }
                                    | WireError::Malformed(_)
                                    | WireError::TrailingBytes { .. }
                            ),
                            "unexpected {e:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn frame_roundtrips_bit_exact() {
        let mut image = mgpu_volren::Image::new(3, 2);
        for (i, px) in (0..6).zip([0.1f32, 0.5, 0.999, 0.0, 1.0, 0.25]) {
            image.set_linear(i, [px, px * 0.5, 1.0 - px, 1.0]);
        }
        let frame = decode_frame(&encode_frame(&image, true, 123_456)).unwrap();
        assert_eq!(frame.image, image);
        assert!(frame.from_cache);
        assert_eq!(frame.sim_frame, Duration::from_nanos(123_456));

        // Dimension/pixel mismatch is malformed, not a panic.
        let mut bytes = encode_frame(&image, false, 0);
        bytes.truncate(bytes.len() - 4);
        assert!(matches!(decode_frame(&bytes), Err(WireError::Malformed(_))));
    }

    /// The v2 camera arm: a raw look-at camera crosses the wire bit-exactly.
    #[test]
    fn look_camera_roundtrips_bit_exact() {
        let mut req = sample_request();
        let camera = mgpu_volren::camera::Camera::look_at(
            mgpu_volren::math::vec3(9.0, -3.0, 4.5),
            mgpu_volren::math::vec3(8.0, 8.0, 8.0),
            mgpu_volren::math::vec3(0.0, 0.0, 1.0),
            33.0,
        );
        req.camera = CameraSpec::of(&camera);
        let back = roundtrip_request(&req);
        assert_eq!(back, req);
        let (_, volume, scene, _, _) = back.to_parts().unwrap();
        assert_eq!(scene.camera, camera);
        // And the reconstructed camera is bit-identical, not just PartialEq.
        let _ = volume;
        let (e1, f1, r1, u1, t1) = camera.raw_parts();
        let (e2, f2, r2, u2, t2) = scene.camera.raw_parts();
        for (a, b) in [(e1, e2), (f1, f2), (r1, r2), (u1, u2)] {
            for c in 0..3 {
                assert_eq!(a[c].to_bits(), b[c].to_bits());
            }
        }
        assert_eq!(t1.to_bits(), t2.to_bits());
    }

    /// `from_request` is the portable description of an in-process request:
    /// named datasets travel by name, anything small ships voxels, and the
    /// reconstructed parts match the originals field for field.
    #[test]
    fn from_request_describes_in_process_requests() {
        use mgpu_serve::{Priority, SceneRequest};

        let volume = Dataset::Supernova.volume(16);
        let spec = ClusterSpec::accelerator_cluster(3).with_gpus_per_node(2);
        let scene = Scene::orbit(&volume, 123.0, -8.0, TransferFunction::fire())
            .with_background([0.2, 0.1, 0.0, 1.0]);
        let request = SceneRequest {
            spec: spec.clone(),
            volume: volume.clone(),
            scene: scene.clone(),
            config: RenderConfig::test_size(16),
            priority: Priority::Interactive,
        };
        let net = NetSceneRequest::from_request(&request).expect("portable");
        assert_eq!(
            net.volume,
            VolumeSpec::Dataset {
                dataset: Dataset::Supernova,
                base: 16
            },
            "a named dataset travels by name, not by voxels"
        );
        let (spec2, volume2, scene2, cfg2, priority2) = roundtrip_request(&net).to_parts().unwrap();
        assert_eq!(spec2, spec);
        assert_eq!(volume2.meta, volume.meta);
        assert_eq!(scene2.camera, scene.camera);
        assert_eq!(scene2.background, scene.background);
        assert_eq!(format!("{cfg2:?}"), format!("{:?}", request.config));
        assert_eq!(priority2, Priority::Interactive);

        // A custom in-memory volume ships its exact voxels.
        let custom = Volume::in_memory("twist", [3, 3, 3], (0..27).map(|i| i as f32).collect());
        let shipped = SceneRequest {
            volume: custom.clone(),
            scene: Scene::orbit(&custom, 0.0, 0.0, TransferFunction::bone()),
            ..request.clone()
        };
        match NetSceneRequest::from_request(&shipped).unwrap().volume {
            VolumeSpec::InMemory { name, dims, voxels } => {
                assert_eq!((name.as_str(), dims), ("twist", [3, 3, 3]));
                assert_eq!(voxels.len(), 27);
            }
            other => panic!("expected shipped voxels, got {other:?}"),
        }

        // A non-standard cluster model is a typed refusal, not silence.
        let mut exotic = request.clone();
        exotic.spec.disk = mgpu_sim::LinkModel::new(1.0, 1.0);
        let err = NetSceneRequest::from_request(&exotic).expect_err("not portable");
        assert!(err.contains("accelerator-cluster"), "{err}");
    }

    #[test]
    fn traces_roundtrip_and_truncations_are_typed() {
        let traces = vec![
            mgpu_obs::CompletedTrace {
                id: 7,
                spans: vec![
                    mgpu_obs::SpanRecord {
                        name: "queue".into(),
                        start_ns: 10,
                        end_ns: 20,
                    },
                    mgpu_obs::SpanRecord {
                        name: "render".into(),
                        start_ns: 20,
                        end_ns: 90,
                    },
                ],
            },
            mgpu_obs::CompletedTrace {
                id: u64::MAX,
                spans: vec![],
            },
        ];
        let bytes = encode_traces(&traces);
        assert_eq!(decode_traces(&bytes).unwrap(), traces);
        assert_eq!(decode_traces_request(&encode_traces_request(32)), Ok(32));
        for cut in 0..bytes.len() {
            match decode_traces(&bytes[..cut]) {
                Err(WireError::Truncated { .. }) | Err(WireError::Malformed(_)) => {}
                Ok(_) => panic!("prefix of {cut} bytes decoded successfully"),
                Err(other) => panic!("prefix of {cut} bytes: unexpected {other:?}"),
            }
        }
        // A span that ends before it starts is malformed, not accepted.
        let mut backwards = traces.clone();
        backwards[0].spans[0].start_ns = 50;
        backwards[0].spans[0].end_ns = 40;
        assert!(matches!(
            decode_traces(&encode_traces(&backwards)),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn bad_volume_specs_are_malformed() {
        let mismatched = VolumeSpec::InMemory {
            name: "broken".into(),
            dims: [2, 2, 2],
            voxels: vec![0.0; 7],
        };
        assert!(matches!(
            mismatched.to_volume(),
            Err(WireError::Malformed(_))
        ));
        let zero = VolumeSpec::Dataset {
            dataset: Dataset::Skull,
            base: 0,
        };
        assert!(matches!(zero.to_volume(), Err(WireError::Malformed(_))));
    }
}
