//! The wire format: a versioned, length-prefixed binary framing plus one
//! codec for every request and response payload, over `std` only.
//!
//! ## The codec
//!
//! Every type that crosses the socket implements `Wire`: `put` appends
//! its bytes to a `Writer`, `get` reads them back off a `Reader`, and
//! `MIN_BYTES` bounds any encoding's size from below. `encode` and
//! `decode` are the only entry points — `decode` is `get` followed by
//! `Reader::finish`. A plain struct's field list is written once
//! (`wire_struct!`) and serves both directions, so the two ends of a
//! connection cannot drift apart field by field. Every implementation
//! keeps the same four-clause contract, which one generic test
//! (`wire_contract`) checks over a sample of every type and as a proptest:
//!
//! 1. **Round trip.** `decode(encode(v))` succeeds and re-encodes to the
//!    same bytes (compared as bytes, so NaN payloads count).
//! 2. **Truncation.** Every strict prefix of an encoding is a typed
//!    [`WireError::Truncated`]; a length prefix is checked against the
//!    bytes that remain (`Reader::count`) *before* anything is allocated.
//! 3. **No trailing bytes.** An encoding with one byte appended is
//!    [`WireError::TrailingBytes`].
//! 4. **Canonical.** Bytes that decode at all re-encode to exactly
//!    themselves: tags, bools, pads, UTF-8 and name order are all checked,
//!    so a corrupted payload either fails typed or *is* the one encoding
//!    of the value it decodes to.
//!
//! ## Messages
//!
//! A frame carries one `Request` (tags below `0x80`) or one `Reply`
//! (from `0x80`), each declared once — per variant, its payload's fields in
//! wire order and its tag, the frame's opcode byte — by `messages!`, which
//! also writes the one codec: `tag`, `framed` and `decode`. The server and
//! the client match them exhaustively, so a new message does not compile
//! until both ends handle it.
//!
//! A `FRAME` (`Reply::Frame`) is a 17-byte head (`bool, u64, u32, u32`
//! — cache provenance, simulated nanoseconds, width, height) whose
//! dimensions imply the size of what follows, the image's RGBA rows as
//! little-endian `f32`. That is how an `Image` already lies in memory, so
//! a frame is never *encoded* on its way through a socket. The server
//! queues the prelude and head (36 bytes) plus a share of the
//! `Arc<Image>` its frame cache holds (`frame_view`) and writes both with
//! one vectored write; the client's `FrameReader::read_reply` checks the
//! head against the declared length — itself within `max_payload` —
//! before allocating, then reads the pixel bytes straight into the image
//! it returns. Both rest on `pixel_bytes` and `pixel_bytes_mut`, the
//! `[[f32; 4]]`-as-`[u8]` views, which flatten the pixels and take the
//! workspace's one pair of `f32` byte views, [`mgpu_voldata::io::f32_bytes`]
//! and [`mgpu_voldata::io::f32_bytes_mut`], behind their compile-time
//! little-endian assertion. [`encode_frame`] / [`decode_frame`] are the
//! same head and views over a `Vec<u8>` — one exact allocation, one bulk
//! copy — kept for callers that want the bytes.
//!
//! ## Framing (v3)
//!
//! Every message (either direction) is one frame:
//!
//! | field      | bytes | value                                      |
//! |------------|-------|--------------------------------------------|
//! | magic      | 4     | the bytes `MGPU` (LE u32 `0x5550474D`)     |
//! | version    | 2     | [`VERSION`]                                |
//! | opcode     | 1     | the message's tag (`Request`, `Reply`)     |
//! | length     | 4     | payload bytes that follow the request id   |
//! | request_id | 8     | correlates a response with its request     |
//! | payload    | n     | the message's fields                       |
//!
//! The `request_id` (new in v3) is chosen by the client, must be unique
//! among that connection's outstanding requests, and is echoed verbatim on
//! every response to the request — which is what lets one connection carry
//! many in-flight renders and redeem the replies out of order. Requests the
//! server originates no reply for do not exist; unsolicited server frames
//! (`Reply::UnsupportedVersion`, `Reply::BadRequest` for unframable
//! input, `Reply::Goodbye`) carry request id 0.
//!
//! Both ends of the socket parse frames with one incremental reader
//! (`FrameReader`) that runs over any `Read`, so a torn or hostile byte
//! stream can be replayed from a slice.
//!
//! Integers and float bit patterns are little-endian. Floats travel as
//! [`f32::to_bits`]/[`f64::to_bits`], so decoding reconstructs the exact
//! input — the bit-identity guarantee of the render service extends across
//! the socket.
//!
//! Every decode error is a typed [`WireError`]; malformed and truncated
//! input can never panic the peer. This module denies clippy's seven panic
//! lints (no `unwrap`, `expect`, panicking macro or direct index or slice
//! outside its tests, encoders included), and `mgpu-lint`'s
//! `panic-free-decode` keeps every decode item of `mgpu-net` in a file that
//! does the same.
//!
//! ### Migration from v2
//!
//! The 11-byte header layout is unchanged, so a v2 peer can always frame a
//! v3 header (and vice versa) far enough to read the version field and fail
//! with a typed [`WireError::UnsupportedVersion`]. The server goes one step
//! further: a request frame carrying any version other than [`VERSION`] is
//! answered with a typed `Reply::UnsupportedVersion` before the
//! connection closes cleanly — a v2
//! client sees an orderly refusal instead of a silent disconnect.

#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use std::borrow::Cow;
use std::io::{IoSlice, Read, Write};
use std::sync::Arc;
use std::time::Duration;

use mgpu_cluster::ClusterSpec;
use mgpu_mapreduce::{Assignment, TraceOptions};
use mgpu_obs::CompletedTrace;
use mgpu_serve::{AdmissionError, Priority};
use mgpu_voldata::io::{f32_bytes, f32_bytes_mut};
use mgpu_voldata::{Dataset, Volume};
use mgpu_volren::camera::Scene;
use mgpu_volren::config::{Compositor, PartitionStrategy, RenderConfig, Residency};
use mgpu_volren::transfer::ControlPoint;
use mgpu_volren::{Image, TransferFunction};

use crate::heat::NetStats;

/// Frame magic: the ASCII bytes `MGPU` as a little-endian `u32`
/// (`0x5550474D`) — a packet capture shows the literal characters "MGPU"
/// at every frame boundary.
pub(crate) const MAGIC: u32 = u32::from_le_bytes(*b"MGPU");
/// Protocol version this build speaks. Bumped on any incompatible change;
/// the server answers other versions with a typed
/// `Reply::UnsupportedVersion` (and decoders fail with
/// [`WireError::UnsupportedVersion`]). v2 replaced the orbit-only camera
/// fields with [`CameraSpec`]; v3 added the per-request `request_id` that
/// multiplexes many in-flight renders over one connection; v4 added the
/// elastic-pool control messages (`Request::Drain` / `Request::Resume`
/// / `Request::Prewarm` and their replies) and the directory epoch
/// carried by the `STATS` payload; v5 replaced the `Reply::StatsReport`
/// payload with STATS v3 (epoch, uptime, per-shard and node snapshots — see
/// [`crate::heat`]).
pub const VERSION: u16 = 5;
/// Frame header bytes: magic + version + opcode + length.
pub(crate) const HEADER_BYTES: usize = 4 + 2 + 1 + 4;
/// Fixed-size frame prelude: the header plus the 8-byte request id. A
/// reader consumes `PRELUDE_BYTES`, then the `length` payload bytes the
/// header declared.
pub(crate) const PRELUDE_BYTES: usize = HEADER_BYTES + 8;
/// Default cap on a single payload (a 1024² float-RGBA frame is 16 MiB;
/// 64 MiB leaves room for shipped in-memory volumes without letting one
/// frame OOM the peer).
pub const DEFAULT_MAX_PAYLOAD: u64 = 64 << 20;

/// Everything that can go wrong between bytes and messages. Framing errors
/// (`BadMagic`, `UnsupportedVersion`, `Truncated`, `TooLarge`) mean the
/// stream position is lost and the connection must close — the server also
/// closes on `UnknownOpcode`, since a peer dispatching unknown requests is
/// not speaking this protocol; payload errors (`Malformed`,
/// `TrailingBytes`) poison only the offending request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Underlying socket error (kind only: portable and comparable). A
    /// peer that closes inside a frame is `UnexpectedEof` here.
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
        WireError::Io(err.kind())
    }
}

// ---------------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------------

/// Append-only payload encoder (little-endian throughout).
#[derive(Debug, Default)]
pub(crate) struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Writer {
        Writer::default()
    }

    /// For an encoding whose size is known up front.
    fn with_capacity(bytes: usize) -> Writer {
        Writer {
            buf: Vec::with_capacity(bytes),
        }
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

    /// A `u32` count, then each item.
    pub fn seq<T: Wire>(&mut self, items: &[T]) {
        self.u32(items.len() as u32);
        for item in items {
            item.put(self);
        }
    }
}

/// Cursor over a received payload; every read is bounds-checked into a
/// typed [`WireError`].
#[derive(Debug)]
pub(crate) struct Reader<'a> {
    /// The bytes not yet consumed.
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { rest: buf }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let have = self.rest.len();
        let (head, tail) = self
            .rest
            .split_at_checked(n)
            .ok_or(WireError::Truncated { needed: n, have })?;
        self.rest = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let have = self.rest.len();
        let (head, tail) = self
            .rest
            .split_first_chunk::<N>()
            .ok_or(WireError::Truncated { needed: N, have })?;
        self.rest = tail;
        Ok(*head)
    }

    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(u8::from_le_bytes(self.array()?))
    }

    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError::Malformed(format!("bool byte {other}"))),
        }
    }

    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array()?))
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
        let have = self.rest.len();
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

    /// A `u32` count, then that many items; the count is checked against
    /// the remaining bytes ([`Reader::count`]) before the vector is sized.
    pub fn seq<T: Wire>(&mut self) -> Result<Vec<T>, WireError> {
        let n = self.count(T::MIN_BYTES)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(T::get(self)?);
        }
        Ok(items)
    }

    /// Assert the payload is fully consumed ([`decode`] calls this last, so
    /// a frame with junk glued on fails instead of silently parsing).
    pub fn finish(&self) -> Result<(), WireError> {
        match self.rest.len() {
            0 => Ok(()),
            extra => Err(WireError::TrailingBytes { extra }),
        }
    }
}

// ---------------------------------------------------------------------------
// The codec
// ---------------------------------------------------------------------------

/// One type's wire form, written once for both directions. See the module
/// docs for the four-clause contract every implementation keeps.
pub(crate) trait Wire: Sized {
    /// A lower bound on the bytes any encoding of `Self` occupies: what
    /// [`Reader::count`] multiplies a received length prefix by, so a
    /// hostile count is refused before `Vec<Self>` is sized for it.
    const MIN_BYTES: usize;

    fn put(&self, w: &mut Writer);

    fn get(r: &mut Reader) -> Result<Self, WireError>;
}

/// Encode one payload.
pub(crate) fn encode<T: Wire>(value: &T) -> Vec<u8> {
    let mut w = Writer::new();
    value.put(&mut w);
    w.into_bytes()
}

/// Decode one payload; consumes the whole payload.
pub(crate) fn decode<T: Wire>(payload: &[u8]) -> Result<T, WireError> {
    let mut r = Reader::new(payload);
    let value = T::get(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// `impl Wire` for the types [`Writer`] and [`Reader`] have a method for.
/// (`#[inline]` here and in the two macros below: these bodies are not
/// generic, so without the hint a request's field-by-field calls are not
/// flattened across codegen units the way one hand-written function was.)
macro_rules! wire_primitive {
    ($($ty:ty = $method:ident, $bytes:expr;)+) => {$(
        impl Wire for $ty {
            const MIN_BYTES: usize = $bytes;
            #[inline]
            fn put(&self, w: &mut Writer) {
                w.$method(*self)
            }
            #[inline]
            fn get(r: &mut Reader) -> Result<Self, WireError> {
                r.$method()
            }
        }
    )+};
}

wire_primitive! {
    u8 = u8, 1;
    bool = bool, 1;
    u16 = u16, 2;
    u32 = u32, 4;
    u64 = u64, 8;
    f32 = f32, 4;
    f64 = f64, 8;
}

impl Wire for String {
    const MIN_BYTES: usize = 4;
    fn put(&self, w: &mut Writer) {
        w.str(self)
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        r.str()
    }
}

/// By bit pattern, as a `u64`.
impl Wire for i64 {
    const MIN_BYTES: usize = 8;
    fn put(&self, w: &mut Writer) {
        w.u64(*self as u64)
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        Ok(r.u64()? as i64)
    }
}

/// As a `u64`, so `usize::MAX` (the "unbounded" sentinel) survives between
/// 64-bit hosts.
impl Wire for usize {
    const MIN_BYTES: usize = 8;
    fn put(&self, w: &mut Writer) {
        w.u64(*self as u64)
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        Ok(r.u64()? as usize)
    }
}

/// Whole nanoseconds as a `u64`, saturating (584 years).
impl Wire for Duration {
    const MIN_BYTES: usize = 8;
    fn put(&self, w: &mut Writer) {
        w.u64(u64::try_from(self.as_nanos()).unwrap_or(u64::MAX))
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        Ok(Duration::from_nanos(r.u64()?))
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;
    fn put(&self, w: &mut Writer) {
        self.0.put(w);
        self.1.put(w);
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

impl<T: Wire + Copy + Default, const N: usize> Wire for [T; N] {
    const MIN_BYTES: usize = N * T::MIN_BYTES;
    fn put(&self, w: &mut Writer) {
        for item in self {
            item.put(w);
        }
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        let mut items = [T::default(); N];
        for item in &mut items {
            *item = T::get(r)?;
        }
        Ok(items)
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_BYTES: usize = 4;
    fn put(&self, w: &mut Writer) {
        w.seq(self)
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        r.seq()
    }
}

/// A borrowed or owned value, encoded as the value: what a message carries
/// by reference on its way out decodes to an owned copy.
impl<T: Wire + Clone> Wire for Cow<'_, T> {
    const MIN_BYTES: usize = T::MIN_BYTES;
    fn put(&self, w: &mut Writer) {
        T::put(self, w)
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        T::get(r).map(Cow::Owned)
    }
}

/// `impl Wire` for a plain struct from one field list: the order written
/// here *is* the wire order, in both directions. Given a whole struct (of
/// any visibility, its fields `pub`) it defines the struct too, so a
/// payload type's fields are listed once.
/// An optional `where` closure refuses decoded values that break an
/// invariant.
macro_rules! wire_struct {
    ($ty:path { $($field:ident: $fty:ty),+ $(,)? } $(where $check:expr)?) => {
        impl $crate::wire::Wire for $ty {
            const MIN_BYTES: usize = 0 $(+ <$fty as $crate::wire::Wire>::MIN_BYTES)+;
            #[inline]
            fn put(&self, w: &mut $crate::wire::Writer) {
                $($crate::wire::Wire::put(&self.$field, w);)+
            }
            #[inline]
            fn get(r: &mut $crate::wire::Reader) -> Result<Self, $crate::wire::WireError> {
                let value = Self { $($field: $crate::wire::Wire::get(r)?),+ };
                $(($check)(&value)?;)?
                Ok(value)
            }
        }
    };
    ($(#[$meta:meta])* $vis:vis struct $ty:ident {
        $($(#[$fmeta:meta])* pub $field:ident: $fty:ty),+ $(,)?
    }) => {
        $(#[$meta])*
        $vis struct $ty {
            $($(#[$fmeta])* pub $field: $fty),+
        }
        $crate::wire::wire_struct!($ty { $($field: $fty),+ });
    };
}
pub(crate) use wire_struct;

/// `impl Wire` for an enum that travels as a one-byte tag followed by the
/// chosen variant's fields, in the order listed. `MIN_BYTES` is the tag's
/// alone: a lower bound is all [`Reader::count`] needs.
macro_rules! wire_enum {
    ($ty:ident, $what:literal {
        $($tag:literal => $variant:ident $({ $($field:ident),+ })?),+ $(,)?
    }) => {
        impl Wire for $ty {
            const MIN_BYTES: usize = 1;
            #[inline]
            fn put(&self, w: &mut Writer) {
                match self {$(
                    $ty::$variant $({ $($field),+ })? => {
                        w.u8($tag);
                        $($($field.put(w);)+)?
                    }
                )+}
            }
            #[inline]
            fn get(r: &mut Reader) -> Result<Self, WireError> {
                match r.u8()? {
                    $($tag => Ok($ty::$variant $({ $($field: Wire::get(r)?),+ })?),)+
                    other => Err(WireError::Malformed(format!(concat!($what, " tag {}"), other))),
                }
            }
        }
    };
}

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

/// A message enum and its one codec, from one declaration per variant: the
/// payload's fields in wire order, then `= tag`, the frame's opcode byte.
macro_rules! messages {
    ($(#[$meta:meta])* $vis:vis enum $ty:ident $(<$lt:lifetime>)? {
        $($(#[$vmeta:meta])* $variant:ident $(($($field:ident: $fty:ty),+))? = $tag:tt,)+
    }) => {
        $(#[$meta])*
        $vis enum $ty $(<$lt>)? {
            $($(#[$vmeta])* $variant $(($($fty),+))?,)+
        }

        impl $(<$lt>)? $ty $(<$lt>)? {
            /// Every variant's tag and name, in declaration order.
            #[cfg(test)]
            pub(crate) const TAGS: &'static [(u8, &'static str)] =
                &[$(($tag, stringify!($variant))),+];

            /// The frame header's opcode byte for this message.
            pub fn tag(&self) -> u8 {
                match self {
                    $($ty::$variant { .. } => $tag,)+
                }
            }

            /// The whole frame: prelude under `request_id`, then the payload.
            pub fn framed(&self, request_id: u64) -> Vec<u8> {
                let mut w = Writer::new();
                put_prelude(&mut w, self.tag(), 0, request_id);
                match self {
                    $($ty::$variant $(($($field),+))? => {
                        $($(Wire::put($field, &mut w);)+)?
                    })+
                }
                seal(w)
            }

            /// The message a frame's `tag` and `payload` carry: each field's
            /// `Wire::get` in turn, then [`Reader::finish`].
            pub fn decode(tag: u8, payload: &[u8]) -> Result<Self, WireError> {
                let mut r = Reader::new(payload);
                let message = match tag {
                    $($tag => $ty::$variant $(($(<$fty as Wire>::get(&mut r)?),+))?,)+
                    other => return Err(WireError::UnknownOpcode(other)),
                };
                r.finish()?;
                Ok(message)
            }
        }
    };
}

messages! {
    /// A client's request. A render request travels as a [`Cow`]: a sender
    /// frames it from its own borrow, a receiver decodes an owned copy.
    #[derive(Debug, Clone, PartialEq)]
    pub(crate) enum Request<'a> {
        /// Liveness and version probe: answered by a [`Pong`].
        Ping(token: u64) = 0x01,
        /// Render; the frame (or why not) answers under this request's id.
        Render(request: Cow<'a, NetSceneRequest>) = 0x02,
        /// Admit a render; its ticket, this request's id, answers at once.
        Submit(request: Cow<'a, NetSceneRequest>) = 0x03,
        /// Exchange a ticket for its frame or its error.
        Redeem(ticket: u64) = 0x04,
        /// The node's [`NetStats`].
        Stats = 0x05,
        /// The newest completed request traces, at most `max`.
        Traces(max: u32) = 0x06,
        /// Refuse new work, announcing the controller's directory epoch;
        /// owed replies still flow, then [`Reply::Goodbye`]. New in v4.
        Drain(epoch: u64) = 0x07,
        /// Call a drain off. New in v4.
        Resume(epoch: u64) = 0x08,
        /// Build a request's plan (brick grid, empty brick store) before
        /// traffic moves there, announcing `epoch`. New in v4.
        Prewarm(epoch: u64, request: Cow<'a, NetSceneRequest>) = 0x09,
    }
}

/// The tag of [`Reply::Frame`], which `FrameReader::read_reply` decodes in
/// place.
const FRAME_TAG: u8 = 0x82;

messages! {
    /// A server's reply, under the id of the request it answers; an
    /// unsolicited one, under id 0, is a verdict on the connection.
    #[derive(Debug, Clone, PartialEq)]
    pub(crate) enum Reply {
        Pong(pong: Pong) = 0x81,
        /// The rendered frame. The server sends a `frame_view` of the image
        /// its frame cache holds; nothing is encoded.
        Frame(frame: NetFrame) = FRAME_TAG,
        Submitted(ticket: u64) = 0x83,
        /// Admission control shed the request.
        Rejected(error: AdmissionError) = 0x84,
        /// The session's rate limiter refused the request; retry after this.
        Throttled(retry_after: Duration) = 0x85,
        /// The render failed server-side.
        Failed(message: String) = 0x86,
        StatsReport(stats: NetStats) = 0x87,
        TicketsFull(full: TicketsFull) = 0x88,
        /// Unsolicited, then the connection closes. New in v3.
        UnsupportedVersion(versions: UnsupportedVersion) = 0x89,
        /// Newest first.
        Traces(traces: Vec<CompletedTrace>) = 0x8A,
        DrainState(state: DrainState) = 0x8B,
        Prewarmed(prewarmed: Prewarmed) = 0x8C,
        /// Unsolicited: a draining server owes nothing more and closes the
        /// connection. New in v4.
        Goodbye = 0x8D,
        /// New work refused while the server drains, with its directory
        /// epoch; the connection stays open. New in v4.
        Draining(epoch: u64) = 0x8E,
        /// The server's echo of the [`WireError`] a request caused: under
        /// its id, that request failed and the connection carries on; under
        /// id 0 (unframable input, an unknown tag) the connection closes.
        BadRequest(message: String) = 0xFF,
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// The fixed-size prelude of a frame whose payload is `len` bytes.
fn put_prelude(w: &mut Writer, opcode: u8, len: u32, request_id: u64) {
    w.u32(MAGIC);
    w.u16(VERSION);
    w.u8(opcode);
    w.u32(len);
    w.u64(request_id);
}

/// A frame written into `w` behind a zero length field: the length of what
/// followed the prelude, filled in.
fn seal(mut w: Writer) -> Vec<u8> {
    let len = w.buf.len().saturating_sub(PRELUDE_BYTES) as u32;
    if let Some((prelude, _)) = w.buf.split_first_chunk_mut::<PRELUDE_BYTES>() {
        prelude[HEADER_BYTES - 4..HEADER_BYTES].copy_from_slice(&len.to_le_bytes());
    }
    w.buf
}

/// One frame on its way out of an event loop: owned bytes, then — for a
/// [`frame_view`] — the pixels that end its payload, still in the image
/// the frame cache holds.
pub(crate) struct OutFrame {
    bytes: Vec<u8>,
    pixels: Option<Arc<Image>>,
}

impl From<Vec<u8>> for OutFrame {
    fn from(bytes: Vec<u8>) -> OutFrame {
        OutFrame {
            bytes,
            pixels: None,
        }
    }
}

impl OutFrame {
    /// The frame in wire order: the owned run, then the pixel run.
    fn parts(&self) -> [&[u8]; 2] {
        let pixels = self.pixels.as_deref();
        let pixels = pixels.map_or(&[][..], |image| pixel_bytes(image.pixels()));
        [&self.bytes, pixels]
    }

    pub(crate) fn len(&self) -> usize {
        self.parts().iter().map(|run| run.len()).sum()
    }

    /// One write of the frame from byte `pos` on — wherever the last write
    /// stopped: inside the owned bytes, on the seam, or mid-pixel. What is
    /// left of both runs leaves in one vectored write.
    pub(crate) fn write_from(&self, pos: usize, w: &mut impl Write) -> std::io::Result<usize> {
        let [owned, pixels] = self.parts();
        let pixels = pixels.get(pos.saturating_sub(owned.len())..);
        w.write_vectored(&[
            IoSlice::new(owned.get(pos..).unwrap_or_default()),
            IoSlice::new(pixels.unwrap_or_default()),
        ])
    }
}

/// The bytes of `Reply::Frame(..).framed(request_id)` with nothing encoded
/// and nothing copied: 36 owned bytes of prelude and frame head, and the
/// pixels where they already are. Refuses an image too large for the `u32`
/// length field.
pub(crate) fn frame_view(
    request_id: u64,
    image: Arc<Image>,
    from_cache: bool,
    sim_nanos: u64,
) -> Result<OutFrame, WireError> {
    let len = (FRAME_HEAD_BYTES + std::mem::size_of_val(image.pixels())) as u64;
    let max = u32::MAX as u64;
    let len = u32::try_from(len).map_err(|_| WireError::TooLarge { len, max })?;
    let mut w = Writer::with_capacity(PRELUDE_BYTES + FRAME_HEAD_BYTES);
    put_prelude(&mut w, FRAME_TAG, len, request_id);
    put_frame_head(&mut w, &image, from_cache, sim_nanos);
    Ok(OutFrame {
        bytes: w.buf,
        pixels: Some(image),
    })
}

/// One `FRAME` written and flushed, as the server replies: the prelude and
/// head, then the pixels from where they are — the bytes of
/// [`encode_frame`]'s payload behind its prelude.
pub fn write_frame_view(
    w: &mut impl Write,
    request_id: u64,
    image: &Arc<Image>,
    from_cache: bool,
    sim_nanos: u64,
) -> Result<(), WireError> {
    let frame = frame_view(request_id, Arc::clone(image), from_cache, sim_nanos)?;
    let [head, pixels] = frame.parts();
    w.write_all(head)?;
    w.write_all(pixels)?;
    w.flush()?;
    Ok(())
}

/// Parse a frame header, validating magic, version and the payload bound.
pub(crate) fn parse_header(
    header: &[u8; HEADER_BYTES],
    max_payload: u64,
) -> Result<(u8, usize), WireError> {
    let mut r = Reader::new(header);
    let magic = r.u32()?;
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(WireError::UnsupportedVersion {
            got: version,
            want: VERSION,
        });
    }
    let opcode = r.u8()?;
    let len = r.u32()? as u64;
    if len > max_payload {
        return Err(WireError::TooLarge {
            len,
            max: max_payload,
        });
    }
    Ok((opcode, len as usize))
}

/// A received payload: its bytes, or — a `FRAME` read by
/// [`FrameReader::read_reply`] — the frame they decode to.
enum Body {
    Bytes(Vec<u8>),
    Frame(NetFrame),
}

/// The one frame parser, for both ends of the socket: pulls a frame's bytes
/// from any `Read` — blocking or not, a socket or a byte slice — and keeps
/// its place between calls, so a frame may arrive split at any boundary.
pub(crate) struct FrameReader {
    /// The prelude, then the head of a `FRAME` that is decoded in place.
    fixed: [u8; PRELUDE_BYTES + FRAME_HEAD_BYTES],
    /// Bytes of the current frame received so far: prelude, then payload.
    have: usize,
    /// Once the header has validated: the opcode, the payload length, and
    /// — for a `FRAME` being decoded in place — how many payload bytes
    /// belong in `fixed` rather than in `body`.
    header: Option<(u8, usize, Option<usize>)>,
    /// Where the rest of the payload lands, sized exactly once everything
    /// that sizes it has arrived and validated.
    body: Option<Body>,
}

impl FrameReader {
    pub(crate) fn new() -> FrameReader {
        FrameReader {
            fixed: [0u8; PRELUDE_BYTES + FRAME_HEAD_BYTES],
            have: 0,
            header: None,
            body: None,
        }
    }

    /// Read until one frame is complete (`Ok(Some((opcode, request_id,
    /// payload)))`) or `r` would block (`Ok(None)`: call again once it is
    /// readable). The header is validated as soon as `HEADER_BYTES` are in
    /// — a v2 peer's frame has no request id and may never reach
    /// `PRELUDE_BYTES` — and nothing is allocated before it passes. EOF
    /// before a frame's first byte is [`WireError::ConnectionClosed`];
    /// inside a frame it is an `UnexpectedEof` I/O error. After any `Err`
    /// the stream position is lost and the reader must not be used again.
    pub(crate) fn read(
        &mut self,
        r: &mut impl Read,
        max_payload: u64,
    ) -> Result<Option<(u8, u64, Vec<u8>)>, WireError> {
        let frame = self.pull(r, max_payload, false)?;
        Ok(frame.map(|(opcode, id, body)| match body {
            Body::Bytes(payload) => (opcode, id, payload),
            // Only a frame begun by `read_reply`; the bytes are the same.
            Body::Frame(frame) => (opcode, id, encode(&frame)),
        }))
    }

    /// [`FrameReader::read`] for the receiving end of replies: the reply
    /// and its request id, or why its payload did not decode (framing is
    /// intact either way). A `FRAME` is decoded as it arrives: its 17-byte
    /// head is judged exactly as [`decode_frame`] judges it — against the
    /// declared payload length, itself already within `max_payload` —
    /// before any pixel is allocated for, and the pixel bytes are then read
    /// straight into the image that is returned.
    #[allow(clippy::type_complexity)]
    pub(crate) fn read_reply(
        &mut self,
        r: &mut impl Read,
        max_payload: u64,
    ) -> Result<Option<(u64, Result<Reply, WireError>)>, WireError> {
        let frame = self.pull(r, max_payload, true)?;
        Ok(frame.map(|(tag, id, body)| match body {
            Body::Frame(frame) => (id, Ok(Reply::Frame(frame))),
            Body::Bytes(payload) => (id, Reply::decode(tag, &payload)),
        }))
    }

    fn pull(
        &mut self,
        r: &mut impl Read,
        max_payload: u64,
        frames_in_place: bool,
    ) -> Result<Option<(u8, u64, Body)>, WireError> {
        loop {
            let have = self.have;
            // The next bytes go to the rest of `fixed`, then to the body.
            let rest = match self.header {
                None if have >= HEADER_BYTES => {
                    if let Some(header) = self.fixed.first_chunk() {
                        let (op, len) = parse_header(header, max_payload)?;
                        let in_place = frames_in_place && op == FRAME_TAG;
                        let head = in_place.then(|| len.min(FRAME_HEAD_BYTES));
                        self.header = Some((op, len, head));
                    }
                    continue;
                }
                None => self.fixed.get_mut(have..PRELUDE_BYTES),
                Some((op, len, head)) => {
                    let fixed = PRELUDE_BYTES + head.unwrap_or(0);
                    if self.body.is_none() && have >= fixed {
                        self.body = Some(match head {
                            Some(_) => {
                                let head = self.fixed.get(PRELUDE_BYTES..fixed);
                                Body::Frame(blank_frame(head.unwrap_or_default(), len)?)
                            }
                            None => Body::Bytes(vec![0u8; len]),
                        });
                    }
                    if let Some(body) = self.body.take_if(|_| have == PRELUDE_BYTES + len) {
                        self.have = 0;
                        self.header = None;
                        let id = self.fixed.get(HEADER_BYTES..).unwrap_or_default();
                        return Ok(Some((op, Reader::new(id).u64()?, body)));
                    }
                    let got = have.checked_sub(fixed);
                    match &mut self.body {
                        None => self.fixed.get_mut(have..fixed),
                        Some(Body::Bytes(payload)) => got.and_then(|at| payload.get_mut(at..)),
                        Some(Body::Frame(frame)) => got
                            .and_then(|at| pixel_bytes_mut(frame.image.pixels_mut()).get_mut(at..)),
                    }
                }
            };
            match r.read(rest.unwrap_or_default()) {
                Ok(0) if self.have == 0 => return Err(WireError::ConnectionClosed),
                Ok(0) => return Err(WireError::Io(std::io::ErrorKind::UnexpectedEof)),
                Ok(n) => self.have += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }
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

/// Finest ray-march step a request may ask for, in voxels. Samples per ray
/// grow as `1 / step`, so without a floor one well-formed request could pin
/// a render worker for hours; the repo itself only ever marches at 1.0.
pub const MIN_STEP_VOXELS: f32 = 1.0 / 16.0;

/// Largest cluster a request may ask for: 8× the paper's largest. A render
/// runs `2·gpus − 1` roles at once on threads the executor keeps for the
/// life of the process, so without a ceiling one well-formed request could
/// leave a server holding thousands of parked threads.
pub const MAX_GPUS: u32 = 256;

/// Largest procedural-dataset resolution a request may name: the paper's
/// largest cube edge. Plume is `base × base × 4·base`, so without a ceiling
/// one well-formed request could ask for dimensions that overflow `u32`.
pub const MAX_DATASET_BASE: u32 = 1024;

/// Most bricks a request may have its volume cut into. A plan holds one
/// handle per brick, and `BrickGrid::subdivide` splits toward two targets,
/// `bricks_per_gpu · gpus` and `⌈voxels / max_brick_voxels⌉`; the door
/// bounds both, so it refuses a request without building its grid.
pub const MAX_BRICKS: u64 = 4096;

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
                if *base == 0 || *base > MAX_DATASET_BASE {
                    return Err(WireError::Malformed(format!(
                        "dataset base resolution {base} (1 to {MAX_DATASET_BASE})"
                    )));
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

wire_struct! {
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
}

impl NetSceneRequest {
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

    /// The in-process request on the receiving side — the inverse of
    /// [`NetSceneRequest::from_request`] — or the door's refusal.
    pub fn to_request(&self) -> Result<mgpu_serve::SceneRequest, WireError> {
        if self.gpus == 0 || self.gpus > MAX_GPUS || self.gpus_per_node == 0 {
            return Err(WireError::Malformed(format!(
                "cluster of {} GPUs, {} per node (1 to {MAX_GPUS} GPUs, at least 1 per node)",
                self.gpus, self.gpus_per_node
            )));
        }
        let step = self.config.step_voxels;
        if !step.is_finite() || step < MIN_STEP_VOXELS {
            return Err(WireError::Malformed(format!(
                "ray-march step of {step} voxels (must be finite and at least {MIN_STEP_VOXELS})"
            )));
        }
        let min_bricks = self.config.bricks_per_gpu.max(1) as u64 * self.gpus as u64;
        if min_bricks > MAX_BRICKS {
            return Err(WireError::Malformed(format!(
                "{} bricks per GPU on {} GPUs (at most {MAX_BRICKS} bricks)",
                self.config.bricks_per_gpu, self.gpus
            )));
        }
        let spec =
            ClusterSpec::accelerator_cluster(self.gpus).with_gpus_per_node(self.gpus_per_node);
        let volume = self.volume.to_volume()?;
        let voxels = volume.meta.voxel_count();
        let max_brick_voxels = self.config.max_brick_voxels;
        if voxels.div_ceil(max_brick_voxels.max(1)) > MAX_BRICKS {
            return Err(WireError::Malformed(format!(
                "{voxels} voxels in bricks of at most {max_brick_voxels} \
                 (at most {MAX_BRICKS} bricks)"
            )));
        }
        Ok(mgpu_serve::SceneRequest {
            spec,
            scene: Scene {
                camera: self.camera.to_camera(&volume),
                transfer: self.transfer.to_transfer()?,
                background: self.background,
            },
            volume,
            config: self.config.clone(),
            priority: self.priority,
        })
    }
}

// ---------------------------------------------------------------------------
// The request's parts on the wire
// ---------------------------------------------------------------------------

wire_enum!(Priority, "priority" { 0 => Batch, 1 => Normal, 2 => Interactive });
wire_enum!(Residency, "residency" { 0 => Auto, 1 => HostResident, 2 => Disk });
wire_enum!(Compositor, "compositor" { 0 => DirectSend, 1 => BinarySwap });

/// A tag and one `u32` parameter. `RoundRobin` has no parameter and carries
/// a zero pad; any other pad is refused, so the encoding stays canonical.
impl Wire for PartitionStrategy {
    const MIN_BYTES: usize = 1 + 4;
    fn put(&self, w: &mut Writer) {
        let (tag, param): (u8, u32) = match *self {
            PartitionStrategy::RoundRobin => (0, 0),
            PartitionStrategy::Striped { rows_per_stripe } => (1, rows_per_stripe),
            PartitionStrategy::Tiled { tile } => (2, tile),
            PartitionStrategy::Checkerboard { cell } => (3, cell),
        };
        (tag, param).put(w)
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        match <(u8, u32)>::get(r)? {
            (0, 0) => Ok(PartitionStrategy::RoundRobin),
            (0, pad) => Err(WireError::Malformed(format!("partition pad {pad}"))),
            (1, rows_per_stripe) => Ok(PartitionStrategy::Striped { rows_per_stripe }),
            (2, tile) => Ok(PartitionStrategy::Tiled { tile }),
            (3, cell) => Ok(PartitionStrategy::Checkerboard { cell }),
            (other, _) => Err(WireError::Malformed(format!("partition tag {other}"))),
        }
    }
}

/// Same shape as [`PartitionStrategy`]: tag, then a `u32` that only
/// `Strided` uses and that must be zero otherwise.
impl Wire for Assignment {
    const MIN_BYTES: usize = 1 + 4;
    fn put(&self, w: &mut Writer) {
        let (tag, param): (u8, u32) = match *self {
            Assignment::RoundRobin => (0, 0),
            Assignment::Blocked => (1, 0),
            Assignment::Strided { stride } => (2, stride),
        };
        (tag, param).put(w)
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        match <(u8, u32)>::get(r)? {
            (0, 0) => Ok(Assignment::RoundRobin),
            (1, 0) => Ok(Assignment::Blocked),
            (0 | 1, pad) => Err(WireError::Malformed(format!("assignment pad {pad}"))),
            (2, stride) => Ok(Assignment::Strided { stride }),
            (other, _) => Err(WireError::Malformed(format!("assignment tag {other}"))),
        }
    }
}

wire_struct!(TraceOptions {
    async_upload: bool,
    reduce_on_gpu: bool
});

wire_struct!(RenderConfig {
    image: (u32, u32),
    step_voxels: f32,
    early_term: f32,
    bricks_per_gpu: u32,
    max_brick_voxels: u64,
    residency: Residency,
    host_cache_bytes: u64,
    batch_bytes: usize,
    partition: PartitionStrategy,
    compositor: Compositor,
    assignment: Assignment,
    combiner: bool,
    trace: TraceOptions,
    kernel_parallelism: usize,
});

/// By name; the receiver must know the dataset.
impl Wire for Dataset {
    const MIN_BYTES: usize = 4;
    fn put(&self, w: &mut Writer) {
        w.str(self.name())
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        let name = r.str()?;
        Dataset::from_name(&name)
            .ok_or_else(|| WireError::Malformed(format!("unknown dataset {name:?}")))
    }
}

wire_enum!(VolumeSpec, "volume" {
    0 => Dataset { dataset, base },
    1 => InMemory { name, dims, voxels },
});

wire_enum!(CameraSpec, "camera" {
    0 => Orbit { azimuth_deg, elevation_deg },
    1 => Look { eye, forward, right, up, tan_half_fov },
});

wire_struct!(ControlPoint {
    value: f32,
    rgba: [f32; 4]
});

impl Wire for TransferSpec {
    const MIN_BYTES: usize = 1;
    fn put(&self, w: &mut Writer) {
        match self {
            TransferSpec::Preset(name) => {
                w.u8(0);
                w.str(name);
            }
            TransferSpec::Points(points) => {
                w.u8(1);
                w.seq(points);
            }
        }
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(TransferSpec::Preset(r.str()?)),
            1 => Ok(TransferSpec::Points(r.seq()?)),
            other => Err(WireError::Malformed(format!("transfer tag {other}"))),
        }
    }
}

/// Encode a render request payload (`Render` and `Submit` carry it).
pub fn encode_request(req: &NetSceneRequest) -> Vec<u8> {
    encode(req)
}

/// Decode a render request payload; consumes the whole payload.
pub fn decode_request(payload: &[u8]) -> Result<NetSceneRequest, WireError> {
    decode(payload)
}

// ---------------------------------------------------------------------------
// Reply payloads. A message whose payload is a single value carries that
// value: `u64` tokens, tickets and epochs, the `Throttled` `Duration`,
// `String` messages, the `Traces` `u32`. (`NetStats` lives in `crate::heat`.)
// ---------------------------------------------------------------------------

wire_struct! {
    /// [`Reply::Pong`]: the `Ping`'s token echoed, and the server's shard count.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) struct Pong {
        pub token: u64,
        pub shards: u32,
    }
}

// `Reply::Rejected`: the server's `AdmissionError`, intact.
wire_struct!(AdmissionError {
    priority: Priority,
    queued: usize,
    limit: usize
});

wire_struct! {
    /// [`Reply::TicketsFull`]: the session's outstanding-request count and its
    /// bound.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) struct TicketsFull {
        pub outstanding: u64,
        pub limit: u64,
    }
}

wire_struct! {
    /// [`Reply::UnsupportedVersion`]: the version the peer sent and the version
    /// this build speaks — the typed refusal a v2 client receives before
    /// the server closes the connection.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) struct UnsupportedVersion {
        pub got: u16,
        pub want: u16,
    }
}

wire_struct! {
    /// A server's answer to `Drain`/`Resume` (`Reply::DrainState`): its mode,
    /// how much it still owes, and the newest directory epoch it has been
    /// told — what a drain controller polls until `outstanding` reaches
    /// zero.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct DrainState {
        /// New `Render`/`Submit`/`Prewarm` are being refused with `Draining`.
        pub draining: bool,
        /// Tickets held across every session on the server: in-flight
        /// `Render`s and submitted, un-redeemed tickets (a parked `Redeem`
        /// waits on one of these and is not counted again). Zero while
        /// draining means the server is about to say `Goodbye`.
        pub outstanding: u64,
        /// Highest directory epoch any controller has announced to this
        /// server (echoed in STATS too): a client whose directory is older
        /// is stale.
        pub epoch: u64,
    }
}

wire_struct! {
    /// [`Reply::Prewarmed`]: the owning shard, and whether a plan was newly
    /// built (`false` = the cache was already warm).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) struct Prewarmed {
        pub shard: u32,
        pub built: bool,
    }
}

// `Reply::Traces` is a `Vec<CompletedTrace>`, newest first: each trace is its
// wire `request_id`-seeded id plus the named stage spans as nanosecond
// offsets from the trace's start.
wire_struct!(mgpu_obs::SpanRecord { name: String, start_ns: u64, end_ns: u64 }
where |span: &mgpu_obs::SpanRecord| {
    if span.end_ns < span.start_ns {
        return Err(WireError::Malformed(format!(
            "span {:?} ends ({}) before it starts ({})",
            span.name, span.end_ns, span.start_ns
        )));
    }
    Ok(())
});
wire_struct!(mgpu_obs::CompletedTrace { id: u64, spans: Vec<mgpu_obs::SpanRecord> });

/// A rendered frame as delivered across the socket: the exact image a
/// direct render would produce (floats travel by bit pattern), plus the
/// cache provenance and the simulated frame time of the modeled cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct NetFrame {
    pub image: Image,
    /// Served from the server's frame cache (no render ran for this
    /// request).
    pub from_cache: bool,
    /// Simulated (DES) frame time on the modeled cluster — zero for cache
    /// hits, which re-deliver a previously rendered frame.
    pub sim_frame: Duration,
}

/// A `FRAME` payload, which is only ever a whole payload ([`Reply::Frame`]):
/// `get` takes every remaining byte as the head and pixels, and judges
/// them as [`decode_frame`] does — a length that disagrees with the head's
/// dimensions is `Malformed`.
impl Wire for NetFrame {
    const MIN_BYTES: usize = FRAME_HEAD_BYTES;
    fn put(&self, w: &mut Writer) {
        put_frame_head(
            w,
            &self.image,
            self.from_cache,
            self.sim_frame.as_nanos() as u64,
        );
        w.buf.extend_from_slice(pixel_bytes(self.image.pixels()));
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        decode_frame(std::mem::take(&mut r.rest))
    }
}

/// Bytes of a `FRAME` payload ahead of its pixels: `bool, u64, u32, u32`.
const FRAME_HEAD_BYTES: usize = 1 + 8 + 4 + 4;

/// Bytes of the `FRAME` payload that carries a `width`×`height` image
/// (saturating: 2³² − 1 squared, times 16, does not fit).
pub(crate) fn frame_payload_bytes(width: u32, height: u32) -> u64 {
    (width as u64 * height as u64)
        .saturating_mul(16)
        .saturating_add(FRAME_HEAD_BYTES as u64)
}

fn put_frame_head(w: &mut Writer, image: &Image, from_cache: bool, sim_nanos: u64) {
    w.bool(from_cache);
    w.u64(sim_nanos);
    w.u32(image.width());
    w.u32(image.height());
}

/// The frame a `payload_len`-byte `FRAME` payload starting with `head`
/// decodes to, its pixels still zero. Their count is implied by the
/// dimensions: verified against the payload before anything is allocated.
fn blank_frame(head: &[u8], payload_len: usize) -> Result<NetFrame, WireError> {
    let mut r = Reader::new(head);
    let (from_cache, sim_nanos, width, height) = (r.bool()?, r.u64()?, r.u32()?, r.u32()?);
    let have = payload_len.saturating_sub(FRAME_HEAD_BYTES);
    let needed = frame_payload_bytes(width, height) - FRAME_HEAD_BYTES as u64;
    if needed != have as u64 {
        return Err(WireError::Malformed(format!(
            "{width}x{height} frame needs {needed} pixel bytes, payload has {have}"
        )));
    }
    Ok(NetFrame {
        image: Image::from_pixels(width, height, vec![[0f32; 4]; have / 16]),
        from_cache,
        sim_frame: Duration::from_nanos(sim_nanos),
    })
}

/// `pixels` as the bytes they occupy — their wire encoding.
pub(crate) fn pixel_bytes(pixels: &[[f32; 4]]) -> &[u8] {
    f32_bytes(pixels.as_flattened())
}

/// `pixels` as the bytes they occupy, writable: bytes stored here *are*
/// the decoded pixels.
fn pixel_bytes_mut(pixels: &mut [[f32; 4]]) -> &mut [u8] {
    f32_bytes_mut(pixels.as_flattened_mut())
}

/// `FRAME`: flags + sim time + dimensions + raw RGBA rows.
pub fn encode_frame(image: &Image, from_cache: bool, sim_nanos: u64) -> Vec<u8> {
    let pixels = pixel_bytes(image.pixels());
    let mut w = Writer::with_capacity(FRAME_HEAD_BYTES + pixels.len());
    put_frame_head(&mut w, image, from_cache, sim_nanos);
    w.buf.extend_from_slice(pixels);
    w.buf
}

pub fn decode_frame(payload: &[u8]) -> Result<NetFrame, WireError> {
    let (head, pixels) = payload
        .split_at_checked(FRAME_HEAD_BYTES)
        .unwrap_or((payload, &[]));
    let mut frame = blank_frame(head, payload.len())?;
    // `blank_frame` sized the image to exactly the bytes after the head.
    pixel_bytes_mut(frame.image.pixels_mut()).copy_from_slice(pixels);
    Ok(frame)
}

#[cfg(test)]
#[allow(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
pub(crate) mod tests {
    use super::*;
    use mgpu_obs::{Snapshot, SpanRecord, HIST_BUCKETS};
    use proptest::prelude::*;

    /// Serialize one frame (prelude + payload) into a byte vector: any
    /// opcode, any payload, so a test can frame what no message encodes.
    pub(crate) fn frame_bytes(opcode: u8, request_id: u64, payload: &[u8]) -> Vec<u8> {
        let mut w = Writer::with_capacity(PRELUDE_BYTES + payload.len());
        put_prelude(&mut w, opcode, payload.len() as u32, request_id);
        w.buf.extend_from_slice(payload);
        w.buf
    }

    /// Write one frame (header + request id + payload) and flush.
    pub(crate) fn write_frame(
        w: &mut impl Write,
        opcode: u8,
        request_id: u64,
        payload: &[u8],
    ) -> Result<(), WireError> {
        w.write_all(&frame_bytes(opcode, request_id, payload))?;
        w.flush()?;
        Ok(())
    }

    /// Read one frame from a blocking reader: `(opcode, request_id, payload)`.
    /// `WouldBlock` here means the reader's own timeout expired mid-wait.
    pub(crate) fn read_frame(
        r: &mut impl Read,
        max_payload: u64,
    ) -> Result<(u8, u64, Vec<u8>), WireError> {
        FrameReader::new()
            .read(r, max_payload)?
            .ok_or(WireError::Io(std::io::ErrorKind::WouldBlock))
    }

    /// `bytes` as hex, against the named line of `tests/golden_v5.txt`: what
    /// the hand-paired encoders this codec replaced produced for the same
    /// value at the parent commit. This is what holds [`VERSION`] at 5.
    pub(crate) fn assert_golden(name: &str, bytes: &[u8]) {
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, golden_hex(name), "{name} left its golden bytes");
    }

    fn golden_hex(name: &str) -> &'static str {
        include_str!("../tests/golden_v5.txt")
            .lines()
            .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
            .unwrap_or_else(|| panic!("no golden bytes named {name}"))
    }

    /// The tag of the [`Request`] or [`Reply`] variant `name`.
    fn tag(name: &str) -> u8 {
        let mut tags = Request::TAGS.iter().chain(Reply::TAGS);
        let found = tags.find(|&&(_, variant)| variant == name);
        found.unwrap_or_else(|| panic!("no message named {name}")).0
    }

    /// The named golden payload, framed under `opcode` and `request_id`.
    fn golden_frame(name: &str, opcode: u8, request_id: u64) -> Vec<u8> {
        let hex = golden_hex(name).as_bytes();
        let payload: Vec<u8> = hex
            .chunks(2)
            .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
            .collect();
        frame_bytes(opcode, request_id, &payload)
    }

    /// The four-clause [`Wire`] contract of the module docs, for one value.
    pub(crate) fn wire_contract<T: Wire + std::fmt::Debug>(value: &T) {
        let bytes = encode(value);
        // 1. Round trip, compared by bytes so NaN payloads count.
        let back = decode::<T>(&bytes).unwrap_or_else(|e| panic!("{value:?}: {e}"));
        assert_eq!(encode(&back), bytes, "{value:?} came back as {back:?}");
        // 2. Every strict prefix is a typed truncation.
        for cut in 0..bytes.len() {
            let short = decode::<T>(&bytes[..cut]);
            assert!(
                matches!(short, Err(WireError::Truncated { .. })),
                "{cut}-byte prefix of {value:?}: {short:?}"
            );
        }
        // 3. One appended byte is refused.
        let mut longer = bytes.clone();
        longer.push(0);
        let extra = decode::<T>(&longer).err();
        assert_eq!(
            extra,
            Some(WireError::TrailingBytes { extra: 1 }),
            "{value:?}"
        );
        // 4. Canonical: a flipped bit fails typed, or decodes to the value
        //    whose one encoding is exactly the flipped bytes.
        for at in 0..bytes.len() {
            for bit in 0..8 {
                let mut bent = bytes.clone();
                bent[at] ^= 1 << bit;
                if let Ok(other) = decode::<T>(&bent) {
                    let again = encode(&other);
                    assert_eq!(
                        again, bent,
                        "byte {at} bit {bit} of {value:?} gave {other:?}"
                    );
                }
            }
        }
    }

    /// Pin `value` to its golden bytes, then hold it to the contract
    /// (which also decodes those bytes back).
    pub(crate) fn pin<T: Wire + std::fmt::Debug>(name: &str, value: T) {
        assert_golden(name, &encode(&value));
        wire_contract(&value);
    }

    /// A dataset orbit in the wire's `Orbit` camera form, which
    /// `from_request` never sends (it sends the exact `Look` basis) but the
    /// door accepts: the golden bytes, the codec's arbitrary requests and
    /// the seeded cluster's pinned tally are written in it.
    pub(crate) fn orbit(
        dataset: Dataset,
        (base, gpus): (u32, u32),
        (azimuth_deg, elevation_deg): (f32, f32),
        transfer: &TransferFunction,
        config: RenderConfig,
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
            config,
            priority: Priority::Normal,
        }
    }

    fn sample_request() -> NetSceneRequest {
        let bone = TransferFunction::bone();
        NetSceneRequest {
            priority: Priority::Batch,
            ..orbit(
                Dataset::Skull,
                (16, 2),
                (33.0, 20.0),
                &bone,
                RenderConfig::test_size(24),
            )
        }
    }

    #[test]
    fn request_roundtrips_field_for_field() {
        let req = sample_request();
        pin("request_plain", req.clone());
        let back = decode_request(&encode_request(&req)).expect("round-trip");
        assert_eq!(back, req);
        // The identity the service uses is the reconstructed request's
        // frame key — it must match exactly.
        let (a, b) = (req.to_request().unwrap(), back.to_request().unwrap());
        assert_eq!(a.spec, b.spec);
        assert_eq!(a.volume.meta, b.volume.meta);
        let frame_key = |r: &mgpu_serve::SceneRequest| r.plan_key().with_scene(&r.scene);
        assert_eq!(frame_key(&a), frame_key(&b));
        assert_eq!(a.config, b.config);
        assert_eq!(a.priority, b.priority);
    }

    /// With [`sample_request`], every arm of every enum a request carries.
    #[test]
    fn request_roundtrips_every_enum_arm() {
        let mut req = sample_request();
        req.gpus_per_node = 2;
        req.volume = VolumeSpec::InMemory {
            name: "twin".into(),
            dims: [2, 1, 1],
            voxels: vec![0.25, f32::NAN],
        };
        req.camera = CameraSpec::Look {
            eye: [9.0, -3.0, 4.5],
            forward: [0.0, 0.6, -0.8],
            right: [1.0, 0.0, 0.0],
            up: [0.0, 0.8, 0.6],
            tan_half_fov: 0.3,
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
        req.background = [0.1, 0.2, 0.3, 0.4];
        req.priority = Priority::Normal;
        req.config.residency = Residency::HostResident;
        req.config.partition = PartitionStrategy::Striped { rows_per_stripe: 3 };
        req.config.compositor = Compositor::BinarySwap;
        req.config.assignment = Assignment::Blocked;
        req.config.combiner = true;
        req.config.trace.async_upload = true;
        req.config.kernel_parallelism = 3;
        pin("request_shipped", req);

        let mut req = sample_request();
        req.priority = Priority::Interactive;
        req.config.residency = Residency::Disk;
        req.config.partition = PartitionStrategy::Tiled { tile: 32 };
        req.config.assignment = Assignment::Strided { stride: 5 };
        req.config.trace.reduce_on_gpu = true;
        pin("request_tiled", req);

        let mut req = sample_request();
        req.config.partition = PartitionStrategy::Checkerboard { cell: 8 };
        pin("request_checkerboard", req);
    }

    /// Regression: the `u32` after a parameterless `RoundRobin` partition
    /// (offset 102 of the sample) or `RoundRobin`/`Blocked` assignment
    /// (offset 108) is a pad, and used to decode whatever it held — so two
    /// byte strings named one request.
    #[test]
    fn a_set_bit_in_an_unused_pad_is_malformed() {
        let mut blocked = sample_request();
        blocked.config.assignment = Assignment::Blocked;
        for (req, at) in [
            (sample_request(), 102),
            (sample_request(), 108),
            (blocked, 108),
        ] {
            let mut bytes = encode_request(&req);
            bytes[at] ^= 1;
            let bent = decode_request(&bytes);
            assert!(
                matches!(bent, Err(WireError::Malformed(_))),
                "{at}: {bent:?}"
            );
        }
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
    fn header_validation() {
        let mut buf = Vec::new();
        write_frame(&mut buf, tag("Ping"), 42, &encode(&7u64)).unwrap();
        assert_eq!(buf, frame_bytes(tag("Ping"), 42, &encode(&7u64)));
        let (op, id, payload) = read_frame(&mut buf.as_slice(), DEFAULT_MAX_PAYLOAD).unwrap();
        assert_eq!(op, tag("Ping"));
        assert_eq!(id, 42);
        assert_eq!(decode::<u64>(&payload), Ok(7));

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

        // Empty stream = clean close at a frame boundary.
        match read_frame(&mut (&[] as &[u8]), 1024) {
            Err(WireError::ConnectionClosed) => {}
            other => panic!("{other:?}"),
        }

        // A frame torn inside the request id is an EOF error, not a panic.
        match read_frame(&mut (&buf[..HEADER_BYTES + 3]), 1024) {
            Err(WireError::Io(std::io::ErrorKind::UnexpectedEof)) => {}
            other => panic!("{other:?}"),
        }
    }

    /// A non-blocking source for [`FrameReader`]: hands out its pieces in
    /// order, never more than one piece per `read`, with one `WouldBlock`
    /// between pieces and EOF after the last.
    struct Pieces<'a> {
        pieces: std::collections::VecDeque<&'a [u8]>,
        stalled: bool,
    }

    impl<'a> Pieces<'a> {
        fn new(pieces: impl IntoIterator<Item = &'a [u8]>) -> Pieces<'a> {
            Pieces {
                pieces: pieces.into_iter().filter(|p| !p.is_empty()).collect(),
                stalled: false,
            }
        }
    }

    impl Read for Pieces<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if std::mem::take(&mut self.stalled) {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            let Some(piece) = self.pieces.front_mut() else {
                return Ok(0);
            };
            let n = piece.read(buf)?;
            if piece.is_empty() {
                self.pieces.pop_front();
                self.stalled = !self.pieces.is_empty();
            }
            Ok(n)
        }
    }

    /// Call `reader` until it has a frame or an error, as an event loop
    /// would on every readiness event.
    fn pump(
        reader: &mut FrameReader,
        src: &mut impl Read,
    ) -> Result<(u8, u64, Vec<u8>), WireError> {
        loop {
            if let Some(frame) = reader.read(src, DEFAULT_MAX_PAYLOAD)? {
                return Ok(frame);
            }
        }
    }

    /// A sample of frames: payloads from the golden file (small, with a
    /// shipped volume, the bulk pixel path) and the empty payload.
    fn sample_frames() -> Vec<Vec<u8>> {
        vec![
            golden_frame("pong", tag("Pong"), 1),
            golden_frame("request_shipped", tag("Render"), u64::MAX),
            golden_frame("frame", FRAME_TAG, 0x0102_0304_0506_0708),
            frame_bytes(tag("Stats"), 7, &[]),
        ]
    }

    #[test]
    fn frame_reader_agrees_with_read_frame_however_the_bytes_arrive() {
        for bytes in sample_frames() {
            let whole = read_frame(&mut bytes.as_slice(), DEFAULT_MAX_PAYLOAD).unwrap();
            // One byte at a time, a `WouldBlock` between any two.
            let mut trickle = Pieces::new(bytes.chunks(1));
            assert_eq!(
                pump(&mut FrameReader::new(), &mut trickle),
                Ok(whole.clone())
            );
            // Split in two at every byte boundary.
            for cut in 0..=bytes.len() {
                let (a, b) = bytes.split_at(cut);
                let mut split = Pieces::new([a, b]);
                let got = pump(&mut FrameReader::new(), &mut split);
                assert_eq!(got, Ok(whole.clone()), "split at {cut}");
            }
        }
    }

    #[test]
    fn frame_reader_tells_a_clean_close_from_a_torn_frame() {
        for bytes in sample_frames() {
            for cut in 0..bytes.len() {
                let want = match cut {
                    0 => WireError::ConnectionClosed,
                    _ => WireError::Io(std::io::ErrorKind::UnexpectedEof),
                };
                let torn = read_frame(&mut &bytes[..cut], DEFAULT_MAX_PAYLOAD);
                assert_eq!(torn, Err(want.clone()), "EOF after {cut} bytes");
                let mut trickle = Pieces::new(bytes[..cut].chunks(1));
                let torn = pump(&mut FrameReader::new(), &mut trickle);
                assert_eq!(torn, Err(want), "EOF after {cut} trickled bytes");
            }
        }
    }

    /// A bad header is refused the moment its last byte is in — a v2 peer's
    /// frame has no request id, so waiting for `PRELUDE_BYTES` could wait
    /// forever — and not a byte earlier.
    #[test]
    fn frame_reader_judges_the_header_after_exactly_header_bytes() {
        let good = frame_bytes(tag("Ping"), 3, &encode(&7u64));
        let bent = |at: usize, with: &[u8]| {
            let mut bad = good.clone();
            bad[at..at + with.len()].copy_from_slice(with);
            bad
        };
        let cases = [
            (
                bent(0, b"HTTP"),
                WireError::BadMagic(u32::from_le_bytes(*b"HTTP")),
            ),
            (
                bent(4, &2u16.to_le_bytes()),
                WireError::UnsupportedVersion {
                    got: 2,
                    want: VERSION,
                },
            ),
            (
                bent(7, &u32::MAX.to_le_bytes()),
                WireError::TooLarge {
                    len: u32::MAX as u64,
                    max: 1024,
                },
            ),
        ];
        for (bad, want) in cases {
            let (head, rest) = bad.split_at(HEADER_BYTES);
            let (early, last) = head.split_at(HEADER_BYTES - 1);
            let mut src = Pieces::new([early, last, rest]);
            let mut reader = FrameReader::new();
            assert_eq!(reader.read(&mut src, 1024), Ok(None), "no verdict yet");
            assert_eq!(reader.read(&mut src, 1024), Err(want));
            assert_eq!(src.pieces, [rest], "nothing past the header was read");
        }
    }

    #[test]
    fn frame_reader_takes_back_to_back_frames_one_at_a_time() {
        let first = golden_frame("pong", tag("Pong"), 1);
        let second = golden_frame("prewarmed", tag("Prewarmed"), 2);
        let both = [first.clone(), second.clone()].concat();
        let mut src = both.as_slice();
        let mut reader = FrameReader::new();
        for frame in [first, second] {
            let want = read_frame(&mut frame.as_slice(), DEFAULT_MAX_PAYLOAD).unwrap();
            assert_eq!(reader.read(&mut src, DEFAULT_MAX_PAYLOAD), Ok(Some(want)));
        }
        let end = reader.read(&mut src, DEFAULT_MAX_PAYLOAD);
        assert_eq!(end, Err(WireError::ConnectionClosed));
    }

    /// A sink that accepts `schedule[i]` bytes on its i-th `write` (cycling),
    /// as a socket with a nearly full send buffer would.
    struct Trickle<'a> {
        taken: Vec<u8>,
        schedule: &'a [usize],
        writes: usize,
    }

    impl Write for Trickle<'_> {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = self.schedule[self.writes % self.schedule.len()].min(buf.len());
            self.writes += 1;
            self.taken.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Channel bit patterns, with the ones a float round trip would bend
    /// over-represented: −0.0, NaNs with a payload, subnormals.
    fn channel_bits() -> impl Strategy<Value = u32> {
        (0u8..8, 0u32..=u32::MAX).prop_map(|(kind, bits)| match kind {
            0 => (-0.0f32).to_bits(),
            1 => bits | 0x7f80_0000 | 1,
            2 => bits & 0x807f_ffff,
            _ => bits,
        })
    }

    /// Images from no pixels at all (either dimension zero) to a few
    /// thousand.
    fn images() -> impl Strategy<Value = Image> {
        (0u32..48, 0u32..48).prop_flat_map(|(width, height)| {
            let channels = (width * height * 4) as usize;
            prop::collection::vec(channel_bits(), channels).prop_map(move |bits| {
                let pixels = bits
                    .chunks_exact(4)
                    .map(|px| std::array::from_fn(|c| f32::from_bits(px[c])))
                    .collect();
                Image::from_pixels(width, height, pixels)
            })
        })
    }

    proptest! {
        /// The un-encoded `FRAME` is the encoded one, byte for byte and bit
        /// for bit: a view flushed through any schedule of partial writes —
        /// splits inside the head, on the head/pixel seam, mid-`f32` — is
        /// `frame_bytes(FRAME, id, &encode_frame(..))`, and those bytes,
        /// however they arrive, land in place as the image `decode_frame`
        /// would have built.
        #[test]
        fn a_frame_view_leaves_and_arrives_as_the_encoded_frame(
            image in images(),
            cached in 0u8..2,
            sim_nanos in 0u64..=u64::MAX,
            id in 0u64..=u64::MAX,
            schedule in prop::collection::vec(1usize..40, 1..6),
        ) {
            let from_cache = cached == 1;
            let payload = encode_frame(&image, from_cache, sim_nanos);
            let bytes = frame_bytes(FRAME_TAG, id, &payload);

            // Out: resumed at whatever byte each write stopped on.
            let image = Arc::new(image);
            let view = frame_view(id, Arc::clone(&image), from_cache, sim_nanos).unwrap();
            prop_assert_eq!(view.len(), bytes.len());
            let mut sink = Trickle { taken: Vec::new(), schedule: &schedule, writes: 0 };
            while sink.taken.len() < view.len() {
                let n = view.write_from(sink.taken.len(), &mut sink).unwrap();
                prop_assert!(n > 0);
            }
            prop_assert_eq!(&sink.taken, &bytes);
            let mut whole = Vec::new();
            write_frame_view(&mut whole, id, &image, from_cache, sim_nanos).unwrap();
            prop_assert_eq!(&whole, &bytes);

            // In: the same schedule as read sizes, then a split in two at
            // every boundary of the first pixels and of the last. Compared
            // as encodings, not as floats: a NaN must come back as itself.
            let want = decode_frame(&payload).unwrap();
            prop_assert_eq!(encode_frame(&want.image, want.from_cache, sim_nanos), &payload[..]);
            let mut sizes = schedule.iter().cycle();
            let mut rest = bytes.as_slice();
            let scheduled = std::iter::from_fn(|| {
                let (piece, tail) = rest.split_at_checked((*sizes.next()?).min(rest.len()))?;
                rest = tail;
                (!piece.is_empty()).then_some(piece)
            });
            let cuts = (0..bytes.len().min(100)).chain(bytes.len().saturating_sub(20)..bytes.len());
            let arrivals = std::iter::once(Pieces::new(scheduled))
                .chain(cuts.map(|cut| Pieces::new(<[&[u8]; 2]>::from(bytes.split_at(cut)))));
            for mut arrival in arrivals {
                match pump_reply(&mut arrival) {
                    Ok((got_id, Ok(Reply::Frame(got)))) => {
                        prop_assert_eq!(got_id, id);
                        prop_assert_eq!(got.sim_frame, want.sim_frame);
                        let again = encode_frame(&got.image, got.from_cache, sim_nanos);
                        prop_assert_eq!(again, &payload[..]);
                    }
                    other => prop_assert!(false, "{:?}", other),
                }
            }
        }
    }

    /// [`pump`] for the replies' end of the socket.
    fn pump_reply(src: &mut impl Read) -> Result<(u64, Result<Reply, WireError>), WireError> {
        let mut reader = FrameReader::new();
        loop {
            if let Some(frame) = reader.read_reply(src, DEFAULT_MAX_PAYLOAD)? {
                return Ok(frame);
            }
        }
    }

    /// A `FRAME` that `decode_frame` refuses is refused the same, typed,
    /// when it is decoded in place — on its head alone: the source ends
    /// where the pixels would start, so a verdict that waited for them (or
    /// an image sized before the verdict) would be an EOF instead.
    #[test]
    fn a_bad_frame_is_refused_in_place_before_its_pixels() {
        let image = Image::filled(3, 2, [0.25, 0.5, 0.75, 1.0]);
        let good = encode_frame(&image, true, 9);
        let bent = |at: usize, with: &[u8]| {
            let mut bad = good.clone();
            bad[at..at + with.len()].copy_from_slice(with);
            bad
        };
        let mut bad = vec![
            // Cut inside the pixels, and one pixel too many.
            good[..good.len() - 4].to_vec(),
            [good.as_slice(), &[0u8; 16]].concat(),
            // Dimensions that are not this payload's, up to 2⁶⁴ − 2³³ + 1
            // pixels nothing may be allocated for.
            bent(9, &4u32.to_le_bytes()),
            bent(13, &0u32.to_le_bytes()),
            bent(9, &[0xff; 8]),
            // A `bool` that is neither.
            bent(0, &[2]),
        ];
        // Cut anywhere inside the head.
        bad.extend((0..FRAME_HEAD_BYTES).map(|cut| good[..cut].to_vec()));
        for payload in bad {
            let want = decode_frame(&payload).expect_err("a bad frame");
            assert!(
                matches!(want, WireError::Malformed(_) | WireError::Truncated { .. }),
                "{want:?}"
            );
            let bytes = frame_bytes(FRAME_TAG, 5, &payload);
            let head = &bytes[..bytes.len().min(PRELUDE_BYTES + FRAME_HEAD_BYTES)];
            for split in 0..head.len() {
                let (a, b) = head.split_at(split);
                assert_eq!(pump_reply(&mut Pieces::new([a, b])), Err(want.clone()));
            }
            // The server's end never looks inside: same bytes back.
            let raw = read_frame(&mut bytes.as_slice(), DEFAULT_MAX_PAYLOAD);
            assert_eq!(raw, Ok((FRAME_TAG, 5, payload)));
        }

        // The payload bound is judged on the header, as for any opcode.
        let bytes = frame_bytes(FRAME_TAG, 5, &good);
        let mut src = Pieces::new([&bytes[..HEADER_BYTES]]);
        let too_large = WireError::TooLarge {
            len: good.len() as u64,
            max: good.len() as u64 - 1,
        };
        let refused = FrameReader::new().read_reply(&mut src, good.len() as u64 - 1);
        assert_eq!(refused, Err(too_large));

        // A reader switched to `read` inside a frame `read_reply` began
        // still hands back that frame's bytes.
        let (a, b) = bytes.split_at(PRELUDE_BYTES + FRAME_HEAD_BYTES + 7);
        let mut src = Pieces::new([a, b]);
        let mut reader = FrameReader::new();
        assert_eq!(reader.read_reply(&mut src, DEFAULT_MAX_PAYLOAD), Ok(None));
        assert_eq!(pump(&mut reader, &mut src), Ok((FRAME_TAG, 5, good)));
    }

    /// Every request id value round-trips verbatim through the prelude —
    /// including the reserved 0 and the all-ones pattern.
    #[test]
    fn request_id_roundtrips_verbatim() {
        for id in [0u64, 1, 8, u32::MAX as u64, u64::MAX - 1, u64::MAX] {
            let buf = frame_bytes(tag("Submit"), id, b"xyz");
            let (op, got, payload) = read_frame(&mut buf.as_slice(), 1024).unwrap();
            assert_eq!(
                (op, got, payload.as_slice()),
                (tag("Submit"), id, &b"xyz"[..])
            );
        }
    }

    #[test]
    fn unsupported_version_payload_roundtrips() {
        pin(
            "unsupported_version",
            UnsupportedVersion { got: 2, want: 5 },
        );
        wire_contract(&UnsupportedVersion {
            got: 0xEEEE,
            want: VERSION,
        });
    }

    #[test]
    fn error_payloads_roundtrip() {
        // usize::MAX (the unbounded sentinel) survives the u64 crossing on
        // 64-bit hosts.
        let unbounded = AdmissionError {
            priority: Priority::Interactive,
            queued: 9,
            limit: usize::MAX,
        };
        pin("rejected", unbounded);
        pin("throttled", Duration::from_millis(125));
        wire_contract(&Duration::MAX); // saturates, and still round-trips
        pin("message", "render panicked: poison".to_string());
        let full = TicketsFull {
            outstanding: 64,
            limit: 64,
        };
        pin("tickets_full", full);
    }

    #[test]
    fn drain_control_payloads_roundtrip() {
        pin("u64", 0x0123_4567_89AB_CDEFu64); // token, ticket, epoch
        for epoch in [0u64, 1, u64::MAX] {
            wire_contract(&epoch);
        }
        let state = DrainState {
            draining: true,
            outstanding: 9,
            epoch: 41,
        };
        pin("drain_state", state);
        let built = Prewarmed {
            shard: 3,
            built: true,
        };
        pin("prewarmed", built);
        let pong = Pong {
            token: 7,
            shards: 3,
        };
        pin("pong", pong);
    }

    #[test]
    fn prewarm_carries_the_epoch_and_the_full_request() {
        pin("prewarm", (17u64, sample_request()));
    }

    /// What the message contract needs of [`Request`] and [`Reply`] alike.
    trait Message: Sized + std::fmt::Debug + PartialEq {
        fn bytes(&self, request_id: u64) -> Vec<u8>;
        fn parse(tag: u8, payload: &[u8]) -> Result<Self, WireError>;
        /// One frame off `src` as this end of the socket reads it.
        #[allow(clippy::type_complexity)]
        fn read(
            reader: &mut FrameReader,
            src: &mut impl Read,
        ) -> Result<Option<(u64, Result<Self, WireError>)>, WireError>;
    }

    impl Message for Request<'static> {
        fn bytes(&self, request_id: u64) -> Vec<u8> {
            self.framed(request_id)
        }
        fn parse(tag: u8, payload: &[u8]) -> Result<Self, WireError> {
            Request::decode(tag, payload)
        }
        fn read(
            reader: &mut FrameReader,
            src: &mut impl Read,
        ) -> Result<Option<(u64, Result<Self, WireError>)>, WireError> {
            let frame = reader.read(src, DEFAULT_MAX_PAYLOAD)?;
            Ok(frame.map(|(tag, id, payload)| (id, Request::decode(tag, &payload))))
        }
    }

    impl Message for Reply {
        fn bytes(&self, request_id: u64) -> Vec<u8> {
            self.framed(request_id)
        }
        fn parse(tag: u8, payload: &[u8]) -> Result<Self, WireError> {
            Reply::decode(tag, payload)
        }
        fn read(
            reader: &mut FrameReader,
            src: &mut impl Read,
        ) -> Result<Option<(u64, Result<Self, WireError>)>, WireError> {
            reader.read_reply(src, DEFAULT_MAX_PAYLOAD)
        }
    }

    /// The byte of a frame that holds its tag: after magic and version.
    const TAG_AT: usize = 6;

    /// The module docs' four clauses for a message, whose bytes are a tag
    /// and a payload. `decode(tag, payload)` round trips; every strict
    /// prefix of the payload is `Truncated` and one appended byte
    /// `TrailingBytes` — except past a `FRAME`'s head, whose dimensions then
    /// disagree with the length (`Malformed`, as [`decode_frame`] has it);
    /// a flipped bit of the tag or the payload fails typed, or decodes to
    /// the message that frames to exactly the flipped bytes.
    fn message_contract<M: Message>(message: &M) {
        let frame = message.bytes(7);
        let (tag, payload) = (frame[TAG_AT], &frame[PRELUDE_BYTES..]);
        let back = M::parse(tag, payload).unwrap_or_else(|e| panic!("{message:?}: {e}"));
        assert_eq!(back.bytes(7), frame, "{message:?} came back as {back:?}");
        let past_head = |len: usize| tag == FRAME_TAG && len >= FRAME_HEAD_BYTES;
        for cut in 0..payload.len() {
            let short = M::parse(tag, &payload[..cut]);
            let typed = match short {
                Err(WireError::Malformed(_)) => past_head(cut),
                Err(WireError::Truncated { .. }) => !past_head(cut),
                _ => false,
            };
            assert!(typed, "{cut}-byte prefix of {message:?}: {short:?}");
        }
        let longer = [payload, &[0]].concat();
        let extra = M::parse(tag, &longer);
        let typed = match extra {
            Err(WireError::Malformed(_)) => tag == FRAME_TAG,
            Err(WireError::TrailingBytes { extra: 1 }) => tag != FRAME_TAG,
            _ => false,
        };
        assert!(typed, "{message:?} with a byte appended: {extra:?}");
        for at in std::iter::once(TAG_AT).chain(PRELUDE_BYTES..frame.len()) {
            for bit in 0..8 {
                let mut bent = frame.clone();
                bent[at] ^= 1 << bit;
                if let Ok(other) = M::parse(bent[TAG_AT], &bent[PRELUDE_BYTES..]) {
                    let again = other.bytes(7);
                    assert_eq!(
                        again, bent,
                        "byte {at} bit {bit} of {message:?} gave {other:?}"
                    );
                }
            }
        }
    }

    /// Every request, each payload the one `golden_v5.txt` pins for it
    /// (`Stats` has none).
    fn sample_requests() -> Vec<(Request<'static>, Option<&'static str>)> {
        vec![
            (Request::Ping(0x0123_4567_89AB_CDEF), Some("u64")),
            (
                Request::Render(Cow::Owned(sample_request())),
                Some("request_plain"),
            ),
            (
                Request::Submit(Cow::Owned(sample_request())),
                Some("request_plain"),
            ),
            (Request::Redeem(0x0123_4567_89AB_CDEF), Some("u64")),
            (Request::Stats, None),
            (Request::Traces(32), Some("u32")),
            (Request::Drain(0x0123_4567_89AB_CDEF), Some("u64")),
            (Request::Resume(0x0123_4567_89AB_CDEF), Some("u64")),
            (
                Request::Prewarm(17, Cow::Owned(sample_request())),
                Some("prewarm"),
            ),
        ]
    }

    /// Every reply, with the golden payload it pins to where there is one.
    fn sample_replies() -> Vec<(Reply, Option<&'static str>)> {
        let pixels = vec![
            [0.1, 0.05, 0.9, 1.0],
            [0.5, 0.25, 0.5, 1.0],
            [f32::NAN, 0.0, 1.0, 0.25],
            [0.0; 4],
        ];
        let frame = NetFrame {
            image: Image::from_pixels(2, 2, pixels),
            from_cache: true,
            sim_frame: Duration::from_nanos(123_456),
        };
        let span = |name: &str, start_ns, end_ns| SpanRecord {
            name: name.into(),
            start_ns,
            end_ns,
        };
        let traces = vec![
            CompletedTrace {
                id: 7,
                spans: vec![span("queue", 10, 20), span("render", 20, 90)],
            },
            CompletedTrace {
                id: u64::MAX,
                spans: vec![],
            },
        ];
        let empty = NetStats {
            epoch: 0,
            uptime: Duration::ZERO,
            shard_snapshots: vec![],
            obs: Snapshot::new(),
        };
        vec![
            (
                Reply::Pong(Pong {
                    token: 7,
                    shards: 3,
                }),
                Some("pong"),
            ),
            (Reply::Frame(frame), Some("frame")),
            (Reply::Submitted(0x0123_4567_89AB_CDEF), Some("u64")),
            (
                Reply::Rejected(AdmissionError {
                    priority: Priority::Interactive,
                    queued: 9,
                    limit: usize::MAX,
                }),
                Some("rejected"),
            ),
            (
                Reply::Throttled(Duration::from_millis(125)),
                Some("throttled"),
            ),
            (
                Reply::Failed("render panicked: poison".into()),
                Some("message"),
            ),
            (Reply::StatsReport(empty), None),
            (
                Reply::TicketsFull(TicketsFull {
                    outstanding: 64,
                    limit: 64,
                }),
                Some("tickets_full"),
            ),
            (
                Reply::UnsupportedVersion(UnsupportedVersion { got: 2, want: 5 }),
                Some("unsupported_version"),
            ),
            (Reply::Traces(traces), Some("traces")),
            (
                Reply::DrainState(DrainState {
                    draining: true,
                    outstanding: 9,
                    epoch: 41,
                }),
                Some("drain_state"),
            ),
            (
                Reply::Prewarmed(Prewarmed {
                    shard: 3,
                    built: true,
                }),
                Some("prewarmed"),
            ),
            (Reply::Goodbye, None),
            (Reply::Draining(0x0123_4567_89AB_CDEF), Some("u64")),
            (
                Reply::BadRequest("render panicked: poison".into()),
                Some("message"),
            ),
        ]
    }

    /// Every message keeps the bytes its payload had before the messages
    /// were typed, and the contract; the samples cover every variant.
    #[test]
    fn every_message_honours_the_contract_in_its_v5_bytes() {
        let requests = sample_requests();
        let sampled: Vec<_> = requests.iter().map(|(request, _)| request.tag()).collect();
        assert!(sampled.iter().eq(Request::TAGS.iter().map(|(tag, _)| tag)));
        for (request, golden) in &requests {
            if let Some(name) = golden {
                assert_golden(name, &request.framed(0)[PRELUDE_BYTES..]);
            }
            message_contract(request);
        }
        assert_eq!(Request::Stats.framed(3), frame_bytes(tag("Stats"), 3, &[]));

        let replies = sample_replies();
        let sampled: Vec<_> = replies.iter().map(|(reply, _)| reply.tag()).collect();
        assert!(sampled.iter().eq(Reply::TAGS.iter().map(|(tag, _)| tag)));
        for (reply, golden) in &replies {
            if let Some(name) = golden {
                assert_golden(name, &reply.framed(0)[PRELUDE_BYTES..]);
            }
            message_contract(reply);
        }
    }

    /// Tags are unique across both enums, every request's is below `0x80`
    /// and every reply's at or above it, and any other byte is an
    /// `UnknownOpcode` to the enum that does not declare it.
    #[test]
    fn tags_are_unique_and_requests_sit_below_replies() {
        let mut seen = std::collections::BTreeMap::new();
        let requests = Request::TAGS.iter().map(|entry| (entry, true));
        for (&(tag, name), is_request) in requests.chain(Reply::TAGS.iter().map(|e| (e, false))) {
            assert_eq!(
                tag < 0x80,
                is_request,
                "{name} ({tag:#04x}) is on the wrong side"
            );
            if let Some(first) = seen.insert(tag, name) {
                panic!("{name} reuses tag {tag:#04x}, already {first}'s");
            }
        }
        assert_eq!(seen.get(&FRAME_TAG), Some(&"Frame"));
        for tag in 0..=u8::MAX {
            if !Request::TAGS.iter().any(|&(t, _)| t == tag) {
                assert_eq!(
                    Request::decode(tag, &[]),
                    Err(WireError::UnknownOpcode(tag))
                );
            }
            if !Reply::TAGS.iter().any(|&(t, _)| t == tag) {
                assert_eq!(Reply::decode(tag, &[]), Err(WireError::UnknownOpcode(tag)));
            }
        }
    }

    /// Each message whose `` `Request::Name` `` (or `Reply::`) and tag share
    /// no line of `readme`, as `Name (0xNN)`.
    fn undocumented(readme: &str) -> Vec<String> {
        let requests = Request::TAGS.iter().map(|entry| ("Request", entry));
        let messages = requests.chain(Reply::TAGS.iter().map(|entry| ("Reply", entry)));
        messages
            .filter_map(|(ty, &(tag, name))| {
                let (path, tag) = (format!("`{ty}::{name}`"), format!("{tag:#04x}"));
                let documented = readme
                    .lines()
                    .any(|row| row.contains(&path) && row.to_ascii_lowercase().contains(&tag));
                (!documented).then(|| format!("{name} ({tag})"))
            })
            .collect()
    }

    const README: &str = include_str!("../../../README.md");

    /// The compiler checks the code that handles each message; this holds
    /// the README's wire table to the same declarations, so a message or a
    /// tag changed in code alone fails here.
    #[test]
    fn every_message_has_a_readme_wire_row() {
        assert_eq!(undocumented(README), Vec::<String>::new());
    }

    #[test]
    fn an_undocumented_message_is_reported() {
        let without = |row: &str| {
            let rows = README.lines().filter(|line| !line.contains(row));
            rows.collect::<Vec<_>>().join("\n")
        };
        assert_eq!(undocumented(&without("`Request::Stats`")), ["Stats (0x05)"]);
        let retagged = README.replace("| `Reply::Frame` | `0x82`", "| `Reply::Frame` | `0x83`");
        assert_eq!(undocumented(&retagged), ["Frame (0x82)"]);
    }

    /// A deterministic stream of numbers from one seed (SplitMix64), for
    /// building a message's fields.
    fn numbers(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    /// Request variant `pick` (mod 9) with fields drawn from `seed`.
    fn arbitrary_request(pick: usize, seed: u64) -> Request<'static> {
        let mut next = numbers(seed);
        let dataset = Dataset::ALL[next() as usize % Dataset::ALL.len()];
        let size = (1 + next() as u32 % 64, 1 + next() as u32 % 8);
        let view = (
            (next() % 3600) as f32 / 10.0,
            (next() % 1800) as f32 / 10.0 - 90.0,
        );
        let transfer = TransferFunction::for_dataset(dataset.name());
        let config = RenderConfig::test_size(1 + next() as u32 % 512);
        let scene = orbit(dataset, size, view, &transfer, config);
        match pick % 9 {
            0 => Request::Ping(next()),
            1 => Request::Render(Cow::Owned(scene)),
            2 => Request::Submit(Cow::Owned(scene)),
            3 => Request::Redeem(next()),
            4 => Request::Stats,
            5 => Request::Traces(next() as u32),
            6 => Request::Drain(next()),
            7 => Request::Resume(next()),
            _ => Request::Prewarm(next(), Cow::Owned(scene)),
        }
    }

    /// Reply variant `pick` (mod 15) with fields drawn from `seed`; floats
    /// are finite, so equal bytes are equal values.
    fn arbitrary_reply(pick: usize, seed: u64) -> Reply {
        let mut next = numbers(seed);
        let text: String = (0..next() % 40)
            .map(|_| char::from(b' ' + next() as u8 % 95))
            .collect();
        match pick % 15 {
            0 => Reply::Pong(Pong {
                token: next(),
                shards: next() as u32,
            }),
            1 => {
                let (width, height) = (next() as u32 % 12, next() as u32 % 12);
                let pixels = (0..width * height)
                    .map(|_| std::array::from_fn(|_| (next() % 2001) as f32 / 1000.0 - 1.0))
                    .collect();
                Reply::Frame(NetFrame {
                    image: Image::from_pixels(width, height, pixels),
                    from_cache: next() % 2 == 1,
                    sim_frame: Duration::from_nanos(next()),
                })
            }
            2 => Reply::Submitted(next()),
            3 => Reply::Rejected(AdmissionError {
                priority: [Priority::Batch, Priority::Normal, Priority::Interactive]
                    [next() as usize % 3],
                queued: next() as usize,
                limit: next() as usize,
            }),
            4 => Reply::Throttled(Duration::from_nanos(next())),
            5 => Reply::Failed(text),
            6 => {
                let mut shard = Snapshot::new();
                for name in 0..next() % 5 {
                    shard.add_counter(&format!("serve.c{name}"), next() >> 20);
                }
                Reply::StatsReport(NetStats {
                    epoch: next(),
                    uptime: Duration::from_nanos(next()),
                    shard_snapshots: vec![shard.clone(); next() as usize % 3],
                    obs: shard,
                })
            }
            7 => Reply::TicketsFull(TicketsFull {
                outstanding: next(),
                limit: next(),
            }),
            8 => Reply::UnsupportedVersion(UnsupportedVersion {
                got: next() as u16,
                want: next() as u16,
            }),
            9 => Reply::Traces(
                (0..next() % 4)
                    .map(|_| CompletedTrace {
                        id: next(),
                        spans: (0..next() % 4)
                            .map(|_| {
                                let start_ns = next() >> 1;
                                SpanRecord {
                                    name: text.clone(),
                                    start_ns,
                                    end_ns: start_ns + (next() >> 2),
                                }
                            })
                            .collect(),
                    })
                    .collect(),
            ),
            10 => Reply::DrainState(DrainState {
                draining: next() % 2 == 1,
                outstanding: next(),
                epoch: next(),
            }),
            11 => Reply::Prewarmed(Prewarmed {
                shard: next() as u32,
                built: next() % 2 == 1,
            }),
            12 => Reply::Goodbye,
            13 => Reply::Draining(next()),
            _ => Reply::BadRequest(text),
        }
    }

    /// `message` framed under `id` and split in two at `cut` arrives
    /// through a [`FrameReader`] as itself; with bit `bit` of byte `at`
    /// flipped it arrives as a typed error, or as the message (and id)
    /// whose frame is exactly the bytes read.
    fn crosses_the_reader<M: Message>(
        message: &M,
        id: u64,
        cut: usize,
        (at, bit): (usize, u32),
    ) -> Result<(), String> {
        let pump = |bytes: &[u8]| -> Result<(u64, Result<M, WireError>), WireError> {
            let (a, b) = bytes.split_at(cut % (bytes.len() + 1));
            let (mut src, mut reader) = (Pieces::new([a, b]), FrameReader::new());
            loop {
                if let Some(frame) = M::read(&mut reader, &mut src)? {
                    return Ok(frame);
                }
            }
        };
        let bytes = message.bytes(id);
        match pump(&bytes) {
            Ok((got_id, Ok(got))) if got_id == id && got == *message => {}
            other => return Err(format!("{message:?} under id {id} came back as {other:?}")),
        }
        let mut bent = bytes.clone();
        let at = at % bent.len();
        bent[at] ^= 1 << bit;
        if let Ok((got_id, Ok(got))) = pump(&bent) {
            let len = u32::from_le_bytes(bent[HEADER_BYTES - 4..HEADER_BYTES].try_into().unwrap());
            let read = &bent[..PRELUDE_BYTES + len as usize];
            if got.bytes(got_id) != read {
                return Err(format!("byte {at} bit {bit} of {message:?} gave {got:?}"));
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary requests and replies through the one frame parser, no
        /// socket: split at any byte, each comes back equal; with any one
        /// bit of its frame flipped, typed or canonical.
        #[test]
        fn arbitrary_messages_cross_the_frame_reader(
            pick in 0usize..24,
            seed in 0u64..=u64::MAX,
            id in 0u64..=u64::MAX,
            cut in 0usize..5000,
            at in 0usize..5000,
            bit in 0u32..8,
        ) {
            let crossed = if pick < 9 {
                crosses_the_reader(&arbitrary_request(pick, seed), id, cut, (at, bit))
            } else {
                crosses_the_reader(&arbitrary_reply(pick - 9, seed), id, cut, (at, bit))
            };
            prop_assert!(crossed.is_ok(), "{}", crossed.unwrap_err());
        }
    }

    /// The types no payload uses bare, and the two `f64`/`u8`-shaped
    /// primitives none uses at all.
    #[test]
    fn primitives_and_request_parts_honour_the_contract() {
        pin("u32", 32u32); // the `TRACES` request
        wire_contract(&(0xA5u8, 0xBEEFu16));
        wire_contract(&(true, -1i64));
        wire_contract(&(f32::NAN, f64::NEG_INFINITY));
        wire_contract(&(usize::MAX, [7u32, 8, 9]));
        wire_contract(&vec![String::new(), "é".to_string()]);
        wire_contract(&Dataset::Plume);
        for partition in [
            PartitionStrategy::RoundRobin,
            PartitionStrategy::Tiled { tile: 0 },
        ] {
            wire_contract(&(partition, Residency::Disk));
        }
        wire_contract(&(Assignment::Strided { stride: 0 }, Compositor::BinarySwap));
        wire_contract(&TraceOptions {
            async_upload: false,
            reduce_on_gpu: true,
        });
        wire_contract(&RenderConfig::default());
        wire_contract(&TransferSpec::Preset("fire".into()));
        let orbit = CameraSpec::Orbit {
            azimuth_deg: -0.0,
            elevation_deg: 90.0,
        };
        wire_contract(&orbit);
    }

    #[test]
    fn frame_roundtrips_bit_exact() {
        let pixels = vec![
            [0.1, 0.05, 0.9, 1.0],
            [0.5, 0.25, 0.5, 1.0],
            [f32::NAN, 0.0, 1.0, 0.25],
            [0.0; 4],
        ];
        let image = mgpu_volren::Image::from_pixels(2, 2, pixels);
        let bytes = encode_frame(&image, true, 123_456);
        assert_golden("frame", &bytes);
        let frame = decode_frame(&bytes).unwrap();
        assert_eq!(encode_frame(&frame.image, true, 123_456), bytes);
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
        let back = decode_request(&encode_request(&req)).expect("round-trip");
        assert_eq!(back, req);
        let scene = back.to_request().unwrap().scene;
        assert_eq!(scene.camera, camera);
        // And the reconstructed camera is bit-identical, not just PartialEq.
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
        let back = decode_request(&encode_request(&net)).expect("round-trip");
        let back = back.to_request().unwrap();
        assert_eq!(back.spec, spec);
        assert_eq!(back.volume.meta, volume.meta);
        assert_eq!(back.scene.camera, scene.camera);
        assert_eq!(back.scene.background, scene.background);
        assert_eq!(back.config, request.config);
        assert_eq!(back.priority, Priority::Interactive);

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
        let span = |name: &str, start_ns, end_ns| SpanRecord {
            name: name.into(),
            start_ns,
            end_ns,
        };
        let mut traces = vec![
            CompletedTrace {
                id: 7,
                spans: vec![span("queue", 10, 20), span("render", 20, 90)],
            },
            CompletedTrace {
                id: u64::MAX,
                spans: vec![],
            },
        ];
        pin("traces", traces.clone());
        // A span that ends before it starts is malformed, not accepted.
        traces[0].spans[0] = span("queue", 50, 40);
        let backwards = decode::<Vec<CompletedTrace>>(&encode(&traces));
        assert!(matches!(backwards, Err(WireError::Malformed(_))));
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
        for base in [0, MAX_DATASET_BASE + 1] {
            let spec = VolumeSpec::Dataset {
                dataset: Dataset::Plume,
                base,
            };
            assert!(matches!(spec.to_volume(), Err(WireError::Malformed(_))));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The contract over arbitrary requests and arbitrary `STATS`
        /// replies — the two payloads whose shape a peer chooses.
        #[test]
        fn arbitrary_requests_and_stats_honour_the_contract(
            dataset_idx in 0usize..3,
            gpus in 1u32..5,
            azimuth in 0f32..360.0,
            image in 1u32..64,
            priority in 0usize..3,
            epoch in 0u64..u64::MAX,
            counters in prop::collection::vec((0u32..6, 0u64..1 << 40), 0..6),
            gauge in 0u64..u64::MAX,
            bucket in 0usize..HIST_BUCKETS,
        ) {
            let dataset = Dataset::ALL[dataset_idx];
            let transfer = TransferFunction::for_dataset(dataset.name());
            let request = NetSceneRequest {
                priority: [Priority::Batch, Priority::Normal, Priority::Interactive][priority],
                ..orbit(dataset, (8, gpus), (azimuth, 15.0), &transfer, RenderConfig::test_size(image))
            };
            wire_contract(&request);

            let mut shard = Snapshot::new();
            for (name, value) in counters {
                shard.add_counter(&format!("serve.c{name}"), value);
            }
            let mut obs = shard.clone();
            obs.add_gauge("net.connections", gauge as i64);
            let mut buckets = [0u64; HIST_BUCKETS];
            buckets[bucket] = gauge;
            obs.add_histogram("serve.queue_wait_ns", &buckets);
            wire_contract(&NetStats {
                epoch,
                uptime: Duration::from_nanos(epoch / 3),
                shard_snapshots: vec![shard, Snapshot::new()],
                obs,
            });
        }
    }

    // Decoding never panics: arbitrary bytes and corrupted headers produce
    // typed `WireError`s (structured corruption of *valid* payloads is
    // `wire_contract` above).
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Arbitrary bytes fed to the request decoder: typed error or a valid
        /// request, never a panic — and whatever decodes must re-encode to the
        /// exact same bytes (the format is canonical).
        #[test]
        fn random_bytes_never_panic_the_decoder(bytes in prop::collection::vec(0u8..=255, 0..256)) {
            if let Ok(request) = decode_request(&bytes) {
                prop_assert_eq!(encode_request(&request), bytes);
            }
            // Frame and stats decoders share the never-panic property.
            let _ = decode_frame(&bytes);
            let _ = decode::<NetStats>(&bytes);
        }

        /// Corrupted frame headers parse to typed errors, never panic, and a
        /// valid header round-trips.
        #[test]
        fn corrupted_headers_fail_cleanly(header in prop::collection::vec(0u8..=255, HEADER_BYTES)) {
            let header: [u8; HEADER_BYTES] = header.try_into().unwrap();
            match parse_header(&header, 1 << 20) {
                Ok((_, len)) => prop_assert!(len <= 1 << 20),
                Err(
                    WireError::BadMagic(_)
                    | WireError::UnsupportedVersion { .. }
                    | WireError::TooLarge { .. },
                ) => {}
                Err(other) => prop_assert!(false, "unexpected header error {other:?}"),
            }
        }

        /// Corrupting the v3 `request_id` field specifically: the id is opaque
        /// payload to the framing layer, so any bit flip inside it still
        /// parses — to exactly the flipped id, with opcode and payload intact
        /// (a corrupted id can misroute a reply, which is why ids are
        /// client-chosen and collision-checked, but it can never break
        /// framing). Truncation *inside* the id field is a typed error, never
        /// a panic.
        #[test]
        fn request_id_corruption_never_breaks_framing(
            request_id in 0u64..u64::MAX,
            op_bit in 0u32..5,
            payload in prop::collection::vec(0u8..=255, 0..64),
            flip_offset in 0usize..8,
            flip_mask in 1u8..=255,
            cut_inside in 0usize..8,
        ) {
            let op = [
                Request::Ping(0),
                Request::Redeem(0),
                Request::Stats,
                Request::Traces(0),
                Request::Drain(0),
            ][op_bit as usize]
                .tag();
            let frame = frame_bytes(op, request_id, &payload);

            // Flip bits inside the 8-byte id (bytes 11..19 of the prelude).
            let mut bent = frame.clone();
            bent[HEADER_BYTES + flip_offset] ^= flip_mask;
            let (got_op, got_id, got_payload) =
                read_frame(&mut &bent[..], DEFAULT_MAX_PAYLOAD).expect("id bytes are opaque");
            prop_assert_eq!(got_op, op);
            prop_assert_eq!(got_id, request_id ^ ((flip_mask as u64) << (8 * flip_offset)));
            prop_assert_eq!(got_payload, payload);

            // Tear the stream anywhere inside the id field: typed error.
            let cut = HEADER_BYTES + cut_inside;
            match read_frame(&mut &frame[..cut], DEFAULT_MAX_PAYLOAD) {
                Err(WireError::ConnectionClosed) | Err(WireError::Io(_)) => {}
                other => prop_assert!(false, "torn id field must be a typed error, got {other:?}"),
            }
            // And a full valid prelude round-trips the id verbatim.
            let (_, id, _) = read_frame(&mut &frame[..], DEFAULT_MAX_PAYLOAD).expect("valid frame");
            prop_assert_eq!(id, request_id);
            prop_assert!(frame.len() >= PRELUDE_BYTES);
        }
    }
}
