//! Properties of the wire layer and the rate limiter:
//!
//! * decoding NEVER panics — arbitrary bytes and corrupted headers produce
//!   typed [`WireError`]s (structured corruption of *valid* payloads is the
//!   `wire_contract` proptest beside the codec, in `src/wire.rs`);
//! * the per-session token bucket is fair: one session draining its bucket
//!   at an arbitrary schedule never affects another session's tokens, and
//!   admissions never exceed burst + rate × elapsed.

use std::time::{Duration, Instant};

use proptest::prelude::*;

use mgpu_net::ratelimit::{RateLimitConfig, TokenBucket};
use mgpu_net::wire::{
    decode, decode_frame, decode_request, encode_request, frame_bytes, parse_header, read_frame,
    NetSceneRequest, Request, WireError, DEFAULT_MAX_PAYLOAD, HEADER_BYTES, PRELUDE_BYTES,
};
use mgpu_net::NetStats;
use mgpu_net::{RenderClient, RenderServer, ServerConfig};
use mgpu_voldata::Dataset;
use mgpu_volren::{RenderConfig, TransferFunction};

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

    /// Rate-limit fairness: session B's admissions are byte-for-byte the
    /// same whether or not session A hammers its own bucket in between —
    /// buckets are fully isolated per session.
    #[test]
    fn rate_limit_is_fair_across_sessions(
        rate in 1.0f64..100.0,
        burst in 1u32..8,
        a_schedule in prop::collection::vec(0u64..2_000, 1..64),
        b_schedule in prop::collection::vec(0u64..2_000, 1..32),
    ) {
        let config = RateLimitConfig::new(rate, burst);
        let t0 = Instant::now();
        // B alone.
        let mut b_alone = TokenBucket::new(config, t0);
        let mut b_times: Vec<u64> = b_schedule.clone();
        b_times.sort_unstable();
        let alone: Vec<bool> = b_times
            .iter()
            .map(|ms| b_alone.try_take_at(t0 + Duration::from_millis(*ms)).is_ok())
            .collect();

        // B next to a hammering A (separate buckets, interleaved calls).
        let mut a = TokenBucket::new(config, t0);
        let mut b = TokenBucket::new(config, t0);
        let mut a_times: Vec<u64> = a_schedule.clone();
        a_times.sort_unstable();
        let mut a_iter = a_times.iter().peekable();
        let contended: Vec<bool> = b_times
            .iter()
            .map(|ms| {
                while let Some(at) = a_iter.peek() {
                    if **at <= *ms {
                        let _ = a.try_take_at(t0 + Duration::from_millis(**at));
                        a_iter.next();
                    } else {
                        break;
                    }
                }
                b.try_take_at(t0 + Duration::from_millis(*ms)).is_ok()
            })
            .collect();
        prop_assert_eq!(alone, contended, "a noisy neighbour changed session B's admissions");
    }

    /// Admission count is bounded by burst + rate·elapsed (+1 for boundary
    /// rounding): the limiter actually limits.
    #[test]
    fn rate_limit_bounds_throughput(
        rate in 1.0f64..50.0,
        burst in 1u32..6,
        attempts in prop::collection::vec(0u64..5_000, 1..128),
    ) {
        let t0 = Instant::now();
        let mut bucket = TokenBucket::new(RateLimitConfig::new(rate, burst), t0);
        let mut times = attempts.clone();
        times.sort_unstable();
        let horizon_ms = *times.last().unwrap();
        let admitted = times
            .iter()
            .filter(|ms| bucket.try_take_at(t0 + Duration::from_millis(**ms)).is_ok())
            .count() as f64;
        let bound = burst as f64 + rate * (horizon_ms as f64 / 1_000.0) + 1.0;
        prop_assert!(
            admitted <= bound,
            "admitted {admitted} > bound {bound} (rate {rate}, burst {burst})"
        );
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

proptest! {
    // Live-server cases are heavier: fewer, smaller.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// N pipelined renders on ONE connection, collected in an arbitrary
    /// order: every reply lands on the request that issued it. Each
    /// request asks for a distinct image size, so a misrouted reply is
    /// immediately visible as the wrong dimensions.
    #[test]
    fn pipelined_renders_redeem_out_of_order(
        n in 2usize..10,
        order_keys in prop::collection::vec(0u64..u64::MAX, 10),
    ) {
        let server = RenderServer::start(ServerConfig {
            shards: 2,
            service: mgpu_serve::ServiceConfig {
                workers: 2,
                ..mgpu_serve::ServiceConfig::default()
            },
            ..ServerConfig::default()
        }).expect("bind");
        let client = RenderClient::connect(server.addr()).expect("connect");

        let mut pending: Vec<Option<(u32, mgpu_net::PendingRender)>> = (0..n)
            .map(|i| {
                let size = 4 + i as u32;
                let request = NetSceneRequest::orbit_dataset(
                    Dataset::Skull, 8, 1, i as f32 * 17.0, 0.0, &TransferFunction::bone(),
                )
                .with_config(RenderConfig::test_size(size));
                Some((size, client.begin_render(&request).expect("issue render")))
            })
            .collect();

        // A permutation derived from the random keys: sort indices by key.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|i| order_keys[*i]);

        for i in order {
            let (size, handle) = pending[i].take().expect("each collected once");
            let frame = client.finish_render(handle).expect("collect render");
            prop_assert_eq!(frame.image.width(), size, "reply matched to the wrong request");
        }
        server.shutdown();
    }
}
