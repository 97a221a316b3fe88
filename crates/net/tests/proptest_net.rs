//! Properties of the wire layer: decoding NEVER panics — arbitrary bytes
//! and corrupted headers produce typed [`WireError`]s (structured
//! corruption of *valid* payloads is the `wire_contract` proptest beside
//! the codec, in `src/wire.rs`).

use proptest::prelude::*;

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
