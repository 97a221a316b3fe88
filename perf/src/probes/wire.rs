//! Layer `net`, the codec alone: `wire::encode_*` / `decode_*` called
//! directly on a frame of the workload's image size and on its request.

use mgpu_net::wire::{decode_frame, decode_request, encode_frame, encode_request};
use mgpu_net::NetSceneRequest;
use mgpu_serve::SceneRequest;
use mgpu_volren::Image;

use crate::span::Recorder;

/// Codec calls per span: a request encodes in about a microsecond, too
/// short to time one at a time.
pub const REQUEST_REPS: usize = 64;

/// Round-trip one frame and [`REQUEST_REPS`] requests through the codec.
/// Returns whether both came back equal.
pub fn codec(rec: &mut Recorder, frame: u64, image: &Image, request: &SceneRequest) -> bool {
    let payload = rec.span("encode_frame", "net", frame, |_| {
        encode_frame(image, false, 0)
    });
    let decoded = rec.span("decode_frame", "net", frame, |_| decode_frame(&payload));
    let frame_ok = decoded.is_ok_and(|f| crate::verify::bit_identical(&f.image, image));

    let net = NetSceneRequest::from_request(request).expect("workload requests cross the wire");
    let encoded = rec.span("encode_request.x64", "net", frame, |_| {
        let mut last = Vec::new();
        for _ in 0..REQUEST_REPS {
            last = std::hint::black_box(encode_request(std::hint::black_box(&net)));
        }
        last
    });
    let request_ok = rec.span("decode_request.x64", "net", frame, |_| {
        let mut ok = true;
        for _ in 0..REQUEST_REPS {
            ok &= decode_request(std::hint::black_box(&encoded)).is_ok_and(|back| back == net);
        }
        ok
    });
    frame_ok && request_ok
}
