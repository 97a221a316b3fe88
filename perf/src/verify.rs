//! The correctness gate: what the harness remembers about a frame and how
//! it compares a delivered frame against that.
//!
//! Three strengths, by cost. Inside the measured window every frame is
//! checked by dimensions and a 64-pixel probe (nanoseconds — it must not
//! become the thing measured). Outside it, whole frames are compared by an
//! FNV-1a checksum over every pixel's bit pattern, and a few sampled views
//! bit-for-bit against an independent direct render.

use mgpu_volren::Image;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Pixels the in-window probe reads.
const PROBE_PIXELS: usize = 64;

#[inline]
fn mix(hash: u64, pixel: &[f32; 4]) -> u64 {
    pixel.iter().fold(hash, |h, c| {
        (h ^ c.to_bits() as u64).wrapping_mul(FNV_PRIME)
    })
}

/// What a verified frame looked like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub width: u32,
    pub height: u32,
    /// FNV-1a over every channel's bit pattern, row-major.
    pub checksum: u64,
    /// FNV-1a over [`PROBE_PIXELS`] pixels spread evenly over the image.
    pub probe: u64,
}

/// Hash of the probe pixels: every `len / 64`-th pixel, offset by half a
/// stride so the probe crosses the image centre, where the volume is.
pub fn probe(image: &Image) -> u64 {
    let pixels = image.pixels();
    let stride = (pixels.len() / PROBE_PIXELS).max(1);
    pixels
        .iter()
        .skip(stride / 2)
        .step_by(stride)
        .take(PROBE_PIXELS)
        .fold(FNV_OFFSET, mix)
}

pub fn fingerprint(image: &Image) -> Fingerprint {
    Fingerprint {
        width: image.width(),
        height: image.height(),
        checksum: image.pixels().iter().fold(FNV_OFFSET, mix),
        probe: probe(image),
    }
}

impl Fingerprint {
    /// The in-window check: dimensions and probe.
    pub fn matches_probe(&self, image: &Image) -> bool {
        image.width() == self.width && image.height() == self.height && probe(image) == self.probe
    }

    /// The out-of-window check: every pixel, by checksum.
    pub fn matches_fully(&self, image: &Image) -> bool {
        fingerprint(image) == *self
    }
}

/// Bit-for-bit equality (`==` on `f32` would call `-0.0` and `0.0` equal
/// and a NaN unequal to itself; the renderer's contract is about bits).
pub fn bit_identical(a: &Image, b: &Image) -> bool {
    a.width() == b.width()
        && a.height() == b.height()
        && a.pixels()
            .iter()
            .zip(b.pixels())
            .all(|(p, q)| p.iter().zip(q).all(|(x, y)| x.to_bits() == y.to_bits()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradient(w: u32, h: u32) -> Image {
        let pixels = (0..w * h)
            .map(|i| [i as f32, 0.5, (i % 7) as f32, 1.0])
            .collect();
        Image::from_pixels(w, h, pixels)
    }

    #[test]
    fn equal_images_agree_at_every_strength() {
        let a = gradient(32, 16);
        let print = fingerprint(&a);
        assert!(print.matches_probe(&gradient(32, 16)));
        assert!(print.matches_fully(&gradient(32, 16)));
        assert!(bit_identical(&a, &gradient(32, 16)));
    }

    #[test]
    fn one_changed_pixel_fails_the_checksum_and_bit_compare() {
        let a = gradient(32, 16);
        let mut b = gradient(32, 16);
        b.set(0, 0, [9.0, 9.0, 9.0, 9.0]); // pixel 0 is not a probe pixel
        let print = fingerprint(&a);
        assert!(print.matches_probe(&b), "the probe is sparse by design");
        assert!(!print.matches_fully(&b));
        assert!(!bit_identical(&a, &b));
    }

    #[test]
    fn a_probed_pixel_or_a_reshaped_image_fails_the_probe() {
        let a = gradient(32, 16);
        let print = fingerprint(&a);
        let mut b = gradient(32, 16);
        b.set(4, 0, [9.0, 9.0, 9.0, 9.0]); // 512 px / 64 → stride 8, first probe at 4
        assert!(!print.matches_probe(&b));
        assert!(!print.matches_probe(&gradient(16, 32)));
    }

    #[test]
    fn signed_zero_is_a_difference() {
        let a = Image::from_pixels(1, 1, vec![[0.0, 0.0, 0.0, 0.0]]);
        let b = Image::from_pixels(1, 1, vec![[-0.0, 0.0, 0.0, 0.0]]);
        assert!(!bit_identical(&a, &b));
        assert_ne!(fingerprint(&a).checksum, fingerprint(&b).checksum);
    }

    #[test]
    fn tiny_images_probe_every_pixel() {
        let a = gradient(4, 4);
        let mut b = gradient(4, 4);
        b.set(3, 3, [9.0; 4]);
        assert!(!fingerprint(&a).matches_probe(&b));
    }
}
