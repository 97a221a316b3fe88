//! RGBA float images and PPM output.

use std::io::{self, Write};
use std::path::Path;

/// An RGBA image with `f32` channels in `[0,1]`, premultiplied by alpha.
#[derive(Debug, Clone, PartialEq)]
pub struct Image {
    width: u32,
    height: u32,
    pixels: Vec<[f32; 4]>,
}

impl Image {
    pub fn new(width: u32, height: u32) -> Image {
        Image {
            width,
            height,
            pixels: vec![[0.0; 4]; (width * height) as usize],
        }
    }

    pub fn filled(width: u32, height: u32, color: [f32; 4]) -> Image {
        Image {
            width,
            height,
            pixels: vec![color; (width * height) as usize],
        }
    }

    /// Rebuild an image from its raw pixel rows (x-fastest, the layout
    /// [`Image::pixels`] exposes) — the wire-decoding path. Panics when the
    /// pixel count does not match `width × height`.
    pub fn from_pixels(width: u32, height: u32, pixels: Vec<[f32; 4]>) -> Image {
        assert_eq!(
            pixels.len(),
            (width * height) as usize,
            "pixel count must match {width}x{height}"
        );
        Image {
            width,
            height,
            pixels,
        }
    }

    pub fn width(&self) -> u32 {
        self.width
    }

    pub fn height(&self) -> u32 {
        self.height
    }

    #[inline]
    pub fn get(&self, x: u32, y: u32) -> [f32; 4] {
        self.pixels[(y * self.width + x) as usize]
    }

    #[inline]
    pub fn set(&mut self, x: u32, y: u32, c: [f32; 4]) {
        self.pixels[(y * self.width + x) as usize] = c;
    }

    /// Linear pixel access by key (`y·width + x`), the renderer's key space.
    #[inline]
    pub fn set_linear(&mut self, key: u32, c: [f32; 4]) {
        self.pixels[key as usize] = c;
    }

    pub fn pixels(&self) -> &[[f32; 4]] {
        &self.pixels
    }

    /// The same rows, writable in place (the pixel count is fixed).
    pub fn pixels_mut(&mut self) -> &mut [[f32; 4]] {
        &mut self.pixels
    }

    /// Largest absolute channel difference against another image.
    pub fn max_abs_diff(&self, other: &Image) -> f32 {
        assert_eq!(self.width, other.width);
        assert_eq!(self.height, other.height);
        let mut m = 0f32;
        for (a, b) in self.pixels.iter().zip(&other.pixels) {
            for c in 0..4 {
                m = m.max((a[c] - b[c]).abs());
            }
        }
        m
    }

    /// Mean absolute channel difference against another image.
    pub fn mean_abs_diff(&self, other: &Image) -> f32 {
        assert_eq!(self.pixels.len(), other.pixels.len());
        if self.pixels.is_empty() {
            return 0.0;
        }
        let mut sum = 0f64;
        for (a, b) in self.pixels.iter().zip(&other.pixels) {
            for c in 0..4 {
                sum += (a[c] - b[c]).abs() as f64;
            }
        }
        (sum / (self.pixels.len() * 4) as f64) as f32
    }

    /// Fraction of pixels with alpha above `threshold` (how much of the
    /// screen the volume covers).
    pub fn coverage(&self, threshold: f32) -> f64 {
        if self.pixels.is_empty() {
            return 0.0;
        }
        let n = self.pixels.iter().filter(|p| p[3] > threshold).count();
        n as f64 / self.pixels.len() as f64
    }

    /// Write as binary PPM (P6), compositing alpha over black is assumed to
    /// have already happened (we write RGB directly).
    pub fn write_ppm(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "P6\n{} {}\n255", self.width, self.height)?;
        let mut buf = Vec::with_capacity(self.pixels.len() * 3);
        for p in &self.pixels {
            for c in &p[..3] {
                buf.push((c.clamp(0.0, 1.0) * 255.0 + 0.5) as u8);
            }
        }
        f.write_all(&buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut img = Image::new(4, 3);
        img.set(2, 1, [0.1, 0.2, 0.3, 1.0]);
        assert_eq!(img.get(2, 1), [0.1, 0.2, 0.3, 1.0]);
        img.set_linear(6, [0.5; 4]); // (2,1) again: key = 1*4+2
        assert_eq!(img.get(2, 1), [0.5; 4]);
    }

    #[test]
    fn diffs() {
        let a = Image::filled(2, 2, [0.5; 4]);
        let mut b = a.clone();
        assert_eq!(a.max_abs_diff(&b), 0.0);
        b.set(0, 0, [0.6, 0.5, 0.5, 0.5]);
        assert!((a.max_abs_diff(&b) - 0.1).abs() < 1e-6);
        assert!((a.mean_abs_diff(&b) - 0.1 / 16.0).abs() < 1e-6);
    }

    #[test]
    fn coverage_counts_alpha() {
        let mut img = Image::new(2, 2);
        img.set(0, 0, [0.0, 0.0, 0.0, 1.0]);
        assert!((img.coverage(0.5) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn ppm_write() {
        let img = Image::filled(3, 2, [1.0, 0.0, 0.5, 1.0]);
        let path = std::env::temp_dir().join(format!("mgpu_img_{}.ppm", std::process::id()));
        img.write_ppm(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert!(bytes.starts_with(b"P6\n3 2\n255\n"));
        assert_eq!(bytes.len(), 11 + 18);
        std::fs::remove_file(&path).ok();
    }
}
