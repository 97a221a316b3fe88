//! Front-to-back compositing with the *over* operator.
//!
//! Everything rests on one algebraic fact: with premultiplied colors, *over*
//! is associative. A ray can therefore be cut into per-brick segments, each
//! segment composited independently (the map phase), and the segments folded
//! in depth order later (the reduce phase) — the result equals compositing
//! the whole ray front to back. `proptest` checks exactly this invariant.

use crate::fragment::Fragment;

/// `front over back` for premultiplied RGBA.
#[inline]
pub fn over(front: [f32; 4], back: [f32; 4]) -> [f32; 4] {
    let t = 1.0 - front[3];
    [
        front[0] + back[0] * t,
        front[1] + back[1] * t,
        front[2] + back[2] * t,
        front[3] + back[3] * t,
    ]
}

/// Accumulate one sample during front-to-back ray marching:
/// `acc ← acc over sample` where the sample has straight alpha `a` and
/// color `rgb`.
#[inline]
pub fn accumulate(acc: &mut [f32; 4], rgb: [f32; 3], a: f32) {
    let t = (1.0 - acc[3]) * a;
    acc[0] += rgb[0] * t;
    acc[1] += rgb[1] * t;
    acc[2] += rgb[2] * t;
    acc[3] += t;
}

/// Composite fragments already sorted by ascending depth, then lay the
/// (straight-alpha) background behind them. Returns premultiplied RGBA.
pub fn composite_sorted(fragments: &[Fragment], background: [f32; 4]) -> [f32; 4] {
    let mut acc = [0f32; 4];
    for f in fragments {
        acc = over(acc, f.color);
        if acc[3] >= 0.9999 {
            break;
        }
    }
    // Background is straight alpha: premultiply it and lay it behind.
    let bg = [
        background[0] * background[3],
        background[1] * background[3],
        background[2] * background[3],
        background[3],
    ];
    let out = over(acc, bg);
    if out[3] > 1e-6 {
        out
    } else {
        [0.0, 0.0, 0.0, 0.0]
    }
}

/// Sort fragments by ascending depth (total order on f32, deterministic for
/// ties via stable sort) and composite. This is the reduce-side "all ray
/// fragments for a given pixel are ascending-depth sorted, composited, and
/// blended against the background color" (§3.2).
pub fn composite_unsorted(fragments: &mut [Fragment], background: [f32; 4]) -> [f32; 4] {
    fragments.sort_by(|a, b| a.depth.total_cmp(&b.depth));
    composite_sorted(fragments, background)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frag(color: [f32; 4], depth: f32) -> Fragment {
        Fragment {
            color,
            depth,
            exit: depth + 1.0,
        }
    }

    #[test]
    fn opaque_front_hides_back() {
        let f = [0.2, 0.4, 0.6, 1.0];
        let b = [0.9, 0.9, 0.9, 1.0];
        assert_eq!(over(f, b), f);
    }

    #[test]
    fn transparent_front_passes_back() {
        let b = [0.3, 0.2, 0.1, 0.8];
        assert_eq!(over([0.0; 4], b), b);
    }

    #[test]
    fn over_is_associative() {
        let a = [0.08, 0.1, 0.02, 0.2];
        let b = [0.3, 0.05, 0.1, 0.5];
        let c = [0.1, 0.6, 0.2, 0.7];
        let left = over(over(a, b), c);
        let right = over(a, over(b, c));
        for i in 0..4 {
            assert!((left[i] - right[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn accumulate_matches_over() {
        // accumulate(acc, rgb, a) must equal acc over premultiplied(rgb, a).
        let mut acc = [0.1, 0.2, 0.05, 0.3];
        let via_over = over(acc, [0.4 * 0.5, 0.6 * 0.5, 0.8 * 0.5, 0.5]);
        accumulate(&mut acc, [0.4, 0.6, 0.8], 0.5);
        for i in 0..4 {
            assert!((acc[i] - via_over[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn unsorted_equals_sorted() {
        let f1 = frag([0.2, 0.0, 0.0, 0.4], 1.0);
        let f2 = frag([0.0, 0.3, 0.0, 0.5], 2.0);
        let f3 = frag([0.0, 0.0, 0.4, 0.6], 3.0);
        let bg = [0.1, 0.1, 0.1, 1.0];
        let sorted = composite_sorted(&[f1, f2, f3], bg);
        let mut shuffled = [f3, f1, f2];
        let got = composite_unsorted(&mut shuffled, bg);
        for i in 0..4 {
            assert!((sorted[i] - got[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn empty_fragments_show_background() {
        let bg = [0.25, 0.5, 0.75, 1.0];
        let out = composite_sorted(&[], bg);
        for i in 0..4 {
            assert!((out[i] - bg[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn a_nearer_fragment_lies_over_a_farther_one() {
        let near = frag([0.5, 0.0, 0.0, 0.5], 1.0);
        let far = frag([0.0, 0.5, 0.0, 0.5], 2.0);
        // near + far · (1 − 0.5), over a clear background.
        assert_eq!(
            composite_sorted(&[near, far], [0.0; 4]),
            [0.5, 0.25, 0.0, 0.75]
        );
    }

    #[test]
    fn saturated_alpha_short_circuits_identically() {
        let opaque = frag([0.5, 0.5, 0.5, 1.0], 0.5);
        let behind = frag([9.0, 9.0, 9.0, 1.0], 1.0); // absurd color, must not leak
        let out = composite_sorted(&[opaque, behind], [0.0; 4]);
        assert!((out[0] - 0.5).abs() < 1e-6);
    }
}
