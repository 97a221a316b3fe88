//! The compositing Reducer: per-pixel depth sort + front-to-back blend
//! (§3.1.2 / §3.2 — performed on the CPU, the paper's empirically faster
//! choice at this scale).

use mgpu_mapreduce::{Key, Reducer};

use crate::composite::composite_unsorted;
use crate::fragment::Fragment;

/// Reduces all fragments of one pixel into its final premultiplied color.
#[derive(Debug, Clone)]
pub struct CompositeReducer {
    pub background: [f32; 4],
}

impl Reducer for CompositeReducer {
    type Value = Fragment;
    type Out = [f32; 4];

    fn reduce(&self, _key: Key, values: &mut Vec<Fragment>) -> [f32; 4] {
        composite_unsorted(values, self.background)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduce_is_order_invariant() {
        let r = CompositeReducer {
            background: [0.0; 4],
        };
        let a = Fragment {
            color: [0.2, 0.0, 0.0, 0.4],
            depth: 1.0,
            exit: 2.0,
        };
        let b = Fragment {
            color: [0.0, 0.3, 0.0, 0.6],
            depth: 2.0,
            exit: 3.0,
        };
        let fwd = r.reduce(0, &mut vec![a, b]);
        let rev = r.reduce(0, &mut vec![b, a]);
        for c in 0..4 {
            assert!((fwd[c] - rev[c]).abs() < 1e-6);
        }
    }

    #[test]
    fn lone_fragment_blends_background() {
        let r = CompositeReducer {
            background: [1.0, 1.0, 1.0, 1.0],
        };
        let f = Fragment {
            color: [0.5, 0.5, 0.5, 0.5],
            depth: 0.0,
            exit: 1.0,
        };
        let out = r.reduce(7, &mut vec![f]);
        // 0.5 premult + 0.5 × white = 1.0 in each channel.
        for c in &out[..3] {
            assert!((c - 1.0).abs() < 1e-6);
        }
        assert!((out[3] - 1.0).abs() < 1e-6);
    }
}
