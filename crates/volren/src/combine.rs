//! The (paper-rejected) combine stage, done safely.
//!
//! A combiner runs mapper-side on buffered pairs before they hit the wire
//! (§3.1: "we specifically omitted partial reduce/combine because it didn't
//! increase performance for our volume renderer"). Naïvely compositing a
//! mapper's fragments per pixel would be *wrong*: another mapper's segment
//! may lie between them in depth. `AdjacentFragmentCombiner` only merges
//! segments whose parametric intervals abut exactly — bricks partition the
//! ray, so nothing can sit between abutting segments, making the merge an
//! application of *over*'s associativity and bit-safe up to f32 rounding.
//!
//! Why it barely helps (the paper's finding, reproduced by
//! `paper ablate combiner`): fragments of one pixel that abut are only
//! produced by the *same* mapper when it happens to own neighbouring bricks
//! along the ray — with round-robin brick assignment that is rare.

use mgpu_mapreduce::{Combiner, Key};

use crate::composite::over;
use crate::fragment::Fragment;

/// Merges depth-adjacent fragments of the same pixel.
#[derive(Debug, Clone)]
pub(crate) struct AdjacentFragmentCombiner {
    /// Adjacency tolerance in ray-parameter units (fraction of a step).
    pub tol: f32,
}

impl Default for AdjacentFragmentCombiner {
    fn default() -> Self {
        AdjacentFragmentCombiner { tol: 1e-3 }
    }
}

impl Combiner<Fragment> for AdjacentFragmentCombiner {
    fn combine(&self, _key: Key, values: &mut Vec<Fragment>) {
        if values.len() < 2 {
            return;
        }
        values.sort_by(|a, b| a.depth.total_cmp(&b.depth));
        let mut out: Vec<Fragment> = Vec::with_capacity(values.len());
        for f in values.drain(..) {
            match out.last_mut() {
                Some(last) if last.adjacent_before(&f, self.tol) => {
                    last.color = over(last.color, f.color);
                    last.exit = f.exit;
                }
                _ => out.push(f),
            }
        }
        *values = out;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::composite::composite_unsorted;

    fn frag(a: f32, depth: f32, exit: f32) -> Fragment {
        Fragment {
            color: [0.1 * a, 0.2 * a, 0.3 * a, a],
            depth,
            exit,
        }
    }

    #[test]
    fn merges_adjacent_segments() {
        let c = AdjacentFragmentCombiner::default();
        let mut vals = vec![frag(0.3, 2.0, 4.0), frag(0.4, 0.0, 2.0)];
        let reference = composite_unsorted(&mut vals.clone(), [0.0; 4]);
        c.combine(0, &mut vals);
        assert_eq!(vals.len(), 1);
        assert_eq!(vals[0].depth, 0.0);
        assert_eq!(vals[0].exit, 4.0);
        let merged = composite_unsorted(&mut vals, [0.0; 4]);
        for i in 0..4 {
            assert!((merged[i] - reference[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn keeps_gapped_segments_apart() {
        let c = AdjacentFragmentCombiner::default();
        // A gap between 2.0 and 3.0: another mapper's brick could live there.
        let mut vals = vec![frag(0.4, 0.0, 2.0), frag(0.3, 3.0, 5.0)];
        c.combine(0, &mut vals);
        assert_eq!(vals.len(), 2);
    }

    #[test]
    fn chains_of_adjacent_segments_collapse() {
        let c = AdjacentFragmentCombiner::default();
        let mut vals = vec![
            frag(0.2, 4.0, 6.0),
            frag(0.2, 0.0, 2.0),
            frag(0.2, 2.0, 4.0),
        ];
        let reference = composite_unsorted(&mut vals.clone(), [0.0; 4]);
        c.combine(0, &mut vals);
        assert_eq!(vals.len(), 1);
        let merged = composite_unsorted(&mut vals, [0.0; 4]);
        for i in 0..4 {
            assert!((merged[i] - reference[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn single_fragment_untouched() {
        let c = AdjacentFragmentCombiner::default();
        let mut vals = vec![frag(0.5, 1.0, 2.0)];
        c.combine(0, &mut vals);
        assert_eq!(vals.len(), 1);
    }
}
