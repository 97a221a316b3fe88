//! The θ(n) counting sort of §3.1.2: "a specialized counting sort … that runs
//! in θ(n) since the library knows the minimum and maximum keys for each
//! node, as well as the maximum number of keys".
//!
//! Keys are dense integers in `[0, key_space)`; the sort buckets pairs by key
//! in two passes (count, scatter) and is stable, so a deterministic input
//! order yields deterministic grouped output.

use crate::types::Key;

/// Pairs grouped by ascending key: `values[offsets[i]..offsets[i+1]]` are the
/// values of `keys[i]`.
#[derive(Debug, Clone, PartialEq)]
pub struct SortedGroups<V> {
    pub keys: Vec<Key>,
    pub offsets: Vec<u32>,
    pub values: Vec<V>,
}

impl<V> SortedGroups<V> {
    pub fn num_groups(&self) -> usize {
        self.keys.len()
    }

    pub fn group(&self, i: usize) -> (Key, &[V]) {
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        (self.keys[i], &self.values[lo..hi])
    }

    pub fn iter(&self) -> impl Iterator<Item = (Key, &[V])> {
        (0..self.num_groups()).map(move |i| self.group(i))
    }
}

/// Stable counting sort + group over structure-of-arrays emissions
/// (`in_keys[i]` pairs with `in_values[i]`): two passes over the pairs, one
/// over the key space. Panics if any key is outside `[0, key_space)` —
/// sentinels must be filtered during partitioning, *before* the sort (as in
/// the paper).
pub fn counting_sort_groups<V: Copy>(
    in_keys: &[Key],
    in_values: &[V],
    key_space: u32,
) -> SortedGroups<V> {
    assert_eq!(
        in_keys.len(),
        in_values.len(),
        "SoA key/value column lengths differ"
    );
    if in_keys.is_empty() {
        return SortedGroups {
            keys: Vec::new(),
            offsets: vec![0],
            values: Vec::new(),
        };
    }

    let mut counts = vec![0u32; key_space as usize + 1];
    for &k in in_keys {
        assert!(k < key_space, "key {k} outside dense key space {key_space}");
        counts[k as usize + 1] += 1;
    }
    // Prefix-sum into start offsets (index i holds start of key i).
    for i in 1..counts.len() {
        counts[i] += counts[i - 1];
    }
    let starts = counts; // starts[k] = first slot of key k

    // Scatter values into place via a cursor copy of the starts.
    let mut values: Vec<V> = vec![in_values[0]; in_values.len()];
    let mut cursors = starts.clone();
    for (&k, &v) in in_keys.iter().zip(in_values) {
        let slot = cursors[k as usize];
        values[slot as usize] = v;
        cursors[k as usize] += 1;
    }

    // Compact non-empty keys and their offsets.
    let mut keys = Vec::new();
    let mut offsets = Vec::with_capacity(16);
    offsets.push(0u32);
    for k in 0..key_space as usize {
        let len = starts[k + 1] - starts[k];
        if len > 0 {
            keys.push(k as Key);
            offsets.push(starts[k + 1]);
        }
    }
    SortedGroups {
        keys,
        offsets,
        values,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_and_orders() {
        let keys = [3u32, 1, 3, 0, 1];
        let vals = ['a', 'b', 'c', 'd', 'e'];
        let g = counting_sort_groups(&keys, &vals, 4);
        assert_eq!(g.keys, vec![0, 1, 3]);
        assert_eq!(g.group(0), (0, &['d'][..]));
        // Stability: 'b' before 'e', 'a' before 'c'.
        assert_eq!(g.group(1), (1, &['b', 'e'][..]));
        assert_eq!(g.group(2), (3, &['a', 'c'][..]));
        assert_eq!(g.values.len(), 5);
    }

    #[test]
    fn empty_input() {
        let g = counting_sort_groups::<u32>(&[], &[], 100);
        assert_eq!(g.num_groups(), 0);
        assert!(g.values.is_empty());
    }

    #[test]
    fn single_key_space() {
        let g = counting_sort_groups(&[0u32, 0, 0], &[1u32, 2, 3], 1);
        assert_eq!(g.keys, vec![0]);
        assert_eq!(g.group(0).1, &[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "outside dense key space")]
    fn rejects_out_of_range_keys() {
        counting_sort_groups(&[5u32], &[()], 5);
    }

    #[test]
    fn matches_btreemap_reference() {
        use std::collections::BTreeMap;
        // Pseudo-random but deterministic input.
        let keys: Vec<u32> = (0..1000u64)
            .map(|i| ((i * 2654435761) % 97) as u32)
            .collect();
        let vals: Vec<u64> = (0..1000u64).collect();
        let g = counting_sort_groups(&keys, &vals, 97);
        let mut reference: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
        for (&k, &v) in keys.iter().zip(&vals) {
            reference.entry(k).or_default().push(v);
        }
        assert_eq!(g.num_groups(), reference.len());
        for (i, (k, vs)) in reference.iter().enumerate() {
            let (gk, gvs) = g.group(i);
            assert_eq!(gk, *k);
            assert_eq!(gvs, vs.as_slice());
        }
    }
}
