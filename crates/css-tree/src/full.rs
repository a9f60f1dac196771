//! Full CSS-trees (§4.1): build (Algorithm 4.1) and search
//! (Algorithm 4.2).
//!
//! Directory nodes hold exactly `M` keys and have `M + 1` children located
//! by offset arithmetic — no pointers. Internal key `e` of node `d` is the
//! **largest key in the subtree of child `e`**, so routing "find the
//! leftmost slot ≥ probe, else the rightmost branch" lands on the leftmost
//! occurrence of any duplicated key (§4.1.2), and internal slots whose
//! subtrees dangle past the data are padded with the first part's last
//! element, which keeps every reachable descent inside the array.

use crate::batch;
use crate::layout::{CssLayout, LeafSegment};
use ccindex_common::{
    AccessTracer, AlignedBuf, IndexStats, Key, NoopTracer, OrderedIndex, SearchIndex, SortedArray,
    SpaceReport, DEFAULT_BATCH_LANES,
};

/// A full CSS-tree with `M` keys per directory node (`M + 1`-way).
///
/// `M` is a const generic so every node size gets its own fully
/// specialised intra-node search (§6.2's 20–45 % specialisation win).
/// Choose `M` so a node fills a cache line: `M = 16` for 64-byte lines
/// with 4-byte keys, `M = 8` for 32-byte lines.
#[derive(Debug, Clone)]
pub struct FullCssTree<K: Key, const M: usize> {
    array: SortedArray<K>,
    /// Directory: `internal_nodes · M` key slots, cache-line aligned.
    directory: AlignedBuf<K>,
    layout: CssLayout,
}

impl<K: Key, const M: usize> FullCssTree<K, M> {
    /// Build over a sorted slice (Algorithm 4.1).
    pub fn build(keys: &[K]) -> Self {
        Self::from_shared(SortedArray::from_slice(keys))
    }

    /// Build over an existing shared array without copying it.
    pub fn from_shared(array: SortedArray<K>) -> Self {
        assert!(M >= 1, "node size must be >= 1");
        let layout = CssLayout::full(array.len(), M);
        let mut directory: AlignedBuf<K> = AlignedBuf::new_zeroed(layout.directory_slots());
        Self::fill_directory(array.as_slice(), &layout, &mut directory);
        Self {
            array,
            directory,
            layout,
        }
    }

    /// Algorithm 4.1: fill every internal entry with the largest key of
    /// its immediate left subtree, walking entries from the last internal
    /// node's last entry down to entry 0.
    fn fill_directory(keys: &[K], layout: &CssLayout, directory: &mut AlignedBuf<K>) {
        let t = layout.internal_nodes;
        if t == 0 {
            return;
        }
        let l1 = layout.first_part_len;
        debug_assert!(l1 > 0, "a directory implies a non-empty first part");
        let pad = keys[l1 - 1]; // "the last element in the first part"
        for i in (0..t * M).rev() {
            let d = i / M;
            let e = i % M;
            // Immediate left child of entry e, then the rightmost branch
            // down to a (virtual) leaf.
            let mut c = layout.child(d, e);
            while layout.is_internal(c) {
                c = layout.child(c, M); // the (m+1)-th child
            }
            directory[i] = match layout.leaf_segment(c) {
                // Largest key of the subtree; for the partial last leaf
                // `end` is already clamped to the first part's end, so
                // `keys[end - 1]` *is* "the last element in the first
                // part" the paper pads with.
                LeafSegment::Range { end, .. } => keys[end - 1],
                LeafSegment::BeyondEnd => pad,
            };
        }
    }

    /// Reassemble a tree from its shared array plus pre-built
    /// directory slots (a serialized tree's level pages, concatenated
    /// root level first) without re-running Algorithm 4.1. The slot
    /// count must match the geometry recomputed from `(n, M)`; a
    /// mismatch is an `Err` (never a panic) so a damaged file
    /// surfaces as a typed storage error upstream.
    pub fn from_shared_with_directory(array: SortedArray<K>, slots: &[K]) -> Result<Self, String> {
        let layout = CssLayout::full(array.len(), M);
        if slots.len() != layout.directory_slots() {
            return Err(format!(
                "full CSS directory has {} slots, geometry for n={} m={M} needs {}",
                slots.len(),
                array.len(),
                layout.directory_slots()
            ));
        }
        Ok(Self {
            array,
            directory: AlignedBuf::from_slice(slots),
            layout,
        })
    }

    /// The directory geometry.
    pub fn layout(&self) -> &CssLayout {
        &self.layout
    }

    /// One directory level's key slots (level 0 = the root) — the
    /// page a level-addressable serialization writes per level.
    pub fn directory_level(&self, level: u32) -> &[K] {
        &self.directory.as_slice()[self.layout.level_slots(level)]
    }

    /// The whole directory, root level first; the per-level pages of
    /// [`directory_level`](Self::directory_level) concatenate to
    /// exactly this slice.
    pub fn directory(&self) -> &[K] {
        self.directory.as_slice()
    }

    /// The underlying shared array.
    pub fn array(&self) -> &SortedArray<K> {
        &self.array
    }

    /// Directory key slots (for tests / space accounting).
    pub fn directory_slots(&self) -> usize {
        self.directory.len()
    }

    /// The raw directory entries (used by the batch/validation module).
    pub(crate) fn directory_slice(&self) -> &[K] {
        self.directory.as_slice()
    }

    /// Deliberately corrupt a directory entry (validation tests only).
    #[cfg(test)]
    pub(crate) fn corrupt_entry_for_test(&mut self, i: usize) {
        self.directory.as_mut_slice()[i] = K::MAX_KEY;
    }

    /// Leftmost slot of node `d` with key `>= probe`, else `M`.
    ///
    /// Binary search over a const-size node — monomorphisation unrolls
    /// this into the specialised comparison tree of §6.2. Shared with the
    /// interleaved batch descent in [`crate::batch`].
    #[inline(always)]
    pub(crate) fn node_branch<T: AccessTracer>(&self, d: usize, probe: K, tracer: &mut T) -> usize {
        let base = d * M;
        let node = &self.directory.as_slice()[base..base + M];
        tracer.read(self.directory.base_addr() + base * K::WIDTH, M * K::WIDTH);
        let mut lo = 0usize;
        let mut hi = M;
        while lo < hi {
            let mid = (lo + hi) >> 1;
            tracer.compare();
            if node[mid] < probe {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Algorithm 4.2 descent: the virtual leaf node for `probe`.
    #[inline]
    fn descend<T: AccessTracer>(&self, probe: K, tracer: &mut T) -> usize {
        let mut d = 0usize;
        while self.layout.is_internal(d) {
            let l = self.node_branch(d, probe, tracer);
            d = self.layout.child(d, l);
            tracer.descend();
        }
        d
    }

    /// Leftmost position with key `>= probe`, traced.
    pub fn lower_bound_with<T: AccessTracer>(&self, probe: K, tracer: &mut T) -> usize {
        if self.array.is_empty() {
            return 0;
        }
        let leaf = self.descend(probe, tracer);
        batch::resolve_leaf(&self.layout, &self.array, leaf, probe, tracer)
    }

    /// Leftmost matching position, traced.
    pub fn search_with<T: AccessTracer>(&self, probe: K, tracer: &mut T) -> Option<usize> {
        let pos = self.lower_bound_with(probe, tracer);
        if pos < self.array.len() {
            tracer.compare();
            if self.array.get_traced(pos, tracer) == probe {
                return Some(pos);
            }
        }
        None
    }
}

impl<K: Key, const M: usize> SearchIndex<K> for FullCssTree<K, M> {
    fn name(&self) -> &'static str {
        "full CSS-tree"
    }
    fn len(&self) -> usize {
        self.array.len()
    }
    fn search(&self, key: K) -> Option<usize> {
        self.search_with(key, &mut NoopTracer)
    }
    fn search_traced(&self, key: K, tracer: &mut dyn AccessTracer) -> Option<usize> {
        self.search_with(key, &mut { tracer })
    }
    fn search_batch_lanes(&self, probes: &[K], lanes: usize) -> Vec<Option<usize>> {
        self.search_batch_lanes_with(probes, lanes, &mut NoopTracer)
    }
    fn search_batch_traced(
        &self,
        probes: &[K],
        tracer: &mut dyn AccessTracer,
    ) -> Vec<Option<usize>> {
        self.search_batch_lanes_with(probes, DEFAULT_BATCH_LANES, &mut { tracer })
    }
    fn space(&self) -> SpaceReport {
        SpaceReport::same(self.directory.size_bytes())
    }
    fn stats(&self) -> IndexStats {
        IndexStats {
            levels: self.layout.levels(),
            internal_nodes: self.layout.internal_nodes,
            branching: M + 1,
            node_bytes: M * K::WIDTH,
        }
    }
}

impl<K: Key, const M: usize> OrderedIndex<K> for FullCssTree<K, M> {
    fn lower_bound(&self, key: K) -> usize {
        self.lower_bound_with(key, &mut NoopTracer)
    }
    fn lower_bound_traced(&self, key: K, tracer: &mut dyn AccessTracer) -> usize {
        self.lower_bound_with(key, &mut { tracer })
    }
    fn lower_bound_batch_lanes(&self, probes: &[K], lanes: usize) -> Vec<usize> {
        self.lower_bound_batch_lanes_with(probes, lanes, &mut NoopTracer)
    }
    fn lower_bound_batch_traced(&self, probes: &[K], tracer: &mut dyn AccessTracer) -> Vec<usize> {
        self.lower_bound_batch_lanes_with(probes, DEFAULT_BATCH_LANES, &mut { tracer })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccindex_common::CountingTracer;

    #[test]
    fn finds_every_key_paper_example_size() {
        // 260 = the Fig. 3 example (65 leaves of 4).
        let keys: Vec<u32> = (0..260).map(|i| i * 2 + 1).collect();
        let t = FullCssTree::<u32, 4>::build(&keys);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(t.search(k), Some(i), "key {k}");
        }
    }

    #[test]
    fn misses_are_none() {
        let keys: Vec<u32> = (0..260).map(|i| i * 2 + 1).collect();
        let t = FullCssTree::<u32, 4>::build(&keys);
        assert_eq!(t.search(0), None);
        for i in 0..260 {
            assert_eq!(t.search(i * 2), None, "even probe {}", i * 2);
        }
        assert_eq!(t.search(10_000), None);
    }

    #[test]
    fn lower_bound_exhaustive_small_sizes() {
        // Every n in 0..200 with several node sizes, every probe:
        // catches all padding / mark / partial-leaf boundary cases.
        for n in 0..200usize {
            let keys: Vec<u32> = (0..n as u32).map(|i| i * 3 + 2).collect();
            macro_rules! check {
                ($m:literal) => {{
                    let t = FullCssTree::<u32, $m>::build(&keys);
                    for probe in 0..(n as u32 * 3 + 5) {
                        assert_eq!(
                            t.lower_bound(probe),
                            keys.partition_point(|&k| k < probe),
                            "n={n} m={} probe={probe}",
                            $m
                        );
                    }
                }};
            }
            check!(1);
            check!(2);
            check!(3);
            check!(4);
            check!(5);
            check!(8);
            check!(16);
        }
    }

    #[test]
    fn duplicates_return_leftmost() {
        // Duplicate runs crossing node and part boundaries.
        let mut keys = Vec::new();
        for block in 0..40u32 {
            for _ in 0..7 {
                keys.push(block * 10);
            }
        }
        let t = FullCssTree::<u32, 4>::build(&keys);
        for block in 0..40u32 {
            assert_eq!(
                t.search(block * 10),
                Some((block * 7) as usize),
                "block {block}"
            );
        }
    }

    #[test]
    fn large_tree_correct_and_shallow() {
        let keys: Vec<u32> = (0..1_000_000u32).map(|i| i * 4).collect();
        let t = FullCssTree::<u32, 16>::build(&keys);
        for probe in (0..1_000_000u32).step_by(37_117) {
            assert_eq!(t.search(probe * 4), Some(probe as usize));
            assert_eq!(t.search(probe * 4 + 1), None);
        }
        // 62500 leaves; 17^4 = 83521 >= 62500 -> depth 4 -> 5 levels.
        assert_eq!(t.layout().levels(), 5);
        let mut tr = CountingTracer::new();
        t.search_with(123_456 * 4, &mut tr);
        assert!(tr.descends <= 4, "descends = {}", tr.descends);
        // Total comparisons stay ~log2 n (§4: "the total number of
        // comparisons is the same" as binary search).
        assert!(
            (18..=28).contains(&(tr.compares as usize)),
            "compares = {}",
            tr.compares
        );
    }

    #[test]
    fn one_cache_line_per_level() {
        // M = 16 u32 keys = 64 B/node: each internal level contributes
        // exactly one 64-byte-wide read.
        let keys: Vec<u32> = (0..100_000).collect();
        let t = FullCssTree::<u32, 16>::build(&keys);
        let mut tr = ccindex_common::RecordingTracer::new();
        t.search_with(54_321, &mut tr);
        let node_reads = tr.accesses.iter().filter(|&&(_, _, len)| len == 64).count() as u32;
        // Bottom-level leaves are `depth` internal reads away, upper-level
        // leaves one fewer.
        let depth = t.layout().depth;
        assert!(
            node_reads == depth || node_reads + 1 == depth,
            "node reads = {node_reads}, depth = {depth}"
        );
    }

    #[test]
    fn space_is_directory_only_and_small() {
        let keys: Vec<u32> = (0..1_000_000).collect();
        let t = FullCssTree::<u32, 16>::build(&keys);
        let s = t.space();
        assert_eq!(s.indirect_bytes, s.direct_bytes);
        // nK/m * (m+1)/m-ish ≈ 0.26 MB for n = 10^6; must be well under
        // half the B+-tree's ~0.57 MB.
        assert!(s.indirect_bytes < 300_000, "space = {}", s.indirect_bytes);
        assert_eq!(s.indirect_bytes, t.directory_slots() * 4);
    }

    #[test]
    fn empty_and_tiny_trees() {
        let t = FullCssTree::<u32, 16>::build(&[]);
        assert_eq!(t.search(1), None);
        assert_eq!(t.lower_bound(1), 0);
        let t = FullCssTree::<u32, 16>::build(&[5]);
        assert_eq!(t.search(5), Some(0));
        assert_eq!(t.search(4), None);
        assert_eq!(t.search(6), None);
        assert_eq!(t.directory_slots(), 0);
    }

    #[test]
    fn u64_and_signed_keys() {
        let keys: Vec<u64> = (0..10_000u64).map(|i| i << 32).collect();
        let t = FullCssTree::<u64, 8>::build(&keys);
        assert_eq!(t.search(5_000u64 << 32), Some(5_000));
        assert_eq!(t.search((5_000u64 << 32) + 1), None);

        let keys: Vec<i32> = (-5_000..5_000).map(|i| i * 2).collect();
        let t = FullCssTree::<i32, 16>::build(&keys);
        assert_eq!(t.search(-4_000), Some(3_000)); // (-4000/2) - (-5000) = 3000
        assert_eq!(t.search(-3_999), None);
        assert_eq!(t.lower_bound(i32::MIN), 0);
        assert_eq!(t.lower_bound(i32::MAX), 10_000);
    }

    #[test]
    fn probe_beyond_max_returns_n() {
        for n in [5usize, 97, 104, 260, 1000] {
            let keys: Vec<u32> = (0..n as u32).collect();
            let t = FullCssTree::<u32, 4>::build(&keys);
            assert_eq!(t.lower_bound(n as u32 + 100), n, "n={n}");
            assert_eq!(t.search(n as u32 + 100), None);
        }
    }

    #[test]
    fn level_pages_reassemble_the_tree() {
        for n in [0usize, 3, 97, 260, 4_097] {
            let keys: Vec<u32> = (0..n as u32).map(|i| i * 3).collect();
            let built = FullCssTree::<u32, 4>::build(&keys);
            // Serialize level by level, reopen from the concatenated pages.
            let mut slots = Vec::new();
            for level in 0..built.layout().directory_levels() {
                slots.extend_from_slice(built.directory_level(level));
            }
            assert_eq!(&slots[..], built.directory(), "n={n}");
            let reopened =
                FullCssTree::<u32, 4>::from_shared_with_directory(built.array().clone(), &slots)
                    .expect("geometry matches");
            for probe in (0..n as u32 * 3 + 4).step_by(7) {
                assert_eq!(
                    reopened.lower_bound(probe),
                    built.lower_bound(probe),
                    "n={n} probe={probe}"
                );
            }
        }
    }

    #[test]
    fn wrong_slot_count_is_an_error_not_a_panic() {
        let keys: Vec<u32> = (0..100).collect();
        let built = FullCssTree::<u32, 4>::build(&keys);
        let mut slots = built.directory().to_vec();
        slots.pop();
        let err = FullCssTree::<u32, 4>::from_shared_with_directory(built.array().clone(), &slots)
            .expect_err("short directory must fail");
        assert!(err.contains("slots"), "{err}");
    }
}
