//! Level CSS-trees (§4.2).
//!
//! For `M = 2^t`, a level CSS-tree "only uses m − 1 entries per node and
//! has a branching factor of m": the intra-node search becomes a *perfect*
//! binary comparison tree of exactly `t` comparisons (Fig. 4's point), and
//! because both the branching factor and the node stride are powers of
//! two, every child-offset computation is a shift — the paper's fix for
//! the m = 24 "bump" of Figs. 12–13.
//!
//! The spare `M`-th slot is not wasted during *construction*: it caches
//! "the largest value in the last branch of each node", letting the build
//! fill parent entries without re-descending subtrees. That is why level
//! trees build measurably faster than full trees (Fig. 9).

use crate::batch;
use crate::layout::{CssLayout, LeafSegment};
use ccindex_common::{
    AccessTracer, AlignedBuf, IndexStats, Key, NoopTracer, OrderedIndex, SearchIndex, SortedArray,
    SpaceReport, DEFAULT_BATCH_LANES,
};

/// A level CSS-tree with `M`-slot nodes (`M − 1` separator keys + 1
/// auxiliary slot; branching factor `M`). `M` must be a power of two ≥ 2.
#[derive(Debug, Clone)]
pub struct LevelCssTree<K: Key, const M: usize> {
    array: SortedArray<K>,
    /// Directory: `internal_nodes · M` slots; slot `M−1` of each node is
    /// the auxiliary subtree maximum (used by the build, not the search).
    directory: AlignedBuf<K>,
    layout: CssLayout,
}

impl<K: Key, const M: usize> LevelCssTree<K, M> {
    /// Build over a sorted slice.
    pub fn build(keys: &[K]) -> Self {
        Self::from_shared(SortedArray::from_slice(keys))
    }

    /// Build over an existing shared array without copying it.
    pub fn from_shared(array: SortedArray<K>) -> Self {
        assert!(
            M >= 2 && M.is_power_of_two(),
            "level CSS-trees require a power-of-two node size >= 2"
        );
        let layout = CssLayout::level(array.len(), M);
        let mut directory: AlignedBuf<K> = AlignedBuf::new_zeroed(layout.directory_slots());
        Self::fill_directory(array.as_slice(), &layout, &mut directory);
        Self {
            array,
            directory,
            layout,
        }
    }

    /// Bottom-up fill using the auxiliary slot: entry `e < M−1` of node
    /// `d` is the max of child `e`'s subtree; slot `M−1` is the max of the
    /// last child's subtree. A child's subtree max is its own aux slot
    /// when internal (already computed — children have larger node
    /// numbers), or its segment's last key when a leaf.
    fn fill_directory(keys: &[K], layout: &CssLayout, directory: &mut AlignedBuf<K>) {
        let t = layout.internal_nodes;
        if t == 0 {
            return;
        }
        let l1 = layout.first_part_len;
        debug_assert!(l1 > 0);
        let pad = keys[l1 - 1];
        for d in (0..t).rev() {
            for e in 0..M {
                // Entries 0..M−2 are separators (max of child e); the aux
                // slot e = M−1 stores the last child's subtree max.
                let c = layout.child(d, e);
                let max = if layout.is_internal(c) {
                    directory[c * M + (M - 1)] // child's aux slot
                } else {
                    match layout.leaf_segment(c) {
                        LeafSegment::Range { end, .. } => keys[end - 1],
                        LeafSegment::BeyondEnd => pad,
                    }
                };
                directory[d * M + e] = max;
            }
        }
    }

    /// Reassemble a tree from its shared array plus pre-built
    /// directory slots (a serialized tree's level pages, concatenated
    /// root level first, auxiliary slots included) without re-running
    /// the bottom-up fill. The slot count must match the geometry
    /// recomputed from `(n, M)`; a mismatch is an `Err` (never a
    /// panic) so a damaged file surfaces as a typed storage error
    /// upstream.
    pub fn from_shared_with_directory(array: SortedArray<K>, slots: &[K]) -> Result<Self, String> {
        assert!(
            M >= 2 && M.is_power_of_two(),
            "level CSS-trees require a power-of-two node size >= 2"
        );
        let layout = CssLayout::level(array.len(), M);
        if slots.len() != layout.directory_slots() {
            return Err(format!(
                "level CSS directory has {} slots, geometry for n={} m={M} needs {}",
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

    /// Directory key slots (including auxiliary slots).
    pub fn directory_slots(&self) -> usize {
        self.directory.len()
    }

    /// Leftmost branch with separator `>= probe`, else `M − 1`.
    ///
    /// Exactly `t = log2 M` comparisons over the `M − 1` separators — the
    /// full binary comparison tree of Fig. 4. Shared with the interleaved
    /// batch descent in [`crate::batch`].
    #[inline(always)]
    pub(crate) fn node_branch<T: AccessTracer>(&self, d: usize, probe: K, tracer: &mut T) -> usize {
        let base = d * M;
        let node = &self.directory.as_slice()[base..base + M];
        tracer.read(self.directory.base_addr() + base * K::WIDTH, M * K::WIDTH);
        let mut lo = 0usize;
        let mut hi = M - 1;
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

    /// Descent to the virtual leaf; child offset is `d·M + 1 + l` — all
    /// shifts because `M` is a power of two.
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

impl<K: Key, const M: usize> SearchIndex<K> for LevelCssTree<K, M> {
    fn name(&self) -> &'static str {
        "level CSS-tree"
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
            branching: M,
            node_bytes: M * K::WIDTH,
        }
    }
}

impl<K: Key, const M: usize> OrderedIndex<K> for LevelCssTree<K, M> {
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
    fn finds_every_key() {
        let keys: Vec<u32> = (0..10_000).map(|i| i * 2 + 1).collect();
        let t = LevelCssTree::<u32, 16>::build(&keys);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(t.search(k), Some(i), "key {k}");
        }
    }

    #[test]
    fn misses_are_none() {
        let keys: Vec<u32> = (0..10_000).map(|i| i * 2 + 1).collect();
        let t = LevelCssTree::<u32, 16>::build(&keys);
        for i in (0..10_000).step_by(7) {
            assert_eq!(t.search(i * 2), None);
        }
        assert_eq!(t.search(u32::MAX), None);
    }

    #[test]
    fn lower_bound_exhaustive_small_sizes() {
        for n in 0..200usize {
            let keys: Vec<u32> = (0..n as u32).map(|i| i * 3 + 2).collect();
            macro_rules! check {
                ($m:literal) => {{
                    let t = LevelCssTree::<u32, $m>::build(&keys);
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
            check!(2);
            check!(4);
            check!(8);
            check!(16);
            check!(32);
        }
    }

    #[test]
    fn duplicates_return_leftmost() {
        let mut keys = Vec::new();
        for block in 0..50u32 {
            for _ in 0..9 {
                keys.push(block * 100);
            }
        }
        let t = LevelCssTree::<u32, 8>::build(&keys);
        for block in 0..50u32 {
            assert_eq!(t.search(block * 100), Some((block * 9) as usize));
        }
    }

    #[test]
    fn exactly_log2_m_comparisons_per_node() {
        // §4.2: "The number of comparisons per node is t for a level
        // CSS-tree" (t = log2 M). Verify compares == descends * t + leaf.
        let keys: Vec<u32> = (0..1_000_000).collect();
        let t = LevelCssTree::<u32, 16>::build(&keys);
        let mut tr = CountingTracer::new();
        t.lower_bound_with(777_777, &mut tr);
        let per_node = 4; // log2(16)
        let leaf_cost = tr.compares - tr.descends * per_node;
        assert!(leaf_cost <= 5, "leaf comparisons = {leaf_cost}");
    }

    #[test]
    fn level_uses_more_space_than_full_same_node_size() {
        // §4.2: "A level CSS-tree uses a little more space than a full
        // CSS-tree."
        let keys: Vec<u32> = (0..1_000_000).collect();
        let full = crate::full::FullCssTree::<u32, 16>::build(&keys);
        let level = LevelCssTree::<u32, 16>::build(&keys);
        assert!(level.space().indirect_bytes > full.space().indirect_bytes);
    }

    #[test]
    fn fewer_total_comparisons_than_full(/* Fig. 5's comparison ratio < 1 */) {
        let keys: Vec<u32> = (0..1_048_576u32).collect();
        let full = crate::full::FullCssTree::<u32, 16>::build(&keys);
        let level = LevelCssTree::<u32, 16>::build(&keys);
        let (mut cf, mut cl) = (0u64, 0u64);
        for probe in (0..1_048_576u32).step_by(9973) {
            let mut a = CountingTracer::new();
            full.lower_bound_with(probe, &mut a);
            cf += a.compares;
            let mut b = CountingTracer::new();
            level.lower_bound_with(probe, &mut b);
            cl += b.compares;
        }
        assert!(cl < cf, "level {cl} vs full {cf} comparisons");
    }

    #[test]
    fn empty_tiny_and_beyond_max() {
        let t = LevelCssTree::<u32, 8>::build(&[]);
        assert_eq!(t.search(1), None);
        assert_eq!(t.lower_bound(1), 0);
        let t = LevelCssTree::<u32, 8>::build(&[5]);
        assert_eq!(t.search(5), Some(0));
        assert_eq!(t.lower_bound(9), 1);
        for n in [5usize, 63, 64, 65, 512, 513] {
            let keys: Vec<u32> = (0..n as u32).collect();
            let t = LevelCssTree::<u32, 8>::build(&keys);
            assert_eq!(t.lower_bound(n as u32 + 7), n, "n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn rejects_non_power_of_two_m() {
        let keys: Vec<u32> = (0..100).collect();
        let _ = LevelCssTree::<u32, 24>::build(&keys);
    }

    #[test]
    fn u64_keys() {
        let keys: Vec<u64> = (0..50_000u64).map(|i| i * 977).collect();
        let t = LevelCssTree::<u64, 8>::build(&keys);
        for (i, &k) in keys.iter().enumerate().step_by(331) {
            assert_eq!(t.search(k), Some(i));
            assert_eq!(t.search(k + 1), None);
        }
    }

    #[test]
    fn level_pages_reassemble_the_tree() {
        for n in [0usize, 3, 97, 260, 4_097] {
            let keys: Vec<u32> = (0..n as u32).map(|i| i * 3).collect();
            let built = LevelCssTree::<u32, 8>::build(&keys);
            let mut slots = Vec::new();
            for level in 0..built.layout().directory_levels() {
                slots.extend_from_slice(built.directory_level(level));
            }
            assert_eq!(&slots[..], built.directory(), "n={n}");
            let reopened =
                LevelCssTree::<u32, 8>::from_shared_with_directory(built.array().clone(), &slots)
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
        let keys: Vec<u32> = (0..300).collect();
        let built = LevelCssTree::<u32, 8>::build(&keys);
        let mut slots = built.directory().to_vec();
        slots.extend_from_slice(&[0, 0]);
        let err = LevelCssTree::<u32, 8>::from_shared_with_directory(built.array().clone(), &slots)
            .expect_err("oversized directory must fail");
        assert!(err.contains("slots"), "{err}");
    }
}
