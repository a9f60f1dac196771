//! Batched lookups and structural self-validation.
//!
//! The OLAP consumers of §2.2 rarely issue one probe at a time: an indexed
//! nested-loop join performs "a lot of searching through indexes on the
//! inner relations". The batch entry points here exploit that:
//! the crate-internal `interleaved_descent` advances up to `lanes`
//! independent probes one
//! directory level per round, so the node fetches of a round are all in
//! flight together instead of serialised behind one another — the
//! software-pipelining counterpart of the paper's cache-line sizing (a
//! beyond-paper extension; the paper's own protocol is reproduced by the
//! sequential path, which the batch is tested against).
//!
//! One descent helper serves every variant — full, level and generic
//! trees differ only in how they pick a branch within a node, so that
//! choice is a closure and the lane bookkeeping lives in exactly one
//! place.

use crate::full::FullCssTree;
use crate::layout::{CssLayout, LeafSegment};
use crate::level::LevelCssTree;
use ccindex_common::{AccessTracer, Key, NoopTracer, SortedArray};

/// Level-synchronous interleaved descent over a CSS directory.
///
/// Probes are processed in chunks of `lanes`; within a chunk every live
/// lane advances one directory level per round (`branch` picks the child
/// slot for one `(node, probe)` pair), then each lane's virtual leaf is
/// handed to `resolve`. The tracer is threaded through both closures so
/// the cache simulator can replay the *batched* access pattern, which is
/// exactly what distinguishes this path from a sequential descent.
///
/// Degenerate lane counts are legal configuration, not errors: `lanes ==
/// 0` falls back to the sequential descent (one lane), and `lanes >
/// probes.len()` is clamped to the probe count so no lane bookkeeping is
/// allocated or scanned for lanes that could never carry a probe.
pub(crate) fn interleaved_descent<K, T, B, R>(
    layout: &CssLayout,
    probes: &[K],
    lanes: usize,
    tracer: &mut T,
    mut branch: B,
    mut resolve: R,
) -> Vec<usize>
where
    K: Key,
    T: AccessTracer,
    B: FnMut(usize, K, &mut T) -> usize,
    R: FnMut(usize, K, &mut T) -> usize,
{
    let lanes = lanes.clamp(1, probes.len().max(1));
    let mut out = vec![0usize; probes.len()];
    let mut nodes = vec![0usize; lanes];
    for (chunk_idx, chunk) in probes.chunks(lanes).enumerate() {
        let base = chunk_idx * lanes;
        for node in nodes[..chunk.len()].iter_mut() {
            *node = 0;
        }
        // Advance every lane still inside the directory one level per
        // round; lanes whose subtrees are shallower simply sit at their
        // leaf until the round loop drains.
        let mut any_internal = layout.internal_nodes > 0;
        while any_internal {
            any_internal = false;
            for (lane, &probe) in chunk.iter().enumerate() {
                let d = nodes[lane];
                if layout.is_internal(d) {
                    let next = layout.child(d, branch(d, probe, tracer));
                    tracer.descend();
                    nodes[lane] = next;
                    any_internal |= layout.is_internal(next);
                }
            }
        }
        for (lane, &probe) in chunk.iter().enumerate() {
            out[base + lane] = resolve(nodes[lane], probe, tracer);
        }
    }
    out
}

/// Binary search of one resolved virtual leaf's array segment — the final
/// step shared by the sequential and batched paths of every CSS variant.
pub(crate) fn resolve_leaf<K: Key, T: AccessTracer>(
    layout: &CssLayout,
    array: &SortedArray<K>,
    leaf: usize,
    probe: K,
    tracer: &mut T,
) -> usize {
    let n = array.len();
    if n == 0 {
        return 0;
    }
    let (start, end) = match layout.leaf_segment(leaf) {
        LeafSegment::Range { start, end } => (start, end),
        LeafSegment::BeyondEnd => return n, // probe exceeds every key
    };
    let a = array.as_slice();
    let mut lo = start;
    let mut hi = end;
    while lo < hi {
        let mid = lo + ((hi - lo) >> 1);
        tracer.compare();
        tracer.read(array.addr_of(mid), K::WIDTH);
        if a[mid] < probe {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Equality check turning batched lower bounds into batched point
/// lookups, tracing the leaf reads exactly like the sequential
/// `search_with`.
pub(crate) fn confirm_matches<K: Key, T: AccessTracer>(
    array: &SortedArray<K>,
    probes: &[K],
    lower_bounds: Vec<usize>,
    tracer: &mut T,
) -> Vec<Option<usize>> {
    let n = array.len();
    lower_bounds
        .into_iter()
        .zip(probes)
        .map(|(pos, &probe)| {
            if pos < n {
                tracer.compare();
                if array.get_traced(pos, tracer) == probe {
                    return Some(pos);
                }
            }
            None
        })
        .collect()
}

/// The identical batch surface for both specialised tree variants; the
/// variants differ only in the `node_branch` the descent closure calls.
macro_rules! impl_css_batch {
    ($tree:ident) => {
        impl<K: Key, const M: usize> $tree<K, M> {
            /// Sequential batch: one full `lower_bound` descent per probe,
            /// in order. This is the paper-faithful reference the
            /// interleaved path is tested against.
            pub fn lower_bound_batch_sequential(&self, probes: &[K]) -> Vec<usize> {
                probes
                    .iter()
                    .map(|&p| self.lower_bound_with(p, &mut NoopTracer))
                    .collect()
            }

            /// Level-synchronous batch with a runtime lane count,
            /// reporting the batched access pattern to `tracer`. Produces
            /// exactly the same positions as
            /// [`Self::lower_bound_batch_sequential`]; the
            /// `OrderedIndex::lower_bound_batch_lanes` override is this
            /// with a no-op tracer.
            pub fn lower_bound_batch_lanes_with<T: AccessTracer>(
                &self,
                probes: &[K],
                lanes: usize,
                tracer: &mut T,
            ) -> Vec<usize> {
                interleaved_descent(
                    self.layout(),
                    probes,
                    lanes,
                    tracer,
                    |d, p, tr| self.node_branch(d, p, tr),
                    |leaf, p, tr| resolve_leaf(self.layout(), self.array(), leaf, p, tr),
                )
            }

            /// Batched point lookup: interleaved lower bounds plus the
            /// per-probe equality check.
            pub fn search_batch_lanes_with<T: AccessTracer>(
                &self,
                probes: &[K],
                lanes: usize,
                tracer: &mut T,
            ) -> Vec<Option<usize>> {
                let lbs = self.lower_bound_batch_lanes_with(probes, lanes, tracer);
                confirm_matches(self.array(), probes, lbs, tracer)
            }
        }
    };
}

impl_css_batch!(FullCssTree);
impl_css_batch!(LevelCssTree);

impl<K: Key, const M: usize> FullCssTree<K, M> {
    /// Structural self-check: every internal entry must be non-decreasing
    /// within its node and equal the largest key of its child subtree
    /// (Algorithm 4.1's invariant, recomputed independently), and every
    /// leaf segment must map inside the array. Returns a description of
    /// the first violation.
    pub fn validate(&self) -> Result<(), String> {
        let layout = self.layout();
        let dir = self.directory_slice();
        let keys = self.array().as_slice();
        if layout.internal_nodes == 0 {
            return Ok(());
        }
        let l1 = layout.first_part_len;
        if l1 == 0 {
            return Err("directory present but first part empty".into());
        }
        for d in 0..layout.internal_nodes {
            let node = &dir[d * M..d * M + M];
            if !node.windows(2).all(|w| w[0] <= w[1]) {
                return Err(format!("node {d}: entries not sorted"));
            }
            for (e, &stored) in node.iter().enumerate() {
                // Recompute the subtree max by rightmost descent.
                let mut c = layout.child(d, e);
                while layout.is_internal(c) {
                    c = layout.child(c, M);
                }
                let expect = match layout.leaf_segment(c) {
                    LeafSegment::Range { end, .. } => keys[end - 1],
                    LeafSegment::BeyondEnd => keys[l1 - 1],
                };
                if stored != expect {
                    return Err(format!(
                        "node {d} entry {e}: stored {stored:?}, expected {expect:?}"
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccindex_common::{CountingTracer, OrderedIndex, SearchIndex, DEFAULT_BATCH_LANES};

    fn tree(n: u32) -> FullCssTree<u32, 8> {
        let keys: Vec<u32> = (0..n).map(|i| i * 3 + 1).collect();
        FullCssTree::build(&keys)
    }

    #[test]
    fn interleaved_agrees_with_sequential() {
        let t = tree(10_000);
        let probes: Vec<u32> = (0..4_000u32).map(|i| i * 7 % 31_000).collect();
        let seq = t.lower_bound_batch_sequential(&probes);
        for lanes in [1usize, 2, 3, 4, 5, 8, 13, 16, 64, 5_000] {
            assert_eq!(
                t.lower_bound_batch_lanes(&probes, lanes),
                seq,
                "lanes={lanes}"
            );
        }
    }

    #[test]
    fn level_tree_batches_agree_with_sequential() {
        let keys: Vec<u32> = (0..9_000u32).map(|i| i * 2).collect();
        let t = LevelCssTree::<u32, 16>::build(&keys);
        let probes: Vec<u32> = (0..3_000u32).map(|i| i * 11 % 19_000).collect();
        let seq = t.lower_bound_batch_sequential(&probes);
        for lanes in [1usize, 2, 7, 8, 32] {
            assert_eq!(
                t.lower_bound_batch_lanes(&probes, lanes),
                seq,
                "lanes={lanes}"
            );
        }
    }

    #[test]
    fn interleaved_handles_ragged_tail_and_empty() {
        let t = tree(1_000);
        let probes: Vec<u32> = (0..13u32).collect(); // not a multiple of 8
        assert_eq!(
            t.lower_bound_batch_lanes(&probes, 8),
            t.lower_bound_batch_sequential(&probes)
        );
        assert!(t.lower_bound_batch_lanes(&[], 8).is_empty());
        let empty = FullCssTree::<u32, 8>::build(&[]);
        assert_eq!(empty.lower_bound_batch_lanes(&[5], 4), vec![0]);
        assert_eq!(empty.search_batch_lanes(&[5], 8), vec![None]);
    }

    #[test]
    fn degenerate_lane_counts_fall_back_to_sequential() {
        let t = tree(2_000);
        let probes: Vec<u32> = (0..37u32).map(|i| i * 101 % 6_100).collect();
        let seq = t.lower_bound_batch_sequential(&probes);
        // lanes == 0 and lanes far beyond the probe count are valid
        // configurations, answered exactly like the sequential descent.
        assert_eq!(t.lower_bound_batch_lanes(&probes, 0), seq);
        assert_eq!(t.lower_bound_batch_lanes(&probes, probes.len() + 500), seq);
        let mut tr = CountingTracer::new();
        assert_eq!(t.search_batch_lanes_with(&probes, 0, &mut tr).len(), 37);
        assert!(t.lower_bound_batch_lanes(&[], 0).is_empty());
        let empty = FullCssTree::<u32, 8>::build(&[]);
        assert_eq!(empty.lower_bound_batch_lanes(&[5], 0), vec![0]);
    }

    #[test]
    fn parallel_batches_are_byte_identical_to_sequential() {
        // Callers partition a probe batch into contiguous chunks, one per
        // worker, and concatenate the chunk answers in order; that is
        // sound only if a chunk's answers do not depend on its
        // neighbours.
        let t = tree(20_000);
        let probes: Vec<u32> = (0..4_003u32).map(|i| i * 17 % 61_000).collect();
        let seq_lb = t.lower_bound_batch_sequential(&probes);
        let seq_pt: Vec<Option<usize>> = probes.iter().map(|&p| t.search(p)).collect();
        for chunk in [1usize, 7, 501, 2_002, 4_003] {
            let chunks = || probes.chunks(chunk);
            let lb: Vec<usize> = chunks()
                .flat_map(|c| t.lower_bound_batch_lanes(c, 8))
                .collect();
            let pt: Vec<_> = chunks().flat_map(|c| t.search_batch_lanes(c, 8)).collect();
            assert_eq!(lb, seq_lb, "chunk={chunk}");
            assert_eq!(pt, seq_pt, "chunk={chunk}");
        }
    }

    #[test]
    fn trait_batch_overrides_route_through_interleaved_descent() {
        let t = tree(50_000);
        let probes: Vec<u32> = (0..2_000u32).map(|i| i * 13 % 151_000).collect();
        // Trait-object calls must agree with the sequential defaults.
        let idx: &dyn OrderedIndex<u32> = &t;
        assert_eq!(
            idx.lower_bound_batch_lanes(&probes, DEFAULT_BATCH_LANES),
            t.lower_bound_batch_sequential(&probes)
        );
        let expect: Vec<Option<usize>> = probes.iter().map(|&p| t.search(p)).collect();
        assert_eq!(idx.search_batch_lanes(&probes, DEFAULT_BATCH_LANES), expect);
    }

    #[test]
    fn traced_batch_reports_directory_reads() {
        let t = tree(100_000);
        let probes: Vec<u32> = (0..256u32).map(|i| i * 997).collect();
        let mut seq_tr = CountingTracer::new();
        for &p in &probes {
            t.lower_bound_with(p, &mut seq_tr);
        }
        let mut batch_tr = CountingTracer::new();
        let got = t.lower_bound_batch_lanes_with(&probes, 8, &mut batch_tr);
        assert_eq!(got, t.lower_bound_batch_sequential(&probes));
        // Interleaving reorders accesses but performs the same work.
        assert_eq!(batch_tr.reads, seq_tr.reads);
        assert_eq!(batch_tr.bytes_read, seq_tr.bytes_read);
        assert_eq!(batch_tr.compares, seq_tr.compares);
        assert_eq!(batch_tr.descends, seq_tr.descends);
    }

    #[test]
    fn validate_accepts_correct_trees() {
        for n in [0u32, 1, 7, 64, 65, 260, 1000, 4097] {
            let keys: Vec<u32> = (0..n).map(|i| i * 2).collect();
            let t = FullCssTree::<u32, 4>::build(&keys);
            t.validate().unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
        tree(100_000).validate().expect("large tree valid");
    }

    #[test]
    fn validate_catches_corruption() {
        let t = tree(10_000);
        // Corrupt one directory entry through a cloned, mutated copy.
        let mut corrupt = t.clone();
        corrupt.corrupt_entry_for_test(3);
        let err = corrupt.validate().expect_err("must detect corruption");
        assert!(err.contains("node 0"), "{err}");
    }
}
