//! Runtime-dispatched CSS-trees over the standard node sizes.
//!
//! The benchmark harness sweeps node sizes (Figs. 12–13); [`DynCssTree`]
//! wraps one monomorphised tree per standard size behind an enum so the
//! sweep stays a runtime loop while each instantiation keeps its
//! specialised search (§6.2).

use crate::full::FullCssTree;
use crate::generic_search::GenericFullCss;
use crate::layout::CssLayout;
use crate::level::LevelCssTree;
use ccindex_common::{
    AccessTracer, IndexStats, Key, NoopTracer, OrderedIndex, SearchIndex, SortedArray, SpaceReport,
};

/// Which CSS-tree variant to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CssVariant {
    /// Full CSS-tree (§4.1): `m` keys per node, branching `m + 1`.
    Full,
    /// Level CSS-tree (§4.2): `m − 1` keys per node, branching `m`.
    Level,
}

/// Node sizes (keys per node) with pre-monomorphised implementations.
/// 8 and 16 are the paper's cache-line sizes (32 B / 64 B with 4-byte
/// keys); the rest cover the Fig. 12–13 sweeps.
pub const STANDARD_NODE_SIZES: &[usize] = &[2, 4, 8, 16, 32, 64, 128];

macro_rules! dyn_css {
    ($( $variant_full:ident / $variant_level:ident => $m:literal ),+ $(,)?) => {
        /// A CSS-tree whose node size and variant were chosen at runtime
        /// from [`STANDARD_NODE_SIZES`].
        #[derive(Debug, Clone)]
        pub enum DynCssTree<K: Key> {
            $(
                #[doc = concat!("Full CSS-tree, m = ", stringify!($m), ".")]
                $variant_full(FullCssTree<K, $m>),
                #[doc = concat!("Level CSS-tree, m = ", stringify!($m), ".")]
                $variant_level(LevelCssTree<K, $m>),
            )+
            /// Fallback for non-standard node sizes: the unspecialised
            /// implementation (also the §6.2 ablation target).
            Generic(GenericFullCss<K>),
        }

        impl<K: Key> DynCssTree<K> {
            /// Build a CSS-tree of the given variant and node size over a
            /// shared sorted array. Standard sizes get specialised code;
            /// any other size falls back to [`GenericFullCss`] (full
            /// variant only — level trees require power-of-two sizes,
            /// which are all standard).
            pub fn build(variant: CssVariant, m: usize, array: SortedArray<K>) -> Self {
                match (variant, m) {
                    $(
                        (CssVariant::Full, $m) => Self::$variant_full(FullCssTree::from_shared(array)),
                        (CssVariant::Level, $m) => Self::$variant_level(LevelCssTree::from_shared(array)),
                    )+
                    (CssVariant::Full, other) => Self::Generic(GenericFullCss::from_shared(array, other)),
                    (CssVariant::Level, other) => {
                        panic!("level CSS-trees require a power-of-two node size, got {other}")
                    }
                }
            }

            /// The tree's layout.
            pub fn layout(&self) -> &CssLayout {
                match self {
                    $(
                        Self::$variant_full(t) => t.layout(),
                        Self::$variant_level(t) => t.layout(),
                    )+
                    Self::Generic(t) => t.layout(),
                }
            }

            /// Leftmost matching position, generically traced.
            pub fn search_with<T: AccessTracer>(&self, key: K, tracer: &mut T) -> Option<usize> {
                match self {
                    $(
                        Self::$variant_full(t) => t.search_with(key, tracer),
                        Self::$variant_level(t) => t.search_with(key, tracer),
                    )+
                    Self::Generic(t) => t.search_with(key, tracer),
                }
            }

            /// Leftmost position with key `>= key`, generically traced.
            pub fn lower_bound_with<T: AccessTracer>(&self, key: K, tracer: &mut T) -> usize {
                match self {
                    $(
                        Self::$variant_full(t) => t.lower_bound_with(key, tracer),
                        Self::$variant_level(t) => t.lower_bound_with(key, tracer),
                    )+
                    Self::Generic(t) => t.lower_bound_with(key, tracer),
                }
            }

            /// Batched lower bounds with a runtime-tunable lane count —
            /// the interleaved descent of [`crate::batch`] with `lanes`
            /// probes in flight per round, on whichever monomorphised
            /// tree this enum wraps — with access tracing for
            /// cache-simulator replay.
            pub fn lower_bound_batch_lanes_with<T: AccessTracer>(
                &self,
                probes: &[K],
                lanes: usize,
                tracer: &mut T,
            ) -> Vec<usize> {
                match self {
                    $(
                        Self::$variant_full(t) => t.lower_bound_batch_lanes_with(probes, lanes, tracer),
                        Self::$variant_level(t) => t.lower_bound_batch_lanes_with(probes, lanes, tracer),
                    )+
                    Self::Generic(t) => t.lower_bound_batch_lanes_with(probes, lanes, tracer),
                }
            }

            /// Batched point lookups with a runtime-tunable lane count.
            pub fn search_batch_lanes_with<T: AccessTracer>(
                &self,
                probes: &[K],
                lanes: usize,
                tracer: &mut T,
            ) -> Vec<Option<usize>> {
                match self {
                    $(
                        Self::$variant_full(t) => t.search_batch_lanes_with(probes, lanes, tracer),
                        Self::$variant_level(t) => t.search_batch_lanes_with(probes, lanes, tracer),
                    )+
                    Self::Generic(t) => t.search_batch_lanes_with(probes, lanes, tracer),
                }
            }
        }

        impl<K: Key> SearchIndex<K> for DynCssTree<K> {
            fn name(&self) -> &'static str {
                match self {
                    $(
                        Self::$variant_full(t) => t.name(),
                        Self::$variant_level(t) => t.name(),
                    )+
                    Self::Generic(t) => t.name(),
                }
            }
            fn len(&self) -> usize {
                match self {
                    $(
                        Self::$variant_full(t) => SearchIndex::len(t),
                        Self::$variant_level(t) => SearchIndex::len(t),
                    )+
                    Self::Generic(t) => SearchIndex::len(t),
                }
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
                self.search_batch_lanes_with(probes, ccindex_common::DEFAULT_BATCH_LANES, &mut { tracer })
            }
            fn space(&self) -> SpaceReport {
                match self {
                    $(
                        Self::$variant_full(t) => t.space(),
                        Self::$variant_level(t) => t.space(),
                    )+
                    Self::Generic(t) => t.space(),
                }
            }
            fn stats(&self) -> IndexStats {
                match self {
                    $(
                        Self::$variant_full(t) => t.stats(),
                        Self::$variant_level(t) => t.stats(),
                    )+
                    Self::Generic(t) => t.stats(),
                }
            }
        }

        impl<K: Key> OrderedIndex<K> for DynCssTree<K> {
            fn lower_bound(&self, key: K) -> usize {
                self.lower_bound_with(key, &mut NoopTracer)
            }
            fn lower_bound_traced(&self, key: K, tracer: &mut dyn AccessTracer) -> usize {
                self.lower_bound_with(key, &mut { tracer })
            }
            fn lower_bound_batch_lanes(&self, probes: &[K], lanes: usize) -> Vec<usize> {
                self.lower_bound_batch_lanes_with(probes, lanes, &mut NoopTracer)
            }
            fn lower_bound_batch_traced(
                &self,
                probes: &[K],
                tracer: &mut dyn AccessTracer,
            ) -> Vec<usize> {
                self.lower_bound_batch_lanes_with(probes, ccindex_common::DEFAULT_BATCH_LANES, &mut { tracer })
            }
        }
    };
}

dyn_css! {
    Full2 / Level2 => 2,
    Full4 / Level4 => 4,
    Full8 / Level8 => 8,
    Full16 / Level16 => 16,
    Full32 / Level32 => 32,
    Full64 / Level64 => 64,
    Full128 / Level128 => 128,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: u32) -> Vec<u32> {
        (0..n).map(|i| i * 3 + 1).collect()
    }

    #[test]
    fn all_standard_sizes_agree_with_reference() {
        let ks = keys(5000);
        let arr = SortedArray::from_slice(&ks);
        for &m in STANDARD_NODE_SIZES {
            for variant in [CssVariant::Full, CssVariant::Level] {
                let t = DynCssTree::build(variant, m, arr.clone());
                for probe in (0..15_100u32).step_by(13) {
                    assert_eq!(
                        t.lower_bound(probe),
                        ks.partition_point(|&k| k < probe),
                        "m={m} {variant:?} probe={probe}"
                    );
                }
            }
        }
    }

    #[test]
    fn nonstandard_size_falls_back_to_generic() {
        let ks = keys(1000);
        let arr = SortedArray::from_slice(&ks);
        let t = DynCssTree::build(CssVariant::Full, 24, arr);
        assert!(matches!(t, DynCssTree::Generic(_)));
        assert_eq!(t.layout().m, 24);
        for probe in (0..3_100u32).step_by(7) {
            assert_eq!(t.lower_bound(probe), ks.partition_point(|&k| k < probe));
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn nonstandard_level_size_panics() {
        let arr = SortedArray::from_slice(&keys(100));
        let _ = DynCssTree::build(CssVariant::Level, 24, arr);
    }

    #[test]
    fn shares_rather_than_copies_the_array() {
        let arr = SortedArray::from_slice(&keys(1000));
        let _a = DynCssTree::build(CssVariant::Full, 16, arr.clone());
        let _b = DynCssTree::build(CssVariant::Level, 16, arr.clone());
        assert_eq!(arr.holders(), 3);
    }

    #[test]
    fn runtime_lanes_agree_with_per_probe_lookups() {
        let ks = keys(3000);
        let arr = SortedArray::from_slice(&ks);
        let probes: Vec<u32> = (0..500u32).map(|i| i * 19 % 9_100).collect();
        let expected: Vec<usize> = probes
            .iter()
            .map(|&p| ks.partition_point(|&k| k < p))
            .collect();
        for (variant, m) in [
            (CssVariant::Full, 16usize),
            (CssVariant::Level, 8),
            (CssVariant::Full, 24), // generic fallback
        ] {
            let t = DynCssTree::build(variant, m, arr.clone());
            // Lane count 0 is the documented sequential fallback, not a
            // panic; oversized lane counts clamp to the probe count.
            for lanes in [0usize, 1, 4, 8, 33, 10_000] {
                assert_eq!(
                    t.lower_bound_batch_lanes(&probes, lanes),
                    expected,
                    "{variant:?} m={m} lanes={lanes}"
                );
            }
            // Batched point lookups route through the same descent.
            let point: Vec<Option<usize>> = probes.iter().map(|&p| t.search(p)).collect();
            for lanes in [0usize, 1, 8, 10_000] {
                assert_eq!(
                    t.search_batch_lanes(&probes, lanes),
                    point,
                    "{variant:?} m={m} lanes={lanes}"
                );
            }
        }
    }

    #[test]
    fn names_distinguish_variants() {
        let arr = SortedArray::from_slice(&keys(100));
        let f = DynCssTree::build(CssVariant::Full, 16, arr.clone());
        let l = DynCssTree::build(CssVariant::Level, 16, arr);
        assert_eq!(f.name(), "full CSS-tree");
        assert_eq!(l.name(), "level CSS-tree");
    }
}
