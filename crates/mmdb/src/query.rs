//! Query operators: the paper's three index consumers (§2.2), batched.
//!
//! 1. "searching an index is still useful for answering single value
//!    selection queries and range queries" — [`point_select_many`] and
//!    [`range_select_many`] (with [`point_select`] / [`range_select`] as
//!    the single-probe references they are tested against);
//! 2. "cheaper random access makes indexed nested loop joins more
//!    affordable ... This approach requires a lot of searching through
//!    indexes on the inner relations" — [`indexed_nested_loop_join`];
//! 3. "transforming domain values to domain IDs requires searching on the
//!    domain" — every operator below starts with a batched domain
//!    [`encode_batch`](crate::domain::Domain::encode_batch).
//!
//! In the decision-support setting probes arrive by the hundred-thousand,
//! so every operator hands the index whole probe batches
//! (`search_batch_lanes` / `lower_bound_batch_lanes`); batch-aware
//! structures such as the CSS-trees answer them with interleaved
//! multi-lane descents instead of one serialised lookup per probe. Each
//! batched operator takes the interleave lane count and a worker count:
//! the probes (or outer RIDs) are chunked across `threads` workers
//! (`0` = one per core, `1` = inline on the calling thread) and the
//! chunk answers concatenate in input order, so the output is the same
//! for every thread count.

use crate::column::Column;
use crate::domain::Value;
use crate::index_choice::IndexHandle;
use crate::plan::Side;
use crate::rid::RidList;
use ccindex_common::{OrderedIndex, SearchIndex};
use ccindex_parallel::WorkerPool;

/// One output row of an indexed nested-loop join.
///
/// Orders lexicographically by `(outer_rid, inner_rid)` — exactly the
/// order a join over an ascending outer RID stream emits, which is what
/// lets a scatter-gather layer sort per-shard partial outputs back into
/// the sequential join's order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct JoinRow {
    /// RID in the outer relation.
    pub outer_rid: u32,
    /// RID in the inner relation.
    pub inner_rid: u32,
}

impl JoinRow {
    /// The RID this row contributes from `side` of the join.
    pub fn rid(&self, side: Side) -> u32 {
        match side {
            Side::Outer => self.outer_rid,
            Side::Inner => self.inner_rid,
        }
    }
}

/// How many outer rows an [`indexed_nested_loop_join`] hands to the inner
/// index per `search_batch_lanes` call. Large enough to fill every
/// interleave lane many times over, small enough that the probe scratch
/// stays cache-resident.
pub const JOIN_PROBE_BLOCK: usize = 1024;

/// The §3.6 duplicate primitive for indexes that only answer point
/// lookups (the hash index): given the leftmost match `first`, scan
/// rightward through the sorted key array for the end of the run of
/// `id`. Ordered indexes do **not** come through here — they bracket the
/// run with two lower bounds (see `select_id_ranges`), so this is the
/// single place the hand-rolled scan lives.
fn duplicate_run_end(keys: &[u32], first: usize, id: u32) -> usize {
    let mut end = first;
    while end < keys.len() && keys[end] == id {
        end += 1;
    }
    end
}

/// All RIDs whose column value equals `value`, via one index search plus
/// the §3.6 rightward duplicate scan — the single-probe reference that
/// [`point_select_many`] is equivalence-tested against for every index
/// kind.
pub fn point_select(
    column: &Column,
    rid_list: &RidList,
    index: &dyn SearchIndex<u32>,
    value: &Value,
) -> Vec<u32> {
    let Some(id) = column.domain().encode(value) else {
        return Vec::new(); // value not in the domain: no rows
    };
    let Some(first) = index.search(id) else {
        return Vec::new();
    };
    let end = duplicate_run_end(rid_list.keys().as_slice(), first, id);
    rid_list.rids_in(first, end).to_vec()
}

/// One RID set per probe value: a batched domain encoding, then one
/// batched index descent per worker chunk. An ordered index answers with
/// a single `lower_bound_batch_lanes` holding **both** ends of every
/// probe's duplicate run (the batched form of
/// [`OrderedIndex::equal_range`]); a point-only index (hash) answers
/// `search_batch_lanes` and each hit's run end is found by the §3.6
/// rightward scan. Either way value `i`'s RIDs are
/// `rid_list.rids_in(first, end)` for its run, in values order.
pub fn point_select_many(
    column: &Column,
    rid_list: &RidList,
    index: &IndexHandle,
    values: &[Value],
    lanes: usize,
    threads: usize,
) -> Vec<Vec<u32>> {
    WorkerPool::new(threads).flat_map_chunks(values, |chunk| {
        // Consumer #3, batched: constants -> domain IDs. Values outside
        // the domain match no rows and are not probed at all.
        let ids = column.domain().encode_batch(chunk);
        match index {
            IndexHandle::Ordered(idx) => select_id_ranges(
                rid_list,
                idx.as_ref(),
                ids.into_iter().map(|id| id.map(|id| (id, id))),
                lanes,
            ),
            IndexHandle::Point(idx) => {
                let mut out = vec![Vec::new(); ids.len()];
                let mut slots = Vec::with_capacity(ids.len());
                let mut probes = Vec::with_capacity(ids.len());
                for (slot, id) in ids.into_iter().enumerate() {
                    if let Some(id) = id {
                        slots.push(slot);
                        probes.push(id);
                    }
                }
                let keys = rid_list.keys().as_slice();
                let hits = idx.search_batch_lanes(&probes, lanes);
                for ((slot, id), hit) in slots.into_iter().zip(probes).zip(hits) {
                    if let Some(first) = hit {
                        let end = duplicate_run_end(keys, first, id);
                        out[slot] = rid_list.rids_in(first, end).to_vec();
                    }
                }
                out
            }
        }
    })
}

/// All RIDs whose column value lies in the inclusive range `[lo, hi]`.
/// Requires an ordered index (hash indexes cannot serve range queries).
///
/// Single-range reference using the trait's [`OrderedIndex::key_range`]
/// (the source of truth for inclusive-range semantics);
/// [`range_select_many`] is equivalence-tested against it for every
/// ordered kind.
pub fn range_select(
    column: &Column,
    rid_list: &RidList,
    index: &dyn OrderedIndex<u32>,
    lo: &Value,
    hi: &Value,
) -> Vec<u32> {
    let Some((lo_id, hi_id)) = column.domain().id_range(lo, hi) else {
        return Vec::new();
    };
    let (start, end) = index.key_range(lo_id, hi_id);
    rid_list.rids_in(start, end).to_vec()
}

/// One RID set per inclusive value range. Each range contributes its two
/// positional bounds to one `lower_bound_batch_lanes` per worker chunk,
/// so a batch-aware structure descends for all ranges' endpoints
/// concurrently.
pub fn range_select_many(
    column: &Column,
    rid_list: &RidList,
    index: &dyn OrderedIndex<u32>,
    ranges: &[(Value, Value)],
    lanes: usize,
    threads: usize,
) -> Vec<Vec<u32>> {
    WorkerPool::new(threads).flat_map_chunks(ranges, |chunk| {
        let domain = column.domain();
        let id_ranges = chunk.iter().map(|(lo, hi)| domain.id_range(lo, hi));
        select_id_ranges(rid_list, index, id_ranges, lanes)
    })
}

/// The RID set of every inclusive domain-ID range (`None` matches
/// nothing), with both ends of all ranges answered by one
/// `lower_bound_batch_lanes` — the shared bracketing step of the ordered
/// point path and the range path.
fn select_id_ranges(
    rid_list: &RidList,
    index: &dyn OrderedIndex<u32>,
    id_ranges: impl ExactSizeIterator<Item = Option<(u32, u32)>>,
    lanes: usize,
) -> Vec<Vec<u32>> {
    let mut out = vec![Vec::new(); id_ranges.len()];
    // (slot, end-probe present?) per non-empty ID range; probes laid out
    // flat as [lo0, end0, lo1, end1, ...] minus any absent end probes.
    let mut pending: Vec<(usize, bool)> = Vec::new();
    let mut probes: Vec<u32> = Vec::new();
    for (slot, range) in id_ranges.enumerate() {
        let Some((lo_id, hi_id)) = range else {
            continue;
        };
        probes.push(lo_id);
        // `hi_id + 1` is the exclusive ID bound; if it is unrepresentable
        // every key from `lo_id` on matches and the end is `len`.
        match hi_id.checked_add(1) {
            Some(next) => {
                probes.push(next);
                pending.push((slot, true));
            }
            None => pending.push((slot, false)),
        }
    }
    let bounds = index.lower_bound_batch_lanes(&probes, lanes);
    let mut at = 0usize;
    for (slot, has_end) in pending {
        let start = bounds[at];
        at += 1;
        let end = if has_end {
            at += 1;
            bounds[at - 1]
        } else {
            index.len()
        };
        out[slot] = rid_list.rids_in(start, end.max(start)).to_vec();
    }
    out
}

/// Indexed nested-loop join over the outer rows `outer_rids` —
/// "pipelinable, requiring minimal storage for intermediate results"
/// (§2.2): the RID set from a filter streams straight into the probe
/// blocks. Equal inner duplicates all match. `outer_rids` need not be
/// sorted; output order follows it.
///
/// Batch-shaped on both of the paper's search axes: the outer *domain*
/// (its distinct values, not its rows) is translated into inner-domain
/// IDs with one batched dictionary search up front, and outer rows then
/// stream through the inner index [`JOIN_PROBE_BLOCK`] probes at a time
/// via `search_batch_lanes`. The outer RID stream is chunked across
/// `threads` workers over the one shared translation; chunk outputs
/// concatenate in outer-stream order.
pub fn indexed_nested_loop_join(
    outer: &Column,
    outer_rids: &[u32],
    inner: &Column,
    inner_rids: &RidList,
    inner_index: &dyn SearchIndex<u32>,
    lanes: usize,
    threads: usize,
) -> Vec<JoinRow> {
    // Consumer #3, batched and hoisted: one inner-domain lookup per
    // *distinct* outer value instead of one per outer row.
    let translation = inner.domain().encode_batch(outer.domain().values());
    WorkerPool::new(threads).flat_map_chunks(outer_rids, |chunk| {
        join_rids_translated(outer, chunk, inner_rids, inner_index, &translation, lanes)
    })
}

/// The blocked probe loop of [`indexed_nested_loop_join`]: stream
/// `outer_rids` through `inner_index` with the outer→inner domain
/// `translation` already in hand.
fn join_rids_translated(
    outer: &Column,
    outer_rids: &[u32],
    inner_rids: &RidList,
    inner_index: &dyn SearchIndex<u32>,
    translation: &[Option<u32>],
    lanes: usize,
) -> Vec<JoinRow> {
    let mut out = Vec::new();
    let inner_keys = inner_rids.keys().as_slice();
    let mut probe_ids: Vec<u32> = Vec::with_capacity(JOIN_PROBE_BLOCK);
    let mut probe_rids: Vec<u32> = Vec::with_capacity(JOIN_PROBE_BLOCK);
    for block in outer_rids.chunks(JOIN_PROBE_BLOCK) {
        probe_ids.clear();
        probe_rids.clear();
        for &outer_rid in block {
            // Outer values the inner domain does not contain join nothing.
            if let Some(inner_id) = translation[outer.id(outer_rid) as usize] {
                probe_ids.push(inner_id);
                probe_rids.push(outer_rid);
            }
        }
        for ((&outer_rid, &inner_id), hit) in probe_rids
            .iter()
            .zip(&probe_ids)
            .zip(inner_index.search_batch_lanes(&probe_ids, lanes))
        {
            if let Some(first) = hit {
                let end = duplicate_run_end(inner_keys, first, inner_id);
                for pos in first..end {
                    out.push(JoinRow {
                        outer_rid,
                        inner_rid: inner_rids.rid(pos),
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index_choice::{build_index, build_ordered_index, IndexKind};
    use crate::table::TableBuilder;
    use ccindex_common::DEFAULT_BATCH_LANES;

    /// Every row of `col`, the outer stream of an unfiltered join.
    fn all_rows(col: &Column) -> Vec<u32> {
        (0..col.len() as u32).collect()
    }

    /// The scan-path handle (point lookups plus the rightward duplicate
    /// scan) for any kind, and the ordered handle where the kind has one.
    fn handles(kind: IndexKind, keys: &ccindex_common::SortedArray<u32>) -> Vec<IndexHandle> {
        let mut out = vec![IndexHandle::Point(build_index(kind, keys))];
        if kind.is_ordered() {
            out.push(IndexHandle::Ordered(build_ordered_index(kind, keys)));
        }
        out
    }

    fn setup() -> (crate::table::Table, RidList) {
        let t = TableBuilder::new("sales")
            .int_column("amount", [30, 10, 20, 10, 30, 10, 40])
            .build()
            .expect("one column");
        let rl = RidList::for_column(t.column("amount").unwrap());
        (t, rl)
    }

    #[test]
    fn point_select_returns_all_duplicates() {
        let (t, rl) = setup();
        let col = t.column("amount").unwrap();
        for kind in IndexKind::ALL {
            let idx = build_index(kind, rl.keys());
            let mut rids = point_select(col, &rl, idx.as_ref(), &Value::Int(10));
            rids.sort_unstable();
            assert_eq!(rids, vec![1, 3, 5], "{kind:?}");
            assert!(point_select(col, &rl, idx.as_ref(), &Value::Int(99)).is_empty());
        }
    }

    #[test]
    fn range_select_inclusive_bounds() {
        let (t, rl) = setup();
        let col = t.column("amount").unwrap();
        for kind in IndexKind::ORDERED {
            let idx = build_ordered_index(kind, rl.keys());
            let mut rids = range_select(col, &rl, idx.as_ref(), &Value::Int(15), &Value::Int(30));
            rids.sort_unstable();
            assert_eq!(rids, vec![0, 2, 4], "{kind:?}");
            // Band with no domain values.
            assert!(
                range_select(col, &rl, idx.as_ref(), &Value::Int(31), &Value::Int(39)).is_empty()
            );
            // Full range.
            assert_eq!(
                range_select(col, &rl, idx.as_ref(), &Value::Int(0), &Value::Int(100)).len(),
                7
            );
        }
    }

    #[test]
    fn point_select_many_matches_single_selects() {
        let (t, rl) = setup();
        let col = t.column("amount").unwrap();
        let probes: Vec<Value> = [10i64, 99, 30, 40, 10, -5]
            .iter()
            .map(|&v| Value::Int(v))
            .collect();
        for kind in IndexKind::ALL {
            let idx = IndexHandle::build(kind, rl.keys());
            let many = point_select_many(col, &rl, &idx, &probes, DEFAULT_BATCH_LANES, 1);
            assert_eq!(many.len(), probes.len());
            for (value, got) in probes.iter().zip(&many) {
                assert_eq!(
                    got,
                    &point_select(col, &rl, idx.as_search(), value),
                    "{kind:?}"
                );
            }
            assert!(point_select_many(col, &rl, &idx, &[], DEFAULT_BATCH_LANES, 1).is_empty());
        }
    }

    #[test]
    fn ordered_point_selects_match_the_scan_path() {
        let (t, rl) = setup();
        let col = t.column("amount").unwrap();
        let probes: Vec<Value> = [10i64, 99, 30, 40, 10, -5]
            .iter()
            .map(|&v| Value::Int(v))
            .collect();
        for kind in IndexKind::ORDERED {
            let ordered = IndexHandle::Ordered(build_ordered_index(kind, rl.keys()));
            let scan = IndexHandle::Point(build_index(kind, rl.keys()));
            let many = point_select_many(col, &rl, &ordered, &probes, DEFAULT_BATCH_LANES, 1);
            for (value, got) in probes.iter().zip(&many) {
                assert_eq!(
                    got,
                    &point_select(col, &rl, scan.as_search(), value),
                    "{kind:?} {value}"
                );
            }
            assert_eq!(
                many,
                point_select_many(col, &rl, &scan, &probes, DEFAULT_BATCH_LANES, 1),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn filtered_join_restricts_to_the_outer_subset() {
        let orders = TableBuilder::new("orders")
            .int_column("cust", [5, 1, 2, 5, 9])
            .build()
            .expect("one column");
        let customers = TableBuilder::new("customers")
            .int_column("id", [1, 2, 3, 5, 5])
            .build()
            .expect("one column");
        let ccol = customers.column("id").unwrap();
        let crids = RidList::for_column(ccol);
        let ocol = orders.column("cust").unwrap();
        for kind in IndexKind::ALL {
            let idx = build_index(kind, crids.keys());
            let join = |outer_rids: &[u32]| {
                indexed_nested_loop_join(ocol, outer_rids, ccol, &crids, idx.as_ref(), 8, 1)
            };
            let full = join(&all_rows(ocol));
            // The subset path with rids {0, 3} must equal the full join
            // filtered to those outer rows.
            let subset = join(&[0, 3]);
            let expected: Vec<JoinRow> = full
                .iter()
                .filter(|j| j.outer_rid == 0 || j.outer_rid == 3)
                .copied()
                .collect();
            assert_eq!(subset, expected, "{kind:?}");
            assert!(join(&[]).is_empty());
        }
    }

    #[test]
    fn range_select_many_matches_single_selects() {
        let (t, rl) = setup();
        let col = t.column("amount").unwrap();
        let ranges: Vec<(Value, Value)> = [(15i64, 30i64), (0, 100), (31, 39), (40, 40)]
            .iter()
            .map(|&(a, b)| (Value::Int(a), Value::Int(b)))
            .collect();
        for kind in IndexKind::ORDERED {
            let idx = build_ordered_index(kind, rl.keys());
            let many = range_select_many(col, &rl, idx.as_ref(), &ranges, DEFAULT_BATCH_LANES, 1);
            for ((lo, hi), got) in ranges.iter().zip(&many) {
                assert_eq!(
                    got,
                    &range_select(col, &rl, idx.as_ref(), lo, hi),
                    "{kind:?} [{lo}, {hi}]"
                );
            }
        }
    }

    #[test]
    fn partitioned_operators_match_sequential_for_every_kind() {
        let n = 4_000i64;
        let t = TableBuilder::new("sales")
            .int_column("amount", (0..n).map(|i| (i * 7) % 500))
            .build()
            .expect("one column");
        let col = t.column("amount").unwrap();
        let rl = RidList::for_column(col);
        let values: Vec<Value> = (0..600i64).map(|v| Value::Int(v - 50)).collect();
        let ranges: Vec<(Value, Value)> = (0..300i64)
            .map(|v| (Value::Int(v - 20), Value::Int(v + 35)))
            .collect();
        let inner = TableBuilder::new("codes")
            .int_column("amount", (0..200i64).flat_map(|v| [v, v]))
            .build()
            .expect("one column");
        let icol = inner.column("amount").unwrap();
        let irl = RidList::for_column(icol);
        let all_outer = all_rows(col);
        for kind in IndexKind::ALL {
            let inner_idx = build_index(kind, irl.keys());
            let join = |threads| {
                indexed_nested_loop_join(
                    col,
                    &all_outer,
                    icol,
                    &irl,
                    inner_idx.as_ref(),
                    8,
                    threads,
                )
            };
            let seq_join = join(1);
            for idx in handles(kind, rl.keys()) {
                let expected: Vec<Vec<u32>> = values
                    .iter()
                    .map(|v| point_select(col, &rl, idx.as_search(), v))
                    .collect();
                for threads in [0usize, 1, 2, 8] {
                    assert_eq!(
                        point_select_many(col, &rl, &idx, &values, 8, threads),
                        expected,
                        "{idx:?} threads={threads}"
                    );
                }
            }
            for threads in [0usize, 2, 8] {
                assert_eq!(join(threads), seq_join, "{kind:?} threads={threads}");
            }
        }
        for kind in IndexKind::ORDERED {
            let idx = build_ordered_index(kind, rl.keys());
            let expected: Vec<Vec<u32>> = ranges
                .iter()
                .map(|(lo, hi)| range_select(col, &rl, idx.as_ref(), lo, hi))
                .collect();
            for threads in [0usize, 1, 2, 8] {
                assert_eq!(
                    range_select_many(col, &rl, idx.as_ref(), &ranges, 8, threads),
                    expected,
                    "{kind:?} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn join_blocks_larger_than_probe_block() {
        // More outer rows than JOIN_PROBE_BLOCK so the blocked streaming
        // path takes more than one batch.
        let n = JOIN_PROBE_BLOCK * 2 + 37;
        let outer_vals: Vec<i64> = (0..n as i64).map(|i| i % 50).collect();
        let inner_vals: Vec<i64> = (0..40i64).collect(); // values 0..40
        let ot = TableBuilder::new("o")
            .int_column("k", outer_vals.clone())
            .build()
            .expect("one column");
        let it = TableBuilder::new("i")
            .int_column("k", inner_vals.clone())
            .build()
            .expect("one column");
        let icol = it.column("k").unwrap();
        let irids = RidList::for_column(icol);
        let idx = build_index(IndexKind::FullCss, irids.keys());
        let ocol = ot.column("k").unwrap();
        let joined =
            indexed_nested_loop_join(ocol, &all_rows(ocol), icol, &irids, idx.as_ref(), 8, 1);
        // Outer values 0..40 match exactly one inner row each; 40..50 none.
        let expected = outer_vals.iter().filter(|&&v| v < 40).count();
        assert_eq!(joined.len(), expected);
        for j in &joined {
            assert_eq!(
                outer_vals[j.outer_rid as usize],
                inner_vals[j.inner_rid as usize]
            );
        }
    }

    #[test]
    fn join_matches_brute_force() {
        let orders = TableBuilder::new("orders")
            .int_column("cust", [5, 1, 2, 5, 9])
            .build()
            .expect("one column");
        let customers = TableBuilder::new("customers")
            .int_column("id", [1, 2, 3, 5, 5])
            .build()
            .expect("one column");
        let ccol = customers.column("id").unwrap();
        let crids = RidList::for_column(ccol);
        let ocol = orders.column("cust").unwrap();

        for kind in IndexKind::ALL {
            let idx = build_index(kind, crids.keys());
            let mut joined =
                indexed_nested_loop_join(ocol, &all_rows(ocol), ccol, &crids, idx.as_ref(), 8, 1);
            joined.sort_by_key(|j| (j.outer_rid, j.inner_rid));

            // Brute force reference.
            let mut expected = Vec::new();
            for o in 0..ocol.len() as u32 {
                for i in 0..ccol.len() as u32 {
                    if ocol.value(o) == ccol.value(i) {
                        expected.push(JoinRow {
                            outer_rid: o,
                            inner_rid: i,
                        });
                    }
                }
            }
            expected.sort_by_key(|j| (j.outer_rid, j.inner_rid));
            assert_eq!(joined, expected, "{kind:?}");
        }
    }

    #[test]
    fn join_with_string_keys_via_domains() {
        let left = TableBuilder::new("l")
            .str_column("k", ["b", "a", "z"])
            .build()
            .expect("one column");
        let right = TableBuilder::new("r")
            .str_column("k", ["a", "b", "b"])
            .build()
            .expect("one column");
        let rcol = right.column("k").unwrap();
        let rrids = RidList::for_column(rcol);
        let idx = build_index(IndexKind::FullCss, rrids.keys());
        let lcol = left.column("k").unwrap();
        let joined =
            indexed_nested_loop_join(lcol, &all_rows(lcol), rcol, &rrids, idx.as_ref(), 8, 1);
        // "b" matches rids 1,2; "a" matches rid 0; "z" matches nothing.
        assert_eq!(joined.len(), 3);
        assert!(joined.contains(&JoinRow {
            outer_rid: 1,
            inner_rid: 0
        }));
        assert!(joined.contains(&JoinRow {
            outer_rid: 0,
            inner_rid: 1
        }));
        assert!(joined.contains(&JoinRow {
            outer_rid: 0,
            inner_rid: 2
        }));
    }
}
