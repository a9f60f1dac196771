//! Grouped aggregation over sorted RID lists.
//!
//! OLAP queries (§1, §2.2) aggregate after selecting and joining. A RID
//! list sorted on the group-by column already clusters each group into a
//! contiguous run of equal domain IDs, so grouping is a single linear pass
//! — no hash table, and the per-group ranges are exactly the
//! `equal_range`s an ordered index reports.

use crate::column::Column;
use crate::domain::Value;
use crate::plan::Side;
use crate::query::JoinRow;
use crate::rid::RidList;
use ccindex_parallel::{partition, WorkerPool};
use std::collections::BTreeMap;
use std::ops::Range;

/// Supported aggregate functions over an `Int` measure column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFn {
    /// Row count per group.
    Count,
    /// Sum of the measure.
    Sum,
    /// Minimum of the measure.
    Min,
    /// Maximum of the measure.
    Max,
}

impl AggFn {
    /// Fold one value `v` into a group's running aggregate `acc` — the
    /// one fold every grouping path (sequential, per-worker partials,
    /// cross-shard merges) applies. `Count` partials merge by addition
    /// like `Sum`.
    pub fn combine(self, acc: i64, v: i64) -> i64 {
        match self {
            AggFn::Count | AggFn::Sum => acc + v,
            AggFn::Min => acc.min(v),
            AggFn::Max => acc.max(v),
        }
    }
}

/// One output group.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupRow {
    /// The group's (decoded) key value.
    pub group: Value,
    /// The aggregate result (`Count` is reported as `Int`).
    pub value: i64,
}

/// Where a pair-grouping pass reads its `(group_rid, measure_rid)` pairs
/// from — the three row shapes a query plan groups.
#[derive(Debug, Clone, Copy)]
pub enum PairSource<'a> {
    /// Every row `0..n` of one table, each RID paired with itself.
    All(u32),
    /// Selected RIDs of one table, each paired with itself.
    Rids(&'a [u32]),
    /// Join output: the group RID comes from side `group` of each row,
    /// the measure RID from side `measure` (the two columns may live in
    /// different relations).
    Joined {
        /// The join rows.
        rows: &'a [JoinRow],
        /// The side the group column belongs to.
        group: Side,
        /// The side the measure column belongs to.
        measure: Side,
    },
}

impl PairSource<'_> {
    /// Number of pairs.
    pub(crate) fn len(&self) -> usize {
        match self {
            PairSource::All(n) => *n as usize,
            PairSource::Rids(rids) => rids.len(),
            PairSource::Joined { rows, .. } => rows.len(),
        }
    }

    /// Fold the pairs at positions `range` into a per-group accumulator.
    /// One arm per row shape, so each accumulation loop is monomorphised
    /// over a plain iterator.
    fn fold(
        &self,
        range: Range<usize>,
        group_col: &Column,
        measure: Option<&Column>,
        agg: AggFn,
    ) -> BTreeMap<u32, i64> {
        match *self {
            PairSource::All(_) => {
                let rids = range.start as u32..range.end as u32;
                accumulate_pairs(group_col, measure, rids.map(|r| (r, r)), agg)
            }
            PairSource::Rids(rids) => {
                accumulate_pairs(group_col, measure, rids[range].iter().map(|&r| (r, r)), agg)
            }
            PairSource::Joined {
                rows,
                group,
                measure: side,
            } => {
                let pairs = rows[range].iter().map(|r| (r.rid(group), r.rid(side)));
                accumulate_pairs(group_col, measure, pairs, agg)
            }
        }
    }
}

/// Grouped aggregation over `(group_rid, measure_rid)` pairs — the
/// operator a query plan runs when grouping *filtered* selections or
/// join output, where rows no longer arrive clustered by group. Groups
/// accumulate keyed by domain ID (an ordered map, so results still come
/// out in group-value order, matching [`group_aggregate`]), and the group
/// keys are decoded in one
/// [`decode_batch`](crate::domain::Domain::decode_batch) at the end.
/// `measure` may be `None` for `Count`. Callers must have checked that
/// the measure column is integer-valued for Sum/Min/Max.
///
/// With more than one worker (`threads == 0` means one per core) the
/// pairs are partitioned into one contiguous range per worker, each
/// worker folds its range into a **partial** per-group accumulator, and
/// the partials are merged at the join barrier. Every [`AggFn`] is
/// commutative and associative and the map is keyed by domain ID, so the
/// merged result — including group order — is the same as one worker's.
/// With one worker the pass runs inline into a single accumulator.
pub fn group_aggregate_pairs(
    group_col: &Column,
    measure: Option<&Column>,
    source: PairSource<'_>,
    agg: AggFn,
    threads: usize,
) -> Vec<GroupRow> {
    if agg != AggFn::Count {
        measure.expect("aggregate other than Count needs a measure column");
    }
    let fold = |range: Range<usize>| source.fold(range, group_col, measure, agg);
    let pool = WorkerPool::new(threads);
    let acc = if pool.threads() == 1 {
        fold(0..source.len())
    } else {
        let ranges = partition(source.len(), pool.threads());
        merge_partials(agg, pool.run(ranges.len(), |i| fold(ranges[i].clone())))
    };
    decode_accumulator(group_col, acc)
}

/// Merge per-worker partial accumulators at the join barrier.
fn merge_partials(
    agg: AggFn,
    partials: impl IntoIterator<Item = BTreeMap<u32, i64>>,
) -> BTreeMap<u32, i64> {
    let mut merged: BTreeMap<u32, i64> = BTreeMap::new();
    for partial in partials {
        for (id, v) in partial {
            merged
                .entry(id)
                .and_modify(|a| *a = agg.combine(*a, v))
                .or_insert(v);
        }
    }
    merged
}

/// The accumulation loop every [`PairSource`] shape runs.
fn accumulate_pairs(
    group_col: &Column,
    measure: Option<&Column>,
    pairs: impl IntoIterator<Item = (u32, u32)>,
    agg: AggFn,
) -> BTreeMap<u32, i64> {
    let mut acc = BTreeMap::new();
    for (group_rid, measure_rid) in pairs {
        let id = group_col.id(group_rid);
        match agg {
            AggFn::Count => *acc.entry(id).or_insert(0) += 1,
            AggFn::Sum | AggFn::Min | AggFn::Max => {
                let v = match measure.expect("checked by callers").value(measure_rid) {
                    Value::Int(v) => *v,
                    other => panic!("non-integer measure value {other}"),
                };
                acc.entry(id)
                    .and_modify(|a| *a = agg.combine(*a, v))
                    .or_insert(v);
            }
        }
    }
    acc
}

/// Decode the accumulator's domain IDs in one batch and emit the rows in
/// group-value order (the map's iteration order).
fn decode_accumulator(group_col: &Column, acc: BTreeMap<u32, i64>) -> Vec<GroupRow> {
    let ids: Vec<u32> = acc.keys().copied().collect();
    let groups = group_col.domain().decode_batch(&ids);
    groups
        .into_iter()
        .zip(acc.into_values())
        .map(|(group, value)| GroupRow { group, value })
        .collect()
}

/// `SELECT group, agg(measure) FROM t GROUP BY group` where `rids` is the
/// RID list sorted on the group column. `measure` may be `None` for
/// `Count`. Results come out in group-value order (the "interesting
/// order" §2.2 mentions comes for free from the sorted RID list).
pub fn group_aggregate(
    group_col: &Column,
    rids: &RidList,
    measure: Option<&Column>,
    agg: AggFn,
) -> Vec<GroupRow> {
    if agg != AggFn::Count {
        let m = measure.expect("aggregate other than Count needs a measure column");
        assert_eq!(m.len(), group_col.len(), "measure length mismatch");
    }
    let keys = rids.keys().as_slice();
    let mut out = Vec::new();
    let mut start = 0usize;
    while start < keys.len() {
        let id = keys[start];
        let mut end = start + 1;
        while end < keys.len() && keys[end] == id {
            end += 1;
        }
        let value = match agg {
            AggFn::Count => (end - start) as i64,
            AggFn::Sum | AggFn::Min | AggFn::Max => {
                let m = measure.expect("checked above");
                let mut acc: Option<i64> = None;
                for pos in start..end {
                    let v = match m.value(rids.rid(pos)) {
                        Value::Int(v) => *v,
                        other => panic!("non-integer measure value {other}"),
                    };
                    acc = Some(acc.map_or(v, |a| agg.combine(a, v)));
                }
                acc.expect("non-empty group")
            }
        };
        out.push(GroupRow {
            group: group_col.domain().decode(id).clone(),
            value,
        });
        start = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;

    fn setup() -> (crate::table::Table, RidList) {
        let t = TableBuilder::new("sales")
            .str_column("region", ["e", "w", "e", "n", "w", "e"])
            .int_column("amount", [10, 20, 30, 40, 50, 60])
            .build()
            .expect("equal-length columns");
        let rl = RidList::for_column(t.column("region").unwrap());
        (t, rl)
    }

    #[test]
    fn count_per_group() {
        let (t, rl) = setup();
        let rows = group_aggregate(t.column("region").unwrap(), &rl, None, AggFn::Count);
        assert_eq!(
            rows,
            vec![
                GroupRow {
                    group: "e".into(),
                    value: 3
                },
                GroupRow {
                    group: "n".into(),
                    value: 1
                },
                GroupRow {
                    group: "w".into(),
                    value: 2
                },
            ]
        );
    }

    #[test]
    fn sum_min_max_per_group() {
        let (t, rl) = setup();
        let region = t.column("region").unwrap();
        let amount = t.column("amount").unwrap();
        let sums = group_aggregate(region, &rl, Some(amount), AggFn::Sum);
        assert_eq!(
            sums[0],
            GroupRow {
                group: "e".into(),
                value: 100
            }
        ); // 10+30+60
        assert_eq!(
            sums[2],
            GroupRow {
                group: "w".into(),
                value: 70
            }
        ); // 20+50
        let mins = group_aggregate(region, &rl, Some(amount), AggFn::Min);
        assert_eq!(mins[0].value, 10);
        let maxs = group_aggregate(region, &rl, Some(amount), AggFn::Max);
        assert_eq!(maxs[0].value, 60);
    }

    #[test]
    fn groups_come_out_in_value_order() {
        let (t, rl) = setup();
        let rows = group_aggregate(t.column("region").unwrap(), &rl, None, AggFn::Count);
        let order: Vec<String> = rows.iter().map(|r| r.group.to_string()).collect();
        let mut sorted = order.clone();
        sorted.sort();
        assert_eq!(order, sorted);
    }

    #[test]
    fn pairs_match_sorted_rid_list_on_whole_tables() {
        let (t, rl) = setup();
        let region = t.column("region").unwrap();
        let amount = t.column("amount").unwrap();
        let rows = region.len() as u32;
        for agg in [AggFn::Count, AggFn::Sum, AggFn::Min, AggFn::Max] {
            let measure = (agg != AggFn::Count).then_some(amount);
            assert_eq!(
                group_aggregate_pairs(region, measure, PairSource::All(rows), agg, 1),
                group_aggregate(region, &rl, measure, agg),
                "{agg:?}"
            );
        }
    }

    #[test]
    fn pairs_handle_filtered_subsets_and_cross_relation_measures() {
        let (t, _) = setup();
        let region = t.column("region").unwrap();
        let amount = t.column("amount").unwrap();
        // Only rows 0, 2, 4: regions e, e, w with amounts 10, 30, 50.
        let rids = [0u32, 2, 4];
        let sums =
            group_aggregate_pairs(region, Some(amount), PairSource::Rids(&rids), AggFn::Sum, 1);
        assert_eq!(
            sums,
            vec![
                GroupRow {
                    group: "e".into(),
                    value: 40
                },
                GroupRow {
                    group: "w".into(),
                    value: 50
                },
            ]
        );
        // Measure RID differing from group RID (the join shape): group by
        // row 0's region but measure row 5's amount.
        let rows = [JoinRow {
            outer_rid: 0,
            inner_rid: 5,
        }];
        let cross = PairSource::Joined {
            rows: &rows,
            group: Side::Outer,
            measure: Side::Inner,
        };
        let cross = group_aggregate_pairs(region, Some(amount), cross, AggFn::Max, 1);
        assert_eq!(cross[0].value, 60);
        assert!(
            group_aggregate_pairs(region, None, PairSource::Rids(&[]), AggFn::Count, 1).is_empty()
        );
    }

    #[test]
    fn parallel_pairs_match_sequential_for_every_aggregate() {
        // Enough rows that the chunking is non-trivial at 8 workers.
        let n = 5_000u32;
        let t = TableBuilder::new("sales")
            .str_column(
                "region",
                (0..n).map(|i| ["e", "w", "n", "s"][i as usize % 4]),
            )
            .int_column("amount", (0..n).map(|i| (i as i64 * 37) % 1_000 - 200))
            .build()
            .expect("equal-length columns");
        let region = t.column("region").unwrap();
        let amount = t.column("amount").unwrap();
        let rl = RidList::for_column(region);
        let rows: Vec<JoinRow> = (0..n)
            .map(|r| JoinRow {
                outer_rid: r,
                inner_rid: (r + 7) % n,
            })
            .collect();
        let joined = PairSource::Joined {
            rows: &rows,
            group: Side::Outer,
            measure: Side::Inner,
        };
        let all_rids: Vec<u32> = (0..n).collect();
        for agg in [AggFn::Count, AggFn::Sum, AggFn::Min, AggFn::Max] {
            let measure = (agg != AggFn::Count).then_some(amount);
            let seq = group_aggregate_pairs(region, measure, joined, agg, 1);
            // Whole-table sources, in place or as a RID slice, agree with
            // the sorted-RID-list pass.
            let whole = group_aggregate(region, &rl, measure, agg);
            for threads in [0usize, 1, 2, 8] {
                assert_eq!(
                    group_aggregate_pairs(region, measure, joined, agg, threads),
                    seq,
                    "{agg:?} threads={threads}"
                );
                assert_eq!(
                    group_aggregate_pairs(region, measure, PairSource::All(n), agg, threads),
                    whole,
                    "{agg:?} threads={threads}"
                );
                assert_eq!(
                    group_aggregate_pairs(
                        region,
                        measure,
                        PairSource::Rids(&all_rids),
                        agg,
                        threads
                    ),
                    whole,
                    "{agg:?} threads={threads}"
                );
            }
        }
        assert!(
            group_aggregate_pairs(region, None, PairSource::Rids(&[]), AggFn::Count, 8).is_empty()
        );
        assert!(
            group_aggregate_pairs(region, None, PairSource::All(0), AggFn::Count, 8).is_empty()
        );
    }

    #[test]
    fn empty_table_yields_no_groups() {
        let t = TableBuilder::new("empty")
            .int_column("g", [])
            .build()
            .expect("one column");
        let rl = RidList::for_column(t.column("g").unwrap());
        assert!(group_aggregate(t.column("g").unwrap(), &rl, None, AggFn::Count).is_empty());
    }

    #[test]
    #[should_panic(expected = "needs a measure column")]
    fn sum_requires_measure() {
        let (t, rl) = setup();
        let _ = group_aggregate(t.column("region").unwrap(), &rl, None, AggFn::Sum);
    }
}
