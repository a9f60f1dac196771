//! Transport-generic shard execution: the [`ShardBackend`] trait.
//!
//! Every per-shard operation the scatter-gather executor performs —
//! batched probes, probes-only selections, join-probe fan-out, grouped
//! partial aggregates, column decodes, plan compilation, and the full
//! mutation surface — goes through this trait instead of calling
//! [`Database`] methods directly. Two implementations exist:
//!
//! * [`LocalShard`] — an in-process [`Database`], the historical
//!   behavior. Reads run against the engine's committed catalog tip.
//! * `RemoteShard` (see [`crate::remote`]) — a socket client speaking
//!   the `ccindex-wire` protocol to a `ShardServer` elsewhere.
//!
//! Because both route through the *same* operators with the *same*
//! arguments, distributed execution is byte-identical to in-process
//! execution by construction — there is one code path, parameterized
//! over transport. [`ShardPin`] is the snapshot-side twin: the
//! per-shard entry of a pinned `ShardedState`, either an owned
//! [`CatalogState`] (a local shard's committed generation) or a cloned
//! remote client (remote shards serve their server's committed tip).
//!
//! The free `catalog_*` functions are the shared read implementations
//! over a [`CatalogState`]; `LocalShard`, `ShardPin::Local`, and the
//! serving layer's `ShardServer` all dispatch through them, so a rid
//! that is out of range or a non-integer measure surfaces as the same
//! typed error no matter which side of the wire noticed.

use mmdb::plan::Plan;
use mmdb::{
    group_aggregate_pairs, point_select_many, AggFn, CatalogState, Column, Database, ExecOptions,
    GroupRow, IndexKind, MmdbError, PairSource, QuerySpec, RebuildReport, Result, Table, Value,
};

use crate::remote::RemoteShard;

/// One shard's generation/exec introspection, transport-generic:
/// [`Database`] observers locally, the `Hello` handshake remotely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardInfo {
    /// Committed catalog generation.
    pub generation: u64,
    /// Generations committed so far (`0` when the backend is a pinned
    /// state, which does not track commits).
    pub swaps: u64,
    /// Snapshots currently pinned (`0` for pinned states, as above).
    pub pinned: u64,
    /// The execution options in force.
    pub exec: ExecOptions,
}

/// The complete per-shard conversation of the scatter-gather executor.
///
/// Reads take `&self` and run against the backend's committed tip; the
/// executor only calls them through a consistent [`ShardPin`] set, so a
/// query never mixes generations across shards. Mutations take
/// `&mut self` and are driven one shard at a time by
/// `ShardedDatabase`'s commit discipline.
pub trait ShardBackend: std::fmt::Debug + Send + Sync {
    /// Batched equality probes on `table.column`: one ascending local
    /// RID set per value, in submission order.
    fn point_probe_batch(
        &self,
        table: &str,
        column: &str,
        values: &[Value],
    ) -> Result<Vec<Vec<u32>>>;

    /// Batched inclusive range probes on `table.column`.
    fn range_probe_batch(
        &self,
        table: &str,
        column: &str,
        ranges: &[(Value, Value)],
    ) -> Result<Vec<Vec<u32>>>;

    /// Execute a probes-only selection plan (the probe steps of a
    /// scatter template) and return the matching local RIDs, ascending.
    fn select(&self, plan: &Plan) -> Result<Vec<u32>>;

    /// Probe the `kind` index on `table.column` once per outer value —
    /// the inner half of a distributed indexed nested-loop join. Returns
    /// one local RID set per value, in submission order, each in index
    /// match order.
    fn join_probe_batch(
        &self,
        table: &str,
        column: &str,
        kind: IndexKind,
        values: &[Value],
        lanes: usize,
        threads: usize,
    ) -> Result<Vec<Vec<u32>>>;

    /// Grouped partial aggregate over this shard's rows (`rids = None`)
    /// or a selected subset, in group-value order.
    fn group_partial(
        &self,
        table: &str,
        group_column: &str,
        measure: Option<&str>,
        agg: AggFn,
        rids: Option<&[u32]>,
    ) -> Result<Vec<GroupRow>>;

    /// Decode column values for the given local RIDs (`None` = every
    /// row, in RID order).
    fn column_values(&self, table: &str, column: &str, rids: Option<&[u32]>) -> Result<Vec<Value>>;

    /// Compile a query description through this shard's planner. Every
    /// shard holds the same schema and indexes, so the coordinator uses
    /// shard 0's plan as the scatter template.
    fn compile(&self, spec: &QuerySpec) -> Result<Plan>;

    /// Column names of `table`, in declaration order.
    fn columns(&self, table: &str) -> Result<Vec<String>>;

    /// Row count of `table` on this shard.
    fn rows(&self, table: &str) -> Result<usize>;

    /// Register this shard's split of a table.
    fn register(&mut self, table: Table) -> Result<()>;

    /// Drop a table and everything built on it.
    fn drop_table(&mut self, table: &str) -> Result<()>;

    /// Build an index on this shard's rows.
    fn create_index(&mut self, table: &str, column: &str, kind: IndexKind) -> Result<()>;

    /// Drop an index.
    fn drop_index(&mut self, table: &str, column: &str, kind: IndexKind) -> Result<()>;

    /// Replace a column's local values wholesale and rebuild its
    /// indexes.
    fn replace_column(
        &mut self,
        table: &str,
        column: &str,
        values: Vec<Value>,
    ) -> Result<RebuildReport>;

    /// Rebuild a column's RID list and indexes from current values.
    fn rebuild_column(&mut self, table: &str, column: &str) -> Result<RebuildReport>;

    /// Install new execution options on this shard.
    fn set_exec_options(&mut self, exec: ExecOptions) -> Result<()>;

    /// Serialize this shard's committed catalog tip into the paged
    /// `ccindex-store` container (the same bytes
    /// [`Database::save_to`] writes to disk). Local shards serialize
    /// their pinned tip directly; remote shards stream the server's
    /// pinned snapshot across the wire in CRC-checked chunks. Queries
    /// keep serving throughout — the source side works off a pinned
    /// generation, never a lock.
    fn fetch_snapshot(&self) -> Result<Vec<u8>>;

    /// Replace this shard's entire catalog with a serialized snapshot
    /// (the bytes a peer's [`ShardBackend::fetch_snapshot`] produced).
    /// Installs through the engine's ordinary commit cycle, so readers
    /// pinned to the old generation finish undisturbed. This is how a
    /// rebalanced or freshly-connected shard bootstraps from a peer
    /// without replaying row-by-row registration.
    fn install_snapshot(&mut self, bytes: &[u8]) -> Result<()>;

    /// Pin this shard's committed tip for a composed snapshot.
    fn pin(&self) -> ShardPin;

    /// Generation/exec introspection.
    fn observe(&self) -> Result<ShardInfo>;

    /// Human-readable description for `explain()` output and errors.
    fn describe(&self) -> String;

    /// The in-process [`Database`], if this backend has one. Remote
    /// shards return `None` — their engine lives across the wire.
    fn as_database(&self) -> Option<&Database> {
        None
    }

    /// Hand this backend pre-registered handles from the coordinator's
    /// metric registry. The default is a no-op; `RemoteShard` installs
    /// its `transport.retries` counter here.
    fn install_metrics(&mut self, registry: &ccindex_obs::Registry) {
        let _ = registry;
    }
}

// ---------------------------------------------------------------------
// Shared catalog-level read implementations
// ---------------------------------------------------------------------

/// Resolve `table.column` in `cat` with typed errors.
pub(crate) fn table_column<'c>(
    cat: &'c CatalogState,
    table: &str,
    column: &str,
) -> Result<&'c Column> {
    cat.table(table)?
        .column(column)
        .ok_or_else(|| MmdbError::UnknownColumn {
            table: table.to_owned(),
            column: column.to_owned(),
        })
}

fn check_rids(cat: &CatalogState, table: &str, rids: &[u32]) -> Result<()> {
    let rows = cat.table(table)?.rows() as u32;
    match rids.iter().find(|&&r| r >= rows) {
        None => Ok(()),
        Some(bad) => Err(MmdbError::Unsupported {
            what: format!("rid {bad} is out of range for table `{table}` ({rows} rows)"),
        }),
    }
}

/// [`ShardBackend::select`] over a catalog: execute the probes-only
/// plan and keep the RIDs.
pub fn catalog_select(cat: &CatalogState, plan: &Plan) -> Result<Vec<u32>> {
    Ok(plan.execute_on(cat)?.rids().to_vec())
}

/// [`ShardBackend::join_probe_batch`] over a catalog: the outer values
/// go through the batched point-select operator on the inner column's
/// `kind` index. Value `i`'s matches are the inner RIDs of its duplicate
/// run in RID-list order — the order a local join emits them in.
pub fn catalog_join_probe_batch(
    cat: &CatalogState,
    table: &str,
    column: &str,
    kind: IndexKind,
    values: &[Value],
    lanes: usize,
    threads: usize,
) -> Result<Vec<Vec<u32>>> {
    let inner_col = table_column(cat, table, column)?;
    let inner_rids = cat.rid_list(table, column)?;
    let handle = cat.index(table, column, kind)?;
    Ok(point_select_many(
        inner_col, inner_rids, handle, values, lanes, threads,
    ))
}

/// [`ShardBackend::group_partial`] over a catalog. Validates the rid
/// range and the measure's integer domain (mirroring the planner's
/// check) so a stale or malformed remote request surfaces as a typed
/// error instead of a server-side panic.
pub fn catalog_group_partial(
    cat: &CatalogState,
    table: &str,
    group_column: &str,
    measure: Option<&str>,
    agg: AggFn,
    rids: Option<&[u32]>,
) -> Result<Vec<GroupRow>> {
    let group_col = table_column(cat, table, group_column)?;
    let measure_col = match measure {
        None => None,
        Some(m) => {
            let col = table_column(cat, table, m)?;
            let all_int = col
                .domain()
                .values()
                .iter()
                .all(|v| matches!(v, Value::Int(_)));
            if !all_int {
                return Err(MmdbError::NonIntegerMeasure {
                    table: table.to_owned(),
                    column: m.to_owned(),
                });
            }
            Some(col)
        }
    };
    if agg != AggFn::Count && measure_col.is_none() {
        return Err(MmdbError::Unsupported {
            what: format!("aggregate {agg:?} needs a measure column"),
        });
    }
    let source = match rids {
        Some(rids) => {
            check_rids(cat, table, rids)?;
            PairSource::Rids(rids)
        }
        None => PairSource::All(cat.table(table)?.rows() as u32),
    };
    Ok(group_aggregate_pairs(
        group_col,
        measure_col,
        source,
        agg,
        1,
    ))
}

/// [`ShardBackend::column_values`] over a catalog.
pub fn catalog_column_values(
    cat: &CatalogState,
    table: &str,
    column: &str,
    rids: Option<&[u32]>,
) -> Result<Vec<Value>> {
    let col = table_column(cat, table, column)?;
    match rids {
        None => Ok((0..col.len() as u32)
            .map(|r| col.value(r).clone())
            .collect()),
        Some(rids) => {
            check_rids(cat, table, rids)?;
            Ok(rids.iter().map(|&r| col.value(r).clone()).collect())
        }
    }
}

/// [`ShardBackend::columns`] over a catalog.
pub fn catalog_columns(cat: &CatalogState, table: &str) -> Result<Vec<String>> {
    Ok(cat
        .table(table)?
        .columns()
        .map(|(name, _)| name.to_owned())
        .collect())
}

// ---------------------------------------------------------------------
// LocalShard
// ---------------------------------------------------------------------

/// An in-process shard: a [`Database`] behind the [`ShardBackend`]
/// surface. Reads run against the engine's committed catalog tip.
#[derive(Debug)]
pub struct LocalShard {
    db: Database,
}

impl LocalShard {
    /// Wrap an engine.
    pub fn new(db: Database) -> Self {
        Self { db }
    }

    /// The wrapped engine.
    pub fn database(&self) -> &Database {
        &self.db
    }
}

impl ShardBackend for LocalShard {
    fn point_probe_batch(
        &self,
        table: &str,
        column: &str,
        values: &[Value],
    ) -> Result<Vec<Vec<u32>>> {
        self.db.catalog().point_probe_batch(table, column, values)
    }

    fn range_probe_batch(
        &self,
        table: &str,
        column: &str,
        ranges: &[(Value, Value)],
    ) -> Result<Vec<Vec<u32>>> {
        self.db.catalog().range_probe_batch(table, column, ranges)
    }

    fn select(&self, plan: &Plan) -> Result<Vec<u32>> {
        catalog_select(self.db.catalog(), plan)
    }

    fn join_probe_batch(
        &self,
        table: &str,
        column: &str,
        kind: IndexKind,
        values: &[Value],
        lanes: usize,
        threads: usize,
    ) -> Result<Vec<Vec<u32>>> {
        catalog_join_probe_batch(
            self.db.catalog(),
            table,
            column,
            kind,
            values,
            lanes,
            threads,
        )
    }

    fn group_partial(
        &self,
        table: &str,
        group_column: &str,
        measure: Option<&str>,
        agg: AggFn,
        rids: Option<&[u32]>,
    ) -> Result<Vec<GroupRow>> {
        catalog_group_partial(self.db.catalog(), table, group_column, measure, agg, rids)
    }

    fn column_values(&self, table: &str, column: &str, rids: Option<&[u32]>) -> Result<Vec<Value>> {
        catalog_column_values(self.db.catalog(), table, column, rids)
    }

    fn compile(&self, spec: &QuerySpec) -> Result<Plan> {
        self.db.catalog().plan(spec)
    }

    fn columns(&self, table: &str) -> Result<Vec<String>> {
        catalog_columns(self.db.catalog(), table)
    }

    fn rows(&self, table: &str) -> Result<usize> {
        Ok(self.db.catalog().table(table)?.rows())
    }

    fn register(&mut self, table: Table) -> Result<()> {
        self.db.register(table)
    }

    fn drop_table(&mut self, table: &str) -> Result<()> {
        self.db.drop_table(table)
    }

    fn create_index(&mut self, table: &str, column: &str, kind: IndexKind) -> Result<()> {
        self.db.create_index(table, column, kind)
    }

    fn drop_index(&mut self, table: &str, column: &str, kind: IndexKind) -> Result<()> {
        self.db.drop_index(table, column, kind)
    }

    fn replace_column(
        &mut self,
        table: &str,
        column: &str,
        values: Vec<Value>,
    ) -> Result<RebuildReport> {
        self.db.replace_column(table, column, values)
    }

    fn rebuild_column(&mut self, table: &str, column: &str) -> Result<RebuildReport> {
        self.db.rebuild_column(table, column)
    }

    fn set_exec_options(&mut self, exec: ExecOptions) -> Result<()> {
        self.db.set_exec_options(exec);
        Ok(())
    }

    fn fetch_snapshot(&self) -> Result<Vec<u8>> {
        Ok(self.db.save_to_bytes())
    }

    fn install_snapshot(&mut self, bytes: &[u8]) -> Result<()> {
        self.db.restore_from_bytes(bytes, "snapshot transfer")
    }

    fn pin(&self) -> ShardPin {
        ShardPin::Local(self.db.catalog().clone())
    }

    fn observe(&self) -> Result<ShardInfo> {
        Ok(ShardInfo {
            generation: self.db.generation(),
            swaps: self.db.swap_count(),
            pinned: self.db.pinned_snapshots() as u64,
            exec: self.db.exec_options(),
        })
    }

    fn describe(&self) -> String {
        "in-process".to_owned()
    }

    fn as_database(&self) -> Option<&Database> {
        Some(&self.db)
    }
}

// ---------------------------------------------------------------------
// ShardPin
// ---------------------------------------------------------------------

/// One shard's entry in a pinned `ShardedState`: an owned
/// [`CatalogState`] for a local shard (that shard's committed
/// generation, frozen), or a cloned remote client (remote shards answer
/// from their server's committed tip — the server is the snapshot
/// authority across the wire).
///
/// Pins are read-only by design: every mutation returns a typed
/// [`MmdbError::Unsupported`], mirroring how a local `Snapshot` has no
/// mutation surface at all.
#[derive(Debug, Clone)]
pub enum ShardPin {
    /// A local shard's pinned catalog generation.
    Local(CatalogState),
    /// A remote shard, answering from its server's committed tip.
    Remote(RemoteShard),
}

impl ShardPin {
    fn immutable(&self, what: &str) -> MmdbError {
        MmdbError::Unsupported {
            what: format!("{what} on a pinned shard snapshot; mutate through ShardedDatabase"),
        }
    }
}

impl ShardBackend for ShardPin {
    fn point_probe_batch(
        &self,
        table: &str,
        column: &str,
        values: &[Value],
    ) -> Result<Vec<Vec<u32>>> {
        match self {
            ShardPin::Local(cat) => cat.point_probe_batch(table, column, values),
            ShardPin::Remote(r) => r.point_probe_batch(table, column, values),
        }
    }

    fn range_probe_batch(
        &self,
        table: &str,
        column: &str,
        ranges: &[(Value, Value)],
    ) -> Result<Vec<Vec<u32>>> {
        match self {
            ShardPin::Local(cat) => cat.range_probe_batch(table, column, ranges),
            ShardPin::Remote(r) => r.range_probe_batch(table, column, ranges),
        }
    }

    fn select(&self, plan: &Plan) -> Result<Vec<u32>> {
        match self {
            ShardPin::Local(cat) => catalog_select(cat, plan),
            ShardPin::Remote(r) => r.select(plan),
        }
    }

    fn join_probe_batch(
        &self,
        table: &str,
        column: &str,
        kind: IndexKind,
        values: &[Value],
        lanes: usize,
        threads: usize,
    ) -> Result<Vec<Vec<u32>>> {
        match self {
            ShardPin::Local(cat) => {
                catalog_join_probe_batch(cat, table, column, kind, values, lanes, threads)
            }
            ShardPin::Remote(r) => r.join_probe_batch(table, column, kind, values, lanes, threads),
        }
    }

    fn group_partial(
        &self,
        table: &str,
        group_column: &str,
        measure: Option<&str>,
        agg: AggFn,
        rids: Option<&[u32]>,
    ) -> Result<Vec<GroupRow>> {
        match self {
            ShardPin::Local(cat) => {
                catalog_group_partial(cat, table, group_column, measure, agg, rids)
            }
            ShardPin::Remote(r) => r.group_partial(table, group_column, measure, agg, rids),
        }
    }

    fn column_values(&self, table: &str, column: &str, rids: Option<&[u32]>) -> Result<Vec<Value>> {
        match self {
            ShardPin::Local(cat) => catalog_column_values(cat, table, column, rids),
            ShardPin::Remote(r) => r.column_values(table, column, rids),
        }
    }

    fn compile(&self, spec: &QuerySpec) -> Result<Plan> {
        match self {
            ShardPin::Local(cat) => cat.plan(spec),
            ShardPin::Remote(r) => r.compile(spec),
        }
    }

    fn columns(&self, table: &str) -> Result<Vec<String>> {
        match self {
            ShardPin::Local(cat) => catalog_columns(cat, table),
            ShardPin::Remote(r) => r.columns(table),
        }
    }

    fn rows(&self, table: &str) -> Result<usize> {
        match self {
            ShardPin::Local(cat) => Ok(cat.table(table)?.rows()),
            ShardPin::Remote(r) => ShardBackend::rows(r, table),
        }
    }

    fn register(&mut self, _table: Table) -> Result<()> {
        Err(self.immutable("register"))
    }

    fn drop_table(&mut self, _table: &str) -> Result<()> {
        Err(self.immutable("drop_table"))
    }

    fn create_index(&mut self, _table: &str, _column: &str, _kind: IndexKind) -> Result<()> {
        Err(self.immutable("create_index"))
    }

    fn drop_index(&mut self, _table: &str, _column: &str, _kind: IndexKind) -> Result<()> {
        Err(self.immutable("drop_index"))
    }

    fn replace_column(
        &mut self,
        _table: &str,
        _column: &str,
        _values: Vec<Value>,
    ) -> Result<RebuildReport> {
        Err(self.immutable("replace_column"))
    }

    fn rebuild_column(&mut self, _table: &str, _column: &str) -> Result<RebuildReport> {
        Err(self.immutable("rebuild_column"))
    }

    fn set_exec_options(&mut self, _exec: ExecOptions) -> Result<()> {
        Err(self.immutable("set_exec_options"))
    }

    fn fetch_snapshot(&self) -> Result<Vec<u8>> {
        match self {
            // A pinned local state serializes *its* generation — the
            // frozen one — not whatever the engine has committed since.
            ShardPin::Local(cat) => Ok(mmdb::catalog_to_bytes(cat)),
            ShardPin::Remote(r) => r.fetch_snapshot(),
        }
    }

    fn install_snapshot(&mut self, _bytes: &[u8]) -> Result<()> {
        Err(self.immutable("install_snapshot"))
    }

    fn pin(&self) -> ShardPin {
        self.clone()
    }

    fn observe(&self) -> Result<ShardInfo> {
        match self {
            ShardPin::Local(cat) => Ok(ShardInfo {
                generation: cat.generation(),
                swaps: 0,
                pinned: 0,
                exec: cat.exec_options(),
            }),
            ShardPin::Remote(r) => r.observe(),
        }
    }

    fn describe(&self) -> String {
        match self {
            ShardPin::Local(cat) => format!("in-process (generation {})", cat.generation()),
            ShardPin::Remote(r) => r.describe(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb::{point_select, TableBuilder};

    #[test]
    fn join_probe_batch_matches_point_select_for_every_kind() {
        let table = TableBuilder::new("inner").int_column("id", [5, 1, 3, 5, 9, 1, 5]);
        let mut db = Database::new();
        db.register(table.build().expect("one column"))
            .expect("fresh catalog");
        for kind in IndexKind::ALL {
            db.create_index("inner", "id", kind).expect("column");
        }
        let cat = db.catalog();
        // Duplicate probes (5, 1), values absent from the inner domain
        // (2, 100, -3) and a value of the wrong type ("5").
        let ints = [5i64, 2, 1, 5, 9, 100, -3, 1, 3].map(Value::Int);
        let values: Vec<Value> = ints.into_iter().chain([Value::from("5")]).collect();
        let col = table_column(cat, "inner", "id").expect("column");
        let rids = cat.rid_list("inner", "id").expect("column");
        for kind in IndexKind::ALL {
            let index = cat.index("inner", "id", kind).expect("built");
            let expected: Vec<Vec<u32>> = values
                .iter()
                .map(|v| point_select(col, rids, index.as_search(), v))
                .collect();
            assert_eq!(expected[0].len(), 3, "value 5 has three rows");
            for threads in [1usize, 2, 8] {
                let got = catalog_join_probe_batch(cat, "inner", "id", kind, &values, 8, threads);
                assert_eq!(
                    got.expect("probe batch"),
                    expected,
                    "{kind:?} threads={threads}"
                );
            }
        }
    }
}
