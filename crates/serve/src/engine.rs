//! The engine surface a [`BatchServer`](crate::BatchServer) fronts:
//! anything that can answer coalesced probe batches and run an owned
//! [`QuerySpec`] — implemented for the pinned generations of both
//! catalogs, the unsharded [`Snapshot`](mmdb::Snapshot) and the
//! scatter-gather [`ShardedSnapshot`], so one serving front-end covers
//! both.
//!
//! [`ServeSource`] is how the server gets those snapshots: a source
//! hands out one pinned generation per batch-formation window
//! ([`ServeSource::pin`]) and reports the commit-slot counters
//! ([`ServeSource::observe`]) that
//! [`ServeStats`](crate::ServeStats) surfaces.

use ccindex_shard::{ShardedDatabase, ShardedHandle, ShardedSnapshot, ShardedState};
use mmdb::{
    CatalogState, Database, DatabaseHandle, ExecOptions, QuerySpec, Result, ResultRows, Value,
};

/// A query engine the batch-forming server can front. `Sync` because the
/// server's clients run on their own threads while the serving thread
/// executes windows against the shared engine reference.
pub trait ServeEngine: Sync {
    /// The engine's execution knobs — the server sizes its shared
    /// [`WorkerPool`](ccindex_parallel::WorkerPool) from `threads`.
    fn exec_options(&self) -> ExecOptions;

    /// One batched answer for many equality probes on `table.column`:
    /// element `i` is the ascending RID set for `values[i]`.
    fn point_probe_batch(
        &self,
        table: &str,
        column: &str,
        values: &[Value],
    ) -> Result<Vec<Vec<u32>>>;

    /// One batched answer for many inclusive range probes on
    /// `table.column`: element `i` is the ascending RID set for
    /// `ranges[i]`.
    fn range_probe_batch(
        &self,
        table: &str,
        column: &str,
        ranges: &[(Value, Value)],
    ) -> Result<Vec<Vec<u32>>>;

    /// Compile and execute an owned query spec.
    fn run_spec(&self, spec: &QuerySpec) -> Result<ResultRows>;
}

// The snapshot impls below call through the state type explicitly
// (`CatalogState::point_probe_batch(self, ..)` rather than
// `self.point_probe_batch(..)`): a pinned guard `Deref`s to its state,
// so the explicit path coerces to the inherent method — the unqualified
// call would resolve to this trait method and recurse forever.

impl ServeEngine for mmdb::Snapshot {
    fn exec_options(&self) -> ExecOptions {
        CatalogState::exec_options(self)
    }

    fn point_probe_batch(
        &self,
        table: &str,
        column: &str,
        values: &[Value],
    ) -> Result<Vec<Vec<u32>>> {
        CatalogState::point_probe_batch(self, table, column, values)
    }

    fn range_probe_batch(
        &self,
        table: &str,
        column: &str,
        ranges: &[(Value, Value)],
    ) -> Result<Vec<Vec<u32>>> {
        CatalogState::range_probe_batch(self, table, column, ranges)
    }

    fn run_spec(&self, spec: &QuerySpec) -> Result<ResultRows> {
        Ok(CatalogState::plan(self, spec)?
            .execute_on(self)?
            .rows()
            .clone())
    }
}

impl ServeEngine for ShardedSnapshot {
    fn exec_options(&self) -> ExecOptions {
        ShardedState::exec_options(self)
    }

    fn point_probe_batch(
        &self,
        table: &str,
        column: &str,
        values: &[Value],
    ) -> Result<Vec<Vec<u32>>> {
        ShardedState::point_probe_batch(self, table, column, values)
    }

    fn range_probe_batch(
        &self,
        table: &str,
        column: &str,
        ranges: &[(Value, Value)],
    ) -> Result<Vec<Vec<u32>>> {
        ShardedState::range_probe_batch(self, table, column, ranges)
    }

    fn run_spec(&self, spec: &QuerySpec) -> Result<ResultRows> {
        Ok(ShardedState::plan(self, spec)?
            .execute_on(self)?
            .rows()
            .clone())
    }
}

// ---------------------------------------------------------------------
// Snapshot sources
// ---------------------------------------------------------------------

/// The commit-slot counters of a [`ServeSource`], read at one instant:
/// the observability [`ServeStats`](crate::ServeStats) carries out of a
/// serving session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// Generation number of the currently committed catalog state.
    pub generation: u64,
    /// Generations committed since the catalog was created.
    pub swaps: u64,
    /// Pinned snapshots alive right now, across all generations.
    pub pinned: usize,
}

/// Where a [`BatchServer`](crate::BatchServer) gets the immutable
/// catalog generation each batch-formation window executes against.
///
/// A source pins one snapshot per window ([`ServeSource::pin`]); the
/// window's coalesced probes then run entirely against that pinned
/// generation — zero locks on the probe path, and a writer committing
/// mid-window never changes (or tears) the window's answers. Implemented
/// for the live catalogs ([`Database`], [`ShardedDatabase`]) and for
/// their `Send + Sync` reader handles ([`DatabaseHandle`],
/// [`ShardedHandle`]) — the handle impls are what let a serving session
/// run on one thread while the catalog's owner keeps `&mut` access for
/// commits on another.
pub trait ServeSource: Sync {
    /// The pinned generation type a window executes against.
    type Pinned: ServeEngine;

    /// Pin the current committed generation.
    fn pin(&self) -> Self::Pinned;

    /// The commit slot's counters right now.
    fn observe(&self) -> SnapshotInfo;
}

impl ServeSource for Database {
    type Pinned = mmdb::Snapshot;

    fn pin(&self) -> mmdb::Snapshot {
        self.snapshot()
    }

    fn observe(&self) -> SnapshotInfo {
        SnapshotInfo {
            generation: self.generation(),
            swaps: self.swap_count(),
            pinned: self.pinned_snapshots(),
        }
    }
}

impl ServeSource for DatabaseHandle {
    type Pinned = mmdb::Snapshot;

    fn pin(&self) -> mmdb::Snapshot {
        self.snapshot()
    }

    fn observe(&self) -> SnapshotInfo {
        SnapshotInfo {
            generation: self.generation(),
            swaps: self.swaps(),
            pinned: self.pinned(),
        }
    }
}

impl ServeSource for ShardedDatabase {
    type Pinned = ShardedSnapshot;

    fn pin(&self) -> ShardedSnapshot {
        self.snapshot()
    }

    fn observe(&self) -> SnapshotInfo {
        SnapshotInfo {
            generation: self.generation(),
            swaps: self.swap_count(),
            pinned: self.pinned_snapshots(),
        }
    }
}

impl ServeSource for ShardedHandle {
    type Pinned = ShardedSnapshot;

    fn pin(&self) -> ShardedSnapshot {
        self.snapshot()
    }

    fn observe(&self) -> SnapshotInfo {
        SnapshotInfo {
            generation: self.generation(),
            swaps: self.swaps(),
            pinned: self.pinned(),
        }
    }
}
