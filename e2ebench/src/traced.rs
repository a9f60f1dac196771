//! Benchmark-side tracing of the serving layer: a [`ServeSource`]
//! wrapper that times every call the `BatchServer` makes into the
//! engine below it, from outside the program. The server's own
//! `serve.*` registry gives the window totals; the difference between
//! window execution time and engine time is the serving layer's self
//! time.

use ccindex_serve::{QuerySpec, ServeEngine, ServeSource, SnapshotInfo};
use mmdb::{ExecOptions, Result, ResultRows, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Counters recorded at the serve → engine boundary.
#[derive(Debug, Default)]
pub struct EngineClock {
    /// Nanoseconds spent inside engine calls.
    engine_ns: AtomicU64,
    /// Highest count of live pinned generations seen right after a pin.
    pinned_hw: AtomicU64,
}

impl EngineClock {
    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.engine_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }

    pub fn engine_ns(&self) -> u64 {
        self.engine_ns.load(Ordering::Relaxed)
    }

    pub fn pinned_hw(&self) -> u64 {
        self.pinned_hw.load(Ordering::Relaxed)
    }
}

/// A [`ServeSource`] that forwards to `inner` and times the engine.
pub struct TracedSource<'a, S: ServeSource + ?Sized> {
    pub inner: &'a S,
    pub clock: Arc<EngineClock>,
}

impl<'a, S: ServeSource + ?Sized> TracedSource<'a, S> {
    pub fn new(inner: &'a S) -> Self {
        Self {
            inner,
            clock: Arc::default(),
        }
    }
}

impl<S: ServeSource + ?Sized> ServeSource for TracedSource<'_, S> {
    type Pinned = TracedEngine<S::Pinned>;

    fn pin(&self) -> Self::Pinned {
        let pinned = self.inner.pin();
        let live = self.inner.observe().pinned as u64;
        self.clock.pinned_hw.fetch_max(live, Ordering::Relaxed);
        TracedEngine {
            inner: pinned,
            clock: Arc::clone(&self.clock),
        }
    }

    fn observe(&self) -> SnapshotInfo {
        self.inner.observe()
    }
}

/// The pinned engine of a [`TracedSource`] window.
pub struct TracedEngine<E> {
    inner: E,
    clock: Arc<EngineClock>,
}

impl<E: ServeEngine> ServeEngine for TracedEngine<E> {
    fn exec_options(&self) -> ExecOptions {
        self.inner.exec_options()
    }

    fn point_probe_batch(
        &self,
        table: &str,
        column: &str,
        values: &[Value],
    ) -> Result<Vec<Vec<u32>>> {
        self.clock
            .time(|| self.inner.point_probe_batch(table, column, values))
    }

    fn range_probe_batch(
        &self,
        table: &str,
        column: &str,
        ranges: &[(Value, Value)],
    ) -> Result<Vec<Vec<u32>>> {
        self.clock
            .time(|| self.inner.range_probe_batch(table, column, ranges))
    }

    fn run_spec(&self, spec: &QuerySpec) -> Result<ResultRows> {
        self.clock.time(|| self.inner.run_spec(spec))
    }
}
