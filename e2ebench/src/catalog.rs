//! Building the catalogs the workloads run against, always with the
//! pinned execution knobs, and the refresh cycle.

use crate::gen::Star;
use crate::stats::{Sample, Series, Tally};
use ccindex_serve::{ServeOptions, ShardServer};
use ccindex_shard::{HashPartitioner, ShardedDatabase};
use mmdb::{Database, ExecOptions, IndexKind, Table, TableBuilder, Value};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The execution knobs every catalog runs with: sequential, default
/// lanes. Passed explicitly, never read from the environment.
pub fn exec() -> ExecOptions {
    ExecOptions::default()
}

/// The serving window every `BatchServer` runs with.
pub fn serve_options() -> ServeOptions {
    ServeOptions {
        batch_max: 64,
        batch_wait: Duration::from_micros(200),
    }
}

/// Remove every `CCINDEX_*` variable from this process's environment,
/// returning their names. Called first thing, before any thread starts
/// and before any catalog is built.
pub fn scrub_knobs() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("CCINDEX_"))
        .collect();
    for name in &names {
        std::env::remove_var(name);
    }
    names
}

/// The star schema in one unsharded catalog, FullCss-indexed on
/// `orders.amount`, `orders.cust` and `customers.id`.
pub fn star_database(star: &Star) -> Database {
    let mut db = Database::new();
    db.set_exec_options(exec());
    db.register(star.orders_table()).expect("fresh catalog");
    db.register(star.customers_table()).expect("fresh catalog");
    for (table, column) in [
        ("orders", "amount"),
        ("orders", "cust"),
        ("customers", "id"),
    ] {
        db.create_index(table, column, IndexKind::FullCss)
            .expect("column exists");
    }
    db
}

/// `orders(amount)` alone.
pub fn amount_table(amounts: &[i64]) -> Table {
    TableBuilder::new("orders")
        .int_column("amount", amounts.iter().copied())
        .build()
        .expect("one column")
}

/// A hash(2) catalog whose shards are two loopback `ShardServer`s,
/// holding `table` sharded and FullCss-indexed on `key`.
pub struct RemoteCatalog {
    pub coordinator: Option<ShardedDatabase>,
    pub servers: Vec<ShardServer>,
}

impl RemoteCatalog {
    /// The servers' threads run on CPU 1 (see [`pin_to_cpu`]), the side
    /// of the loopback a separate machine would hold.
    pub fn build(table: Table, key: &str) -> mmdb::Result<Self> {
        pin_to_cpu(Some(1));
        let servers = (0..2)
            .map(|_| {
                let mut db = Database::new();
                db.set_exec_options(exec());
                ShardServer::spawn(db)
            })
            .collect::<mmdb::Result<Vec<_>>>();
        pin_to_cpu(None);
        let servers = servers?;
        let addrs = Self::addrs_of(&servers);
        let mut coordinator = ShardedDatabase::connect(HashPartitioner::new(2)?, &addrs)?;
        coordinator.set_exec_options(exec())?;
        coordinator.register(table, key)?;
        coordinator.create_index("orders", key, IndexKind::FullCss)?;
        Ok(Self {
            coordinator: Some(coordinator),
            servers,
        })
    }

    fn addrs_of(servers: &[ShardServer]) -> Vec<String> {
        servers.iter().map(ShardServer::addr).collect()
    }

    pub fn addrs(&self) -> Vec<String> {
        Self::addrs_of(&self.servers)
    }

    pub fn db(&self) -> &ShardedDatabase {
        self.coordinator.as_ref().expect("live until drop")
    }
}

impl Drop for RemoteCatalog {
    fn drop(&mut self) {
        // Hang up the clients before stopping the servers.
        self.coordinator.take();
        for server in self.servers.drain(..) {
            server.shutdown();
        }
    }
}

/// The same sharding in process: hash(2) over local `Database`s.
pub fn local_sharded(table: Table, key: &str) -> mmdb::Result<ShardedDatabase> {
    let mut db = ShardedDatabase::hash(2)?;
    db.set_exec_options(exec())?;
    db.register(table, key)?;
    db.create_index("orders", key, IndexKind::FullCss)?;
    Ok(db)
}

/// Where a run keeps its checkpoint files: inside the working
/// directory, removed at the end of the run.
pub fn run_dir() -> PathBuf {
    let dir = PathBuf::from(".bench_run").join(format!("{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the run directory");
    dir
}

/// Pin the calling thread, and the threads it spawns afterwards, to
/// one CPU (`Some(cpu)`) or release it to every CPU (`None`). A no-op
/// on a one-CPU host. Fixed placement keeps a run's latency from
/// hinging on where the scheduler happens to put five busy threads on
/// two CPUs, and on how long a cross-CPU wake-up takes on a shared
/// virtual machine (see README.md).
pub fn pin_to_cpu(cpu: Option<usize>) {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cpus < 2 {
        return;
    }
    let mut mask = [0u64; 16];
    match cpu {
        Some(cpu) => mask[0] = 1 << (cpu % cpus.min(64)),
        None => mask = [u64::MAX; 16],
    }
    // SAFETY: the mask outlives the call and its size is passed; pid 0
    // means the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        eprintln!("could not set the affinity of a thread to {cpu:?}");
    }
}

/// One refresh: replace `orders.amount` wholesale (column encode, RID
/// sort, index rebuild, commit swap), then checkpoint the catalog.
/// Returns the cycle's wall time in milliseconds.
pub fn refresh_cycle(db: &mut Database, values: Vec<Value>, path: &Path) -> mmdb::Result<f64> {
    let t = Instant::now();
    db.replace_column("orders", "amount", values)?;
    db.save_to(path)?;
    Ok(t.elapsed().as_secs_f64() * 1e3)
}

/// The result of [`scheduled_refreshes`]: every cycle's wall time,
/// completion-stamped from the first cycle's due time.
#[derive(Debug, Default)]
pub struct RefreshRun {
    pub cycles: Series,
    pub tally: Tally,
}

/// Refresh cycles due every `period` from now, until `stop` says so.
/// The values written are `amounts` again, so every concurrent read
/// stays checkable while the full rebuild still runs.
pub fn scheduled_refreshes(
    db: &mut Database,
    amounts: &[i64],
    path: &Path,
    period: Duration,
    mut stop: impl FnMut(usize) -> bool,
) -> RefreshRun {
    let mut run = RefreshRun::default();
    let start = Instant::now();
    for k in 0.. {
        if stop(k) {
            break;
        }
        let due = start + period * k as u32;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let values: Vec<Value> = amounts.iter().map(|&a| Value::Int(a)).collect();
        let cycle = refresh_cycle(db, values, path);
        run.tally.record(cycle.is_ok());
        match cycle {
            Ok(ms) => run.cycles.samples.push(Sample {
                at_s: start.elapsed().as_secs_f64(),
                latency_us: ms * 1e3,
            }),
            Err(e) => eprintln!("refresh failed: {e}"),
        }
    }
    run.cycles.window_s = start.elapsed().as_secs_f64();
    run
}
