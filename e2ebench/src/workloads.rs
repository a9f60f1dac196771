//! The three workloads. A plain run (`--trace 0`) sets up several
//! times, measures the workload for the requested seconds and reports
//! the end-to-end metrics. A traced run sets up once, measures half the
//! time plain and half traced (their ratio is the tracing overhead),
//! then takes the per-layer measurements of [`crate::layers`].

use crate::catalog::{self, exec, serve_options, RefreshRun, RemoteCatalog};
use crate::gen::{self, CustIndex, Distinct, DssQuery, Expected, Rng, Shape, Star, Windows};
use crate::layers::{self, Ledger, QueryTimes};
use crate::load::{self, LoopResult, Probe};
use crate::stats::{median, peak_rss_mb, percentile, Metrics, Sample, Series, Tally};
use crate::traced::TracedSource;
use ccindex_obs::Registry;
use ccindex_serve::{BatchServer, ServeSource, ServeStats};
use mmdb::{Database, Value};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Distinct keys behind the remote point lookups (250k per shard).
pub const REMOTE_KEYS: usize = 500_000;
/// `orders` and `customers` rows of the decision-support star: the size
/// of the refresh catalog, about one core's L2 (see README.md).
pub const DSS_ORDERS: usize = 65_536;
pub const DSS_CUSTOMERS: usize = 32_768;
/// `orders` and `customers` rows of the refresh catalog.
pub const REFRESH_ORDERS: usize = 65_536;
pub const REFRESH_CUSTOMERS: usize = 32_768;
/// Set-ups per plain run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Cold opens per plain `refresh` run (each is cheap).
pub const OPEN_REPS: usize = 7;
/// Time every loop runs before its measured window.
pub const WARMUP: Duration = Duration::from_millis(500);
pub const CLIENTS: usize = 2;
/// Point requests each closed-loop client keeps in flight.
pub const DEPTH: usize = 64;
/// Open-loop read rate of `refresh`.
pub const READ_RATE: f64 = 20_000.0;
pub const REFRESH_PERIOD: Duration = Duration::from_millis(100);
/// Back-to-back refresh cycles of the idle refresh catalog in
/// `point-remote` and `dss-join`: enough for four parts with ten cycles
/// beyond the p90 in each (see [`crate::stats::Series`]).
pub const IDLE_REFRESHES: usize = 400;
/// Instances of each query shape in the `dss-join` rotation.
pub const PER_SHAPE: usize = 8;
/// Probe windows the traced run replays through each layer.
pub const WINDOWS: usize = 200;

pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where checkpoints go; removed by the caller.
    pub dir: PathBuf,
}

pub struct Outcome {
    pub metrics: Metrics,
    pub tally: Tally,
}

pub fn run(workload: &str, cfg: &Config) -> Option<Outcome> {
    Some(match workload {
        "point-remote" => point_remote(cfg),
        "dss-join" => dss_join(cfg),
        "refresh" => refresh(cfg),
        _ => return None,
    })
}

/// The end-to-end metrics every workload reports.
struct EndToEnd {
    setup_s: Vec<f64>,
    /// Point lookups.
    lookups: Series,
    /// Every request of the workload's main loop.
    queries: Series,
    refresh: RefreshRun,
    stored_bytes_per_user_byte: f64,
}

impl EndToEnd {
    fn emit(mut self, m: &mut Metrics) {
        m.set("setup_s", median(&mut self.setup_s), "s");
        m.set("peak_rss_mb", peak_rss_mb(), "MiB");
        m.set("lookups_per_s", self.lookups.rate(), "1/s");
        m.set("lookup_p50_us", self.lookups.percentile_us(50.0), "us");
        m.set("lookup_p90_us", self.lookups.percentile_us(90.0), "us");
        // Too unsteady on a small shared host to gate (see README.md);
        // reported for reading only.
        eprintln!(
            "lookup_p99_us {:.1} over {} lookups",
            self.lookups.percentile_us(99.0),
            self.lookups.samples.len()
        );
        m.set("queries_per_s", self.queries.rate(), "1/s");
        m.set("query_p50_ms", self.queries.percentile_us(50.0) / 1e3, "ms");
        m.set("query_p90_ms", self.queries.percentile_us(90.0) / 1e3, "ms");
        m.set(
            "refresh_p50_ms",
            self.refresh.cycles.percentile_us(50.0) / 1e3,
            "ms",
        );
        m.set(
            "refresh_p90_ms",
            self.refresh.cycles.percentile_us(90.0) / 1e3,
            "ms",
        );
        m.set(
            "stored_bytes_per_user_byte",
            self.stored_bytes_per_user_byte,
            "ratio",
        );
    }
}

fn half(cfg: &Config) -> Duration {
    Duration::from_secs_f64(cfg.seconds / 2.0)
}

fn full(cfg: &Config) -> Duration {
    Duration::from_secs_f64(cfg.seconds)
}

/// Set up `reps` times, keeping the last catalog; returns the set-up
/// times in seconds.
fn set_up<T>(reps: usize, mut build: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut times = Vec::with_capacity(reps);
    let mut built = None;
    for _ in 0..reps.max(1) {
        drop(built.take()); // free the previous copy before building the next
        let t = Instant::now();
        built = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (times, built.expect("at least one set-up"))
}

fn file_len(path: &Path) -> f64 {
    std::fs::metadata(path).map_or(f64::NAN, |m| m.len() as f64)
}

/// The refresh catalog every workload carries besides its main one:
/// `point-remote` and `dss-join` refresh it with no reads running (the
/// idle reference for the refresh metrics); `refresh` serves it.
fn refresh_star(seed: u64) -> Star {
    Star::new(REFRESH_ORDERS, REFRESH_CUSTOMERS, seed)
}

/// Back-to-back refresh cycles with no concurrent reads.
fn idle_refreshes(db: &mut Database, star: &Star, dir: &Path) -> (RefreshRun, f64) {
    let path = dir.join("idle.ccdb");
    let run = catalog::scheduled_refreshes(db, &star.amount.values, &path, Duration::ZERO, |k| {
        k >= IDLE_REFRESHES
    });
    let ratio = file_len(&path) / star.user_bytes() as f64;
    (run, ratio)
}

/// The decision-support queries and the store/rebuild path on `db`, a
/// star catalog: the per-layer measurements of the runs whose main
/// catalog has no star of that size.
fn star_layers(m: &mut Metrics, db: &Database, star: &Star, seed: u64, dir: &Path) -> Tally {
    let queries = gen::dss_rotation(star, 4, seed);
    let expected = gen::dss_reference(star, &queries);
    let (times, mut tally) = layers::query_battery(db, &queries, &expected, 3);
    times.emit(m);
    m.set(
        "mmdb.join_translate_ms",
        layers::join_translate_ms(db),
        "ms",
    );
    let probes = layers::join_probes_per_query(db, star, &queries, &mut tally);
    m.set("mmdb.join_probes_per_query", probes, "count");
    tally.add(layers::store_and_rebuild(m, db, &dir.join("layers.ccdb")));
    tally
}

/// The `shard`/`wire` ledger over a fresh loopback and in-process hash(2)
/// copy of `star`'s `orders.amount`.
fn amount_ledger(m: &mut Metrics, star: &Star, seed: u64) -> Tally {
    let remote = RemoteCatalog::build(catalog::amount_table(&star.amount.values), "amount")
        .expect("loopback catalog");
    let local = catalog::local_sharded(catalog::amount_table(&star.amount.values), "amount")
        .expect("in-process catalog");
    let windows = Windows::new(WINDOWS, DEPTH, &mut Rng::new(seed, 300), |r| {
        gen::distinct_probe(&star.amount, r)
    });
    layers::ledger(
        m,
        &Ledger {
            remote: remote.db(),
            addrs: remote.addrs(),
            local: &local,
            column: "amount",
            windows: &windows,
        },
    )
}

// ---------------------------------------------------------------------
// point-remote
// ---------------------------------------------------------------------

fn point_remote(cfg: &Config) -> Outcome {
    let keys = Distinct::new(REMOTE_KEYS, &mut Rng::new(cfg.seed, 10));
    let side_star = refresh_star(cfg.seed);
    let reps = if cfg.trace { 1 } else { SETUP_REPS };
    let (setup_s, (remote, mut side)) = set_up(reps, || {
        let side = catalog::star_database(&side_star);
        let remote = RemoteCatalog::build(catalog::amount_table(&keys.values), "amount")
            .expect("loopback catalog");
        (remote, side)
    });
    let probe: &Probe<'_> = &|r: &mut Rng| gen::distinct_probe(&keys, r);
    // The serving thread, which also runs the coordinator, shares CPU 1
    // with the shard servers; the clients run on CPU 0.
    catalog::pin_to_cpu(Some(1));
    let plain = BatchServer::with_options(remote.db(), serve_options());
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    if !cfg.trace {
        let (lr, _) = load::closed_loop(
            &plain,
            "orders",
            "amount",
            probe,
            cfg.seed,
            CLIENTS,
            DEPTH,
            WARMUP,
            full(cfg),
        );
        catalog::pin_to_cpu(None);
        tally.add(lr.tally);
        let (refresh, stored) = idle_refreshes(&mut side, &side_star, &cfg.dir);
        tally.add(refresh.tally);
        EndToEnd {
            setup_s,
            lookups: lr.ops.clone(),
            queries: lr.ops,
            refresh,
            stored_bytes_per_user_byte: stored,
        }
        .emit(&mut m);
        return Outcome { metrics: m, tally };
    }

    let (untraced, _) = load::closed_loop(
        &plain,
        "orders",
        "amount",
        probe,
        cfg.seed,
        CLIENTS,
        DEPTH,
        WARMUP,
        half(cfg),
    );
    tally.add(untraced.tally);
    let source = TracedSource::new(remote.db());
    let server = BatchServer::with_options(&source, serve_options());
    let (mut traced, stats) = load::closed_loop(
        &server,
        "orders",
        "amount",
        probe,
        cfg.seed,
        CLIENTS,
        DEPTH,
        WARMUP,
        half(cfg),
    );
    catalog::pin_to_cpu(None);
    tally.add(traced.tally);
    layers::serve_layer(&mut m, server.registry(), &stats, &source.clock);
    m.set(
        "bench.tracing_overhead",
        traced.ops.percentile_us(50.0) / untraced.ops.percentile_us(50.0),
        "ratio",
    );
    m.set(
        "bench.generator_lag_ms",
        percentile(&mut traced.lag_ms, 99.0),
        "ms",
    );

    let replica = catalog::local_sharded(catalog::amount_table(&keys.values), "amount")
        .expect("in-process replica");
    let windows = Windows::new(WINDOWS, DEPTH, &mut Rng::new(cfg.seed, 300), |r| {
        gen::distinct_probe(&keys, r)
    });
    tally.add(layers::ledger(
        &mut m,
        &Ledger {
            remote: remote.db(),
            addrs: remote.addrs(),
            local: &replica,
            column: "amount",
            windows: &windows,
        },
    ));
    let shard0 = layers::shard_windows(&windows, &replica, 0);
    tally.add(layers::mmdb_point(
        &mut m,
        replica.shard(0),
        "orders",
        "amount",
        &shard0,
    ));
    layers::css_tree(&mut m, replica.shard(0), "orders", "amount", &shard0.flat());
    drop(replica);
    tally.add(star_layers(&mut m, &side, &side_star, cfg.seed, &cfg.dir));
    Outcome { metrics: m, tally }
}

// ---------------------------------------------------------------------
// dss-join
// ---------------------------------------------------------------------

/// What a closed loop of decision-support queries measured.
struct DssLoop {
    times: QueryTimes,
    /// Every query, and the point-shape queries alone.
    all: Series,
    points: Series,
    /// The generator's delay between a query's completion and the next
    /// query's start, in milliseconds.
    lag_ms: Vec<f64>,
    tally: Tally,
}

impl DssLoop {
    fn new(window_s: f64) -> Self {
        Self {
            times: QueryTimes::default(),
            all: Series::new(window_s),
            points: Series::new(window_s),
            lag_ms: Vec::new(),
            tally: Tally::default(),
        }
    }
}

/// `CLIENTS` threads, each running the rotation from its own offset
/// until `warmup + measure` has passed, every answer checked.
fn dss_loop(
    db: &Database,
    queries: &[DssQuery],
    expected: &[Expected],
    warmup: Duration,
    measure: Duration,
) -> DssLoop {
    let start = Instant::now();
    let (open, close) = (start + warmup, start + warmup + measure);
    let per_client: Vec<DssLoop> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| {
                s.spawn(move || {
                    let mut out = DssLoop::new(measure.as_secs_f64());
                    // Offsets are whole rotations apart, so both clients
                    // keep the shape order.
                    let mut at = 3 * (i * queries.len() / 3 / CLIENTS);
                    let mut last_done: Option<Instant> = None;
                    while Instant::now() < close {
                        let q = &queries[at % queries.len()];
                        let t = Instant::now();
                        if let Some(d) = last_done.filter(|&d| d >= open) {
                            out.lag_ms.push((t - d).as_secs_f64() * 1e3);
                        }
                        let answer = layers::run_query(db, q);
                        let done = Instant::now();
                        last_done = Some(done);
                        let ok = matches!(&answer, Ok((rows, _)) if layers::matches(rows, &expected[at % queries.len()]));
                        out.tally.record(ok);
                        if done >= open && done < close {
                            let s = Sample {
                                at_s: (done - open).as_secs_f64(),
                                latency_us: (done - t).as_nanos() as f64 / 1e3,
                            };
                            out.all.samples.push(s);
                            if q.shape == Shape::Point {
                                out.points.samples.push(s);
                            }
                            if let Ok((_, timings)) = &answer {
                                out.times.record(q.shape, s.latency_us / 1e3, timings);
                            }
                        }
                        at += 1;
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut total = DssLoop::new(measure.as_secs_f64());
    for r in per_client {
        total.times.merge(r.times);
        total.all.extend(r.all);
        total.points.extend(r.points);
        total.lag_ms.extend(r.lag_ms);
        total.tally.add(r.tally);
    }
    total
}

fn dss_join(cfg: &Config) -> Outcome {
    let star = Star::new(DSS_ORDERS, DSS_CUSTOMERS, cfg.seed);
    let side_star = refresh_star(cfg.seed);
    let queries = gen::dss_rotation(&star, PER_SHAPE, cfg.seed);
    let reps = if cfg.trace { 1 } else { SETUP_REPS };
    let (setup_s, (db, mut side)) = set_up(reps, || {
        (
            catalog::star_database(&star),
            catalog::star_database(&side_star),
        )
    });
    let expected = gen::dss_reference(&star, &queries);
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    if !cfg.trace {
        let run = dss_loop(&db, &queries, &expected, WARMUP, full(cfg));
        tally.add(run.tally);
        let (refresh, stored) = idle_refreshes(&mut side, &side_star, &cfg.dir);
        tally.add(refresh.tally);
        EndToEnd {
            setup_s,
            lookups: run.points,
            queries: run.all,
            refresh,
            stored_bytes_per_user_byte: stored,
        }
        .emit(&mut m);
        return Outcome { metrics: m, tally };
    }

    let untraced = dss_loop(&db, &queries, &expected, WARMUP, half(cfg));
    tally.add(untraced.tally);
    let mut traced = dss_loop(&db, &queries, &expected, WARMUP, half(cfg));
    tally.add(traced.tally);
    m.set(
        "bench.tracing_overhead",
        traced.all.percentile_us(50.0) / untraced.all.percentile_us(50.0),
        "ratio",
    );
    m.set(
        "bench.generator_lag_ms",
        percentile(&mut traced.lag_ms, 99.0),
        "ms",
    );
    traced.times.emit(&mut m);
    m.set(
        "mmdb.join_translate_ms",
        layers::join_translate_ms(&db),
        "ms",
    );
    let probes = layers::join_probes_per_query(&db, &star, &queries, &mut tally);
    m.set("mmdb.join_probes_per_query", probes, "count");

    // The serving layer in front of the same catalog: a short closed
    // loop of the rotation's point shape.
    let by_cust = CustIndex::new(&star);
    let cust_probe = |r: &mut Rng| {
        let c = r.below(DSS_CUSTOMERS as u64) as i64;
        (Value::Int(c), by_cust.rids(c).to_vec())
    };
    let source = TracedSource::new(&db);
    let server = BatchServer::with_options(&source, serve_options());
    let (burst, stats) = load::closed_loop(
        &server,
        "orders",
        "cust",
        &cust_probe,
        cfg.seed,
        CLIENTS,
        DEPTH,
        WARMUP,
        Duration::from_secs(1),
    );
    tally.add(burst.tally);
    layers::serve_layer(&mut m, server.registry(), &stats, &source.clock);

    let windows = Windows::new(WINDOWS, DEPTH, &mut Rng::new(cfg.seed, 300), cust_probe);
    tally.add(layers::mmdb_point(&mut m, &db, "orders", "cust", &windows));
    // The join's inner descents: customer ids of the first join_group
    // query's outer rows.
    let q = queries[0];
    let join_probes: Vec<Value> = star
        .amount
        .values
        .iter()
        .zip(&star.cust)
        .filter(|(&a, _)| a >= q.lo && a <= q.hi)
        .map(|(_, &c)| Value::Int(c))
        .take(50_000)
        .collect();
    layers::css_tree(&mut m, &db, "customers", "id", &join_probes);
    tally.add(amount_ledger(&mut m, &side_star, cfg.seed));
    tally.add(layers::store_and_rebuild(
        &mut m,
        &side,
        &cfg.dir.join("layers.ccdb"),
    ));
    Outcome { metrics: m, tally }
}

// ---------------------------------------------------------------------
// refresh
// ---------------------------------------------------------------------

/// Reads at a fixed rate through a `BatchServer` over `source`,
/// recording onto `registry`, while a writer refreshes `db` and
/// checkpoints it every `REFRESH_PERIOD`.
fn refresh_session<S: ServeSource + ?Sized>(
    db: &mut Database,
    source: &S,
    registry: Arc<Registry>,
    star: &Star,
    path: &Path,
    seed: u64,
    measure: Duration,
) -> (LoopResult, RefreshRun, ServeStats) {
    let stop = AtomicBool::new(false);
    let probe: &Probe<'_> = &|r: &mut Rng| gen::distinct_probe(&star.amount, r);
    std::thread::scope(|s| {
        let writer = s.spawn(|| {
            catalog::pin_to_cpu(Some(1));
            catalog::scheduled_refreshes(db, &star.amount.values, path, REFRESH_PERIOD, |_| {
                stop.load(Ordering::Acquire)
            })
        });
        // The serving thread and the two load threads it spawns share
        // the other CPU.
        catalog::pin_to_cpu(Some(0));
        let server = BatchServer::with_metrics(source, serve_options(), registry);
        let (reads, stats) = load::open_loop(
            &server, "orders", "amount", probe, seed, READ_RATE, WARMUP, measure,
        );
        catalog::pin_to_cpu(None);
        stop.store(true, Ordering::Release);
        let refresh = writer.join().expect("writer thread");
        (reads, refresh, stats)
    })
}

/// Reopen the last checkpoint and check that it answers a probe
/// battery exactly as the live catalog and the generator do.
fn reopen_check(db: &Database, star: &Star, path: &Path, seed: u64) -> Tally {
    let mut tally = Tally::default();
    let reopened = match Database::open_from(path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("reopen failed: {e}");
            tally.record(false);
            return tally;
        }
    };
    let windows = Windows::new(64, DEPTH, &mut Rng::new(seed, 400), |r| {
        gen::distinct_probe(&star.amount, r)
    });
    for (window, expected) in windows.values.iter().zip(&windows.expected) {
        let cold = reopened.point_probe_batch("orders", "amount", window);
        let live = db.point_probe_batch("orders", "amount", window);
        tally.record(cold.is_ok() && cold == live && cold.as_ref() == Ok(expected));
    }
    tally
}

fn refresh(cfg: &Config) -> Outcome {
    let star = refresh_star(cfg.seed);
    let path = cfg.dir.join("checkpoint.ccdb");
    catalog::star_database(&star)
        .save_to(&path)
        .expect("initial checkpoint");
    let reps = if cfg.trace { 1 } else { OPEN_REPS };
    let (setup_s, mut db) = set_up(reps, || {
        let mut db = Database::open_from(&path).expect("cold open");
        db.set_exec_options(exec());
        db
    });
    let handle = db.handle();
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    if !cfg.trace {
        let (reads, refresh, _) = refresh_session(
            &mut db,
            &handle,
            Arc::default(),
            &star,
            &path,
            cfg.seed,
            full(cfg),
        );
        tally.add(reads.tally);
        tally.add(refresh.tally);
        tally.add(reopen_check(&db, &star, &path, cfg.seed));
        EndToEnd {
            setup_s,
            lookups: reads.ops.clone(),
            queries: reads.ops,
            refresh,
            stored_bytes_per_user_byte: file_len(&path) / star.user_bytes() as f64,
        }
        .emit(&mut m);
        return Outcome { metrics: m, tally };
    }

    let (untraced, refresh, _) = refresh_session(
        &mut db,
        &handle,
        Arc::default(),
        &star,
        &path,
        cfg.seed,
        half(cfg),
    );
    tally.add(untraced.tally);
    tally.add(refresh.tally);
    let source = TracedSource::new(&handle);
    let registry = Arc::new(Registry::new());
    let (mut traced, refresh, stats) = refresh_session(
        &mut db,
        &source,
        Arc::clone(&registry),
        &star,
        &path,
        cfg.seed,
        half(cfg),
    );
    tally.add(traced.tally);
    tally.add(refresh.tally);
    tally.add(reopen_check(&db, &star, &path, cfg.seed));
    layers::serve_layer(&mut m, &registry, &stats, &source.clock);
    m.set(
        "bench.tracing_overhead",
        traced.ops.percentile_us(50.0) / untraced.ops.percentile_us(50.0),
        "ratio",
    );
    m.set(
        "bench.generator_lag_ms",
        percentile(&mut traced.lag_ms, 99.0),
        "ms",
    );
    let windows = Windows::new(WINDOWS, DEPTH, &mut Rng::new(cfg.seed, 300), |r| {
        gen::distinct_probe(&star.amount, r)
    });
    tally.add(layers::mmdb_point(
        &mut m, &db, "orders", "amount", &windows,
    ));
    layers::css_tree(&mut m, &db, "orders", "amount", &windows.flat());
    tally.add(amount_ledger(&mut m, &star, cfg.seed));
    tally.add(star_layers(&mut m, &db, &star, cfg.seed, &cfg.dir));
    Outcome { metrics: m, tally }
}
