//! The traced run's per-layer measurements. Each one calls a module's
//! public entry point from outside the program and times it or counts
//! its work: `serve` through the [`TracedSource`](crate::traced)
//! wrapper and the server's registry, `shard` and `wire` by replaying
//! the same probe windows through an in-process and a loopback hash(2)
//! catalog, `mmdb` through `Database`/`Domain`/`ResultSet::timings`,
//! `css-tree` through `FullCssTree` and `cachesim`, and `store` through
//! `save_to`/`open_from`.
//!
//! The counts (nodes per probe, simulated misses per probe, wire bytes
//! per window, join probes per query, stored bytes per row) depend only
//! on the seed: [`deterministic_counts`] computes them the same way the
//! traced run does, and a test asserts that they repeat.

use crate::catalog::{self, exec};
use crate::gen::{self, DssQuery, Expected, Shape, Star, Windows};
use crate::stats::{median, median_secs, Metrics, Tally};
use crate::traced::EngineClock;
use cachesim::{MachineSpec, SimTracer};
use ccindex_common::{AccessTracer, CountingTracer, OrderedIndex};
use ccindex_obs as obs;
use ccindex_serve::ServeStats;
use ccindex_shard::{HashPartitioner, Partitioner, RemoteShard, ShardedDatabase};
use ccindex_wire::{self as wire, ShardRequest, ShardResponse, Spec};
use css_tree::FullCssTree;
use mmdb::{eq, Column, Database, ResultRows, RidList, Value};
use std::path::Path;
use std::time::Instant;

/// CSS node width of the catalog's FullCss indexes (16 four-byte keys,
/// one 64-byte line).
type Css = FullCssTree<u32, 16>;

fn hist(registry: &obs::Registry, name: &str) -> obs::HistogramSnapshot {
    registry
        .find_histogram(name)
        .map_or_else(obs::HistogramSnapshot::empty, |h| h.snapshot())
}

fn mean(h: &obs::HistogramSnapshot) -> f64 {
    h.sum() as f64 / h.count() as f64
}

// ---------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------

/// `serve.*` and `mmdb.pinned_generations_hw` from one traced session.
pub fn serve_layer(
    m: &mut Metrics,
    registry: &obs::Registry,
    stats: &ServeStats,
    clock: &EngineClock,
) {
    let size = hist(registry, "serve.window.size");
    let exec_ns = hist(registry, "serve.window.exec.ns");
    let wait_ns = hist(registry, "serve.window.wait.ns");
    m.set("serve.window_fill", mean(&size), "count");
    m.set("serve.window_exec_us", mean(&exec_ns) / 1e3, "us");
    m.set("serve.window_wait_us", mean(&wait_ns) / 1e3, "us");
    let self_ns = exec_ns.sum() as f64 - clock.engine_ns() as f64;
    m.set(
        "serve.self_us_per_request",
        self_ns / stats.requests as f64 / 1e3,
        "us",
    );
    m.set(
        "serve.queue_depth_hw",
        stats.queue_depth_high_water as f64,
        "count",
    );
    m.set(
        "mmdb.pinned_generations_hw",
        clock.pinned_hw() as f64,
        "count",
    );
}

// ---------------------------------------------------------------------
// shard + wire
// ---------------------------------------------------------------------

/// The same windows of point probes on `orders.<column>`, through a
/// loopback hash(2) catalog and its in-process replica.
pub struct Ledger<'a> {
    pub remote: &'a ShardedDatabase,
    pub addrs: Vec<String>,
    pub local: &'a ShardedDatabase,
    pub column: &'a str,
    pub windows: &'a Windows,
}

fn shard_split(values: &[Value]) -> [Vec<Value>; 2] {
    let part = HashPartitioner::new(2).expect("two shards");
    let mut split: [Vec<Value>; 2] = Default::default();
    for v in values {
        split[part.shard_of(v).expect("hash owns every key")].push(v.clone());
    }
    split
}

/// Exact bytes one window puts on the wire (request and response frames
/// to and from every shard it touches) and the codec time to encode,
/// checksum and decode them, per window; every message must decode to
/// itself.
pub fn wire_window_cost(
    local: &ShardedDatabase,
    column: &str,
    windows: &Windows,
) -> (f64, f64, Tally) {
    let mut tally = Tally::default();
    let mut bytes = 0usize;
    let mut codec_ns = 0u128;
    for window in &windows.values {
        for (shard, values) in shard_split(window).into_iter().enumerate() {
            if values.is_empty() {
                continue;
            }
            let answers = local
                .shard(shard)
                .point_probe_batch("orders", column, &values)
                .expect("replica answers");
            let req = ShardRequest::PointProbeBatch {
                table: "orders".into(),
                column: column.into(),
                values,
            };
            let resp = ShardResponse::RidSets(answers);
            let t = Instant::now();
            let (mut req_buf, mut resp_buf) = (Vec::new(), Vec::new());
            let sent = wire::write_request(&mut req_buf, "bench", &req)
                .and_then(|()| wire::write_response(&mut resp_buf, "bench", &resp));
            let back = wire::read_request(&mut req_buf.as_slice(), "bench");
            let again = wire::read_response(&mut resp_buf.as_slice(), "bench");
            codec_ns += t.elapsed().as_nanos();
            tally.record(sent.is_ok() && back == Ok(req) && again == Ok(resp));
            bytes += req_buf.len() + resp_buf.len();
        }
    }
    let n = windows.values.len() as f64;
    (bytes as f64 / n, codec_ns as f64 / 1e3 / n, tally)
}

pub fn ledger(m: &mut Metrics, l: &Ledger<'_>) -> Tally {
    let mut tally = Tally::default();
    let registry = l.remote.registry();
    let (scatter0, gather0) = (
        hist(registry, "shard.scatter.ns"),
        hist(registry, "shard.gather.ns"),
    );
    let (mut remote_us, mut local_us) = (Vec::new(), Vec::new());
    for (i, (window, expected)) in l.windows.values.iter().zip(&l.windows.expected).enumerate() {
        let mut run = |db: &ShardedDatabase, out: &mut Vec<f64>| {
            let t = Instant::now();
            let answer = db.point_probe_batch("orders", l.column, window);
            out.push(t.elapsed().as_nanos() as f64 / 1e3);
            tally.record(answer.as_ref() == Ok(expected));
        };
        // Alternate which side runs first so neither always runs warm.
        if i % 2 == 0 {
            run(l.remote, &mut remote_us);
            run(l.local, &mut local_us);
        } else {
            run(l.local, &mut local_us);
            run(l.remote, &mut remote_us);
        }
    }
    let (scatter1, gather1) = (
        hist(registry, "shard.scatter.ns"),
        hist(registry, "shard.gather.ns"),
    );
    let delta_mean = |a: &obs::HistogramSnapshot, b: &obs::HistogramSnapshot| {
        (b.sum() - a.sum()) as f64 / (b.count() - a.count()) as f64
    };
    m.set(
        "shard.scatter_us",
        delta_mean(&scatter0, &scatter1) / 1e3,
        "us",
    );
    m.set(
        "shard.gather_us",
        delta_mean(&gather0, &gather1) / 1e3,
        "us",
    );
    let fanout: usize = l
        .windows
        .values
        .iter()
        .map(|w| shard_split(w).iter().filter(|s| !s.is_empty()).count())
        .sum();
    m.set(
        "shard.fanout",
        fanout as f64 / l.windows.values.len() as f64,
        "count",
    );
    m.set(
        "wire.tax",
        median(&mut remote_us) / median(&mut local_us),
        "ratio",
    );
    let (bytes, codec_us, codec_tally) = wire_window_cost(l.local, l.column, l.windows);
    tally.add(codec_tally);
    m.set("wire.bytes_per_window", bytes, "count");
    m.set("wire.codec_us_per_window", codec_us, "us");

    // Server-side decode and execute, from the span tree a traced
    // RunSpec brings back.
    let (mut decode_us, mut execute_us) = (Vec::new(), Vec::new());
    let probes: Vec<(Value, usize)> = l
        .windows
        .values
        .iter()
        .flatten()
        .zip(l.windows.expected.iter().flatten())
        .map(|(v, e)| (v.clone(), e.len()))
        .take(512)
        .collect();
    let part = HashPartitioner::new(2).expect("two shards");
    let clients: Vec<RemoteShard> = l
        .addrs
        .iter()
        .map(|a| RemoteShard::connect(a.as_str()).expect("shard server up"))
        .collect();
    for (value, hits) in probes {
        let shard = part.shard_of(&value).expect("hash owns every key");
        let spec = Spec {
            table: "orders".into(),
            filters: vec![eq(l.column, value)],
            ..Spec::default()
        };
        let mut span = obs::Span::root("bench");
        let answer = clients[shard].run_spec_traced(&spec, &mut span);
        tally.record(matches!(answer, Ok(ResultRows::Rids(ref r)) if r.len() == hits));
        let node = span.finish();
        if let (Some(d), Some(e)) = (node.find("decode"), node.find("execute")) {
            decode_us.push(d.elapsed_ns as f64 / 1e3);
            execute_us.push(e.elapsed_ns as f64 / 1e3);
        }
    }
    m.set("wire.server_decode_us", median(&mut decode_us), "us");
    m.set("wire.server_execute_us", median(&mut execute_us), "us");
    tally
}

// ---------------------------------------------------------------------
// mmdb
// ---------------------------------------------------------------------

/// The part of each window that `shard` owns, with the expected answers
/// translated to that shard's local RIDs: what one shard server
/// executes per window.
pub fn shard_windows(windows: &Windows, db: &ShardedDatabase, shard: usize) -> Windows {
    let part = HashPartitioner::new(db.shards()).expect("at least one shard");
    let mut out = Windows::default();
    for (values, expected) in windows.values.iter().zip(&windows.expected) {
        let (v, e) = values
            .iter()
            .zip(expected)
            .filter(|(v, _)| part.shard_of(v).ok() == Some(shard))
            .map(|(v, rids)| {
                let local = rids
                    .iter()
                    .map(|&g| db.placement_of("orders", g).expect("placed row").1)
                    .collect();
                (v.clone(), local)
            })
            .unzip();
        out.values.push(v);
        out.expected.push(e);
    }
    out
}

/// `mmdb.point_batch_us` and `mmdb.domain_encode_ns_per_value` over the
/// windows, against one unsharded catalog, every answer checked.
pub fn mmdb_point(
    m: &mut Metrics,
    db: &Database,
    table: &str,
    column: &str,
    windows: &Windows,
) -> Tally {
    let domain = db
        .table(table)
        .ok()
        .and_then(|t| t.column(column))
        .expect("probed column exists")
        .domain();
    let mut tally = Tally::default();
    let mut batch_us = Vec::new();
    let (mut encode_ns, mut encoded) = (0u128, 0usize);
    for (window, expected) in windows.values.iter().zip(&windows.expected) {
        let t = Instant::now();
        let answer = db.point_probe_batch(table, column, window);
        batch_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        tally.record(answer.as_ref() == Ok(expected));
        let t = Instant::now();
        std::hint::black_box(domain.encode_batch(window));
        encode_ns += t.elapsed().as_nanos();
        encoded += window.len();
    }
    m.set("mmdb.point_batch_us", median(&mut batch_us), "us");
    m.set(
        "mmdb.domain_encode_ns_per_value",
        encode_ns as f64 / encoded as f64,
        "ns",
    );
    tally
}

/// Run one rotation query, returning its rows and plan-node timings.
pub fn run_query(db: &Database, q: &DssQuery) -> mmdb::Result<(ResultRows, mmdb::PlanTimings)> {
    let query = db.query("orders");
    let query = match q.shape {
        Shape::JoinGroup => query
            .filter(mmdb::between("amount", q.lo, q.hi))
            .join("customers", mmdb::on("cust", "id"))
            .group_by("region", mmdb::sum("amount")),
        Shape::RangeGroup => query
            .filter(mmdb::between("amount", q.lo, q.hi))
            .group_by("day", mmdb::sum("amount")),
        Shape::Point => query.filter(eq("cust", q.lo)),
    };
    let result = query.run()?;
    Ok((result.rows().clone(), result.timings().clone()))
}

pub fn matches(rows: &ResultRows, expected: &Expected) -> bool {
    match (rows, expected) {
        (ResultRows::Groups(got), Expected::Groups(want)) => got == want,
        (ResultRows::Rids(got), Expected::Rids(want)) => got == want,
        _ => false,
    }
}

/// Per-shape wall times and the plan-node times of `join_group`
/// queries, in milliseconds.
#[derive(Debug, Default)]
pub struct QueryTimes {
    pub by_shape: [Vec<f64>; 3],
    pub select_ms: Vec<f64>,
    pub join_ms: Vec<f64>,
    pub group_ms: Vec<f64>,
}

impl QueryTimes {
    pub fn record(&mut self, shape: Shape, wall_ms: f64, timings: &mmdb::PlanTimings) {
        let i = Shape::ALL
            .iter()
            .position(|&s| s == shape)
            .expect("known shape");
        self.by_shape[i].push(wall_ms);
        if shape == Shape::JoinGroup {
            self.select_ms
                .push(timings.probe_ns.iter().sum::<u64>() as f64 / 1e6);
            self.join_ms.push(timings.join_ns.unwrap_or(0) as f64 / 1e6);
            self.group_ms
                .push(timings.group_ns.unwrap_or(0) as f64 / 1e6);
        }
    }

    pub fn merge(&mut self, other: QueryTimes) {
        for (a, b) in self.by_shape.iter_mut().zip(other.by_shape) {
            a.extend(b);
        }
        self.select_ms.extend(other.select_ms);
        self.join_ms.extend(other.join_ms);
        self.group_ms.extend(other.group_ms);
    }

    pub fn emit(mut self, m: &mut Metrics) {
        for (shape, times) in Shape::ALL.iter().zip(self.by_shape.iter_mut()) {
            m.set(
                format!("mmdb.query_ms.{}", shape.name()),
                median(times),
                "ms",
            );
        }
        m.set("mmdb.node_ms.select", median(&mut self.select_ms), "ms");
        m.set("mmdb.node_ms.join", median(&mut self.join_ms), "ms");
        m.set("mmdb.node_ms.group", median(&mut self.group_ms), "ms");
    }
}

/// Run every query of the rotation `reps` times, checked, recording
/// its times.
pub fn query_battery(
    db: &Database,
    queries: &[DssQuery],
    expected: &[Expected],
    reps: usize,
) -> (QueryTimes, Tally) {
    let mut times = QueryTimes::default();
    let mut tally = Tally::default();
    for _ in 0..reps {
        for (q, want) in queries.iter().zip(expected) {
            let t = Instant::now();
            let answer = run_query(db, q);
            let wall_ms = t.elapsed().as_secs_f64() * 1e3;
            match answer {
                Ok((rows, timings)) => {
                    tally.record(matches(&rows, want));
                    times.record(q.shape, wall_ms, &timings);
                }
                Err(_) => tally.record(false),
            }
        }
    }
    (times, tally)
}

/// Inner-index probes the `join_group` queries issue, per query: the
/// join output size of the query without its grouping, checked against
/// the generator's count of rows in the range.
pub fn join_probes_per_query(
    db: &Database,
    star: &Star,
    queries: &[DssQuery],
    tally: &mut Tally,
) -> f64 {
    let joins: Vec<&DssQuery> = queries
        .iter()
        .filter(|q| q.shape == Shape::JoinGroup)
        .take(4)
        .collect();
    let mut probes = 0usize;
    for q in &joins {
        let joined = db
            .query("orders")
            .filter(mmdb::between("amount", q.lo, q.hi))
            .join("customers", mmdb::on("cust", "id"))
            .run();
        let n = joined.map_or(0, |r| r.len());
        tally.record(n == gen::rows_in_range(star, q.lo, q.hi));
        probes += n;
    }
    probes as f64 / joins.len() as f64
}

/// The join's domain translation — every outer `cust` value searched in
/// the inner `customers.id` domain — timed alone.
pub fn join_translate_ms(db: &Database) -> f64 {
    let column = |t: &str, c: &str| {
        db.table(t)
            .ok()
            .and_then(|t| t.column(c))
            .expect("star column")
            .domain()
            .clone()
    };
    let (outer, inner) = (column("orders", "cust"), column("customers", "id"));
    median_secs(3, || {
        std::hint::black_box(inner.encode_batch(outer.values()))
    })
    .0 * 1e3
}

// ---------------------------------------------------------------------
// css-tree
// ---------------------------------------------------------------------

/// Maps the addresses of a tree's directory and sorted array onto fixed
/// bases, so simulated misses do not depend on where the allocator put
/// them.
struct Normalized<'t, T> {
    inner: &'t mut T,
    regions: [(usize, usize, usize); 2],
}

impl<T: AccessTracer> Normalized<'_, T> {
    fn map(&self, addr: usize) -> usize {
        for &(start, end, base) in &self.regions {
            if addr >= start && addr < end {
                return base + (addr - start);
            }
        }
        addr
    }
}

impl<T: AccessTracer> AccessTracer for Normalized<'_, T> {
    fn read(&mut self, addr: usize, len: usize) {
        let a = self.map(addr);
        self.inner.read(a, len);
    }
    fn write(&mut self, addr: usize, len: usize) {
        let a = self.map(addr);
        self.inner.write(a, len);
    }
    fn compare(&mut self) {
        self.inner.compare();
    }
    fn descend(&mut self) {
        self.inner.descend();
    }
}

/// Deterministic descent counts: nodes visited per probe (directory
/// nodes plus the leaf), and misses per probe in the simulated `modern`
/// L1 and L2 after the first tenth of the probes warmed the caches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CssCounts {
    pub nodes_per_probe: f64,
    pub l1_misses_per_probe: f64,
    pub l2_misses_per_probe: f64,
}

pub fn css_counts(tree: &Css, probes: &[u32]) -> CssCounts {
    let mut counting = CountingTracer::default();
    for &p in probes {
        tree.lower_bound_with(p, &mut counting);
    }
    let n = probes.len() as f64;
    let span = |s: &[u32]| (s.as_ptr() as usize, s.as_ptr() as usize + 4 * s.len());
    let (dir, arr) = (span(tree.directory()), span(tree.array().as_slice()));
    let regions = [(dir.0, dir.1, 1 << 32), (arr.0, arr.1, 1 << 36)];
    let mut hierarchy = MachineSpec::modern().build_hierarchy();
    let warm = probes.len() / 10;
    let replay = |ps: &[u32], h: &mut cachesim::CacheHierarchy| {
        let mut sim = SimTracer::new(h);
        let mut tracer = Normalized {
            inner: &mut sim,
            regions,
        };
        for &p in ps {
            tree.lower_bound_with(p, &mut tracer);
        }
    };
    replay(&probes[..warm], &mut hierarchy);
    let before = hierarchy.stats();
    replay(&probes[warm..], &mut hierarchy);
    let counted = hierarchy.stats().since(&before);
    let measured = (probes.len() - warm) as f64;
    CssCounts {
        nodes_per_probe: counting.descends as f64 / n + 1.0,
        l1_misses_per_probe: counted.misses(0) as f64 / measured,
        l2_misses_per_probe: counted.misses(1) as f64 / measured,
    }
}

/// The lower-bound domain IDs of `values` in `table.column`: the keys a
/// descent of that column's index looks for.
pub fn probe_ids(db: &Database, table: &str, column: &str, values: &[Value]) -> Vec<u32> {
    let domain = db
        .table(table)
        .ok()
        .and_then(|t| t.column(column))
        .expect("probed column exists")
        .domain();
    values.iter().map(|v| domain.lower_bound_id(v)).collect()
}

/// `css-tree.*` for a FullCss tree over `table.column`'s keys, probed
/// with `values`.
pub fn css_tree(m: &mut Metrics, db: &Database, table: &str, column: &str, values: &[Value]) {
    let keys = db
        .rid_list(table, column)
        .expect("indexed column")
        .keys()
        .as_slice();
    let probes = probe_ids(db, table, column, values);
    let (build_s, tree) = median_secs(3, || Css::build(keys));
    m.set("css-tree.build_ms", build_s * 1e3, "ms");
    let (descent_s, _) = median_secs(5, || {
        std::hint::black_box(OrderedIndex::lower_bound_batch_lanes(
            &tree,
            &probes,
            exec().lanes,
        ))
    });
    m.set(
        "css-tree.descent_ns_per_probe",
        descent_s * 1e9 / probes.len() as f64,
        "ns",
    );
    let counts = css_counts(&tree, &probes);
    m.set("css-tree.nodes_per_probe", counts.nodes_per_probe, "count");
    m.set(
        "css-tree.sim_l1_misses_per_probe",
        counts.l1_misses_per_probe,
        "count",
    );
    m.set(
        "css-tree.sim_l2_misses_per_probe",
        counts.l2_misses_per_probe,
        "count",
    );
    m.set(
        "css-tree.directory_bytes_per_key",
        (tree.directory_slots() * 4) as f64 / keys.len() as f64,
        "B/key",
    );
}

// ---------------------------------------------------------------------
// store + rebuild
// ---------------------------------------------------------------------

pub fn stored_bytes_per_row(db: &Database, path: &Path) -> f64 {
    db.save_to(path).expect("checkpoint");
    let rows: usize = db
        .tables()
        .map(|t| db.table(t).map_or(0, |t| t.rows()))
        .sum();
    std::fs::metadata(path).expect("checkpoint written").len() as f64 / rows as f64
}

/// `store.*`, `mmdb.column_encode_ms` and `mmdb.rid_sort_ms` on the
/// refresh catalog (`orders.amount` is the refreshed column).
pub fn store_and_rebuild(m: &mut Metrics, db: &Database, path: &Path) -> Tally {
    let values = db
        .table("orders")
        .ok()
        .and_then(|t| t.column("amount"))
        .map(|c| c.domain().decode_batch(c.ids()))
        .expect("refresh column");
    let (encode_s, column) = median_secs(3, || Column::from_values(&values));
    m.set("mmdb.column_encode_ms", encode_s * 1e3, "ms");
    let (sort_s, _) = median_secs(3, || RidList::for_column(&column));
    m.set("mmdb.rid_sort_ms", sort_s * 1e3, "ms");
    let (save_s, saved) = median_secs(3, || db.save_to(path));
    m.set("store.save_ms", save_s * 1e3, "ms");
    let (open_s, opened) = median_secs(3, || Database::open_from(path));
    m.set("store.open_ms", open_s * 1e3, "ms");
    m.set(
        "store.bytes_per_row",
        stored_bytes_per_row(db, path),
        "count",
    );
    let mut tally = Tally::default();
    tally.record(saved.is_ok());
    tally.record(opened.is_ok());
    tally
}

// ---------------------------------------------------------------------
// The deterministic counts, for the repeatability test
// ---------------------------------------------------------------------

/// Every count the traced run reports that must repeat exactly under
/// one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Counts {
    pub css: CssCounts,
    pub wire_bytes_per_window: f64,
    pub join_probes_per_query: f64,
    pub store_bytes_per_row: f64,
}

/// The counts on a star of `orders` rows, computed with the same
/// functions the traced run uses. Writes one checkpoint under `dir`.
pub fn deterministic_counts(seed: u64, orders: usize, dir: &Path) -> Counts {
    let star = Star::new(orders, orders / 2, seed);
    let db = catalog::star_database(&star);
    let windows = Windows::new(32, 64, &mut gen::Rng::new(seed, 300), |r| {
        gen::distinct_probe(&star.amount, r)
    });
    let tree = Css::build(
        db.rid_list("orders", "amount")
            .expect("indexed")
            .keys()
            .as_slice(),
    );
    let css = css_counts(&tree, &probe_ids(&db, "orders", "amount", &windows.flat()));
    let local = catalog::local_sharded(catalog::amount_table(&star.amount.values), "amount")
        .expect("replica");
    let (wire_bytes_per_window, _, _) = wire_window_cost(&local, "amount", &windows);
    let queries = gen::dss_rotation(&star, 4, seed);
    let join_probes_per_query = join_probes_per_query(&db, &star, &queries, &mut Tally::default());
    let store_bytes_per_row = stored_bytes_per_row(&db, &dir.join("counts.ccdb"));
    Counts {
        css,
        wire_bytes_per_window,
        join_probes_per_query,
        store_bytes_per_row,
    }
}
