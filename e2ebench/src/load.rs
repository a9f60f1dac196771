//! Load generators over a `BatchServer`: a closed loop of pipelined
//! point lookups and an open loop of point reads at a fixed rate. Both
//! check every answer against the generator's expectation.

use crate::catalog::pin_to_cpu;
use crate::gen::Rng;
use crate::stats::{Sample, Series, Tally};
use ccindex_serve::{BatchServer, Client, Pending, Request, ServeSource, ServeStats};
use mmdb::{ResultRows, Value};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Draws one probe and its expected ascending RID set.
pub type Probe<'a> = dyn Fn(&mut Rng) -> (Value, Vec<u32>) + Sync + 'a;

/// What a load loop measured: the requests completing between `warmup`
/// and `warmup + measure` after the start, and every answer's check.
#[derive(Debug, Default)]
pub struct LoopResult {
    pub ops: Series,
    /// The generator's delay per request, in milliseconds: how late an
    /// open-loop submission was against its schedule, or how long a
    /// closed-loop client took to replace a completed request.
    pub lag_ms: Vec<f64>,
    pub tally: Tally,
}

impl LoopResult {
    fn merge(&mut self, other: LoopResult) {
        self.ops.extend(other.ops);
        self.lag_ms.extend(other.lag_ms);
        self.tally.add(other.tally);
    }
}

/// Record a completion at `done` that started (or was due) at `from`,
/// if it completed inside the window.
fn sample(ops: &mut Series, open: Instant, close: Instant, from: Instant, done: Instant) {
    if done >= open && done < close {
        ops.samples.push(Sample {
            at_s: (done - open).as_secs_f64(),
            latency_us: done.saturating_duration_since(from).as_nanos() as f64 / 1e3,
        });
    }
}

fn check(answer: mmdb::Result<ResultRows>, expected: &[u32]) -> bool {
    matches!(answer, Ok(ResultRows::Rids(rids)) if rids == expected)
}

/// `clients` threads, each keeping `depth` point requests on
/// `table.column` in flight, until `warmup + measure` has passed. The
/// clients run on CPU 0 (see [`pin_to_cpu`]); the caller places the
/// serving thread.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop<S: ServeSource + ?Sized>(
    server: &BatchServer<'_, S>,
    table: &str,
    column: &str,
    probe: &Probe<'_>,
    seed: u64,
    clients: usize,
    depth: usize,
    warmup: Duration,
    measure: Duration,
) -> (LoopResult, ServeStats) {
    let start = Instant::now();
    let (window_open, window_close) = (start + warmup, start + warmup + measure);
    let (per_client, stats) = server.serve_concurrent(clients, |i, client: &Client<'_>| {
        pin_to_cpu(Some(0));
        let mut rng = Rng::new(seed, 100 + i as u64);
        let mut out = LoopResult::default();
        let mut inflight: VecDeque<(Instant, Pending, Vec<u32>)> = VecDeque::with_capacity(depth);
        let mut last_done: Option<Instant> = None;
        loop {
            let now = Instant::now();
            if now < window_close {
                while inflight.len() < depth {
                    let (value, expected) = probe(&mut rng);
                    let submitted = Instant::now();
                    // The generator's own delay: from a completion to the
                    // submission of its replacement.
                    if let Some(done) = last_done.take().filter(|&d| d >= window_open) {
                        out.lag_ms.push((submitted - done).as_secs_f64() * 1e3);
                    }
                    inflight.push_back((
                        submitted,
                        client.submit(Request::point(table, column, value)),
                        expected,
                    ));
                }
            }
            let Some((submitted, pending, expected)) = inflight.pop_front() else {
                break;
            };
            let ok = check(pending.wait(), &expected);
            let done = Instant::now();
            last_done = Some(done);
            out.tally.record(ok);
            sample(&mut out.ops, window_open, window_close, submitted, done);
        }
        out
    });
    let mut total = LoopResult {
        ops: Series::new(measure.as_secs_f64()),
        ..LoopResult::default()
    };
    for r in per_client {
        total.merge(r);
    }
    (total, stats)
}

/// An open loop: one generator thread submits point reads at
/// `rate_per_s` on a fixed schedule, one collector waits for them in
/// order. Latency runs from each read's due time, so a stall also
/// charges the reads queued behind it.
#[allow(clippy::too_many_arguments)]
pub fn open_loop<S: ServeSource + ?Sized>(
    server: &BatchServer<'_, S>,
    table: &str,
    column: &str,
    probe: &Probe<'_>,
    seed: u64,
    rate_per_s: f64,
    warmup: Duration,
    measure: Duration,
) -> (LoopResult, ServeStats) {
    type Ticket = (Instant, Pending, Vec<u32>);
    let (tx, rx) = mpsc::channel::<Ticket>();
    let tx = Mutex::new(Some(tx));
    let rx = Mutex::new(Some(rx));
    let start = Instant::now();
    let (window_open, window_close) = (start + warmup, start + warmup + measure);
    let interval = Duration::from_secs_f64(1.0 / rate_per_s);
    let (per_client, stats) = server.serve_concurrent(2, |i, client: &Client<'_>| {
        let mut out = LoopResult::default();
        if i == 0 {
            let tx = tx
                .lock()
                .expect("no thread panicked")
                .take()
                .expect("one generator");
            let mut rng = Rng::new(seed, 200);
            let mut due = start;
            while due < window_close {
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                    continue;
                }
                // Submit everything already due, each with its own due time.
                while due <= now && due < window_close {
                    let (value, expected) = probe(&mut rng);
                    let pending = client.submit(Request::point(table, column, value));
                    if due >= window_open {
                        out.lag_ms
                            .push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
                    }
                    tx.send((due, pending, expected)).expect("collector alive");
                    due += interval;
                }
            }
        } else {
            let rx = rx
                .lock()
                .expect("no thread panicked")
                .take()
                .expect("one collector");
            for (due, pending, expected) in rx {
                let ok = check(pending.wait(), &expected);
                let done = Instant::now();
                out.tally.record(ok);
                sample(&mut out.ops, window_open, window_close, due, done);
            }
        }
        out
    });
    let mut total = LoopResult {
        ops: Series::new(measure.as_secs_f64()),
        ..LoopResult::default()
    };
    for r in per_client {
        total.merge(r);
    }
    (total, stats)
}
