//! Sample statistics, process memory, and the result line.

use std::collections::BTreeMap;
use std::time::Instant;

/// Nearest-rank percentile of `samples` (`p` in `0..=100`); sorts in
/// place. `NaN` on no samples, so an empty series can never pass as a
/// measurement.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Median wall time of `reps` runs of `f`, in seconds; returns the last
/// run's value alongside.
pub fn median_secs<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let value = f();
        times.push(t.elapsed().as_secs_f64());
        last = Some(value);
    }
    (median(&mut times), last.expect("at least one rep"))
}

/// One completed operation: when it completed, in seconds after the
/// measured window opened, and how long it took.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub at_s: f64,
    pub latency_us: f64,
}

/// Most parts a measured window is cut into for [`Series`].
pub const SUB_WINDOWS: usize = 20;

/// The operations completed in a measured window, summarised per part
/// of the window (up to [`SUB_WINDOWS`] equal parts): a rate is the
/// upper decile of the parts' rates, and a latency percentile the lower
/// decile of the parts' percentiles. A shared host slows a whole CPU by
/// a fifth or more for seconds at a time; such a slowdown only ever
/// makes a part worse, so the better decile of the parts follows the
/// program's own speed, while a slowdown of the program slows every
/// part and moves the result in full.
#[derive(Debug, Default, Clone)]
pub struct Series {
    pub samples: Vec<Sample>,
    pub window_s: f64,
}

impl Series {
    pub fn new(window_s: f64) -> Self {
        Self {
            samples: Vec::new(),
            window_s,
        }
    }

    /// The samples of each of `n` equal parts, in completion order.
    fn parts(&self, n: usize) -> Vec<Vec<Sample>> {
        let mut parts = vec![Vec::new(); n];
        for s in &self.samples {
            let i = (s.at_s / self.window_s * n as f64) as usize;
            parts[i.min(n - 1)].push(*s);
        }
        for part in &mut parts {
            part.sort_by(|a, b| a.at_s.total_cmp(&b.at_s));
        }
        parts
    }

    /// Completions per second, each part's rate taken between its first
    /// and last completion.
    pub fn rate(&self) -> f64 {
        let mut rates: Vec<f64> = self
            .parts(SUB_WINDOWS)
            .iter()
            .filter(|p| p.len() >= 2)
            .map(|p| (p.len() - 1) as f64 / (p[p.len() - 1].at_s - p[0].at_s))
            .collect();
        percentile(&mut rates, 90.0)
    }

    /// The `p`-th latency percentile, in microseconds. The window is cut
    /// into as many parts as leave each with about ten samples beyond
    /// the percentile; with fewer than four such parts, the percentile
    /// of the whole window.
    pub fn percentile_us(&self, p: f64) -> f64 {
        let latencies =
            |part: &[Sample]| -> Vec<f64> { part.iter().map(|s| s.latency_us).collect() };
        let beyond = self.samples.len() as f64 * (1.0 - p / 100.0);
        let n = ((beyond / 10.0) as usize).min(SUB_WINDOWS);
        if n < 4 {
            return percentile(&mut latencies(&self.samples), p);
        }
        let mut per_part: Vec<f64> = self
            .parts(n)
            .iter()
            .filter(|part| !part.is_empty())
            .map(|part| percentile(&mut latencies(part), p))
            .collect();
        percentile(&mut per_part, 10.0)
    }

    pub fn extend(&mut self, other: Series) {
        self.samples.extend(other.samples);
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Checked operations: every timed answer is compared with the
/// generator's expectation; a typed error or a wrong answer both count
/// as failed.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Named metrics with units, printed as the benchmark's result line.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self, tally: Tally) -> String {
        let metrics: Vec<String> = self
            .0
            .iter()
            .map(|(name, (value, unit))| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            tally.failed == 0 && tally.attempted > 0,
            tally.attempted,
            tally.failed,
            metrics.join(", ")
        )
    }
}

/// A finite value as a JSON number with all its digits; a non-finite
/// one (a metric that could not be measured) as `null`, which no reader
/// mistakes for a measurement.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), 50.0);
        assert_eq!(percentile(&mut v, 99.0), 99.0);
        assert_eq!(percentile(&mut v, 100.0), 100.0);
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        assert!(percentile(&mut [], 50.0).is_nan());
    }

    /// `parts` parts of 100 completions each, one every `gap_us`, every
    /// latency `gap_us`; the parts in `slow` take twice as long.
    fn series(parts: usize, gap_us: f64, slow: &[usize]) -> Series {
        let mut series = Series::new(0.0);
        let mut at_us = 0.0;
        for part in 0..parts {
            let gap = if slow.contains(&part) {
                2.0 * gap_us
            } else {
                gap_us
            };
            for _ in 0..100 {
                at_us += gap;
                series.samples.push(Sample {
                    at_s: at_us / 1e6,
                    latency_us: gap,
                });
            }
        }
        series.window_s = at_us / 1e6 + 1e-9;
        series
    }

    #[test]
    fn series_follows_the_program_not_a_slow_stretch() {
        let steady = series(20, 10.0, &[]);
        let stalled = series(20, 10.0, &[3, 4, 5, 6, 7, 8, 9, 10, 11, 12]);
        let slower = series(20, 20.0, &[]);
        assert_eq!(steady.percentile_us(50.0), 10.0);
        assert_eq!(stalled.percentile_us(50.0), 10.0);
        assert_eq!(slower.percentile_us(50.0), 20.0);
        assert!((steady.rate() - 1e5).abs() < 1.0);
        assert!((stalled.rate() - 1e5).abs() < 1.0);
        assert!((slower.rate() - 5e4).abs() < 1.0);
    }

    #[test]
    fn result_line_shape() {
        let mut m = Metrics::default();
        m.set("setup_s", 1.5, "s");
        let line = m.result_json(Tally {
            attempted: 3,
            failed: 0,
        });
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }
}
